"""Drive the ell-adic iteration and cross-check it against brute force.

Starting from L_0 = 1, alternate the two operator flavours (with the
auxiliary quotient A on even steps, without on odd ones), reduce every
coefficient mod ell**B, and record after each step the largest power of ell
dividing all coefficients.  A conjectured congruence family translates into
a required minimum for those valuations; the report carries the whole
valuation sequence either way.

Each input of a run has one source: the spec gives B, the pattern and so
the run's length, the image table the images, their basis and their disk
cache.  A table built for another family than the spec's is refused.

The direct oracle expands the generating function far enough to test the
claimed divisibilities coefficient by coefficient, which is exactly the
computation the iteration exists to avoid, and therefore exactly the right
independent check at small scale.  It expands G(q) in Z/ell**e rather than
over Z (every Euler product is monic, so the Newton inversions run in the
quotient ring), and it uses only Euler products and ring arithmetic, nothing
of the basis machinery.  Every brute-force check reads its coefficients from
one progression (``FamilyGenerator.progression``), one expansion of G that
ends at the last coefficient the check reads; the oracle answers with its
witness, the least failing n, or None.
"""

from __future__ import annotations

import time
from math import gcd

from .basis import ModuleElement, module_element_series
from .errors import ContractError, SpecError
from .series import CoeffRing, Frozen, QSeries, ZZ, _whole, zmod
from .ujump import J_CEILING, FamilyGenerator, UImageTable, build_A, u_step

# pattern -> s: a full power of ell arrives every s steps, v_{s*a} >= a
PATTERN_STEPS = {"even-alpha": 2, "every-alpha": 1}


class CongruenceFamilySpec(Frozen):
    """A congruence family to check: the generating data, the cap exponent B,
    the progression constant c (the residues are the inverses of c mod
    ell**alpha), and which valuation pattern is claimed:

    * "even-alpha":  v_{2a} >= a   (full powers arrive every other step)
    * "every-alpha": v_a   >= a
    """

    __slots__ = ("name", "gen", "c", "pattern", "B")

    def __init__(self, name: str, gen: FamilyGenerator, c: int, pattern: str, B: int = 5):
        if not isinstance(name, str):
            raise SpecError(f"family name {name!r} is not a string")
        if pattern not in PATTERN_STEPS:
            raise SpecError(f"unknown pattern kind {pattern!r}")
        if _whole(B, "B") < 1:
            raise SpecError("B must be >= 1")
        if gcd(_whole(c, "c"), gen.ell) != 1:
            raise SpecError("the progression constant must be coprime to ell")
        self._set(name=name, gen=gen, c=c, pattern=pattern, B=B)

    def with_B(self, B: int) -> "CongruenceFamilySpec":
        """The same family at cap exponent B, validated like any spec."""
        return CongruenceFamilySpec(self.name, self.gen, self.c, self.pattern, B)

    @property
    def default_iterations(self) -> int:
        return PATTERN_STEPS[self.pattern] * self.B

    def required_valuation(self, alpha: int):
        """Minimum v_alpha the pattern demands, or None if unconstrained."""
        s = PATTERN_STEPS[self.pattern]
        return None if alpha % s else alpha // s

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "M": self.gen.M,
            "r": {str(d): e for d, e in self.gen.r},
            "ell": self.gen.ell,
            "c": self.c,
            "pattern": self.pattern,
            "B": self.B,
        }

    @classmethod
    def from_json(cls, data: dict) -> "CongruenceFamilySpec":
        """The spec a ``to_json`` dict describes; a field ``to_json`` does
        not write is refused.  Every number must be a JSON integer: 2.5,
        true or "4" is refused by the checks of ``FamilyGenerator`` and of
        the spec, never truncated.  The divisor keys of "r", strings in
        JSON, must be written as ``to_json`` writes them ("2", not "02",
        " 2", "+2" or "2.0"); a key that is not a string is checked as a
        number."""
        try:
            r = [(_divisor_key(d), e) for d, e in data["r"].items()]
            gen = FamilyGenerator(data["M"], r, data["ell"])
            spec = cls(data.get("name", "custom"), gen, data["c"],
                       data["pattern"], data.get("B", 5))
            unknown = sorted(set(data) - spec.to_json().keys())
            if unknown:  # a typo such as "b" never runs at the default B
                raise SpecError(f"unknown fields {unknown}")
            return spec
        except KeyError as exc:
            raise SpecError(f"family spec is missing field {exc}") from exc
        except (SpecError, ValueError, TypeError, AttributeError) as exc:
            raise SpecError(f"malformed family spec: {exc}") from exc


def _divisor_key(d):
    if isinstance(d, str) and d != str(int(d)):
        raise SpecError(f"divisor key {d!r} is not a plain decimal integer")
    return int(d) if isinstance(d, str) else d


def rogers_ramanujan(B: int = 5) -> CongruenceFamilySpec:
    """Rogers-Ramanujan subpartition counts: a(n) == 0 mod 5**a whenever
    24n == 1 mod 5**(2a); full powers arrive on even steps only."""
    return CongruenceFamilySpec(
        "rogers-ramanujan", FamilyGenerator(4, {1: -3, 2: 5, 4: -2}, 5), 24,
        "even-alpha", B)


def andrews_sellers(B: int = 5) -> CongruenceFamilySpec:
    """2-colored Frobenius partitions: cphi2(n) == 0 mod 5**a whenever
    12n == 1 mod 5**a; every step gains a full power."""
    return CongruenceFamilySpec(
        "andrews-sellers", FamilyGenerator(4, {1: -4, 2: 5, 4: -2}, 5), 12,
        "every-alpha", B)


_BUILTINS = {"rogers-ramanujan": rogers_ramanujan, "andrews-sellers": andrews_sellers}


def builtin_spec(name: str) -> CongruenceFamilySpec:
    """The named built-in family; ``spec.with_B(B)`` sets B."""
    if name not in _BUILTINS:
        raise SpecError(f"unknown built-in family {name!r}; "
                        f"choices: {', '.join(sorted(_BUILTINS))}")
    return _BUILTINS[name]()


class VerificationReport:
    """A run's valuation sequence, one entry per step alpha in each list."""

    def __init__(self, spec_name: str, ell: int, B: int, iterations: int):
        self.spec_name = spec_name
        self.ell = ell
        self.B = B
        self.iterations = iterations
        # support holds {terms, j_min, j_max}
        self.V, self.saturated, self.required = [], [], []
        self.passed, self.support, self.seconds = [], [], []

    @property
    def ok(self) -> bool:
        return all(p for p in self.passed if p is not None)

    def to_json(self) -> dict:
        return {
            "family": self.spec_name,
            "ell": self.ell,
            "B": self.B,
            "iterations": self.iterations,
            "V": list(self.V),
            "saturated": list(self.saturated),
            "required": list(self.required),
            "passed": list(self.passed),
            "support": list(self.support),
            "ok": self.ok,
            "seconds": [round(s, 3) for s in self.seconds],
        }

    def text(self) -> str:
        lines = [f"family {self.spec_name}: ell={self.ell} B={self.B} "
                 f"iterations={self.iterations}"]
        for alpha, v in enumerate(self.V):
            req = self.required[alpha]
            verdict = ("  " if req is None
                       else ("ok" if self.passed[alpha] else "FAIL"))
            sat = " (saturated)" if self.saturated[alpha] else ""
            need = "" if req is None else f" need>={req}"
            lines.append(f"  alpha={alpha:2d}  v={v}{sat}{need}  {verdict}")
        lines.append("VERIFIED" if self.ok else "CONJECTURE FAILS")
        return "\n".join(lines)


def iterate(spec: CongruenceFamilySpec, table: UImageTable) -> VerificationReport:
    """Run the steps the spec's pattern needs to reach spec.B, and no more (a
    step mod ell**B shows at most valuation B), and collect valuations.

    Even steps apply U_ell(A * -), odd steps plain U_ell; coefficients live in
    Z/ell**spec.B throughout.  Images come from the (possibly disk-backed)
    table; a j-support escape beyond +-J_CEILING aborts loudly rather than
    truncate.
    """
    ell = spec.gen.ell
    report = VerificationReport(spec.name, ell, spec.B, spec.default_iterations)
    t0 = time.monotonic()
    for alpha, me in enumerate(_iterates(spec, table, spec.default_iterations)):
        js = [j for j, _ in me.terms] or [0]
        j_lo, j_hi = min(js), max(js)
        if j_lo < -J_CEILING or j_hi > J_CEILING:
            raise ContractError(
                f"t-support [{j_lo}, {j_hi}] escaped the +-{J_CEILING} ceiling "
                f"at step {alpha}; the basis is not taming this family")
        g, v = gcd(*me.terms.values()), 0  # gcd() is 0: the zero element gets B
        while v < spec.B and g % ell == 0:
            g, v = g // ell, v + 1
        req = spec.required_valuation(alpha)
        report.V.append(v)
        report.saturated.append(me.is_zero())
        report.required.append(req)
        report.passed.append(None if req is None else v >= req)
        report.support.append({"terms": len(me.terms), "j_min": j_lo, "j_max": j_hi})
        now = time.monotonic()
        report.seconds.append(now - t0)
        t0 = now
    return report


def _iterates(spec: CongruenceFamilySpec, table: UImageTable, iterations: int):
    """L_0 = 1, then L_1 .. L_iterations over the ring Z/ell**B: even steps
    apply U_ell(A * -), odd steps plain U_ell."""
    if (table.A, table.ell) != (build_A(spec.gen), spec.gen.ell):
        raise SpecError(f"the image table was built for another family than {spec.name}")
    current = ModuleElement(zmod(spec.gen.ell, spec.B), {(0, 0): 1})
    yield current
    for alpha in range(iterations):
        current = u_step(table, current, with_A=alpha % 2 == 0)
        yield current


def residue_for_case(c: int, ell: int, alpha: int) -> int:
    """The unique residue lam in [0, ell**alpha) with c*lam == 1."""
    modulus = ell ** alpha
    if gcd(c, modulus) != 1:
        raise SpecError(f"{c} is not invertible mod {ell}^{alpha}")
    return pow(c, -1, modulus)


def direct_oracle(gen: FamilyGenerator, m: int, j: int, ell: int, e: int,
                  n_max: int) -> int | None:
    """Test ell**e | a(m*n + j) for 0 <= n <= n_max on one progression of
    G(q) expanded in Z/ell**e, and answer with the witness: the least n that
    fails, or None when every n passes.  Raises SpecError unless m >= 1,
    j >= 0, e >= 1 and n_max >= 0."""
    if m < 1 or j < 0 or e < 1 or n_max < 0:
        raise SpecError(f"direct check needs m >= 1, j >= 0, e >= 1 and n_max >= 0, "
                        f"got m={m} j={j} e={e} n_max={n_max}")
    values = gen.progression(m, j, n_max + 1, zmod(ell, e))
    return next((n for n, a in enumerate(values) if a), None)


# -- translating module elements back into combinatorial claims --------------

def scaled_congruence_series(spec: CongruenceFamilySpec, alpha: int, count: int,
                             ring: CoeffRing = ZZ) -> QSeries:
    """The step-alpha function as an honest q-series in ``ring``: the
    progression slice sum of a(ell**alpha n + lam) q**n times the
    bookkeeping prefactor (q / G(q**ell) on odd steps, q / G(q) on even
    steps).  One expansion of G serves both: the slice reads it to its last
    coefficient, and the prefactor its first ``count``, by which the slice
    is divided in one division step (``QSeries.div``)."""
    gen = spec.gen
    if alpha == 0:
        return QSeries.one(ring, count)
    mod = gen.ell ** alpha
    lam = residue_for_case(spec.c, gen.ell, alpha)
    a = gen.progression(1, 0, mod * (count - 1) + lam + 1, ring)
    g = QSeries(ring, a[:count], 0, count)
    if alpha % 2:
        g = g.substitute_power(gen.ell)
    return QSeries(ring, a[lam::mod], 0, count).div(g).shift(1).truncate(count)


def consistency_check(spec: CongruenceFamilySpec, table: UImageTable, alpha: int,
                      count: int) -> bool:
    """Does the basis-side iterate match the direct construction mod ell**B
    on the first `count` coefficients?"""
    *_, current = _iterates(spec, table, alpha)
    ring = zmod(spec.gen.ell, spec.B)
    basis_side = module_element_series(current, table.basis, count)
    return basis_side.agrees_with(scaled_congruence_series(spec, alpha, count, ring))
