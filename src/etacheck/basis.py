"""Algebra bases for modular functions with a single pole at infinity.

A basis consists of a generator t of pole order v+1 at infinity and functions
g_1..g_v (with g_0 = 1) whose pole orders are strictly increasing and cover
the nonzero residue classes mod v+1.  Any function of the module then reduces
greedily: the pole order of the running remainder picks the unique basis
element with a matching residue class, one monomial g_k * t**e kills the
leading term, and the pole order strictly drops.    A remainder of order zero
is a constant, which ends the reduction; an order that no basis element can
reach disproves membership.

Reduction arithmetic is exact integer.  Every basis function leads with
coefficient 1 (``verify_basis`` checks it), hence so does every monomial
t**e * g_k, and each greedy step divides exactly; a step that does not is a
broken basis or a non-integral input, and raises rather than let a fractional
answer poison everything built on top.

A module element keeps its coefficients in its ring: the ``ModuleElement``
constructor reduces them and drops zeros, so sums are formed over Z and
handed to it (an element enters another ring the same way, as
``ModuleElement(ring, me.terms)``), and ``module_element_series`` sums over
Z and hands the result to the ``QSeries`` constructor of the element's
ring.  Like every value type it is a ``series.Frozen``: an image a table
hands out cannot be reassigned.

The basis keeps each monomial t**e * g_k it expands at its own relative
precision, rebuilt only when asked for more, by the rule every expansion
store shares (``series.stored``).
"""

from __future__ import annotations

import functools
import hashlib
import operator

from .errors import ContractError, SearchExhaustedError, SpecError
from .eta import EtaQuotient, eta_expand
from .modcurve import eta_order_at_cusp, finite_cusps, infinity_class, newman_check
from .search import search_modular_quotients
from .series import CoeffRing, Frozen, QSeries, ZZ, stored

EXPONENT_BOUND = 16  # |w_d| bound of the search for the basis functions g_k


class BasisFunction(Frozen):
    """A named integer-linear combination of products of eta quotients,
    together with its pole order at infinity (ord_inf < 0 for true poles,
    0 only for the constant).  The construction is a tuple
    ((coefficient, (EtaQuotient, ...)), ...)."""

    __slots__ = ("name", "construction", "ord_inf")

    @classmethod
    def from_quotient(cls, name: str, eq: EtaQuotient, ord_inf: int) -> "BasisFunction":
        return cls(name, ((1, (eq,)),), ord_inf)

    def constituent_quotients(self) -> tuple:
        seen = []
        for _, factors in self.construction:
            for f in factors:
                if f not in seen:
                    seen.append(f)
        return tuple(seen)

    def series(self, trunc: int) -> QSeries:
        """Exact-integer expansion covering trunc coefficients past ord_inf.

        A product of quotients leads at the sum of their valuations, so it
        reaches q**(ord_inf + trunc) from that many coefficients; each
        constituent quotient is expanded once, to the most any term needs.
        """
        need = {}
        for _, factors in self.construction:
            lead = sum(f.sum_dr() // 24 for f in factors)
            for f in factors:
                need[f] = max(need.get(f, 1), self.ord_inf + trunc - lead)
        expansions = {f: eta_expand(f, n) for f, n in need.items()}
        out = None
        for coef, factors in self.construction:
            term = None
            for f in factors:
                term = expansions[f] if term is None else term.mul(expansions[f])
            if term is None:
                term = QSeries.one(ZZ, trunc)
            term = term.scale(coef)
            out = term if out is None else out.add(term)
        out = out.truncate(min(out.trunc, self.ord_inf + trunc))
        if out.is_zero() or out.val != self.ord_inf:
            raise ContractError(
                f"{self.name}: expansion valuation {out.val if not out.is_zero() else None} "
                f"does not match declared order {self.ord_inf}")
        return out

    def describe(self) -> str:
        parts = []
        for coef, factors in self.construction:
            body = "*".join(repr(f) for f in factors) if factors else "1"
            parts.append(f"{coef}*{body}")
        return f"{self.name} = " + " + ".join(parts)


class AlgebraBasis:
    """Generator t plus g_1..g_v; immutable once built.  The monomial store
    only grows and is shared by every reduction at this level."""

    def __init__(self, level: int, t: BasisFunction, gs: tuple):
        self.level = level
        self.t = t
        self.gs = gs
        self._monomials = {}

    @property
    def v(self) -> int:
        return len(self.gs)

    def t_quotient(self) -> EtaQuotient:
        (coef, factors), = self.t.construction
        if coef != 1 or len(factors) != 1:
            raise SpecError("the generator t must be a single eta quotient")
        return factors[0]

    def residue_index(self, rho: int) -> int:
        """Index k (1..v) of the basis function with |ord_inf| == rho mod (v+1);
        rho == 0 belongs to t itself (index 0)."""
        v1 = self.v + 1
        if rho % v1 == 0:
            return 0
        for k, g in enumerate(self.gs, start=1):
            if (-g.ord_inf) % v1 == rho % v1:
                return k
        raise ContractError(f"no basis element covers residue {rho} mod {v1}")

    def fingerprint(self) -> str:
        blob = repr((self.level, self.t.construction, self.t.ord_inf,
                     tuple((g.construction, g.ord_inf) for g in self.gs)))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    # -- the monomial store ----------------------------------------------------
    #
    # (e, k) -> t**e * g_k, each entry at its own relative precision (number
    # of coefficients past the leading term) under ``series.stored``'s rule.
    # Products and inverses preserve relative precision, so an entry asked
    # for at a larger precision than it holds is rebuilt alone from its
    # factors, each cut to that precision; every other entry stays as it is.
    # A t-power is made from two halves, so t**e asks only for the powers
    # on its halving chain, and t**-1 is the expansion of t's inverse eta
    # quotient, so t is never expanded to invert it.  Callers ask for what
    # they read: an image for the window its key needs, a reduction step
    # for the window its remainder still has.

    def monomial(self, e: int, k: int, prec: int) -> QSeries:
        """Expansion of t**e * g_k (g_0 = 1) to relative precision prec.

        A t-power is t**(e//2) * t**(e - e//2), one factor squared for even
        e; a product with a basis function is t**e * g_k; t and 1/t are the
        expansions of t's eta quotient and of its inverse.  Each factor is
        taken from the store at prec and the result is kept.
        """
        def build(n):
            if k and e:
                return self.monomial(e, 0, n).mul(self.monomial(0, k, n))
            if k:
                return self.gs[k - 1].series(n)
            if e == 0:
                return QSeries.one(ZZ, n)
            if e == 1:
                return self.t.series(n)
            if e == -1:
                return eta_expand(self.t_quotient().inverse(), n)
            half = self.monomial(e // 2, 0, n)
            return half.mul(half if e % 2 == 0 else self.monomial(e - e // 2, 0, n))

        return stored(self._monomials, (e, k), prec, build)


def verify_basis(b: AlgebraBasis) -> bool:
    """All structural conditions: t has pole order v+1 at infinity, the
    |ord_inf| are strictly increasing and fill the nonzero residues mod v+1,
    every eta-quotient constituent is modular at the level, and every
    function is monic (leads with coefficient 1 at its declared order), so
    each greedy reduction step divides exactly."""
    v1 = b.v + 1
    if -b.t.ord_inf != v1:
        return False
    orders = [-g.ord_inf for g in b.gs]
    if any(o <= 0 for o in orders):
        return False
    if sorted(orders) != orders or len(set(orders)) != len(orders):
        return False
    residues = [o % v1 for o in orders]
    if 0 in residues or len(set(residues)) != len(residues):
        return False
    for fn in (b.t, *b.gs):
        for eq in fn.constituent_quotients():
            if eq.level != b.level or not newman_check(eq)[0]:
                return False
        try:
            if fn.series(1).coeffs[0] != 1:
                return False
        except ContractError:  # the expansion does not start at ord_inf
            return False
    t_eq = b.t_quotient()
    if eta_order_at_cusp(t_eq, infinity_class(b.level)) != b.t.ord_inf:
        return False
    for x in finite_cusps(b.level):
        if eta_order_at_cusp(t_eq, x) < 0:
            return False
    return True


# -- the level-20 basis ------------------------------------------------------

_T20 = EtaQuotient(20, {1: 2, 4: 2, 10: 8, 5: -2, 20: -10})
_H20 = EtaQuotient(20, {1: -1, 4: 1, 5: 5, 20: -5})
_G20 = EtaQuotient(20, {2: -2, 4: 4, 10: 2, 20: -4})


@functools.cache
def load_basis_n20() -> AlgebraBasis:
    """The standard level-20 basis: generator of order -5 and g_1..g_4 of
    orders (-2, -3, -4, -6) built from the two auxiliary quotients g (order
    -2) and h (order -3): g_1 = g, g_2 = h - g, g_3 = g^2, g_4 = (h - g)^2."""
    t = BasisFunction.from_quotient("t", _T20, -5)
    g1 = BasisFunction.from_quotient("g1", _G20, -2)
    g2 = BasisFunction("g2", ((1, (_H20,)), (-1, (_G20,))), -3)
    g3 = BasisFunction("g3", ((1, (_G20, _G20)),), -4)
    g4 = BasisFunction("g4", ((1, (_H20, _H20)), (-2, (_H20, _G20)), (1, (_G20, _G20))), -6)
    return AlgebraBasis(20, t, (g1, g2, g3, g4))


# -- module elements ---------------------------------------------------------

class ModuleElement(Frozen):
    """Finite sum of c[j,k] * t**j * g_k with nonzero coefficients only; a
    ``Frozen`` value, unhashable because its terms are a dict."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: CoeffRing, terms: dict):
        clean = {}
        for key, c in terms.items():
            c = ring.coerce(c)
            if c != 0:
                clean[key] = c
        self._set(ring=ring, terms=clean)

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "<0>"
        bits = []
        for (j, k) in sorted(self.terms):
            c = self.terms[(j, k)]
            mono = []
            if j:
                mono.append(f"t^{j}" if j != 1 else "t")
            if k:
                mono.append(f"g{k}")
            body = "*".join(mono) if mono else "1"
            bits.append(f"{c}*{body}")
        return "<" + " + ".join(bits) + f" over {self.ring}>"


def module_element_series(me: ModuleElement, b: AlgebraBasis, trunc: int) -> QSeries:
    """Honest q-expansion of a module element, over the element's ring."""
    v1 = b.v + 1
    out = QSeries.zero(ZZ, trunc)
    for (j, k), c in sorted(me.terms.items()):
        prec = trunc + v1 * j + (-b.gs[k - 1].ord_inf if k else 0)  # trunc - val(t^j g_k)
        if prec > 0:
            out = out.add(b.monomial(j, k, prec).scale(c))
    return QSeries(me.ring, out.coeffs, out.val, out.trunc)


# -- membership reduction ----------------------------------------------------

def mw_reduce(f: QSeries, b: AlgebraBasis) -> ModuleElement:
    """Greedy principal-part reduction of an exact-integer series f against
    the basis, returning f as a module element sum c[e,k] * t**e * g_k.

    f must carry at least the principal part and constant (truncation >= 1);
    whatever tail is available beyond that is consumed as a corruption check,
    because after a successful reduction the residual must vanish identically.
    Raises ContractError when the descent stalls at a pole order no basis
    element reaches, or when a step's leading coefficient is not divisible
    by the monomial's.
    """
    if f.ring != ZZ:
        raise SpecError("reduction works over the exact integers")
    if f.trunc < 1:
        raise SpecError("insufficient truncation: need the constant term in view")
    v1 = b.v + 1
    orders = {k: -g.ord_inf for k, g in enumerate(b.gs, start=1)}
    # each step fills a distinct (e, k): the pole order m strictly drops and
    # determines both, so the step coefficient is the final coefficient
    terms = {}
    # the remainder is one list, rem[i] the coefficient of q**(lo + i), reduced
    # in place; each step's monomial leads at rem[pos] (BasisFunction.series
    # checks every declared order), so nothing below pos ever changes
    lo, rem, pos = f.val, list(f.coeffs), 0
    prev_m = None
    while True:
        while pos < len(rem) and not rem[pos]:
            pos += 1
        m = max(0, -(lo + pos)) if pos < len(rem) else 0
        if prev_m is not None and m >= prev_m:
            raise ContractError("reduction failed to descend strictly")
        prev_m = m
        if m == 0:
            terms[(0, 0)] = rem.pop(-lo) if lo <= 0 < lo + len(rem) else 0
            if any(rem):
                raise ContractError(
                    "nonzero residual after reduction: the input is not in the "
                    "module to its stated truncation (or was under-truncated)")
            return ModuleElement(ZZ, terms)
        rho = m % v1
        k = b.residue_index(rho)
        n_k = orders[k] if k else 0
        if k and n_k > m:
            raise ContractError(
                f"reduction stalled at pole order {m}: no basis element reaches it")
        e = (m - n_k) // v1
        s = b.monomial(e, k, m + f.trunc)  # leads at q**-m, known to f.trunc
        alpha, r = divmod(rem[pos], s.coeffs[0])
        if r:
            raise ContractError(
                f"non-integral reduction step at pole order {m}: {rem[pos]} "
                f"is not a multiple of the leading coefficient {s.coeffs[0]} of t^{e}*g{k}")
        rem[pos:] = map(operator.sub, rem[pos:], map(alpha.__mul__, s.coeffs))
        terms[(e, k)] = alpha


# -- basis construction from a generator -------------------------------------

def construct_basis(t_eq: EtaQuotient, N: int) -> AlgebraBasis:
    """Build a basis for the given generator from searched eta quotients.

    Searches eta quotients with a pole only at infinity for each pole order
    1, 2, ... and keeps the first hit per nonzero residue class mod v+1;
    residues still missing afterwards are attempted as products of two hits.
    """
    if t_eq.level != N:
        raise SpecError("generator level mismatch")
    if not newman_check(t_eq)[0]:
        raise SpecError("generator fails the modularity conditions")
    ord_t = eta_order_at_cusp(t_eq, infinity_class(N))
    if ord_t.denominator != 1 or ord_t >= 0:
        raise SpecError("generator must have a pole at infinity")
    finite = finite_cusps(N)
    for x in finite:
        if eta_order_at_cusp(t_eq, x) < 0:
            raise SpecError(f"generator has a pole at the finite cusp {x}")
    v1 = -int(ord_t)
    v = v1 - 1
    t = BasisFunction.from_quotient("t", t_eq, -v1)
    if v == 0:
        return AlgebraBasis(N, t, ())

    needed = set(range(1, v1))
    hits = {}  # residue -> (pole_order, construction tuple)
    for n0 in range(1, 2 * v1 + 3):
        rho = n0 % v1
        if rho not in needed or rho in hits:
            continue
        found = search_modular_quotients(N, n0, EXPONENT_BOUND, nonneg=finite)
        if found:
            hits[rho] = (n0, ((1, (found[0],)),))
        if len(hits) == len(needed):
            break
    if len(hits) < len(needed):
        # close under products of two found quotients
        pool = sorted(hits.values())
        for rho in sorted(needed - set(hits)):
            best = None
            for o1, c1 in pool:
                for o2, c2 in pool:
                    if (o1 + o2) % v1 == rho and (best is None or o1 + o2 < best[0]):
                        (_, (q1,)), = c1
                        (_, (q2,)), = c2
                        best = (o1 + o2, ((1, (q1, q2)),))
            if best is not None:
                hits[rho] = best
    if len(hits) < len(needed):
        raise SearchExhaustedError(
            f"could not cover residues {sorted(needed - set(hits))} mod {v1} "
            f"within exponent bound {EXPONENT_BOUND}")
    gs = tuple(
        BasisFunction(f"g{i}", construction, -order)
        for i, (order, construction) in enumerate(sorted(hits.values()), start=1))
    b = AlgebraBasis(N, t, gs)
    if not verify_basis(b):
        raise ContractError("constructed basis fails its own structural conditions")
    return b
