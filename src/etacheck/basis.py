"""Algebra bases for modular functions with a single pole at infinity.

A basis consists of a generator t of pole order v+1 at infinity and functions
g_1..g_v (with g_0 = 1) whose pole orders are strictly increasing and cover
the nonzero residue classes mod v+1.  Any function of the module then reduces
greedily: the pole order of the running remainder picks the unique basis
element with a matching residue class, one monomial g_k * t**e kills the
leading term, and the pole order strictly drops.    A remainder of order zero
is a constant, which ends the reduction; an order that no basis element can
reach disproves membership.  The basis owns these pole orders
(``AlgebraBasis.pole_order``).

Reduction arithmetic is exact integer, and a monic basis is its
precondition: every basis function leads with coefficient 1
(``verify_basis`` checks it), hence so does every monomial t**e * g_k, and a
greedy step subtracts the remainder's leading coefficient times its
monomial, with no division.  A step handed a monomial that does not lead
with 1 refuses the basis (ContractError) before its pass returns, so no
image is ever computed over a non-monic basis.

``mw_reduce`` reduces a batch of series of one truncation in one pass over
packed vectors: R[p] = sum of rem_i[p] * 2**(W*i) holds position p of every
remainder in a signed W-bit slot.  The first position any remainder has
nonzero names one monomial s for all of them, and as s leads with 1,
R[pos + d] -= R[pos] * s[d] subtracts alpha_i * s from every remainder,
alpha_i = rem_i[pos].  A slot is read back after adding 2**(W-1) to every
slot, which pays back the borrow a negative slot takes from the one above.
The pass is exact when max|f| + (sum over steps of max_i |alpha_i| * max|s|)
< 2**(W-1), a bound formed afterwards from the alpha_i read: by induction
over the steps, while its partial sum stays below 2**(W-1) no slot leaves
its range, so each R[pos] reads back as the true alpha_i and R[p] == 0
exactly when every slot at p is zero.  A pass whose bound fails is redone
at a width that holds it; a pass whose bound holds raises its own failure.

A module element keeps its coefficients in its ring: the ``ModuleElement``
constructor reduces them and drops zeros, so sums are formed over Z and
handed to it (an element enters another ring the same way, as
``ModuleElement(ring, me.terms)``), and ``module_element_series`` sums over
Z and hands the result to the ``QSeries`` constructor of the element's
ring.  Like every value type it is a ``series.Frozen``: an image a table
hands out cannot be reassigned.

The basis's store is the package's one store of expansions
(``eta.eta_expand`` keeps nothing).  It keeps each monomial t**e * g_k it
expands, each eta quotient the monomials are read from, and each product
A * t**e * g_k with an eta quotient A (an image table's auxiliary quotient),
each held once at its own relative precision, by the rule of ``stored``:
an entry is rebuilt only when asked for more coefficients past its leading
term than it holds, and is handed out cut to what was asked.  t, 1/t and a
g_k that is one quotient with coefficient 1 are the entries of their
quotients, as A * g_0 is A's, and every other g_k reads its quotients from
the store.
``monomial`` is the store's only writer: every reader asks it for one
entry at the precision it reads, and it makes the entry when the store
holds it shorter.  The basis owns the two rules every reader of the store
applies: which t**e * g_k has pole order m (``pole_monomial``), and the
relative precision at which t**e * g_k is known below q**trunc
(``precision_below``).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import operator

from .errors import ContractError, SearchExhaustedError, SpecError
from .eta import EtaQuotient, eta_expand
from .modcurve import finite_cusps, newman_check, order_numerator
from .search import search_modular_quotients
from .series import CoeffRing, Frozen, QSeries, ZZ

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

    def quotient(self) -> EtaQuotient | None:
        """The eta quotient this function is, when it is one with coefficient
        1, else None."""
        match self.construction:
            case ((1, (eq,)),):
                return eq
        return None

    def constituent_quotients(self) -> tuple:
        return tuple(dict.fromkeys(f for _, factors in self.construction for f in factors))

    def series(self, trunc: int, expand) -> QSeries:
        """Exact-integer expansion covering trunc coefficients past ord_inf,
        read from expand(quotient, trunc): the basis's store, or
        ``eta.eta_expand``.

        A product keeps the relative precision of its factors, so each
        constituent quotient is read once, to trunc coefficients past its
        own lead (one object, so a square is made as one); a term that leads
        below ord_inf, whose lead would have to cancel, leaves too few and
        raises SpecError instead.
        """
        expansions = {f: expand(f, trunc) for f in self.constituent_quotients()}
        out = None
        for coef, factors in self.construction:
            term = None
            for f in factors:
                term = expansions[f] if term is None else term.mul(expansions[f])
            if term is None:
                term = QSeries.one(ZZ, trunc)
            term = term.scale(coef)
            out = term if out is None else out.add(term)
        if out.is_zero() or out.val != self.ord_inf:
            raise ContractError(
                f"{self.name}: expansion valuation {out.val if not out.is_zero() else None} "
                f"does not match declared order {self.ord_inf}")
        return out.truncate(self.ord_inf + trunc)

    def describe(self) -> str:
        parts = []
        for coef, factors in self.construction:
            body = "*".join(repr(f) for f in factors) if factors else "1"
            parts.append(f"{coef}*{body}")
        return f"{self.name} = " + " + ".join(parts)


class AlgebraBasis:
    """Generator t plus g_1..g_v; immutable once built.  The monomial store
    (``monomial``) only grows and is the package's one expansion store, of
    every reduction and every image table at this level: the eta quotients
    its basis functions and a table read are entries, under their
    exponents, a table's A * g_k is kept there too, under A's exponents, and
    ``monomial`` is its only writer.  Two rules are derived only here:
    the monomial of a pole order (``pole_monomial``) and the precision at
    which a monomial is known below a truncation (``precision_below``)."""

    def __init__(self, level: int, t: BasisFunction, gs: tuple):
        self.level = level
        self.t = t
        self.gs = gs
        self._monomials = {}

    @property
    def v(self) -> int:
        return len(self.gs)

    def t_quotient(self) -> EtaQuotient:
        t = self.t.quotient()
        if t is None:
            raise SpecError("the generator t must be a single eta quotient")
        return t

    def pole_order(self, e: int, k: int) -> int:
        """(v+1)*e + n_k, the pole order of t**e * g_k at infinity."""
        return (self.v + 1) * e - (self.gs[k - 1].ord_inf if k else 0)

    def pole_monomial(self, m: int):
        """(e, k) of the monomial t**e * g_k of pole order m, or None when no
        basis element reaches m (none reaches an m < 0)."""
        k = self.residue_index(m)
        e = (m - self.pole_order(0, k)) // (self.v + 1)
        return (e, k) if e >= 0 else None

    def precision_below(self, e: int, k: int, trunc: int) -> int:
        """The relative precision at which t**e * g_k is known below q**trunc:
        trunc less its valuation."""
        return trunc + self.pole_order(e, k)

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
    # (e, k, a) -> t**e * g_k times the eta quotient of exponents a (a = ()
    # for none), each entry at its own relative precision (number of
    # coefficients past the leading term) under ``stored``'s rule.
    # An eta quotient's entry is (0, 0, its exponents), and t, t**-1 and a
    # g_k that is one quotient with coefficient 1 have no key of their own:
    # they are their quotients' entries (``_quotients``), so each
    # expansion is held once.  Products and inverses preserve relative
    # precision, so an entry asked for at a larger precision than it holds
    # is rebuilt alone from its factors, each cut to that precision; every
    # other entry stays as it is.  A t-power is made from two halves, so
    # t**e asks only for the powers on its halving chain, and t**-1 is the
    # expansion of t's inverse eta quotient, so t is never expanded to
    # invert it.  Callers ask for what they read: an image for the window
    # its key needs, a reduction step for the window its remainder still
    # has.

    def monomial(self, e: int, k: int, prec: int, A: EtaQuotient | None = None) -> QSeries:
        """Expansion of t**e * g_k (g_0 = 1), times A when given, to relative
        precision prec.

        A product with A is A's entry times t**e * g_k, and A alone is its
        expansion; a t-power is t**(e//2) * t**(e - e//2), one factor
        squared for even e; a product with a basis function is t**e * g_k; a
        basis function reads its quotients' entries; t, 1/t and a g_k that
        is one quotient with coefficient 1 are the entries of t's eta
        quotient, of its inverse and of that quotient.  Each factor is taken
        from the store at prec and the result is kept.
        """
        a = A.exponents if A is not None else ()
        if not a and (e, k) in self._quotients:
            return self.monomial(0, 0, prec, self._quotients[e, k])

        def build(n):
            if a and (e or k):
                return self.monomial(0, 0, n, A).mul(self.monomial(e, k, n))
            if a:
                return eta_expand(A, n)
            if k and e:
                return self.monomial(e, 0, n).mul(self.monomial(0, k, n))
            if k:
                return self.gs[k - 1].series(n, lambda eq, m: self.monomial(0, 0, m, eq))
            if e == 0:
                return QSeries.one(ZZ, n)
            half = self.monomial(e // 2, 0, n)
            return half.mul(half if e % 2 == 0 else self.monomial(e - e // 2, 0, n))

        return stored(self._monomials, (e, k, a), prec, build)

    @functools.cached_property
    def _quotients(self) -> dict:
        """(e, k) -> the eta quotient that t**e * g_k is: t, 1/t and each g_k
        that is one quotient with coefficient 1, whose entries are the
        quotients' own."""
        t = self.t_quotient()
        gs = {(0, k): g.quotient() for k, g in enumerate(self.gs, start=1)}
        return {(1, 0): t, (-1, 0): t.inverse(), **{key: q for key, q in gs.items() if q}}


def stored(store: dict, key, prec: int, build) -> QSeries:
    """store[key] to relative precision prec (coefficients past its leading
    term), the rebuild rule of the monomial store: the stored series when
    it holds that many, else build(prec), which replaces it."""
    s = store.get(key)
    if s is None or s.trunc - s.val < prec:
        s = store[key] = build(prec)
    return s.truncate(s.val + prec)


def verify_basis(b: AlgebraBasis) -> bool:
    """All structural conditions: t has pole order v+1 at infinity, the
    |ord_inf| are strictly increasing and fill the nonzero residues mod v+1,
    every eta-quotient constituent is modular at the level, every function
    is monic (leads with coefficient 1 at its declared order), as a greedy
    reduction step needs, and t has no finite pole.  t's expansion starting
    at its declared order shows t's order at infinity."""
    v1 = b.v + 1
    if -b.t.ord_inf != v1:
        return False
    orders = [-g.ord_inf for g in b.gs]
    if any(o <= 0 for o in orders):
        return False
    if sorted(orders) != orders:
        return False
    residues = [o % v1 for o in orders]
    if 0 in residues or len(set(residues)) != len(residues):
        return False
    for fn in (b.t, *b.gs):
        for eq in fn.constituent_quotients():
            if eq.level != b.level or not newman_check(eq)[0]:
                return False
        try:
            if fn.series(1, eta_expand).coeffs[0] != 1:
                return False
        except ContractError:  # the expansion does not start at ord_inf
            return False
    t_eq = b.t_quotient()
    return all(order_numerator(t_eq, x) >= 0 for x in finite_cusps(b.level))


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
    out = QSeries.zero(ZZ, trunc)
    for (j, k), c in sorted(me.terms.items()):
        prec = b.precision_below(j, k, trunc)
        if prec > 0:
            out = out.add(b.monomial(j, k, prec).scale(c))
    return QSeries(me.ring, out.coeffs, out.val, out.trunc)


# -- membership reduction ----------------------------------------------------

def _step_monomial(b: AlgebraBasis, m: int, trunc: int):
    """(e, k, t**e * g_k known below q**trunc) for pole order m, or None when
    no basis element reaches m.  Raises ContractError when t**e * g_k does
    not lead with 1: a greedy step needs a monic basis."""
    step = b.pole_monomial(m)
    if step is None:
        return None
    e, k = step
    s = b.monomial(e, k, b.precision_below(e, k, trunc))
    if s.coeffs[0] != 1:
        raise ContractError(f"t^{e}*g{k} leads with {s.coeffs[0]}, not 1: the basis is not monic")
    return e, k, s


def _max_abs(values) -> int:
    return max(max(values), -min(values)) if values else 0


def _first_width(top: int, deepest: int, steps: int) -> int:
    """A first slot width from max|f|, max|s| of the deepest monomial and the
    step count.  Every batch of the cold runs through B = 14 had its bound
    within 0.44 * bits(max|s|) bits of max|f|."""
    return top.bit_length() + deepest.bit_length() // 2 + steps.bit_length() + 8


def _slot_reader(width: int, n: int):
    """read(x): the n signed width-bit slots of x, lowest first."""
    half, mask = 1 << width - 1, (1 << width) - 1
    bias = half * ((1 << width * n) - 1) // mask  # half in every slot
    shifts = range(0, width * n, width)

    def read(x):
        x += bias
        return [(x >> shift & mask) - half for shift in shifts]

    return read


def _greedy_pass(fs: list, b: AlgebraBasis, top: int, width: int):
    """One pass over the remainders of fs packed at slot width ``width``:
    (bound, the module elements), or (bound, None) when the bound fails and
    the pass was too narrow.  Once the bound holds, a stalled descent or a
    nonzero residual raises ContractError naming its series."""
    n, trunc, lo = len(fs), fs[0].trunc, min(f.val for f in fs)
    read = _slot_reader(width, n)
    rem = [0] * (trunc - lo)  # rem[p] packs the coefficients of q**(lo + p)
    for i, f in enumerate(fs):
        off = f.val - lo
        rem[off:] = map(operator.add, rem[off:],
                        map(operator.lshift, f.coeffs, itertools.repeat(width * i)))
    # pos runs once over the pole orders m = -(lo + pos) > 0, highest first;
    # as s leads with 1, a step leaves rem[pos] == 0, and m determines
    # (e, k), so each step fills a distinct (e, k) and its alpha is final
    steps, failure = [], None
    for pos in range(-lo):
        alpha, m = rem[pos], -(lo + pos)
        if not alpha:
            continue
        step = _step_monomial(b, m, trunc)
        if step is None:
            failure = (read(alpha), f"reduction stalled at pole order {m}: "
                                    "no basis element reaches it")
            break
        e, k, s = step
        rem[pos:] = map(operator.sub, rem[pos:], map(alpha.__mul__, s.coeffs))
        steps.append(((e, k), alpha, _max_abs(s.coeffs)))
    alphas = [read(alpha) for _, alpha, _ in steps]
    bound = top + sum(_max_abs(a) * s_top for a, (_, _, s_top) in zip(alphas, steps))
    if bound >= 1 << width - 1:
        return bound, None
    if failure is None:
        const = [0] * n
        if lo <= 0:
            const, rem[-lo] = read(rem[-lo]), 0
        bad = next((p for p in range(len(rem)) if rem[p]), None)
        if bad is None:
            keys = [key for key, _, _ in steps] + [(0, 0)]
            return bound, [ModuleElement(ZZ, dict(zip(keys, column)))
                           for column in zip(*alphas, const)]
        failure = (read(rem[bad]), "nonzero residual after reduction: the input is not in "
                                   "the module to its stated truncation (or was under-truncated)")
    slots, what = failure  # named: the first series the failure shows in
    i = next(i for i, x in enumerate(slots) if x)
    exc = ContractError(f"series {i}: {what}")
    exc.series = i  # UImageTable names the image key of the series
    raise exc


def mw_reduce(fs, b: AlgebraBasis) -> list:
    """Greedy principal-part reduction of exact-integer series against the
    basis: each f of fs as a module element sum c[e,k] * t**e * g_k, in order.

    All of fs end at one truncation >= 1, so the constant is in view and no
    shared window drops check coefficients of a longer series; the tail past
    the constant is consumed as a corruption check, since the residual of a
    successful reduction vanishes identically.  Raises ContractError naming
    the series when the descent stalls at a pole order no basis element
    reaches or when the residual is not zero; the first pass whose bound
    holds raises it.  The basis must be monic: a step whose monomial
    t**e * g_k does not lead with 1 raises ContractError naming that
    monomial, before any pass returns.

    The batch is reduced in one pass over packed vectors, one multiply per
    coefficient of each step's monomial s for all series; the pass is exact
    when max|f| + (sum over steps of max_i |alpha_i| * max|s|) < 2**(W-1),
    and is redone wider when not (see the module docstring).  A batch of
    one is the same pass on plain integers.
    """
    fs = list(fs)
    for f in fs:
        if f.ring != ZZ:
            raise SpecError("reduction works over the exact integers")
        if f.trunc < 1:
            raise SpecError("insufficient truncation: need the constant term in view")
    if len({f.trunc for f in fs}) > 1:
        raise SpecError("a reduction batch must share one truncation")
    if not fs:
        return []
    top, lo = max(_max_abs(f.coeffs) for f in fs), min(f.val for f in fs)
    deepest = _step_monomial(b, -lo, fs[0].trunc)
    width = _first_width(top, _max_abs(deepest[2].coeffs) if deepest else 1, max(0, -lo))
    while True:
        bound, outcome = _greedy_pass(fs, b, top, width)
        if outcome is not None:
            return outcome
        width = bound.bit_length() + 1


# -- basis construction from a generator -------------------------------------

def construct_basis(t_eq: EtaQuotient) -> AlgebraBasis:
    """Build a basis for the generator, at its level, from searched eta
    quotients.

    Searches eta quotients with a pole only at infinity for each pole order
    1, 2, ... and keeps the first hit per nonzero residue class mod v+1;
    residues still missing afterwards are attempted as products of two hits.
    """
    if not newman_check(t_eq)[0]:
        raise SpecError("generator fails the modularity conditions")
    N, v1 = t_eq.level, -t_eq.q_shift()
    if v1 <= 0:
        raise SpecError("generator must have a pole at infinity")
    finite = finite_cusps(N)
    for x in finite:
        if order_numerator(t_eq, x) < 0:
            raise SpecError(f"generator has a pole at the finite cusp {x}")
    t = BasisFunction.from_quotient("t", t_eq, -v1)
    needed = set(range(1, v1))
    hits = {}  # residue -> (pole_order, construction tuple)
    for n0 in range(1, 2 * v1 + 3):
        rho = n0 % v1
        if rho not in needed or rho in hits:
            continue
        found = search_modular_quotients(N, n0, EXPONENT_BOUND, nonneg=finite)
        if found:
            hits[rho] = (n0, ((1, (found[0],)),))
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
