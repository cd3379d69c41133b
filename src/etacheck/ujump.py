"""The U_ell operator, stability exponents, and the cached image table.

U_ell keeps the coefficients whose exponent is divisible by ell and divides
the exponents by ell.  Applied to A**i * t**j * g_k it can leave the
single-pole module, but multiplying by t**m first, with m(i,j,k) the least
m >= 0 with m * ord(t(ell*tau)) + ord(A**i * t**j * term) >= 0 at every
cusp of the finer level except infinity, for each construction term of g_k,
pushes the image back inside, where the greedy reduction expresses it over
the basis with exact integer coefficients.  Shifting the result by t**(-m)
gives the image as a Laurent module element, the fundamental table every
verification run is linear algebra over.  That element is unique, so m
decides only how far the expansions an image is computed from must reach:
ell*(v+1) coefficients per unit of m.

Images are memoized in memory and optionally on disk, keyed by a
fingerprint of the basis, the auxiliary quotient A and ell.  A table
computes its stability exponents' order vectors (``UImageTable.se``) when
it computes its first image, so a run that finds every image it needs on
disk never computes them: those images were stored under the same
fingerprint by a run that did.

Computing an image needs expansions of basis monomials t**e * g_k and of
A * g_k.  All of them live in the package's one store of expansions, the
basis's (``AlgebraBasis.monomial``; A and A * g_k under keys that hold A's
exponents), each held once at its own relative precision by the rebuild
rule of ``basis.stored``.  An image is U_ell(t**j * y), with
y = g_k for i = 0 and y = A * g_k for i = 1, taken as one ell-dissected
product (``u_ell`` with ``times``, which is ``QSeries.mul(times, ell)``):
only the coefficients at multiples of ell are computed, and neither
t**j * g_k nor its product with A is formed; U_ell(t**j), where y = 1, is
a slice of t**j.  t**j and y are read at the least precision the key
needs (``UImageTable._precision``, from the valuation of t**j * y and m),
and t**m only as far as its product with U_ell of that must reach, by the
basis's window rule: about a factor ell less.  The reduction steps down
from the tamed product's lowest exponent and asks for each of its
monomials only as far as its remainder reaches; which monomial a pole
order takes and that window are the basis's two rules
(``AlgebraBasis.pole_monomial`` and ``precision_below``).
``u_step`` asks the table for a step's images as one batch, since the keys
a step needs are exactly the terms of the element it is applied to.  The
keys the table cannot load are sorted deepest first and computed in the
calling process (``_part``): the batch's tamed products, reduced by one
``mw_reduce`` call, each shifted by t**(-m) (``_compute``).  Every
expansion is made on demand, through ``AlgebraBasis.monomial``, as a
product or a reduction step reads it.  Deepest first, the products ask
for each store entry at its largest precision first, so they build no
entry twice, and neither does the reduction; a t-power that the
reduction reads longer than the products did is built once by each.

The table alone stores and memoizes the images, and each is the unique
Laurent element, whatever else its batch holds.  The step adds the scaled
images over Z; ``ModuleElement`` reduces the sum into the ring.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from functools import cached_property
from pathlib import Path

from .basis import AlgebraBasis, ModuleElement, mw_reduce
from .errors import ContractError, SpecError
from .eta import EtaQuotient, euler_quotient
from .modcurve import finite_cusps, order_numerator
from .series import CoeffRing, Frozen, QSeries, ZZ, _is_prime, _whole

J_CEILING = 64  # the largest |j| of an image, and of a run's t-support


class FamilyGenerator(Frozen):
    """The data defining one congruence family's generating function:
    G(q) = prod over divisors d of M of (q**d; q**d)_inf ** r_d, studied
    ell-adically for a prime ell > 3.

    The standing smallness assumption 0 <= -sum(d*r_d) <= 24/(ell+1) keeps
    the auxiliary quotient A holomorphic at infinity.  A float M, ell,
    divisor or exponent is refused.
    """

    __slots__ = ("M", "r", "ell")

    def __init__(self, M: int, r, ell: int):
        M = _whole(M, "M")
        ell = _whole(ell, "ell")
        if M < 1:
            raise SpecError("M must be a positive integer")
        if not _is_prime(ell) or ell <= 3:
            raise SpecError(f"ell must be a prime greater than 3, got {ell}")
        packed = EtaQuotient(M, r).exponents
        wsum = sum(d * e for d, e in packed)
        if not (0 <= -wsum * (ell + 1) <= 24):
            raise SpecError(
                f"sum d*r_d = {wsum} violates 0 <= {-wsum} <= 24/(ell+1)")
        self._set(M=M, r=packed, ell=ell)

    def series(self, trunc: int, ring: CoeffRing = ZZ) -> QSeries:
        """The generating function G(q) with coefficients in ``ring``."""
        return euler_quotient(self.r, trunc, ring)

    def progression(self, m: int, j: int, count: int, ring: CoeffRing = ZZ) -> list:
        """a(m*n + j) for 0 <= n < count, the coefficients of G(q) in ``ring``
        along one progression, read from one expansion that ends at the last
        of them.  G has leading term 1, so its coefficient tuple starts at
        a(0) and holds every a(n) below the truncation."""
        return list(self.series(m * (count - 1) + j + 1, ring).coeffs[j::m])


def build_A(gen: FamilyGenerator) -> EtaQuotient:
    """The auxiliary quotient A = q**shift * G(q)/G(q**ell^2) at level ell^2*M.

    In eta terms the exponent r_d moves to d and -r_d to ell^2*d; the
    q-power shift (1-ell^2)*sum(d*r_d)/24 is exactly the eta prefactor of A.
    A is modular, its shift an integer, for every prime ell >= 5: ell^2 == 1
    mod 24 zeroes its sums mod 24, and its prod d**r_d is ell**(-2*sum r_d), a square.
    """
    ell2 = gen.ell ** 2
    return EtaQuotient(ell2 * gen.M, [*gen.r, *((ell2 * d, -e) for d, e in gen.r)])


def u_ell(f: QSeries, ell: int, times: QSeries | None = None) -> QSeries:
    """Keep exponents divisible by ell and divide them by ell; with
    ``times``, of the product f * times, which is never formed:
    ``f.mul(times, ell)`` computes only its coefficients at multiples of
    ell, so the result is exactly ``u_ell(f.mul(times), ell)``.

    A coefficient of the output at e is known exactly when ell*e was in
    view, so the truncation becomes ceil(trunc/ell).
    """
    if times is not None:
        return f.mul(times, ell)
    start = f.val + (-f.val) % ell
    return QSeries(f.ring, f.coeffs[start - f.val::ell], start // ell, -(-f.trunc // ell))


def _check_index(i: int, j: int, k: int, v: int):
    """Refuse an A-power other than 0 and 1, a t-power beyond +-J_CEILING,
    or a basis index outside 0..v."""
    if i not in (0, 1):
        raise SpecError("only A-powers 0 and 1 are supported")
    if abs(j) > J_CEILING:
        raise SpecError(f"t-power {j} lies beyond the +-{J_CEILING} ceiling")
    if not 0 <= k <= v:
        raise SpecError(f"basis index {k} out of range")


class StabilityExponents(Frozen):
    """The least t-power taming each fundamental image: exponent(i, j, k) is
    the least m >= 0 with

        m*ord t(ell*tau) + i*ord A + j*ord t + ord(term) >= 0

    at every cusp of ``cusps``, the finite cusps of Gamma0(level), for every
    construction term of g_k; each unit of m costs ell*(v+1) coefficients in
    every expansion its image is computed from.  The other fields are those
    integer order vectors; ``terms[k]`` holds g_k's, and the constant g_0
    has one term of order 0."""

    __slots__ = ("level", "cusps", "ord_scaled_t", "ord_A", "ord_t", "terms", "_memo")

    def __init__(self, level, cusps, ord_scaled_t, ord_A, ord_t, terms):
        self._set(level=level, cusps=cusps, ord_scaled_t=ord_scaled_t, ord_A=ord_A,
                  ord_t=ord_t, terms=terms, _memo={})

    def exponent(self, i: int, j: int, k: int) -> int:
        m = self._memo.get((i, j, k))
        if m is None:
            _check_index(i, j, k, len(self.terms) - 1)
            base = [i * a + j * t for a, t in zip(self.ord_A, self.ord_t)]
            m = self._memo[(i, j, k)] = max(
                _least_power(self.cusps, self.ord_scaled_t, [b + o for b, o in zip(base, term)],
                             f"A^{i} t^{j} g_{k}") for term in self.terms[k])
        return m

    def taming_power(self, eq: EtaQuotient) -> int:
        """Least m >= 0 with m*ord t(ell*tau) + ord(eq) >= 0 at every cusp of
        ``cusps``, eq lifted to the level; taming_power(A) is exponent(1, 0, 0)."""
        return _least_power(self.cusps, self.ord_scaled_t,
                            _orders(eq.at_level(self.level), self.cusps), repr(eq))


def _orders(eq: EtaQuotient, cusps) -> tuple:
    """eq's orders at cusps of its level, integers as for any modular quotient."""
    scale = 24 * eq.level
    ords = [order_numerator(eq, x) for x in cusps]
    if any(o % scale for o in ords):
        raise ContractError("non-integral order for a modular quotient")
    return tuple(o // scale for o in ords)


def _least_power(cusps, ord_scaled_t, ords, what: str) -> int:
    """Least m >= 0 with m*ord_scaled_t + ords >= 0 at every one of cusps;
    what names the function of orders ords in errors."""
    m = 0
    for x, ot, of in zip(cusps, ord_scaled_t, ords):
        if of >= 0:
            continue
        if ot <= 0:
            raise ContractError(
                f"{what} has a pole at {x} where t(ell*tau) has order {ot}; "
                "no power of t can cancel it (bad generator)")
        m = max(m, -(of // ot))  # ceil(-of / ot)
    for x, ot, of in zip(cusps, ord_scaled_t, ords):
        if m * ot + of < 0:
            raise ContractError(f"{what}: no taming power works at {x}")
    return m


def compute_m_constants(b: AlgebraBasis, A: EtaQuotient, ell: int) -> StabilityExponents:
    """The order vectors of t(ell*tau), A, t and each construction term of
    each g_k at every cusp of Gamma0(ell*N) but infinity, each read at that
    level by ``EtaQuotient.at_level``.  A term's vector is the sum of its
    factors' vectors."""
    level = ell * b.level
    cusps = finite_cusps(level)
    zero = (0,) * len(cusps)
    vec = {f: _orders(f.at_level(level), cusps)
           for f in dict.fromkeys(f for g in b.gs for f in g.constituent_quotients())}
    terms = tuple(tuple(tuple(map(sum, zip(zero, *(vec[f] for f in fs)))) for _, fs in g.construction)
                  for g in b.gs)
    t_eq = b.t_quotient()
    return StabilityExponents(level, cusps, _orders(t_eq.scale_tau(ell), cusps),
                              _orders(A.at_level(level), cusps),
                              _orders(t_eq.at_level(level), cusps), ((zero,),) + terms)


class UImageTable:
    """Memoized images t**(-m) * [t**m * U_ell(A**i t**j g_k)] over Z.

    ``images(keys)`` is the one way images are fetched (``image`` is its
    one-key case): keys found in memory or on disk are loaded, and the rest
    are computed (``_part``) and stored.  A key's taming power m is its
    stability exponent (``se``), and the precision of its t**j and y is
    ``_precision``, which the deepest-first order of a batch and the
    products (``_tamed``) read; the t**(-m) shift (``_compute``) reads m.
    The table keeps no expansion: A * g_k (A * g_0 = A) lives in the
    basis's one monomial store with everything else, and each product
    reads its expansions from there only as far as it needs them, so an
    image does not depend on what else was computed first.

    Disk layout (one file per key under cache_dir/<fingerprint>/):
        header  "level ell i j k v"
        lines   "j k coefficient"
    """

    SLACK = 16  # spare coefficients the reduction consumes as a corruption check

    def __init__(self, b: AlgebraBasis, A: EtaQuotient, ell: int, cache_dir=None):
        self.basis = b
        self.A = A
        self.ell = ell
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self._key_dir = self.cache_dir / self.fingerprint() if cache_dir else None
        self._mem = {}

    @cached_property
    def se(self) -> StabilityExponents:
        """The stability exponents, computed with the first image computed."""
        return compute_m_constants(self.basis, self.A, self.ell)

    def fingerprint(self) -> str:
        blob = repr((self.basis.fingerprint(), self.A.level, self.A.exponents, self.ell))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    # -- persistence ---------------------------------------------------------

    def _path(self, i, j, k) -> Path:
        return self._key_dir / f"i{i}_j{j}_k{k}.txt"

    def _load(self, i, j, k):
        p = self._path(i, j, k)
        try:
            lines = p.read_text().splitlines()
            head = tuple(int(x) for x in lines[0].split())
            terms = {}
            for line in lines[1:]:
                if line.strip():
                    jj, kk, c = (int(x) for x in line.split())
                    if abs(jj) > J_CEILING or not 0 <= kk <= self.basis.v:
                        raise ValueError(f"term {line!r} lies outside the module")
                    if (jj, kk) in terms:  # _store writes each key once
                        raise ValueError(f"term {line!r} repeats t^{jj}*g{kk}")
                    terms[(jj, kk)] = c
        except FileNotFoundError:  # never stored, or removed by another process
            return None
        except (ValueError, IndexError) as exc:  # UnicodeDecodeError is a ValueError
            raise ContractError(f"cache file {p} is malformed: {exc}") from exc
        if head != (self.basis.level, self.ell, i, j, k, self.basis.v):
            raise ContractError(f"cache file {p} does not match its key")
        return ModuleElement(ZZ, terms)

    def _store(self, i, j, k, me: ModuleElement):
        p = self._path(i, j, k)
        p.parent.mkdir(parents=True, exist_ok=True)
        rows = [f"{self.basis.level} {self.ell} {i} {j} {k} {self.basis.v}"]
        for (jj, kk) in sorted(me.terms):
            rows.append(f"{jj} {kk} {me.terms[(jj, kk)]}")
        # a private temporary file per writer: readers never see a partial
        # file, and concurrent writers of one key never share a path
        fd, tmp = tempfile.mkstemp(dir=p.parent, prefix=p.stem + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write("\n".join(rows) + "\n")
            os.replace(tmp, p)
        except BaseException:
            os.unlink(tmp)
            raise

    # -- computation ---------------------------------------------------------

    def _precision(self, i: int, j: int, k: int) -> int:
        """The relative precision of t**j and y = A**i * g_k that the image
        of A**i t**j g_k reads.  t**j * y starts at val = i*val(A) -
        (v+1)*j - n_k, val(A) the ``q_shift`` and (v+1)*j + n_k the
        ``pole_order``, so at relative precision p its ell-dissection is
        known below ceil((val + p)/ell), and t**m, m = exponent(i, j, k),
        lowers that by (v+1)*m.  The least p that shows the tamed product
        through its constant term plus SLACK check coefficients is
        ell*((v+1)*m + SLACK) + 1 - val: ``_tamed``'s guard then holds
        with equality."""
        b = self.basis
        val = i * self.A.q_shift() - b.pole_order(j, k)
        return self.ell * (b.pole_order(self.se.exponent(i, j, k), 0) + self.SLACK) + 1 - val

    def images(self, keys) -> list:
        """The images of every (i, j, k) in keys, in order."""
        missing = []
        for key in keys:
            if key in self._mem:
                continue
            _check_index(*key, self.basis.v)
            me = self._load(*key) if self.cache_dir else None
            if me is None:
                missing.append(key)
            else:
                self._mem[key] = me
        if missing:
            # deepest first: an expansion several products read is built
            # once, at the largest precision any of them reads it
            missing.sort(key=lambda key: self._precision(*key), reverse=True)
            for key, me in zip(missing, self._part(missing)):
                if self.cache_dir:
                    self._store(*key, me)
                self._mem[key] = me
        return [self._mem[key] for key in keys]

    def image(self, i: int, j: int, k: int) -> ModuleElement:
        return self.images([(i, j, k)])[0]

    def _tamed(self, i: int, j: int, k: int) -> QSeries:
        """t**m * U_ell(A**i t**j g_k), m = exponent(i, j, k), known through
        its constant term and SLACK check coefficients.  Each expansion is
        asked of the basis's store (``AlgebraBasis.monomial``), and made
        there when the store holds it shorter: t**j and y at ``_precision``,
        which makes every product end at q**SLACK, so a batch of them
        shares the one truncation ``mw_reduce`` asks for.  u * t**m, u the
        U_ell part, is known below val(u) plus the truncation of t**m, so
        t**m is read below q**(1 + SLACK - min(val(u), 0))
        (``precision_below``): exactly what the product needs when u starts
        at q**0 or below, and never less."""
        b, prec = self.basis, self._precision(i, j, k)
        y = b.monomial(0, k, prec, self.A if i else None) if i or k else None
        u = u_ell(b.monomial(j, 0, prec), self.ell, y)
        m = self.se.exponent(i, j, k)
        prod = u.mul(b.monomial(m, 0, b.precision_below(m, 0, 1 + self.SLACK - min(u.val, 0))))
        if prod.trunc < 1 + self.SLACK:
            raise ContractError(
                f"image {(i, j, k)} is known only below q^{prod.trunc}, short of the "
                f"constant term and {self.SLACK} check coefficients")
        return prod

    def _part(self, keys) -> list:
        """The images of keys: their tamed products reduced over the basis
        as one batch, a failed reduction reported under the key of its
        series, and each shifted by t**(-m)."""
        products = [self._tamed(*key) for key in keys]
        try:
            reduced = mw_reduce(products, self.basis)
        except ContractError as exc:
            if not hasattr(exc, "series"):
                raise
            raise ContractError(f"image {keys[exc.series]}: {exc}") from exc
        return [self._compute(*key, me) for key, me in zip(keys, reduced)]

    def _compute(self, i, j, k, tamed: ModuleElement) -> ModuleElement:
        """The image of A**i t**j g_k from ``tamed``, its t**m multiple
        reduced over the basis: every term shifted by t**(-m)."""
        m = self.se.exponent(i, j, k)
        return ModuleElement(ZZ, {(e - m, kk): c for (e, kk), c in tamed.terms.items()})


def u_step(table: UImageTable, me: ModuleElement, with_A: bool) -> ModuleElement:
    """One operator application by linearity over the cached images: the
    sum is formed over Z and ``ModuleElement`` reduces it into the element's
    coefficient ring.  The images are fetched as one batch, because the keys
    a step needs are exactly the terms of me."""
    i = 1 if with_A else 0
    keys = sorted(me.terms)
    acc: dict = {}
    for (j, k), image in zip(keys, table.images([(i, j, k) for j, k in keys])):
        c = me.terms[(j, k)]
        for key, v in image.terms.items():
            acc[key] = acc.get(key, 0) + c * v
    return ModuleElement(me.ring, acc)
