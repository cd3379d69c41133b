"""Eta quotients and their q-expansions.

An :class:`EtaQuotient` is the formal product of eta(d*tau)**r_d over divisors
d of a level N.  Its q-expansion is the product of the Euler products
(q**d; q**d)_infinity ** r_d times the prefactor q**(sum(d*r_d)/24).
``EtaQuotient.q_shift`` is the only place that prefactor is computed: it
refuses a quotient for which sum(d*r_d)/24 is not an integer, so nothing
fractional is ever rounded, and ``eta_expand`` shifts the product by it.

Euler products expand through the pentagonal-number series (sparse, linear
time); the dense finite-product definition is kept in the test suite as an
independent reference.  A power (q; q)_infinity ** r is J**(r//3) *
P**(r % 3), with P the pentagonal series and J = (q; q)_infinity ** 3 the
equally sparse series of Jacobi's identity, so r = 3 takes no product.
``euler_quotient`` expands a product of their powers as a numerator over a
denominator, each a product of positive powers, divided by ``QSeries.div``,
which owns the q-strides: it works in q**(the gcd of the d's) and inverts
the denominator only to half the length, in q**(its own gcd), so the
inverse, nearly twice as wide as the quotient, never runs at the full
length.  The result is exact over Z and in Z/ell**e alike; expanding each
factor on its own, raising the pentagonal series to r, inverting at full
length and multiplying them in at full length is kept in the test suite as
the reference.  ``eta_expand`` keeps the longest expansion made of
each quotient under ``series.stored``'s rule and serves shorter requests by
truncation, so a quotient that several basis functions share is expanded
once per length it outgrows.
"""

from __future__ import annotations

from math import gcd

from .errors import SpecError
from .series import CoeffRing, Frozen, QSeries, ZZ, _whole, stored


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


class EtaQuotient(Frozen):
    """Level N and exponent vector r indexed by divisors of N.

    Exponents are stored sparsely as a sorted tuple of (divisor, exponent)
    pairs with zero entries dropped; every divisor key must divide the level.
    A float level, divisor or exponent is refused, never truncated.
    """

    __slots__ = ("level", "exponents")

    def __init__(self, level: int, exponents):
        level = _whole(level, "level")
        if level < 1:
            raise SpecError("level must be a positive integer")
        if isinstance(exponents, dict):
            items = exponents.items()
        else:
            items = exponents
        acc = {}
        for d, r in items:
            d = _whole(d, "divisor")
            r = _whole(r, "exponent")
            if d < 1 or level % d:
                raise SpecError(f"divisor {d} does not divide level {level}")
            acc[d] = acc.get(d, 0) + r
        packed = tuple(sorted((d, r) for d, r in acc.items() if r != 0))
        self._set(level=level, exponents=packed)

    # weighted sums that the modularity conditions and order formulas use
    def sum_r(self) -> int:
        return sum(r for _, r in self.exponents)

    def sum_dr(self) -> int:
        return sum(d * r for d, r in self.exponents)

    def sum_ndr(self) -> int:
        return sum((self.level // d) * r for d, r in self.exponents)

    def q_shift(self) -> int:
        """sum(d*r_d)/24, the power of q in front of the expansion; SpecError
        when it is not an integer, since the expansion would then need
        fractional exponents."""
        shift, frac = divmod(self.sum_dr(), 24)
        if frac:
            raise SpecError(f"{self!r} has the fractional prefactor q^({self.sum_dr()}/24)")
        return shift

    def pow(self, n: int) -> "EtaQuotient":
        return EtaQuotient(self.level, [(d, n * r) for d, r in self.exponents])

    def inverse(self) -> "EtaQuotient":
        return self.pow(-1)

    def at_level(self, level: int) -> "EtaQuotient":
        """View the same function on the finer group of the given level."""
        for d, _ in self.exponents:
            if level % d:
                raise SpecError(f"divisor {d} does not divide target level {level}")
        return EtaQuotient(level, self.exponents)

    def scale_tau(self, m: int) -> "EtaQuotient":
        """Replace tau by m*tau: every divisor is multiplied by m, the level too."""
        if m < 1:
            raise SpecError("scaling factor must be >= 1")
        return EtaQuotient(self.level * m, [(m * d, r) for d, r in self.exponents])

    def __repr__(self):
        if not self.exponents:
            return f"EtaQuotient({self.level}: 1)"
        body = ",".join(f"{d}^{r}" for d, r in self.exponents)
        return f"EtaQuotient({self.level}: {body})"


def euler_product(d: int, trunc: int, ring: CoeffRing = ZZ) -> QSeries:
    """(q**d; q**d)_infinity to order ``trunc`` with coefficients in ``ring``.

    Pentagonal expansion: (q;q)_inf = sum over k in Z of (-1)**k * q**(k(3k-1)/2).
    """
    if d < 1:
        raise SpecError("Euler product index must be a positive integer")
    if trunc < 0:
        raise SpecError("truncation must be >= 0")
    terms = {}
    k = 0
    while True:
        hit = False
        for kk in (k, -k) if k else (0,):
            e = d * kk * (3 * kk - 1) // 2
            if e < trunc:
                terms[e] = 1 if kk % 2 == 0 else -1
                hit = True
        if not hit and k > 0:
            break
        k += 1
    return QSeries.from_terms(ring, terms, trunc)


def _jacobi_cube(trunc: int, ring: CoeffRing) -> QSeries:
    """(q; q)_infinity ** 3 to order ``trunc``, by Jacobi's identity: the sum
    over n >= 0 of (-1)**n * (2n + 1) * q**(n(n+1)/2)."""
    terms = {}
    k = 0
    while k * (k + 1) // 2 < trunc:
        terms[k * (k + 1) // 2] = -(2 * k + 1) if k % 2 else 2 * k + 1
        k += 1
    return QSeries.from_terms(ring, terms, trunc)


def euler_quotient(exponents, trunc: int, ring: CoeffRing = ZZ) -> QSeries:
    """prod of (q**d; q**d)_infinity ** r over the (d, r) pairs, to order
    ``trunc`` with coefficients in ``ring``: a unit series with leading term
    1.  The exponents need not satisfy any modularity condition.

    The product is a numerator over a denominator, each a product of
    positive powers of Euler products with small coefficients
    (``_power_product``), joined by ``QSeries.div``, which works in q**(the
    gcd of the d's) and inverts the denominator only to half the length, in
    q**(its own gcd).  Every Euler product is monic, so the inversion works
    in any ring and the expansion in Z/ell**e is the exact expansion reduced
    mod ell**e.
    """
    pairs = tuple(exponents)
    out = _power_product([(d, r) for d, r in pairs if r > 0], trunc, ring)
    den = [(d, -r) for d, r in pairs if r < 0]
    return out.div(_power_product(den, trunc, ring)) if den else out


def _power_product(pairs, n: int, ring: CoeffRing) -> QSeries:
    """The product of (q**d; q**d)_infinity ** r over pairs of positive r, to
    n coefficients, made as a series in q**g, g the gcd of these d's (a
    product takes its operands as they come), and spread back.  Each factor
    is (q; q)_infinity ** r at the length its own d leaves, then
    q -> q**(d/g); (q; q)_infinity ** r is J**(r//3) * P**(r % 3),
    J = (q; q)_infinity ** 3 by Jacobi's identity and P the pentagonal
    series, so r = 3 takes no product and r = 4 one.  No pairs give 1."""
    if not pairs:
        return QSeries.one(ring, n)
    g = gcd(*(d for d, _ in pairs))
    m = -(-n // g)
    out = None
    for d, r in pairs:
        d //= g
        k = -(-m // d)
        f = _jacobi_cube(k, ring).pow(r // 3) if r >= 3 else None
        if r % 3:
            p = euler_product(1, k, ring).pow(r % 3)
            f = p if f is None else f.mul(p)
        f = f.substitute_power(d).truncate(m)
        out = f if out is None else out.mul(f)
    return out.substitute_power(g).truncate(n)


# quotient -> its longest expansion so far; every value is exact and
# immutable, so one store serves every caller in the process
_EXPANSIONS: dict = {}


def eta_expand(eq: EtaQuotient, trunc: int) -> QSeries:
    """Expand the quotient as a q-series over the exact integers.

    ``trunc`` counts coefficients past the leading term, so the result covers
    exponents [sum(d*r_d)/24, sum(d*r_d)/24 + trunc).  Raises SpecError when
    24 does not divide sum(d*r_d): the expansion would need fractional
    exponents.

    Each quotient is expanded once per length it outgrows (``stored``): the
    longest expansion made so far is kept, a shorter request is its
    truncation, and a longer one replaces it.
    """
    if trunc < 1:
        raise SpecError("eta expansion needs truncation >= 1")
    shift = eq.q_shift()
    return stored(_EXPANSIONS, eq, trunc, lambda n: euler_quotient(eq.exponents, n).shift(shift))
