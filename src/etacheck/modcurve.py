"""Cusp arithmetic on Gamma0(N).

Cusps are equivalence classes of Q union {infinity} under the fractional
linear action of Gamma0(N).  Two reduced fractions a/c and a1/c1 represent
the same class exactly when integers m, n exist with gcd(m, N) = 1 and

    m*a1 == a + n*c  (mod N),      c1 == m*c  (mod N).

In closed form: with d = gcd(c, N), that holds exactly when

    gcd(c1, N) == d      and      a1*(c1/d) == a*(c/d)  (mod gcd(d, N/d)),

so the pair (d, a*(c/d) mod gcd(d, N/d)) names the class, and each divisor
d of N carries one class per unit modulo gcd(d, N/d).  Classes are looked
up by that key; the witness search ``cusp_equivalent`` stays as an
independent check of it.  The class of infinity (1/0) is that of 1/N.

Orders of eta quotients at cusps come from the classical formula

    ord_{a/c}(f) = N / (24*gcd(c^2, N)) * sum_d r_d * gcd(c, d)^2 / d,

measured in the local uniformizer, so the orders of a modular quotient sum
to zero over a full set of representatives.  Scaled by 24*N it is the
integer

    sum_d r_d * (N / gcd(c^2, N)) * (N / d) * gcd(c, d)^2,

which the package computes with; only the rational view for output builds
a Fraction.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

from .errors import SpecError
from .eta import EtaQuotient, divisors
from .series import Frozen


class Cusp(Frozen):
    """Reduced fraction a/c; infinity itself is written 1/0 and is always
    equivalent to the class of 1/N.  Cusps sort by (c, a)."""

    __slots__ = ("c", "a")

    def __init__(self, a: int, c: int):
        if c < 0:
            a, c = -a, -c
        if c == 0:
            if a == 0:
                raise SpecError("0/0 is not a cusp")
            a = 1
        else:
            g = gcd(a, c)
            a //= g
            c //= g
        self._set(c=c, a=a)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.c, self.a) < (other.c, other.a)

    def is_infinity(self) -> bool:
        return self.c == 0

    def __repr__(self):
        if self.c == 0:
            return "oo"
        if self.c == 1:
            return f"{self.a}"
        return f"{self.a}/{self.c}"


def parse_cusp(text: str) -> Cusp:
    text = text.strip()
    if text in ("oo", "inf", "infinity"):
        return Cusp(1, 0)
    a, slash, c = text.partition("/")
    try:
        return Cusp(int(a), int(c) if slash else 1)
    except ValueError as exc:
        raise SpecError(f"cannot parse cusp {text!r}: {exc}") from exc


def _euler_phi(n: int) -> int:
    return sum(gcd(u, n) == 1 for u in range(n))


def cusp_count(N: int) -> int:
    """Number of cusp classes of Gamma0(N)."""
    return sum(_euler_phi(gcd(c, N // c)) for c in divisors(N))


def _class_key(x: Cusp, N: int) -> tuple:
    """The closed-form name of x's class over Gamma0(N) (module docstring)."""
    d = gcd(x.c, N)
    return d, x.a * (x.c // d) % gcd(d, N // d)


@lru_cache(maxsize=None)
def _classes(N: int) -> dict:
    """Class key -> canonical representative, in (c, a) order.

    For each divisor c of N the classes are indexed by units u modulo
    g = gcd(c, N/c); the representative is u lifted to the least a == u
    (mod g) that is coprime to c, whose key is (c, u).
    """
    if N < 1:
        raise SpecError("level must be positive")
    reps = []
    for c in divisors(N):
        g = gcd(c, N // c)
        for u in range(1, g + 1):
            if gcd(u, g) == 1:
                a = u
                while gcd(a, c) != 1:
                    a += g
                reps.append(Cusp(a, c))
    return {_class_key(x, N): x for x in sorted(reps)}


@lru_cache(maxsize=None)
def cusp_representatives(N: int) -> tuple:
    """One canonical representative per cusp class, sorted by (c, a).

    Every rational is equivalent to exactly one of them.
    """
    return tuple(_classes(N).values())


def finite_cusps(N: int) -> tuple:
    """The representatives of every class but infinity's.  1/N sorts last,
    since N is the largest denominator and the only class it carries."""
    return cusp_representatives(N)[:-1]


def infinity_class(N: int) -> Cusp:
    """Canonical representative of the class of infinity: 1/N."""
    return Cusp(1, N)


def cusp_equivalent(x: Cusp, y: Cusp, N: int):
    """Witness (m, n) proving x and y are the same cusp of Gamma0(N), or None.

    m runs over the units modulo N in increasing order; for each m the two
    congruences have a solution in n exactly when gcd(c, N) divides
    m*a1 - a, and the smallest nonnegative n is returned.
    """
    a, c = x.a, x.c % N
    a1, c1 = y.a, y.c % N
    for m in range(1, N + 1):
        if gcd(m, N) != 1:
            continue
        if (m * c - c1) % N:
            continue
        # need n with n*c == m*a1 - a (mod N)
        rhs = (m * a1 - a) % N
        g = gcd(c, N)
        if rhs % g:
            continue
        cc, nn, mm = c // g, rhs // g, N // g
        n = (nn * pow(cc, -1, mm)) % mm
        return (m, n)
    return None


def canonical_cusp(x: Cusp, N: int) -> Cusp:
    """The canonical representative of x's class."""
    return _classes(N)[_class_key(x, N)]


def cusp_image_under_scaling(x: Cusp, r: int, ell: int, targetN: int) -> Cusp:
    """Class of (a + c*r)/(c*ell) over Gamma0(targetN).

    This is the cusp approached by (tau + r)/ell as tau approaches x.
    """
    if not 0 <= r < ell:
        raise SpecError("shift r must lie in 0..ell-1")
    if x.is_infinity():
        raise SpecError("scale the representative 1/N, not the infinity symbol")
    return canonical_cusp(Cusp(x.a + x.c * r, x.c * ell), targetN)


# ---------------------------------------------------------------------------
# Modularity and orders of eta quotients.

def newman_check(eq: EtaQuotient):
    """(is_modular, k0): the four classical conditions for an eta quotient to
    be a modular function on Gamma0(level).

    Conditions: sum r_d = 0; sum d*r_d == 0 (mod 24); sum (N/d)*r_d == 0
    (mod 24); prod d**|r_d| a perfect square (witness k0).
    """
    if eq.sum_r() != 0 or eq.sum_dr() % 24 or eq.sum_ndr() % 24:
        return False, None
    prod = 1
    for d, r in eq.exponents:
        prod *= d ** abs(r)
    k0 = isqrt(prod)
    if k0 * k0 != prod:
        return False, None
    return True, k0


def order_numerator(eq: EtaQuotient, x: Cusp) -> int:
    """24*N times the order of the quotient at the cusp a/c, N its level: an
    integer for every quotient at level N, eta(d*tau) alone included.  It
    depends only on the cusp class; the quotient is modular only if every
    value is a multiple of 24*N."""
    # infinity, 1/0, is the class of 1/N: gcd(0, d) = d and gcd(0, N) = N
    N, c = eq.level, x.c
    return N // gcd(c * c, N) * sum(r * (N // d) * gcd(c, d) ** 2 for d, r in eq.exponents)


def eta_order_at_cusp(eq: EtaQuotient, x: Cusp) -> Fraction:
    """Order of the quotient at the cusp a/c, as an exact rational: the
    public view of ``order_numerator``, for output and tests.  Importing
    ``fractions`` here keeps it (and ``decimal``) out of every run that
    prints no order."""
    from fractions import Fraction

    return Fraction(order_numerator(eq, x), 24 * eq.level)


def order_vector(eq: EtaQuotient) -> dict:
    """{representative: order} over every cusp class of the quotient's level,
    in representative order."""
    return {x: eta_order_at_cusp(eq, x) for x in cusp_representatives(eq.level)}
