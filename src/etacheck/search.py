"""Eta quotients found by their orders at the cusps.

On Gamma0(N) the order of an eta quotient at a cusp a/c depends only on the
class gcd(c, N), a divisor of N, and the linear map from the exponents w_d
over the divisors d of N to the orders at the cusps 1/c is invertible
(Ligozat).  So the search walks integer order vectors instead of exponent
vectors:

* each class gets an interval, the intersection of the sign constraints on
  its cusps, pinned to -n0 at the infinity class, and clipped to the orders
  the exponent box |w_d| <= bound can reach;
* the orders, each counted once per cusp of its class, sum to zero, which is
  sum_d w_d = 0 (weight zero);
* each vector maps back to w through the exact inverse, and the integral w
  within the box that pass the modularity conditions are kept.

The walk fixes one class at a time, narrowest interval first, and admits
only the orders that leave the weighted sum and every exponent able to end
in range.  The lexicographically smallest survivor is returned, which makes
every search in this package deterministic.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import gcd

from .errors import SpecError
from .eta import EtaQuotient, divisors
from .modcurve import Cusp, cusp_representatives, newman_check, order_numerator


def _inverse(rows):
    """(M, D) with M / D the inverse of an invertible square integer matrix
    and D > 0, by fraction-free Gauss-Jordan elimination (Bareiss): each
    step divides by the pivot before it, exactly, so every entry stays an
    integer."""
    k = len(rows)
    a = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(rows)]
    prev = 1
    for col in range(k):
        pivot = next(r for r in range(col, k) if a[r][col])
        a[col], a[pivot] = a[pivot], a[col]
        p = a[col][col]
        for r in range(k):
            if r != col:
                f = a[r][col]
                a[r] = [(p * x - f * y) // prev for x, y in zip(a[r], a[col])]
        prev = p
    sign = 1 if prev > 0 else -1
    return [[sign * x for x in row[k:]] for row in a], sign * prev


@lru_cache(maxsize=None)
def _order_map(N: int):
    """(divisors, row sums, integer inverse rows, denominator, cusps per class).

    Row c of the order matrix holds 24N times the orders of eta(d*tau) at
    1/c, all integers and none negative, so the orders of w are
    o_c = sum_d rows[c][d] * w_d / 24N, at most bound times the row sum over
    24N in size.  w_d is recovered as sum_c inverse[d][c] * o_c / den, den
    the least denominator of the inverse of the unscaled matrix.
    """
    divs = tuple(divisors(N))
    rows = [[order_numerator(EtaQuotient(N, {d: 1}), Cusp(1, c)) for d in divs] for c in divs]
    m, d = _inverse(rows)
    # the unscaled inverse is 24N * m / d, and g cancels what they share
    scaled = [[24 * N * x for x in row] for row in m]
    g = gcd(d, *(x for row in scaled for x in row))
    inverse = tuple(tuple(x // g for x in row) for row in scaled)
    sizes = Counter(gcd(x.c, N) for x in cusp_representatives(N))
    return divs, tuple(map(sum, rows)), inverse, d // g, tuple(sizes[c] for c in divs)


def search_modular_quotients(N: int, n0: int, bound: int, positive=(), nonneg=(), zero=()):
    """The lexicographically smallest modular eta quotient at level N with
    |exponents| <= bound, order -n0 at the infinity class, and order > 0 on
    the cusps `positive`, >= 0 on `nonneg` and == 0 on `zero`; returned as a
    one-element list, or [] when there is none.
    """
    if bound < 1:
        raise SpecError("exponent bound must be >= 1")
    divs, row_sums, inverse, den, sizes = _order_map(N)
    reach = [bound * s // (24 * N) for s in row_sums]
    lo, hi = [-r for r in reach], reach
    i_inf = divs.index(N)
    lo[i_inf] = max(lo[i_inf], -n0)
    hi[i_inf] = min(hi[i_inf], -n0)
    for least, most, cusps in ((1, None, positive), (0, None, nonneg), (0, 0, zero)):
        for x in cusps:
            i = divs.index(gcd(x.c, N))
            lo[i] = max(lo[i], least)
            if most is not None:
                hi[i] = min(hi[i], most)

    # linear forms in the orders, each with the range its value must end in:
    # the cusp-weighted sum (zero) and den*w_d for every divisor (the box)
    lim = bound * den
    forms = [(sizes, 0, 0)] + [(row, -lim, lim) for row in inverse]
    # narrowest interval first, so a class with conflicting signs (an empty
    # interval) ends the walk before it starts
    order = sorted(range(len(divs)), key=lambda i: hi[i] - lo[i])
    # tails[j]: per form, the least and most the classes order[j:] can add
    tails = [[(sum(min(r[i] * lo[i], r[i] * hi[i]) for i in order[j:]),
               sum(max(r[i] * lo[i], r[i] * hi[i]) for i in order[j:])) for r, _, _ in forms]
             for j in range(len(order) + 1)]
    best = None

    def walk(depth, acc):
        nonlocal best
        if depth == len(order):
            w = tuple(a // den for a in acc[1:])
            if (all(a % den == 0 for a in acc[1:]) and (best is None or w < best)
                    and newman_check(EtaQuotient(N, zip(divs, w)))[0]):
                best = w
            return
        # the orders at class i that leave every form within reach of its range
        i = order[depth]
        least, most = lo[i], hi[i]
        for (r, low, high), a, (t_lo, t_hi) in zip(forms, acc, tails[depth + 1]):
            c, below, above = r[i], low - a - t_hi, high - a - t_lo
            if c > 0:
                least, most = max(least, -(-below // c)), min(most, above // c)
            elif c < 0:
                least, most = max(least, -(above // -c)), min(most, -below // -c)
        for v in range(least, most + 1):
            walk(depth + 1, [a + r[i] * v for (r, _, _), a in zip(forms, acc)])

    walk(0, [0] * len(forms))
    return [] if best is None else [EtaQuotient(N, zip(divs, best))]
