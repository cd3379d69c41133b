"""The cusp-order search against a brute-force filter over the exponent box."""

import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import pytest

from etacheck import search
from etacheck.errors import SpecError
from etacheck.eta import EtaQuotient, divisors
from etacheck.modcurve import (
    Cusp,
    cusp_representatives,
    eta_order_at_cusp,
    infinity_class,
    newman_check,
)
from etacheck.search import search_modular_quotients

BOUND = 3
KINDS = ("positive", "nonneg", "zero", None)


@lru_cache(maxsize=None)
def modular_box(N):
    """Every modular quotient with |w_d| <= BOUND at level N, in lexicographic
    exponent order, with its order at every cusp representative."""
    divs = divisors(N)
    out = []
    for w in itertools.product(range(-BOUND, BOUND + 1), repeat=len(divs)):
        if sum(w):
            continue
        eq = EtaQuotient(N, zip(divs, w))
        if newman_check(eq)[0]:
            out.append((eq, {x: eta_order_at_cusp(eq, x) for x in cusp_representatives(N)}))
    return out


def brute_force(N, n0, positive=(), nonneg=(), zero=()):
    inf = infinity_class(N)
    for eq, orders in modular_box(N):
        if (orders[inf] == -n0
                and all(orders[x] > 0 for x in positive)
                and all(orders[x] >= 0 for x in nonneg)
                and all(orders[x] == 0 for x in zero)):
            return [eq]
    return []


def random_constraints(rng, N, witness=None):
    """(n0, kinds) with a random kind per finite cusp; given the orders of a
    witness quotient, only kinds those orders satisfy, so the witness
    qualifies and the answer is not empty."""
    inf = infinity_class(N)
    kinds = {kind: [] for kind in KINDS}
    for x in cusp_representatives(N):
        if x == inf:
            continue
        options = KINDS
        if witness is not None:
            o = witness[x]
            options = [k for k, ok in zip(KINDS, (o > 0, o >= 0, o == 0, True)) if ok]
        kinds[rng.choice(options)].append(x)
    kinds.pop(None)
    n0 = rng.randrange(0, 4) if witness is None else int(-witness[inf])
    return n0, kinds


@pytest.mark.parametrize("N", [12, 20, 50])
def test_search_matches_brute_force(N):
    rng = random.Random(N)
    outcomes = []
    for case in range(16):
        witness = rng.choice(modular_box(N))[1] if case % 2 else None
        n0, kinds = random_constraints(rng, N, witness)
        found = search_modular_quotients(N, n0, BOUND, **kinds)
        assert found == brute_force(N, n0, **kinds), (n0, kinds)
        outcomes.append(bool(found))
    # the seeded cases exercise both a hit and an empty answer
    assert any(outcomes) and not all(outcomes)


def test_conflicting_signs_within_one_class():
    # Gamma0(50) has 12 cusps for 6 divisors: 1/5, 2/5, 3/5, 4/5 all share
    # the class gcd(c, 50) = 5, so an order that must be positive at one of
    # them and zero at another is impossible
    N = 50
    same = [x for x in cusp_representatives(N) if x.c == 5]
    assert len(cusp_representatives(N)) == 12 and len(same) == 4
    p, z = same[0], same[1]
    assert search_modular_quotients(N, 1, BOUND, positive=[p])
    assert search_modular_quotients(N, 1, BOUND, zero=[z])
    assert search_modular_quotients(N, 1, BOUND, positive=[p], zero=[z]) == []
    assert brute_force(N, 1, positive=[p], zero=[z]) == []


def test_order_matrix_inverse_swaps_rows_past_a_zero_pivot():
    # [[0, 2], [4, 0]]^-1 = [[0, 1/4], [1/2, 0]] = M / 8
    assert search._inverse([[0, 2], [4, 0]]) == ([[0, 2], [4, 0]], 8)


def fraction_inverse(rows):
    """Gauss-Jordan over Fraction, the textbook reference for ``_inverse``."""
    k = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)]
         for i, row in enumerate(rows)]
    for col in range(k):
        pivot = next(r for r in range(col, k) if a[r][col])
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(k):
            if r != col:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[k:] for row in a]


@pytest.mark.parametrize("N", [5, 12, 20, 100])
def test_order_map_matches_a_fraction_reference(N):
    divs = divisors(N)
    rows = [[eta_order_at_cusp(EtaQuotient(N, {d: 1}), Cusp(1, c)) for d in divs] for c in divs]
    inv = fraction_inverse(rows)
    den = lcm(*(x.denominator for row in inv for x in row))
    sizes = Counter(gcd(x.c, N) for x in cusp_representatives(N))
    assert search._order_map(N) == (
        tuple(divs), tuple(24 * N * sum(row) for row in rows),
        tuple(tuple(int(x * den) for x in row) for row in inv), den,
        tuple(sizes[c] for c in divs))


# (call, exception, message): the guards of the search
GUARDS = [
    (lambda: search_modular_quotients(20, 5, 0), SpecError, "exponent bound must be >= 1"),
]


@pytest.mark.parametrize("call, exc, message", GUARDS, ids=[m for _, _, m in GUARDS])
def test_guards_refuse(call, exc, message):
    with pytest.raises(exc, match=re.escape(message)):
        call()
