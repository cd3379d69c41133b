"""Cusp enumeration, equivalence, modularity conditions, and order formulas."""

import random
import re
from fractions import Fraction
from math import gcd

import pytest

from etacheck import modcurve
from etacheck.errors import SpecError
from etacheck.eta import EtaQuotient, divisors, eta_expand
from etacheck.modcurve import (
    Cusp,
    canonical_cusp,
    cusp_count,
    cusp_equivalent,
    cusp_image_under_scaling,
    cusp_representatives,
    eta_order_at_cusp,
    infinity_class,
    newman_check,
    order_numerator,
    order_vector,
    parse_cusp,
)
from etacheck.tfinder import PoleSets, compute_pole_sets
from etacheck.ujump import build_A
from etacheck.verifier import andrews_sellers, rogers_ramanujan

T20 = EtaQuotient(20, {1: 2, 4: 2, 10: 8, 5: -2, 20: -10})
H20 = EtaQuotient(20, {4: 1, 5: 5, 1: -1, 20: -5})
G20 = EtaQuotient(20, {4: 4, 10: 2, 2: -2, 20: -4})
A100 = EtaQuotient(100, {1: -3, 2: 5, 4: -2, 25: 3, 50: -5, 100: 2})

C20 = {Cusp(1, 20), Cusp(1, 10), Cusp(1, 5), Cusp(1, 4), Cusp(1, 2), Cusp(1, 1)}
C100 = {
    Cusp(1, 100), Cusp(1, 50), Cusp(1, 25), Cusp(1, 20), Cusp(1, 10),
    Cusp(3, 20), Cusp(1, 5), Cusp(1, 4), Cusp(3, 10), Cusp(7, 20),
    Cusp(2, 5), Cusp(9, 20), Cusp(1, 2), Cusp(3, 5), Cusp(7, 10),
    Cusp(4, 5), Cusp(9, 10), Cusp(1, 1),
}


def classes_of(reps, N):
    return {canonical_cusp(x, N) for x in reps}


def test_representative_counts():
    assert len(cusp_representatives(1)) == 1
    assert len(cusp_representatives(20)) == 6
    assert len(cusp_representatives(100)) == 18
    for N in range(1, 40):
        assert len(cusp_representatives(N)) == cusp_count(N)


def test_representatives_match_known_sets():
    reps20 = set(cusp_representatives(20))
    assert classes_of(reps20, 20) == classes_of(C20, 20)
    reps100 = set(cusp_representatives(100))
    assert classes_of(reps100, 100) == classes_of(C100, 100)


def test_representatives_pairwise_inequivalent():
    for N in (12, 20, 36, 100):
        reps = cusp_representatives(N)
        for i, x in enumerate(reps):
            for y in reps[i + 1:]:
                assert cusp_equivalent(x, y, N) is None


def test_every_fraction_hits_exactly_one_class():
    rng = random.Random(99)
    for _ in range(200):
        N = rng.choice((*range(1, 31), 36, 50, 100, 196))
        c = rng.randint(0, N * N)
        a = rng.randint(1, N * N + 1)
        if c and gcd(a, c) != 1:
            continue
        x = Cusp(a, c)
        reps = cusp_representatives(N)
        hits = [r for r in reps if cusp_equivalent(x, r, N) is not None]
        assert len(hits) == 1
        assert canonical_cusp(x, N) == hits[0]


def test_equivalence_witnesses():
    m, n = cusp_equivalent(Cusp(31, 50), Cusp(1, 50), 100)
    assert (m, n) == (31, 0)
    assert gcd(m, 100) == 1
    assert (m * 1 - (31 + n * 50)) % 100 == 0 and (50 - m * 50) % 100 == 0
    assert cusp_equivalent(Cusp(7, 10), Cusp(7, 10), 20) == (1, 0)
    assert cusp_equivalent(Cusp(1, 4), Cusp(1, 2), 20) is None


def test_infinity_is_one_over_n():
    assert infinity_class(20) == Cusp(1, 20)
    assert canonical_cusp(Cusp(1, 0), 20) == Cusp(1, 20)
    assert canonical_cusp(parse_cusp("oo"), 12) == canonical_cusp(Cusp(1, 12), 12)


def test_a_cusp_is_a_reduced_fraction_over_a_positive_denominator():
    assert Cusp(2, -10) == Cusp(-1, 5) == parse_cusp("1/-5")
    assert (Cusp(2, -10).a, Cusp(2, -10).c) == (-1, 5)
    assert parse_cusp("3") == Cusp(3, 1)  # an integer a is the cusp a/1


def test_classes_need_no_witness_search(monkeypatch):
    # the classes come from the closed-form key alone: on fresh caches and
    # with the witness search disabled, every cusp question still answers
    def boom(*args):
        raise AssertionError("cusp_equivalent called")

    monkeypatch.setattr(modcurve, "cusp_equivalent", boom)
    for fn in vars(modcurve).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    assert cusp_representatives(20) == tuple(sorted(C20))
    assert cusp_representatives(100) == tuple(sorted(C100))
    for N in (20, 100):
        assert infinity_class(N) == Cusp(1, N)
        assert canonical_cusp(Cusp(1, 0), N) == Cusp(1, N)
    assert canonical_cusp(Cusp(3, 10), 20) == Cusp(1, 10)
    assert canonical_cusp(Cusp(-7, 40), 20) == Cusp(1, 20)
    assert canonical_cusp(Cusp(31, 50), 100) == Cusp(1, 50)
    assert canonical_cusp(Cusp(13, 20), 100) == Cusp(3, 20)
    assert canonical_cusp(Cusp(11, 30), 100) == Cusp(3, 10)
    assert compute_pole_sets(A100, 5) == PoleSets(
        frozenset({Cusp(1, 10), Cusp(1, 1), Cusp(1, 4), Cusp(1, 2)}),
        frozenset({Cusp(1, 4)}), frozenset({Cusp(1, 5)}), frozenset())


def test_newman_conditions():
    ok, k0 = newman_check(EtaQuotient(5, {1: -6, 5: 6}))
    assert ok and k0 * k0 == 5 ** 6
    assert newman_check(EtaQuotient(2, {}))[0]
    assert not newman_check(EtaQuotient(2, {1: 1, 2: -1}))[0]
    # Delta = eta(tau)^24 meets every condition but the weight: a modular
    # form of weight 12, not a function
    assert newman_check(EtaQuotient(1, {1: 24})) == (False, None)
    for eq in (T20, H20, G20, A100):
        assert newman_check(eq)[0]


def test_order_values_at_level_20():
    assert eta_order_at_cusp(T20, Cusp(1, 20)) == -5
    assert eta_order_at_cusp(T20, Cusp(1, 1)) == 2
    got = {x: eta_order_at_cusp(T20, x) for x in cusp_representatives(20)}
    expected = {
        Cusp(1, 20): -5, Cusp(1, 10): 1, Cusp(1, 5): 0,
        Cusp(1, 4): 1, Cusp(1, 2): 1, Cusp(1, 1): 2,
    }
    assert got == expected


def test_order_vector_of_a_at_level_100():
    ov = order_vector(A100)
    assert ov[Cusp(1, 100)] == 1
    assert ov[Cusp(1, 50)] == -5
    assert ov[Cusp(1, 25)] == 4
    assert ov[Cusp(1, 4)] == -1
    assert ov[Cusp(1, 2)] == 5
    assert ov[Cusp(1, 1)] == -4
    assert {x for x, o in ov.items() if o < 0} == {Cusp(1, 50), Cusp(1, 4), Cusp(1, 1)}


def test_constant_quotient_has_zero_orders():
    ov = order_vector(EtaQuotient(20, {}))
    assert all(o == 0 for o in ov.values())


def test_orders_sum_to_zero_for_modular_quotients():
    for eq in (T20, H20, G20, A100):
        assert sum(order_vector(eq).values()) == 0


# Golden image maps: (tau + r)/5 as tau approaches each cusp of Gamma0(20),
# read off over Gamma0(100) and over Gamma0(20).
IMAGE_MAP_100 = {
    Cusp(1, 20): [Cusp(1, 100)] * 5,
    Cusp(1, 10): [Cusp(1, 50)] * 5,
    Cusp(1, 5): [Cusp(1, 25)] * 5,
    Cusp(1, 4): [Cusp(1, 20), Cusp(1, 4), Cusp(9, 20), Cusp(3, 20), Cusp(7, 20)],
    Cusp(1, 2): [Cusp(1, 10), Cusp(3, 10), Cusp(1, 2), Cusp(7, 10), Cusp(9, 10)],
    Cusp(1, 1): [Cusp(1, 5), Cusp(2, 5), Cusp(3, 5), Cusp(4, 5), Cusp(1, 1)],
}
IMAGE_MAP_20 = {
    Cusp(1, 20): [Cusp(1, 20)] * 5,
    Cusp(1, 10): [Cusp(1, 10)] * 5,
    Cusp(1, 5): [Cusp(1, 5)] * 5,
    Cusp(1, 4): [Cusp(1, 20), Cusp(1, 4), Cusp(1, 20), Cusp(1, 20), Cusp(1, 20)],
    Cusp(1, 2): [Cusp(1, 10), Cusp(1, 10), Cusp(1, 2), Cusp(1, 10), Cusp(1, 10)],
    Cusp(1, 1): [Cusp(1, 5), Cusp(1, 5), Cusp(1, 5), Cusp(1, 5), Cusp(1, 1)],
}


@pytest.mark.parametrize("targetN,table", [(100, IMAGE_MAP_100), (20, IMAGE_MAP_20)])
def test_image_tables_cell_for_cell(targetN, table):
    for x, row in table.items():
        for r, want in enumerate(row):
            got = cusp_image_under_scaling(x, r, 5, targetN)
            assert got == canonical_cusp(want, targetN), (x, r, got, want)


def test_image_map_examples():
    assert cusp_image_under_scaling(Cusp(1, 10), 3, 5, 100) == canonical_cusp(Cusp(1, 50), 100)
    assert cusp_image_under_scaling(Cusp(1, 4), 1, 5, 20) == canonical_cusp(Cusp(1, 4), 20)
    assert cusp_image_under_scaling(Cusp(1, 1), 4, 5, 100) == canonical_cusp(Cusp(1, 1), 100)


def random_gamma0_translate(rng, x, N):
    """Apply a random element of Gamma0(N) to the cusp a/c."""
    while True:
        a0 = rng.randint(-6, 6)
        c0 = N * rng.randint(-3, 3)
        if gcd(a0, c0) == 1 if c0 else abs(a0) == 1:
            break
    # solve a0*d0 - b0*c0 = 1
    if c0 == 0:
        d0 = a0  # a0 = +-1
        b0 = rng.randint(-5, 5)
    else:
        # extended gcd
        old_r, r = a0, c0
        old_s, s = 1, 0
        while r:
            qq = old_r // r
            old_r, r = r, old_r - qq * r
            old_s, s = s, old_s - qq * s
        d0 = old_s if old_r == 1 else -old_s
        b0 = (a0 * d0 - 1) // c0
    assert a0 * d0 - b0 * c0 == 1
    return Cusp(a0 * x.a + b0 * x.c, c0 * x.a + d0 * x.c)


def run_order_class_invariance(cases=200, seed=77):
    rng = random.Random(seed)
    done = 0
    while done < cases:
        N = rng.randint(2, 60)
        ds = divisors(N)
        eq = EtaQuotient(N, {d: rng.randint(-4, 4) for d in ds})
        x = rng.choice(cusp_representatives(N))
        y = random_gamma0_translate(rng, x, N)
        assert cusp_equivalent(x, y, N) is not None
        assert canonical_cusp(y, N) == canonical_cusp(x, N)
        assert eta_order_at_cusp(eq, x) == eta_order_at_cusp(eq, y)
        # infinity is the class of 1/N: gcd(0, d) = d and gcd(0, N) = N
        assert eta_order_at_cusp(eq, Cusp(1, 0)) == eta_order_at_cusp(eq, Cusp(1, N))
        done += 1
    return done


def test_order_is_class_invariant():
    run_order_class_invariance()


def run_ligozat_matches_valuation(cases=200, seed=41):
    """For modular quotients, the order at the class of 1/N must equal the
    leading exponent of the q-expansion."""
    rng = random.Random(seed)
    done = 0
    levels = [4, 6, 8, 10, 20]
    while done < cases:
        N = rng.choice(levels)
        ds = divisors(N)
        eq = EtaQuotient(N, {d: rng.randint(-6, 6) for d in ds})
        if not newman_check(eq)[0]:
            continue
        f = eta_expand(eq, 8)
        o = eta_order_at_cusp(eq, infinity_class(N))
        assert o.denominator == 1
        assert f.leading() == (o.numerator, 1)
        done += 1
    return done


def test_ligozat_matches_expansion_valuation():
    run_ligozat_matches_valuation(cases=60)


def textbook_order(eq, x):
    """The classical formula over Fraction, N / (24*gcd(c^2, N)) times
    sum_d r_d * gcd(c, d)^2 / d, written out independently of the package."""
    N, c = eq.level, x.c
    return Fraction(N, 24 * gcd(c * c, N)) * sum(
        (Fraction(r * gcd(c, d) ** 2, d) for d, r in eq.exponents), Fraction(0))


def test_integer_orders_match_the_textbook_formula():
    # t, g, h and eta(d*tau), d | 20, at level 20 and lifted to 100; t(5*tau),
    # both families' A and eta(d*tau), d | 100, at level 100
    level20 = [T20, G20, H20] + [EtaQuotient(20, {d: 1}) for d in divisors(20)]
    level100 = ([eq.at_level(100) for eq in level20] + [T20.scale_tau(5), A100]
                + [build_A(spec.gen) for spec in (rogers_ramanujan(), andrews_sellers())]
                + [EtaQuotient(100, {d: 1}) for d in divisors(100)])
    for eq in level20 + level100:
        for x in cusp_representatives(eq.level) + (Cusp(1, 0),):
            want = textbook_order(eq, x)
            assert order_numerator(eq, x) == 24 * eq.level * want, (eq, x)
            got = eta_order_at_cusp(eq, x)
            assert type(got) is Fraction and got == want


def test_order_vector_is_keyed_by_representatives():
    ov = order_vector(T20)
    assert list(ov) == list(cusp_representatives(20))
    # 3/10 is equivalent to 1/10 over Gamma0(20), infinity to 1/20
    assert ov[canonical_cusp(Cusp(3, 10), 20)] == eta_order_at_cusp(T20, Cusp(3, 10)) == 1
    assert ov[infinity_class(20)] == eta_order_at_cusp(T20, Cusp(1, 0)) == Fraction(-5)


# (call, exception, message): the guards of the cusp functions
GUARDS = [
    (lambda: Cusp(1, 2) < 3, TypeError, "'<' not supported between instances of 'Cusp' and 'int'"),
    (lambda: cusp_image_under_scaling(Cusp(1, 4), 5, 5, 20), SpecError,
     "shift r must lie in 0..ell-1"),
    (lambda: cusp_image_under_scaling(Cusp(1, 4), -1, 5, 20), SpecError,
     "shift r must lie in 0..ell-1"),
    (lambda: cusp_image_under_scaling(Cusp(1, 0), 0, 5, 20), SpecError,
     "scale the representative 1/N, not the infinity symbol"),
]


@pytest.mark.parametrize("call, exc, message", GUARDS, ids=[m for _, _, m in GUARDS])
def test_guards_refuse(call, exc, message):
    with pytest.raises(exc, match=re.escape(message)):
        call()
