"""Pole-set classification and the bounded W-system search."""

import pytest

from etacheck import tfinder
from etacheck.errors import SearchExhaustedError, SpecError
from etacheck.eta import EtaQuotient
from etacheck.modcurve import (
    Cusp,
    canonical_cusp,
    eta_order_at_cusp,
    finite_cusps,
    infinity_class,
)
from etacheck.tfinder import PoleSets, compute_pole_sets, find_t, solve_W, verify_W
from etacheck.ujump import FamilyGenerator, build_A

RR = FamilyGenerator(4, {1: -3, 2: 5, 4: -2}, 5)
AS = FamilyGenerator(4, {1: -4, 2: 5, 4: -2}, 5)
S_VECTOR = {1: 2, 2: 0, 4: 2, 5: -2, 10: 8, 20: -10}


@pytest.fixture(scope="module")
def rr_pole_sets():
    return compute_pole_sets(build_A(RR), 5)


def test_pole_sets_level_20(rr_pole_sets):
    ps = rr_pole_sets
    assert {Cusp(1, 10), Cusp(1, 4), Cusp(1, 1)} <= ps.p_A
    assert Cusp(1, 2) in ps.p_A  # reachable from a forced-positive cusp
    assert ps.p_g == frozenset({Cusp(1, 4)})
    assert ps.p0_prime == frozenset({Cusp(1, 5)})
    assert ps.p1_prime == frozenset()
    assert ps.p_A | ps.p_g | ps.p0_prime | ps.p1_prime == set(finite_cusps(20))


def test_pole_sets_trivial_quotient():
    # A with no finite poles at all: nothing forced beyond the g-camp
    A1 = EtaQuotient(100, {})
    ps = compute_pole_sets(A1, 5)
    assert ps.p_A == frozenset()
    assert ps.p_g == frozenset({Cusp(1, 4)})
    # at level 10, 1/5 maps only to itself (p0'), while 1 reaches 1/5 (p1')
    assert compute_pole_sets(EtaQuotient(50, {}), 5) == PoleSets(
        frozenset(), frozenset({Cusp(1, 2)}), frozenset({Cusp(1, 5)}), frozenset({Cusp(1, 1)}))


def test_pole_sets_same_for_both_families(rr_pole_sets):
    # the second built-in family has poles at the same cusps
    assert compute_pole_sets(build_A(AS), 5) == rr_pole_sets


def test_solve_w5_finds_a_valid_solution(rr_pole_sets):
    t = solve_W(20, rr_pole_sets, 5)
    assert t is not None
    assert verify_W(t, 5, rr_pole_sets)


def test_verify_w_rejects_each_broken_condition(rr_pole_sets):
    t = EtaQuotient(20, S_VECTOR)  # order 1 at 1/10, 0 at 1/5
    assert verify_W(t, 5, rr_pole_sets)
    assert not verify_W(t, 4, rr_pole_sets)  # wrong n0
    # weight 1/2, so not modular, though every order condition of W(5) holds
    assert not verify_W(EtaQuotient(20, {1: 2, 4: 2, 10: 7, 20: -10}), 5, rr_pole_sets)
    empty = frozenset()
    at_1_5 = frozenset({Cusp(1, 5)})
    assert not verify_W(t, 5, PoleSets(at_1_5, empty, empty, empty))  # order 0 on p_A
    at_1_10 = frozenset({Cusp(1, 10)})
    assert not verify_W(t, 5, PoleSets(empty, empty, empty, at_1_10))  # nonzero on p1'
    at_1_20 = frozenset({Cusp(1, 20)})
    assert not verify_W(t, 5, PoleSets(empty, empty, at_1_20, empty))  # negative on p0'


def test_known_vector_satisfies_w5(rr_pole_sets):
    eq = EtaQuotient(20, S_VECTOR)
    from etacheck.modcurve import newman_check
    assert newman_check(eq)[0]
    assert eta_order_at_cusp(eq, infinity_class(20)) == -5
    for x in rr_pole_sets.p_A | rr_pole_sets.p_g:
        assert eta_order_at_cusp(eq, x) > 0
    for x in rr_pole_sets.p0_prime:
        assert eta_order_at_cusp(eq, x) >= 0


@pytest.mark.parametrize("n0", [1, 2, 3, 4])
def test_no_solution_below_order_five(rr_pole_sets, n0):
    assert solve_W(20, rr_pole_sets, n0) is None


def test_empty_pole_sets_zero_vector():
    ps = PoleSets(frozenset(), frozenset(), frozenset(), frozenset())
    # the constant quotient satisfies W(0) outright
    assert verify_W(EtaQuotient(20, {}), 0, ps)
    # and the search returns some valid solution deterministically
    t = solve_W(20, ps, 0)
    assert t is not None and verify_W(t, 0, ps)
    assert t == solve_W(20, ps, 0)


def test_find_t_trivial_family():
    # with a poleless A only the infinity-image camp constrains the search,
    # and some generator with a minimal pole at infinity comes back
    gen = FamilyGenerator(4, {}, 5)
    t = find_t(gen)
    assert eta_order_at_cusp(t, infinity_class(20)) < 0
    ps = compute_pole_sets(build_A(gen), 5)
    for x in ps.p_g:
        assert eta_order_at_cusp(t, x) > 0


def test_find_t_returns_minimal_order(rr_pole_sets):
    t = find_t(RR)
    assert eta_order_at_cusp(t, infinity_class(20)) == -5
    for x in rr_pole_sets.p_A | rr_pole_sets.p_g:
        assert eta_order_at_cusp(t, x) > 0
    # the same generator works for the second family (same pole sets)
    assert find_t(AS) == t


def test_pole_set_representative_invariance():
    # feeding equivalent cusp fractions through the image map lands in the
    # same classes, so the classification cannot depend on representatives
    ps = compute_pole_sets(build_A(RR), 5)
    for x in ps.p_A:
        y = Cusp(x.a + 20 * x.c if x.c else x.a, x.c)  # same class, other rep
        assert canonical_cusp(y, 20) == canonical_cusp(x, 20)


def test_level_mismatch_rejected():
    # N is read from A's level, so an A at a level 5 does not divide is refused
    with pytest.raises(SpecError, match="A must live at a level divisible by 5, got 4"):
        compute_pole_sets(EtaQuotient(4, dict(RR.r)), 5)


def test_find_t_refuses_when_no_order_within_its_bound_works(monkeypatch):
    # the RR generator has order -5 at infinity, one past this bound
    monkeypatch.setattr(tfinder, "N0_MAX", 4)
    with pytest.raises(SearchExhaustedError,
                       match=r"no generator with -ord\(infinity\) <= 4 and exponents within 12"):
        find_t(RR)
