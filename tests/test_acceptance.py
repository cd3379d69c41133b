"""Acceptance criteria, one test per criterion, each printing a verdict line.

Expected values for the golden tables are transcribed as data; everything
else is recomputed through the library and compared exactly.
"""

import time

from etacheck.eta import EtaQuotient
from etacheck.modcurve import (
    Cusp,
    cusp_image_under_scaling,
    eta_order_at_cusp,
    order_vector,
)
from etacheck.tfinder import compute_pole_sets, solve_W, verify_W
from etacheck.ujump import build_A, compute_m_constants
from etacheck.verifier import (
    andrews_sellers,
    consistency_check,
    direct_oracle,
    iterate,
    rogers_ramanujan,
)

from test_modcurve import (
    IMAGE_MAP_100,
    IMAGE_MAP_20,
    run_ligozat_matches_valuation,
    run_order_class_invariance,
)
from test_series import run_ring_laws
from test_basis import run_reduce_reconstruction
from test_ujump import (
    T_SEQUENCE_MOD5,
    run_u_factors_out_ell_powers,
    run_u_linearity,
    run_u_root_of_unity_identity,
    t_sequence,
)

H20 = EtaQuotient(20, {1: -1, 4: 1, 5: 5, 20: -5})
G20 = EtaQuotient(20, {2: -2, 4: 4, 10: 2, 20: -4})

# orders over Gamma0(100) of t(5tau)**m * f, as functions of the taming powers
TAMED_ORDERS_A_T_TINV = {
    Cusp(1, 100): (lambda mA: 1 - 25 * mA, lambda mt: -5 - 25 * mt, lambda mn: 5 - 25 * mn),
    Cusp(1, 50): (lambda mA: -5 + 5 * mA, lambda mt: 1 + 5 * mt, lambda mn: -1 + 5 * mn),
    Cusp(1, 25): (lambda mA: 4, lambda mt: 0, lambda mn: 0),
    Cusp(1, 20): (lambda mA: mA, lambda mt: -5 + mt, lambda mn: 5 + mn),
    Cusp(1, 10): (lambda mA: mA, lambda mt: 1 + mt, lambda mn: -1 + mn),
    Cusp(3, 20): (lambda mA: mA, lambda mt: -5 + mt, lambda mn: 5 + mn),
    Cusp(1, 5): (lambda mA: 2 * mA, lambda mt: 2 * mt, lambda mn: 2 * mn),
    Cusp(1, 4): (lambda mA: -1 + mA, lambda mt: 5 + mt, lambda mn: -5 + mn),
    Cusp(3, 10): (lambda mA: mA, lambda mt: 1 + mt, lambda mn: -1 + mn),
    Cusp(7, 20): (lambda mA: mA, lambda mt: -5 + mt, lambda mn: 5 + mn),
    Cusp(2, 5): (lambda mA: 2 * mA, lambda mt: 2 * mt, lambda mn: 2 * mn),
    Cusp(9, 20): (lambda mA: mA, lambda mt: -5 + mt, lambda mn: 5 + mn),
    Cusp(1, 2): (lambda mA: 5 + mA, lambda mt: 5 + mt, lambda mn: -5 + mn),
    Cusp(3, 5): (lambda mA: 2 * mA, lambda mt: 2 * mt, lambda mn: 2 * mn),
    Cusp(7, 10): (lambda mA: mA, lambda mt: 1 + mt, lambda mn: -1 + mn),
    Cusp(4, 5): (lambda mA: 2 * mA, lambda mt: 2 * mt, lambda mn: 2 * mn),
    Cusp(9, 10): (lambda mA: mA, lambda mt: 1 + mt, lambda mn: -1 + mn),
    Cusp(1, 1): (lambda mA: -4 + 2 * mA, lambda mt: 10 + 2 * mt, lambda mn: -10 + 2 * mn),
}

TAMED_ORDERS_G_H = {
    Cusp(1, 100): (lambda m1: -2 - 25 * m1, lambda mh: -3 - 25 * mh),
    Cusp(1, 50): (lambda m1: 5 * m1, lambda mh: 5 * mh),
    Cusp(1, 25): (lambda m1: 0, lambda mh: 3),
    Cusp(1, 20): (lambda m1: -2 + m1, lambda mh: -3 + mh),
    Cusp(1, 10): (lambda m1: m1, lambda mh: mh),
    Cusp(3, 20): (lambda m1: -2 + m1, lambda mh: -3 + mh),
    Cusp(1, 5): (lambda m1: 2 * m1, lambda mh: 3 + 2 * mh),
    Cusp(1, 4): (lambda m1: 10 + m1, lambda mh: mh),
    Cusp(3, 10): (lambda m1: m1, lambda mh: mh),
    Cusp(7, 20): (lambda m1: -2 + m1, lambda mh: -3 + mh),
    Cusp(2, 5): (lambda m1: 2 * m1, lambda mh: 3 + 2 * mh),
    Cusp(9, 20): (lambda m1: -2 + m1, lambda mh: -3 + mh),
    Cusp(1, 2): (lambda m1: m1, lambda mh: mh),
    Cusp(3, 5): (lambda m1: 2 * m1, lambda mh: 3 + 2 * mh),
    Cusp(7, 10): (lambda m1: m1, lambda mh: mh),
    Cusp(4, 5): (lambda m1: 2 * m1, lambda mh: 3 + 2 * mh),
    Cusp(9, 10): (lambda m1: m1, lambda mh: mh),
    Cusp(1, 1): (lambda m1: 2 * m1, lambda mh: 2 * mh),
}


def verdict(n, label, ok=True):
    print(f"criterion {n} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_table_reproduction(basis20, rr_spec):
    t0 = time.monotonic()
    ell = 5
    # image tables, 30 cells each
    for targetN, table in ((100, IMAGE_MAP_100), (20, IMAGE_MAP_20)):
        cells = 0
        for x, row in table.items():
            for r, want in enumerate(row):
                assert cusp_image_under_scaling(x, r, ell, targetN) == want
                cells += 1
        assert cells == 30
    # order vector of A over Gamma0(100): six displayed values, poles exact
    A = build_A(rr_spec.gen)
    ov = order_vector(A)
    displayed = {Cusp(1, 100): 1, Cusp(1, 50): -5, Cusp(1, 25): 4,
                 Cusp(1, 4): -1, Cusp(1, 2): 5, Cusp(1, 1): -4}
    for x, want in displayed.items():
        assert ov[x] == want
    assert {x for x, o in ov.items() if o < 0} == {Cusp(1, 50), Cusp(1, 4), Cusp(1, 1)}
    # order vector of t over Gamma0(20)
    t_orders = {Cusp(1, 20): -5, Cusp(1, 10): 1, Cusp(1, 5): 0,
                Cusp(1, 4): 1, Cusp(1, 2): 1, Cusp(1, 1): 2}
    for x, want in t_orders.items():
        assert eta_order_at_cusp(basis20.t_quotient(), x) == want
    # tamed-order tables at the canonical taming powers
    m_a, m_t, m_n, m_1, m_h = 2, 5, 5, 2, 3
    t_scaled = basis20.t_quotient().scale_tau(ell)

    def tamed(eq, m, x):
        return m * eta_order_at_cusp(t_scaled, x) + eta_order_at_cusp(eq.at_level(100), x)

    for x, (fa, ft, fn) in TAMED_ORDERS_A_T_TINV.items():
        assert tamed(A.at_level(100), m_a, x) == fa(m_a)
        assert tamed(basis20.t_quotient(), m_t, x) == ft(m_t)
        assert tamed(basis20.t_quotient().inverse(), m_n, x) == fn(m_n)
    for x, (fg, fh) in TAMED_ORDERS_G_H.items():
        assert tamed(G20, m_1, x) == fg(m_1)
        assert tamed(H20, m_h, x) == fh(m_h)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"table reproduction took {elapsed:.2f}s"
    verdict(1, "table reproduction, exact")


def test_criterion_2_t_search(rr_spec):
    t0 = time.monotonic()
    ps = compute_pole_sets(build_A(rr_spec.gen), 5)
    t = solve_W(20, ps, 5)
    assert t is not None and verify_W(t, 5, ps)
    assert dict(t.exponents) == {1: 2, 4: 2, 5: -2, 10: 8, 20: -10}
    for n0 in (1, 2, 3, 4):
        assert solve_W(20, ps, n0) is None
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"t-search took {elapsed:.1f}s"
    verdict(2, "W(5) solution found, none below order 5")


def test_criterion_3_stability_constants(basis20, rr_spec):
    t0 = time.monotonic()
    se = compute_m_constants(basis20, build_A(rr_spec.gen), 5)
    assert se.exponent(1, 0, 0) == 2
    assert se.exponent(0, 1, 0) == 5 and se.exponent(0, -1, 0) == 5
    assert tuple(se.exponent(0, 0, k) for k in range(1, 5)) == (2, 3, 4, 6)
    assert {eq: se.taming_power(eq) for eq in (G20, H20)} == {G20: 2, H20: 3}
    assert time.monotonic() - t0 < 10
    verdict(3, "stability constants m_A=2, m_t=5, m_k=(2,3,4,6)")


def test_criterion_4_integral_closure(rr_image_table):
    t0 = time.monotonic()
    checked = 0
    for i in (0, 1):
        for j in range(-3, 4):
            for k in range(5):
                me = rr_image_table.image(i, j, k)  # raises on stall/non-integer
                assert all(isinstance(c, int) for c in me.terms.values())
                checked += 1
    assert checked == 70
    elapsed = time.monotonic() - t0
    assert elapsed < 600, f"closure table took {elapsed:.1f}s"
    verdict(4, "closure: 70 fundamental images with exact integer coefficients")


def test_criterion_5_mod5_sequence(rr_image_table):
    seq = t_sequence(rr_image_table, 14)
    assert seq[1].terms == {(-1, 0): 4, (-1, 1): 2, (-1, 2): 1, (-1, 3): 1}
    for a, want in T_SEQUENCE_MOD5.items():
        assert seq[a].terms == want
    for a in (3, 4, 5, 6):
        assert seq[a + 8].terms == seq[a].terms
    verdict(5, "mod-5 image sequence and its period-8 repetition")


def test_criterion_6_rogers_ramanujan(rr_spec, rr_image_table):
    t0 = time.monotonic()
    report = iterate(rr_spec, rr_image_table)
    assert report.V == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5]
    for a in range(6):
        assert report.V[2 * a] == a
    assert report.ok
    elapsed = time.monotonic() - t0
    assert elapsed < 1800, f"B=5 run took {elapsed:.1f}s"
    verdict(6, "24n==1 mod 5^(2a) family verified to a=5 (B=5, 10 steps)")


def test_criterion_6_deep_full_depth(rr_image_table):
    # B=7 reaches j = -5, deeper than any image a B=5 run needs
    t0 = time.monotonic()
    report = iterate(rogers_ramanujan(B=7), rr_image_table)
    assert report.V == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7]
    assert report.ok
    assert min(s["j_min"] for s in report.support) == -5
    elapsed = time.monotonic() - t0
    assert elapsed < 600, f"B=7 run took {elapsed:.1f}s"
    verdict(6, "deep: 24n==1 mod 5^(2a) family verified to a=7 (B=7, 14 steps)")


def test_criterion_7_andrews_sellers(as_image_table):
    t0 = time.monotonic()
    spec = andrews_sellers(B=3)
    report = iterate(spec, as_image_table)
    assert report.V == [0, 1, 2, 3]
    assert report.ok
    elapsed = time.monotonic() - t0
    assert elapsed < 600, f"B=3 run took {elapsed:.1f}s"
    verdict(7, "12n==1 mod 5^a family verified to a=3 (B=3)")


def test_criterion_7_extended_full_depth(as_image_table):
    # the full-depth run; optional in spirit but cheap enough to keep gating
    t0 = time.monotonic()
    spec = andrews_sellers(B=5)
    report = iterate(spec, as_image_table)
    assert report.V == [0, 1, 2, 3, 4, 5]
    elapsed = time.monotonic() - t0
    assert elapsed < 14400, f"B=5 run took {elapsed:.1f}s"
    verdict(7, "extended: 12n==1 family verified to a=5 (B=5)")


def test_criterion_7_deep_full_depth(as_image_table):
    # B=7, 7 steps: the Andrews-Sellers counterpart of criterion 6's deep run
    t0 = time.monotonic()
    report = iterate(andrews_sellers(B=7), as_image_table)
    assert report.V == [0, 1, 2, 3, 4, 5, 6, 7]
    assert report.ok
    elapsed = time.monotonic() - t0
    assert elapsed < 600, f"B=7 run took {elapsed:.1f}s"
    verdict(7, "deep: 12n==1 mod 5^a family verified to a=7 (B=7, 7 steps)")


def test_criterion_8_oracle_cross_checks(rr_spec, as_spec):
    t0 = time.monotonic()
    assert direct_oracle(rr_spec.gen, 25, 24, 5, 1, 100) is None
    assert time.monotonic() - t0 < 60
    t0 = time.monotonic()
    assert direct_oracle(rr_spec.gen, 125, 99, 5, 1, 50) is None
    assert direct_oracle(rr_spec.gen, 125, 99, 5, 2, 50) is not None
    assert time.monotonic() - t0 < 60
    t0 = time.monotonic()
    assert direct_oracle(as_spec.gen, 5, 3, 5, 1, 200) is None
    assert time.monotonic() - t0 < 60
    # deeper cases of both families: 24n == 1 mod 5^4 (RR, step 4 gains 5^2)
    # and 12n == 1 mod 5^4, 5^5 (AS)
    t0 = time.monotonic()
    assert direct_oracle(rr_spec.gen, 625, 599, 5, 2, 20) is None
    assert direct_oracle(as_spec.gen, 625, 573, 5, 4, 20) is None
    assert direct_oracle(as_spec.gen, 3125, 1823, 5, 5, 8) is None
    assert time.monotonic() - t0 < 60
    # 24n == 1 mod 5^6 (RR, step 6 gains 5^3) and 12n == 1 mod 5^6 (AS)
    t0 = time.monotonic()
    assert direct_oracle(rr_spec.gen, 15625, 14974, 5, 3, 2) is None
    assert direct_oracle(as_spec.gen, 15625, 14323, 5, 6, 8) is None
    assert time.monotonic() - t0 < 60
    verdict(8, "brute-force congruence checks (two families, up to 5^6, witness found)")


def test_criterion_9_property_suites():
    # seeds of its own: each suite's own test runs its default seed, whose
    # cases a second run would only repeat
    assert run_u_linearity(cases=200, seed=91) >= 200
    assert run_u_factors_out_ell_powers(cases=200, seed=92) >= 200
    assert run_u_root_of_unity_identity(cases=200, seed=93) >= 200
    assert run_ring_laws(cases=200, seed=94) >= 200
    assert run_ligozat_matches_valuation(cases=200, seed=95) >= 200
    assert run_reduce_reconstruction(cases=200, seed=96) >= 200
    assert run_order_class_invariance(cases=200, seed=97) >= 200
    verdict(9, "randomized property suites, 200+ cases each, exact")


def test_criterion_10_consistency_oracle(rr_spec, as_spec, rr_image_table, as_image_table):
    for alpha in range(1, 5):
        assert consistency_check(rr_spec, rr_image_table, alpha, 40)
        assert consistency_check(as_spec, as_image_table, alpha, 40)
    # alpha = 5 expands each generating function once, to 3125 * 39 + lam_5 + 1
    # coefficients: 124 350 (RR) and 123 699 (AS)
    for spec, table in ((rr_spec, rr_image_table), (as_spec, as_image_table)):
        t0 = time.monotonic()
        assert consistency_check(spec, table, 5, 40)
        assert time.monotonic() - t0 < 60
    verdict(10, "basis-side expansions match direct progression slices mod 5^B")
