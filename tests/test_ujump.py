"""U_ell behaviour, the auxiliary quotient A, stability exponents, images."""

import itertools
import os
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from etacheck import basis, series, ujump
from etacheck.basis import (
    AlgebraBasis,
    ModuleElement,
    load_basis_n20,
    module_element_series,
    mw_reduce,
)
from etacheck.cli import main
from etacheck.errors import ContractError, SpecError
from etacheck.eta import EtaQuotient, divisors, eta_expand
from etacheck.modcurve import eta_order_at_cusp, finite_cusps, newman_check
from etacheck.series import QSeries, ZZ, zmod
from etacheck.ujump import (
    FamilyGenerator,
    UImageTable,
    build_A,
    compute_m_constants,
    u_ell,
)
from etacheck.verifier import andrews_sellers, iterate, rogers_ramanujan

RR = FamilyGenerator(4, {1: -3, 2: 5, 4: -2}, 5)
AS = FamilyGenerator(4, {1: -4, 2: 5, 4: -2}, 5)


@pytest.fixture(scope="session")
def b20():
    return load_basis_n20()


@pytest.fixture(scope="session")
def rr_table(b20, tmp_path_factory):
    cache = tmp_path_factory.mktemp("images-rr")
    return UImageTable(b20, build_A(RR), 5, cache_dir=cache)


def test_u_ell_examples():
    f = QSeries.from_terms(ZZ, {10: 1, 3: 2, 5: 7}, 11)
    u = u_ell(f, 5)
    assert u.terms() == {1: 7, 2: 1}
    c = QSeries.from_terms(ZZ, {0: 9}, 7)
    assert u_ell(c, 5).terms() == {0: 9}
    assert u_ell(QSeries.zero(ZZ, 10), 5).is_zero()


def random_poly(rng, lo=-6, hi=18, ring=ZZ):
    n = rng.randint(1, min(14, hi - lo))
    val = rng.randint(lo, hi - n)
    coeffs = [rng.randint(-20, 20) for _ in range(n)]
    return QSeries(ring, coeffs, val, val + n) if any(coeffs) \
        else QSeries.zero(ring, val + n)


def run_u_linearity(cases=200, seed=3):
    rng = random.Random(seed)
    for _ in range(cases):
        ell = rng.choice([5, 7])
        f = random_poly(rng)
        g = random_poly(rng)
        a = rng.randint(-5, 5)
        lhs = u_ell(f.scale(a).add(g), ell)
        rhs = u_ell(f, ell).scale(a).add(u_ell(g, ell))
        assert lhs.agrees_with(rhs)
    return cases


def test_u_is_linear():
    run_u_linearity()


def run_u_factors_out_ell_powers(cases=200, seed=9):
    rng = random.Random(seed)
    for _ in range(cases):
        ell = rng.choice([5, 7])
        f = random_poly(rng, lo=0, hi=8)
        g = random_poly(rng, lo=0, hi=30)
        lhs = u_ell(f.substitute_power(ell).mul(g), ell)
        rhs = f.mul(u_ell(g, ell))
        assert lhs.agrees_with(rhs)
    return cases


def test_u_factors_substituted_series():
    run_u_factors_out_ell_powers()


def cyclotomic_filter_sum(f, ell):
    """sum over r of f(zeta^r q^(1/ell)), evaluated through the exponent
    filter sum_r zeta^(r*n) = ell*[ell | n]; exact, no complex numbers."""
    out = {}
    for e, c in f.terms().items():
        if e % ell == 0:
            out[e // ell] = out.get(e // ell, 0) + ell * c
    return out


def run_u_root_of_unity_identity(cases=200, seed=27):
    rng = random.Random(seed)
    for _ in range(cases):
        ell = rng.choice([5, 7, 11])
        f = random_poly(rng, lo=-10, hi=30)
        summed = cyclotomic_filter_sum(f, ell)
        u = u_ell(f, ell)
        scaled = {e: ell * c for e, c in u.terms().items()}
        want = {e: c for e, c in summed.items() if e < u.trunc}
        assert scaled == want
    return cases


def test_u_root_of_unity_filter():
    run_u_root_of_unity_identity()


def schoolbook_mul(f, g):
    """f*g by the definition: every pair of terms, the window the operands
    determine, reduced into the ring by the QSeries constructor."""
    val = f.val + g.val
    trunc = min(f.trunc + g.val, g.trunc + f.val)
    out = [0] * max(trunc - val, 0)
    for i, x in enumerate(f.coeffs):
        for j, y in enumerate(g.coeffs):
            if i + j < len(out):
                out[i + j] += x * y
    return QSeries(f.ring, out, min(val, trunc), trunc)


def run_u_of_product(cases=600, seed=41):
    # u_ell(f, ell, g) never forms f*g, yet must equal u_ell(f.mul(g), ell) in
    # value, valuation and truncation: over Z and Z/5^e, negative valuations,
    # zero and length-1 operands, 1- to 300-bit coefficients.  Both sides go
    # through the window code of QSeries.mul, so f.mul(g) itself is checked
    # against the schoolbook product too
    rng = random.Random(seed)
    rings = [ZZ, zmod(5, 1), zmod(5, 3), zmod(5, 40)]

    def operand(ring):
        n = rng.choice([0, 1, 1, 2, rng.randint(3, 60)])
        bits = rng.randint(1, 300)
        coeffs = [rng.choice([0, rng.randint(-(1 << bits), 1 << bits)]) for _ in range(n)]
        val = rng.randint(-40, 12)
        return QSeries(ring, coeffs, val, val + n + rng.randint(0, 4))

    for _ in range(cases):
        ring = rng.choice(rings)
        ell = rng.choice([2, 3, 5, 7, 11])
        f, g = operand(ring), operand(ring)
        assert f.mul(g) == schoolbook_mul(f, g), (f, g)
        assert u_ell(f, ell, g) == u_ell(f.mul(g), ell), (f, g, ell)
    return cases


def test_u_of_product_matches_u_of_mul():
    run_u_of_product()


def test_build_a_rogers_ramanujan():
    A = build_A(RR)
    assert A.level == 100
    assert dict(A.exponents) == {1: -3, 2: 5, 4: -2, 25: 3, 50: -5, 100: 2}
    assert newman_check(A)[0]
    # expansion equals q * G(q) / G(q^25)
    trunc = 60
    direct = RR.series(trunc).mul(RR.series(3).substitute_power(25).inv()).shift(1)
    expanded = eta_expand(A, trunc)
    assert expanded.agrees_with(direct)
    assert expanded.leading() == (1, 1)


def test_build_a_andrews_sellers():
    A = build_A(AS)
    assert dict(A.exponents) == {1: -4, 2: 5, 4: -2, 25: 4, 50: -5, 100: 2}
    assert newman_check(A)[0]
    trunc = 60
    direct = AS.series(trunc).mul(AS.series(3).substitute_power(25).inv()).shift(2)
    assert eta_expand(A, trunc).agrees_with(direct)


def test_build_a_trivial():
    gen = FamilyGenerator(4, {}, 5)
    assert build_A(gen).exponents == ()


def test_family_generator_validation():
    with pytest.raises(SpecError):
        FamilyGenerator(4, {1: -3, 2: 5, 4: -2}, 4)      # ell not prime
    with pytest.raises(SpecError):
        FamilyGenerator(4, {1: -3, 2: 5, 4: -2}, 3)      # ell too small
    with pytest.raises(SpecError):
        FamilyGenerator(4, {1: -5}, 5)                   # weighted sum out of range
    with pytest.raises(SpecError):
        FamilyGenerator(4, {3: 1}, 5)                    # 3 does not divide 4
    # a float is refused, never truncated (r_1 = -3.7 would become -3)
    with pytest.raises(SpecError, match="exponent -3.7"):
        FamilyGenerator(4, {1: -3.7, 2: 5, 4: -2}, 5)
    with pytest.raises(SpecError, match="divisor 2.0"):
        FamilyGenerator(4, {1: -3, 2.0: 5, 4: -2}, 5)
    with pytest.raises(SpecError, match="M 4.0"):
        FamilyGenerator(4.0, {1: -3, 2: 5, 4: -2}, 5)
    with pytest.raises(SpecError, match="ell 5.0"):
        FamilyGenerator(4, {1: -3, 2: 5, 4: -2}, 5.0)


@pytest.mark.parametrize("ell", [5, 7, 11, 13])
def test_a_is_modular_for_every_family(ell):
    # ell^2 == 1 mod 24 zeroes A's sums mod 24 and its prod d^r_d is
    # ell^(-2*sum r_d), a square, so no family gives an A that fails Newman's
    # conditions or has a fractional q-shift; M divisible by ell^2 lets r_d
    # and -r_d' meet at one divisor d = ell^2*d'
    rng = random.Random(ell)
    for M in (1, 2, 6, 12, ell ** 2, 2 * ell ** 2, 6 * ell ** 2):
        for _ in range(12):
            r = {d: rng.randint(-6, 6) for d in divisors(M)[1:]}
            wsum = -rng.randint(0, 24 // (ell + 1))
            r[1] = wsum - sum(d * e for d, e in r.items())
            A = build_A(FamilyGenerator(M, r, ell))
            assert newman_check(A)[0]
            assert A.q_shift() * 24 == (1 - ell ** 2) * wsum


def test_generating_function_substitution():
    # the ell^2-substituted generating function keeps its first two nonzero
    # terms at exponents 0 and 25
    c = RR.series(2).substitute_power(25)
    assert sorted(c.terms()) == [0, 25]
    assert c.terms()[0] == 1


def test_m_constants(b20):
    se = compute_m_constants(b20, build_A(RR), 5)
    assert se.exponent(1, 0, 0) == 2
    assert se.exponent(0, 1, 0) == 5 and se.exponent(0, -1, 0) == 5
    assert tuple(se.exponent(0, 0, k) for k in range(1, 5)) == (2, 3, 4, 6)


def test_m_constants_minimality(b20):
    # one unit less fails the defining inequality somewhere
    from etacheck.modcurve import cusp_representatives, eta_order_at_cusp, infinity_class
    se = compute_m_constants(b20, build_A(RR), 5)
    t_scaled = b20.t_quotient().scale_tau(5)
    cusps = [x for x in cusp_representatives(100) if x != infinity_class(100)]
    for eq, m in ((build_A(RR), se.exponent(1, 0, 0)),
                  (b20.t_quotient().at_level(100), se.exponent(0, 1, 0)),
                  (b20.t_quotient().inverse().at_level(100), se.exponent(0, -1, 0))):
        assert all((m * eta_order_at_cusp(t_scaled, x)
                    + eta_order_at_cusp(eq, x)) >= 0 for x in cusps)
        assert any((m - 1) * eta_order_at_cusp(t_scaled, x)
                   + eta_order_at_cusp(eq, x) < 0 for x in cusps)


def test_stability_exponent_values(b20):
    se = compute_m_constants(b20, build_A(RR), 5)
    assert se.exponent(1, 1, 1) == 7
    assert se.exponent(0, 0, 0) == 0
    assert se.exponent(0, -1, 0) == 5
    assert se.exponent(1, -2, 4) == 12


def summed_bound(b, A, i, j, k):
    """The per-factor bound i*m_A + |j|*m_(+-t) + m_k, with each factor's own
    taming power and m_k the largest sum of them over a construction term of
    g_k: an upper bound on the least exponent, which it overshoots."""
    t_eq = b.t_quotient()
    factors = [A, t_eq if j > 0 else t_eq.inverse()]
    construction = b.gs[k - 1].construction if k else ((1, ()),)
    se = compute_m_constants(b, A, 5)
    powers = {f: se.taming_power(f) for f in factors + [f for _, fs in construction for f in fs]}
    m_k = max(sum(powers[f] for f in fs) for _, fs in construction)
    return i * powers[A] + abs(j) * powers[factors[1]] + m_k


@pytest.mark.parametrize("gen", [RR, AS], ids=["rr", "as"])
def test_each_exponent_is_the_least_one(b20, gen):
    # recomputed from Fraction orders of each term's product, one eta
    # quotient per term, at every finite cusp of Gamma0(100)
    A = build_A(gen)
    se = compute_m_constants(b20, A, 5)
    cusps = finite_cusps(100)
    t_eq = b20.t_quotient()
    ord_scaled_t = [eta_order_at_cusp(t_eq.scale_tau(5), x) for x in cusps]
    below = 0
    for i, j, k in itertools.product((0, 1), range(-8, 4), range(5)):
        terms = b20.gs[k - 1].construction if k else ((1, ()),)
        products = [EtaQuotient(100, list(A.pow(i).exponents) + list(t_eq.pow(j).exponents)
                                + [p for f in fs for p in f.exponents]) for _, fs in terms]
        ords = [[eta_order_at_cusp(eq, x) for x in cusps] for eq in products]

        def holds(m):
            return all(m * ot + o >= 0 for row in ords for ot, o in zip(ord_scaled_t, row))

        m = se.exponent(i, j, k)
        assert holds(m) and (m == 0 or not holds(m - 1)), (i, j, k)
        bound = summed_bound(b20, A, i, j, k)
        assert m <= bound
        below += -4 <= j <= 0 and m < bound
    assert below == 36


def test_least_exponent_gives_the_same_images(b20, monkeypatch):
    # the Laurent-module image is unique: the summed bound only makes every
    # expansion reach further.  These keys lie beyond every benchmark run.
    keys = [(RR, (1, 3, 4)), (RR, (0, -6, 2)), (AS, (1, -5, 4))]
    least = [UImageTable(b20, build_A(gen), 5).image(*key) for gen, key in keys]
    assert all(compute_m_constants(b20, build_A(gen), 5).exponent(*key)
               < summed_bound(b20, build_A(gen), *key) for gen, key in keys)
    summed = []
    for gen, key in keys:
        A = build_A(gen)
        monkeypatch.setattr(ujump.StabilityExponents, "exponent",
                            lambda se, i, j, k: summed_bound(b20, A, i, j, k))
        summed.append(UImageTable(b20, A, 5).image(*key))
    assert [me.terms for me in summed] == [me.terms for me in least]


def test_a_pole_no_power_of_t_cancels_is_refused(b20):
    # 1/A has a pole at 1/25, where t(5*tau) has order 0
    inv_A = build_A(RR).inverse()
    se = compute_m_constants(b20, inv_A, 5)
    with pytest.raises(ContractError, match="no power of t can cancel it"):
        se.taming_power(inv_A)
    assert se.exponent(0, 1, 0) == 5 and se.exponent(0, -1, 0) == 5
    assert tuple(se.exponent(0, 0, k) for k in range(1, 5)) == (2, 3, 4, 6)
    with pytest.raises(ContractError, match="pole at 1/25 .* no power of t can cancel it"):
        se.exponent(1, 0, 0)


# (call, exception, message): the guards of the stability exponents
GUARDS = [
    # eta(tau)/eta(20*tau) is not modular: its order at 0 is 95/24
    (lambda: compute_m_constants(load_basis_n20(), build_A(RR), 5).taming_power(
        EtaQuotient(20, {1: 1, 20: -1})), ContractError, "non-integral order for a modular quotient"),
    # A is read at the level ell*N like every other quotient
    (lambda: compute_m_constants(load_basis_n20(), build_A(RR).scale_tau(3), 5), SpecError,
     "divisor 3 does not divide target level 100"),
]


@pytest.mark.parametrize("call, exc, message", GUARDS, ids=[m for _, _, m in GUARDS])
def test_guards_refuse(call, exc, message):
    with pytest.raises(exc, match=re.escape(message)):
        call()


def test_least_power_refuses_when_no_power_fits():
    # m = 3 cancels the pole at 0, and leaves one at 1/2 where t(ell*tau)
    # itself has a pole
    with pytest.raises(ContractError, match="no taming power works at 1/2"):
        ujump._least_power((Fraction(0), Fraction(1, 2)), (1, -1), (-3, 1), "f")


@pytest.mark.parametrize("key", [(0, -1, 0), (1, -4, 4), (1, 0, 0)])
def test_precision_is_the_least_sufficient(rr_table, b20, key, monkeypatch):
    # one coefficient less leaves the reduction short of its check
    # coefficients, and the guard refuses it
    assert UImageTable(b20, build_A(RR), 5).image(*key) == rr_table.image(*key)
    precision = UImageTable._precision
    monkeypatch.setattr(UImageTable, "_precision",
                        lambda self, *index: precision(self, *index) - 1)
    with pytest.raises(ContractError, match="short of the constant term"):
        UImageTable(b20, build_A(RR), 5).image(*key)


def test_image_of_one(rr_table):
    assert rr_table.image(0, 0, 0) == ModuleElement(ZZ, {(0, 0): 1})


def test_cached_images_and_series_cannot_be_changed(rr_table, b20):
    # every later step reads the table's image, and the basis's monomials
    me = rr_table.image(0, -1, 0)
    with pytest.raises(AttributeError):
        me.terms = {}
    f = b20.monomial(1, 0, 10)
    with pytest.raises(AttributeError):
        del f.val
    assert rr_table.image(0, -1, 0) is me and me.terms and f.val == -5


def test_image_of_reciprocal_t_mod_5(rr_table):
    # the inverse-generator image reduced mod 5: 4/t + 2 g1/t + g2/t + g3/t
    me = ModuleElement(zmod(5, 1), rr_table.image(0, -1, 0).terms)
    assert me.terms == {(-1, 0): 4, (-1, 1): 2, (-1, 2): 1, (-1, 3): 1}


def test_image_of_t_keeps_its_pole(rr_table):
    # U(t) itself retains the surviving q^-5 term of t as a simple pole, so
    # its module expression must carry a t-power reaching order -1 ... the
    # expansion check below pins the exact leading behaviour instead of a form
    me = rr_table.image(0, 1, 0)
    s = module_element_series(me, load_basis_n20(), 5)
    assert s.leading() == (-1, 1)


T_SEQUENCE_MOD5 = {
    1: {(-1, 0): 4, (-1, 1): 2, (-1, 2): 1, (-1, 3): 1},
    2: {(-1, 1): 3, (-1, 3): 2},
    3: {(-1, 1): 3, (-1, 3): 2},
    4: {(-1, 0): 3, (-1, 1): 4, (-1, 2): 2},
    5: {(-1, 1): 4, (-1, 3): 1},
    6: {(-1, 0): 4, (-1, 1): 2, (-1, 2): 1},
}


def t_sequence(table, count):
    from etacheck.ujump import u_step
    seq = {1: ModuleElement(zmod(5, 1), table.image(0, -1, 0).terms)}
    for a in range(2, count + 1):
        seq[a] = u_step(table, seq[a - 1], with_A=(a % 2 == 0))
    return seq


def test_t_sequence_mod_5_values(rr_table):
    seq = t_sequence(rr_table, 6)
    for a, want in T_SEQUENCE_MOD5.items():
        assert seq[a].terms == want, a


def test_t_sequence_periodicity(rr_table):
    seq = t_sequence(rr_table, 14)
    for a in (3, 4, 5, 6):
        assert seq[a + 8].terms == seq[a].terms
    # a cycle can never fade to zero, however many steps are applied
    assert all(not seq[a].is_zero() for a in seq)


def test_image_matches_series_identity(rr_table, b20):
    # expanding the image must reproduce u_ell of the input expansion
    for (i, j, k) in [(0, 1, 0), (1, 0, 0), (0, -1, 2), (1, 1, 3), (0, 2, 1)]:
        me = rr_table.image(i, j, k)
        check = 30
        got = module_element_series(me, b20, check)
        f = b20.monomial(j, k, 400)
        if i:
            f = f.mul(eta_expand(rr_table.A, 400))
        want = u_ell(f, 5).truncate(check)
        assert got.agrees_with(want), (i, j, k)


def test_reduce_tamed_first_image_is_integral(b20):
    # t^2 * U(A) lies in the module with integer coefficients
    a_ser = eta_expand(build_A(RR), 320)
    f = u_ell(a_ser, 5).mul(b20.monomial(2, 0, 320))
    res = mw_reduce([f], b20)[0]
    assert res.ring == ZZ and res.terms
    assert module_element_series(res, b20, f.trunc).agrees_with(f)


def test_a_failed_image_names_its_key(b20, monkeypatch):
    # one product of a batch off by one in its last check coefficient: the
    # batch is refused under that key, and nothing is kept
    tamed = UImageTable._tamed

    def corrupt(self, i, j, k):
        prod = tamed(self, i, j, k)
        if (i, j, k) == (0, -1, 0):
            prod = prod.add(QSeries.from_terms(ZZ, {prod.trunc - 1: 1}, prod.trunc))
        return prod

    monkeypatch.setattr(UImageTable, "_tamed", corrupt)
    table = UImageTable(b20, build_A(RR), 5)
    with pytest.raises(ContractError,
                       match=r"^image \(0, -1, 0\): series \d+: nonzero residual"):
        table.images([(0, 1, 0), (0, -1, 0), (0, 0, 1)])
    assert table._mem == {}


def test_image_disk_cache_roundtrip(b20, tmp_path):
    table = UImageTable(b20, build_A(RR), 5, cache_dir=tmp_path)
    me = table.image(0, 1, 0)
    fresh = UImageTable(b20, build_A(RR), 5, cache_dir=tmp_path)
    assert fresh.image(0, 1, 0) == me
    path = fresh._path(0, 1, 0)
    assert path.exists()
    head = path.read_text().splitlines()[0].split()
    assert [int(x) for x in head] == [20, 5, 0, 1, 0, 4]


def test_image_store_ignores_leftover_temporary(b20, tmp_path):
    # debris at "<key>.tmp" (a crashed writer's, say) must not block a store:
    # each store writes through a temporary file of its own
    table = UImageTable(b20, build_A(RR), 5, cache_dir=tmp_path)
    path = table._path(0, 0, 0)
    path.with_suffix(".tmp").mkdir(parents=True)
    me = table.image(0, 0, 0)
    assert path.exists()
    assert UImageTable(b20, build_A(RR), 5, cache_dir=tmp_path).image(0, 0, 0) == me
    assert sorted(p.name for p in path.parent.iterdir()) == [path.with_suffix(".tmp").name,
                                                             path.name]


def test_failed_store_leaves_no_file(b20, tmp_path, monkeypatch):
    # a store whose os.replace fails raises, and removes its temporary file:
    # the key directory holds neither it nor the image
    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(ujump.os, "replace", fail)
    table = UImageTable(b20, build_A(RR), 5, cache_dir=tmp_path)
    with pytest.raises(OSError, match="replace failed"):
        table.image(0, 0, 0)
    assert list(table._path(0, 0, 0).parent.iterdir()) == []


def test_tables_differ_between_families(b20, rr_table, tmp_path):
    as_table = UImageTable(b20, build_A(AS), 5, cache_dir=tmp_path)
    assert as_table.fingerprint() != rr_table.fingerprint()
    assert as_table.image(1, 0, 0) != rr_table.image(1, 0, 0)
    assert as_table.image(0, 1, 0) == rr_table.image(0, 1, 0)  # no A involved


# -- precision: each monomial expanded to what its use reads ----------------

def fresh_basis():
    """A level-20 basis with an empty monomial store."""
    b20 = load_basis_n20()
    return AlgebraBasis(b20.level, b20.t, b20.gs)


@pytest.fixture(scope="module")
def rr_cold_run(tmp_path_factory):
    """A cold RR B=5 iterate on a fresh basis and an empty disk cache, with
    (keys, parts) for every batch computed, the size of every batch reduced
    in this process, and (batch, in a part, store, key) for every expansion
    built here or kept from a worker."""
    cache = tmp_path_factory.mktemp("images-rr-cold")
    table = UImageTable(fresh_basis(), build_A(RR), 5, cache_dir=cache)
    computed, reduced, builds, in_part = [], [], [], []
    compute, part = UImageTable._computed, UImageTable._part

    def record(self, keys, parts):
        computed.append((list(keys), parts))
        return compute(self, keys, parts)

    def record_part(self, keys):
        in_part.append(True)
        try:
            return part(self, keys)
        finally:
            in_part.pop()

    def build(store, key, prec, make):
        held = store.get(key)
        if held is None or held.trunc - held.val < prec:
            builds.append((len(computed), bool(in_part), id(store), key))
        return series.stored(store, key, prec, make)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(UImageTable, "_computed", record)
        mp.setattr(UImageTable, "_part", record_part)
        mp.setattr(ujump, "mw_reduce", lambda fs, b: reduced.append(len(fs)) or mw_reduce(fs, b))
        mp.setattr(ujump, "stored", build)
        mp.setattr(basis, "stored", build)
        report = iterate(rogers_ramanujan(B=5), table)
    return table, report, computed, reduced, builds


def test_cold_iterate_builds_each_expansion_once_per_batch(rr_cold_run):
    # everything a batch reads is expanded before any part is computed,
    # largest precision first, so no part expands anything, no expansion is
    # rebuilt within a batch, and the monomial of each reduction step is
    # made only to the window that step reads, never to the precision of
    # the deepest image (616 here)
    table, report, _, _, builds = rr_cold_run
    assert report.V == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5]
    assert builds and len(set(builds)) == len(builds)
    assert not any(in_part for _, in_part, _, _ in builds)
    b, steps = table.basis, 0
    for (e, k), s in b._monomials.items():
        if e > 0 and k > 0:  # only a reduction step reads t**e * g_k
            steps += 1
            assert s.trunc - s.val == b.pole_order(e, k) + 1 + table.SLACK, (e, k)
    assert steps


def test_each_step_computes_its_images_as_one_batch(rr_cold_run, monkeypatch):
    # the 33 images of a cold run are computed in one batch per step that
    # computes any, each batch in as many parts as _part_count gives, and
    # part 0 is reduced here as one batch; a warm run, which loads them
    # all, reduces nothing
    table, report, computed, reduced, _ = rr_cold_run
    assert [len(keys) for keys, _ in computed] == [1, 9, 18, 5]
    assert [parts for _, parts in computed] == [ujump._part_count(n) for n in (1, 9, 18, 5)]
    assert reduced == [len(keys[::parts]) for keys, parts in computed]
    calls = []
    monkeypatch.setattr(ujump, "mw_reduce", lambda fs, b: calls.append(fs) or mw_reduce(fs, b))
    warm = UImageTable(fresh_basis(), build_A(RR), 5, cache_dir=table.cache_dir)
    assert iterate(rogers_ramanujan(B=5), warm).V == report.V
    assert calls == []


def test_part_count_follows_the_cores_and_the_batch_size(monkeypatch):
    # one part per core the process may use, each of PART_KEYS images or
    # more; a batch too small to split, or a host without sched_getaffinity,
    # computes in one part
    monkeypatch.setattr(ujump.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    n = ujump.PART_KEYS
    assert [ujump._part_count(k) for k in (1, 2 * n - 1, 2 * n, 3 * n, 9 * n)] == [1, 1, 2, 3, 3]
    monkeypatch.delattr(ujump.os, "sched_getaffinity")
    assert ujump._part_count(9 * n) == 1


# -- fan-out: a batch's parts in forked workers ------------------------------

def no_child_left():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.mark.parametrize("family", [rogers_ramanujan, andrews_sellers])
def test_two_parts_give_the_images_of_one(family, monkeypatch):
    # every batch of a cold B=7 run forced into two parts (a one-key batch
    # stays whole) gives the images one part gives, in the same batches,
    # whatever the cores of the host
    spec = family(B=7)
    tables, batches, stores = [], [], []
    compute = UImageTable._computed
    for parts in (1, 2):
        seen = []
        monkeypatch.setattr(UImageTable, "_computed",
                            lambda self, keys, _, parts=parts, seen=seen:
                            seen.append(list(keys)) or compute(self, keys, parts))
        table = UImageTable(fresh_basis(), build_A(spec.gen), 5)
        iterate(spec, table)
        tables.append(table._mem)
        batches.append(seen)
        stores.append([dict(store) for store in table._stores()])
        assert no_child_left()
    assert batches[0] == batches[1] and max(len(keys) for keys in batches[0]) >= 18
    assert tables[0] == tables[1]
    # the expansions the worker of the first round made were all kept here
    assert stores[0] == stores[1]
    assert [tables[1][key] for key in tables[0]] == list(tables[0].values())


def test_a_worker_error_reaches_the_cli_as_exit_3(tmp_path, capsys, monkeypatch):
    # one product corrupted in every worker and nowhere else: the run stops
    # with exit 3 under the key of the first image of part 1, prints no
    # verdict, stores none of the batch and leaves no child behind
    parent, tamed, batches = os.getpid(), UImageTable._tamed, []

    def corrupt(self, i, j, k):
        prod = tamed(self, i, j, k)
        if os.getpid() != parent:
            prod = prod.add(QSeries.from_terms(ZZ, {prod.trunc - 1: 1}, prod.trunc))
        return prod

    compute = UImageTable._computed
    monkeypatch.setattr(UImageTable, "_tamed", corrupt)
    monkeypatch.setattr(UImageTable, "_computed",
                        lambda self, keys, _: batches.append(keys) or compute(self, keys, 2))
    code = main(["--cache-dir", str(tmp_path), "verify", "rogers-ramanujan", "--B", "5"])
    out, err = capsys.readouterr()
    failed = batches[-1]
    assert len(failed) > 1 and all(len(keys) == 1 for keys in batches[:-1])
    assert code == 3 and "VERIFIED" not in out
    assert re.search(rf"^internal contract violation: image {re.escape(str(failed[1]))}: "
                     r"series 0: nonzero residual", err), err
    stored = {p.name for p in tmp_path.rglob("i*_j*_k*.txt")}
    assert len(stored) == sum(map(len, batches[:-1])) and no_child_left()


def test_a_worker_that_leaves_without_a_result_is_refused(b20, monkeypatch):
    parent, part = os.getpid(), UImageTable._part
    monkeypatch.setattr(UImageTable, "_part", lambda self, keys: part(self, keys)
                        if os.getpid() == parent else os._exit(0))
    table = UImageTable(b20, build_A(RR), 5)
    keys = [(0, j, 0) for j in range(-3, 3)]
    with pytest.raises(ContractError, match=r"^image worker \d+ left without a result"):
        table._computed(keys, 2)
    assert table._mem == {} and no_child_left()


def test_a_failed_fork_closes_both_ends_of_its_pipe(b20, monkeypatch):
    # the process limit reached, say: the fork's OSError is raised and
    # neither end of the pipe made for the worker stays open
    def fail():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    opened = []
    pipe = os.pipe
    monkeypatch.setattr(ujump.os, "pipe", lambda: opened.extend(pipe()) or tuple(opened[-2:]))
    monkeypatch.setattr(ujump.os, "fork", fail)
    with pytest.raises(BlockingIOError):
        UImageTable(b20, build_A(RR), 5)._computed([(0, j, 0) for j in range(-3, 3)], 2)
    assert len(opened) == 2
    for fd in opened:
        with pytest.raises(OSError):
            os.fstat(fd)
    assert no_child_left()


def test_an_interrupt_leaves_no_worker_behind(b20, monkeypatch):
    # part 0 interrupted while the worker of part 1 computes: the worker's
    # pipe is closed, so it leaves at its write, and it is reaped
    parent, part = os.getpid(), UImageTable._part

    def interrupted(self, keys):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return part(self, keys)

    monkeypatch.setattr(UImageTable, "_part", interrupted)
    table = UImageTable(b20, build_A(RR), 5)
    with pytest.raises(KeyboardInterrupt):
        table._computed([(0, j, 0) for j in range(-3, 3)], 2)
    assert table._mem == {} and no_child_left()


@pytest.mark.parametrize("family,computed", [(rogers_ramanujan, 33), (andrews_sellers, 28)])
def test_every_taming_power_is_tight(family, computed):
    # each image of a cold run reaches down to exactly t**(-m): a larger m
    # would leave the images as they are and silently lengthen every
    # expansion they are computed from by ell*(v+1) coefficients per unit
    spec = family(B=5)
    table = UImageTable(fresh_basis(), build_A(spec.gen), 5)
    iterate(spec, table)
    assert len(table._mem) == computed
    for (i, j, k), me in table._mem.items():
        assert min(e for e, _ in me.terms) == -table.se.exponent(i, j, k), (i, j, k)


@pytest.mark.parametrize("key", [(1, -4, 4), (1, -1, 0), (0, -3, 4), (1, -2, 3)])
def test_image_does_not_depend_on_the_monomial_store_precision(rr_cold_run, key):
    # (1, -4, 4) is the deepest key of its batch; (1, -1, 0) was computed in
    # the same batch, after the store held t**-1 far past the 250
    # coefficients it needs on its own; (0, -3, 4) multiplies t**-3 by g_4
    # inside U_ell, and (1, -2, 3) reads the table's A * g_3 after a deeper
    # key of its batch had grown it
    table, _, _, _, _ = rr_cold_run
    b = fresh_basis()
    alone = UImageTable(b, build_A(RR), 5)
    assert alone.image(*key) == table.image(*key)
    assert max(s.trunc - s.val for s in b._monomials.values()) == alone._precision(*key)


def test_images_from_disk_never_fill_the_monomial_store(rr_cold_run):
    table, report, _, _, _ = rr_cold_run
    b = fresh_basis()
    warm = UImageTable(b, build_A(RR), 5, cache_dir=table.cache_dir)
    assert iterate(rogers_ramanujan(B=5), warm).V == report.V
    assert b._monomials == {}
    assert warm._mem == table._mem


def test_warm_run_never_computes_stability_exponents(rr_cold_run, monkeypatch):
    # every image a warm run needs is on disk, stored under a fingerprint
    # whose stability exponents were computed when the images were
    table, report, _, _, _ = rr_cold_run
    calls = []
    monkeypatch.setattr(ujump, "compute_m_constants",
                        lambda *args: calls.append(args) or compute_m_constants(*args))
    warm = UImageTable(fresh_basis(), build_A(RR), 5, cache_dir=table.cache_dir)
    assert iterate(rogers_ramanujan(B=5), warm).V == report.V
    assert calls == []
    # the first image computed computes them, once
    cold = UImageTable(fresh_basis(), build_A(RR), 5)
    cold.images([(0, 0, 0), (0, 1, 0)])
    assert len(calls) == 1 and cold.se == table.se


def test_image_file_vanishing_before_its_read_is_a_miss(rr_cold_run, monkeypatch):
    # another process may delete a cache file at any moment: a read that
    # finds it gone computes the image (and stores it again)
    table, report, _, _, _ = rr_cold_run
    warm = UImageTable(fresh_basis(), build_A(RR), 5, cache_dir=table.cache_dir)
    gone, read_text, vanished = warm._path(1, -1, 0), Path.read_text, []

    def read_once_missing(path, *args, **kwargs):
        if path == gone and not vanished:
            vanished.append(path)
            raise FileNotFoundError(2, "No such file or directory", str(path))
        return read_text(path, *args, **kwargs)

    computed = []
    compute = UImageTable._compute
    monkeypatch.setattr(Path, "read_text", read_once_missing)
    monkeypatch.setattr(UImageTable, "_compute",
                        lambda self, *args: computed.append(args[:3]) or compute(self, *args))
    assert iterate(rogers_ramanujan(B=5), warm).V == report.V
    assert vanished == [gone] and computed == [(1, -1, 0)]
    assert warm._mem == table._mem
