"""The level-20 algebra basis and the greedy membership reduction."""

import itertools
import operator
import random
import re

import pytest

from etacheck import basis, eta, ujump
from etacheck.basis import (
    AlgebraBasis,
    BasisFunction,
    ModuleElement,
    construct_basis,
    load_basis_n20,
    module_element_series,
    mw_reduce,
    verify_basis,
)
from etacheck.errors import ContractError, SearchExhaustedError, SpecError
from etacheck.eta import EtaQuotient, eta_expand, euler_quotient
from etacheck.modcurve import finite_cusps
from etacheck.search import search_modular_quotients
from etacheck.series import QSeries, ZZ, zmod
from etacheck.tfinder import find_t
from etacheck.ujump import FamilyGenerator, UImageTable, build_A
from etacheck.verifier import andrews_sellers, iterate, rogers_ramanujan


@pytest.fixture(scope="module")
def b20():
    return load_basis_n20()


def test_basis_orders(b20):
    assert b20.t.ord_inf == -5
    assert [g.ord_inf for g in b20.gs] == [-2, -3, -4, -6]
    assert b20.v == 4


def test_basis_is_valid(b20):
    assert verify_basis(b20)


def test_residue_classes_cover(b20):
    # |ord| values (2,3,4,6) hit residues (2,3,4,1) mod 5, with 0 left for t
    assert b20.residue_index(0) == 0
    assert [b20.residue_index(r) for r in (2, 3, 4, 1)] == [1, 2, 3, 4]


def test_broken_bases_fail_verification(b20):
    dup = AlgebraBasis(20, b20.t, (b20.gs[0], b20.gs[0], b20.gs[2], b20.gs[3]))
    assert not verify_basis(dup)
    short_t = BasisFunction(b20.t.name, b20.t.construction, -4)
    assert not verify_basis(AlgebraBasis(20, short_t, b20.gs))


@pytest.fixture(scope="module")
def finite_pole_t():
    """T20 times the quotient of order 0 at infinity that is positive at the
    first finite cusp that has one: order -5 at infinity, a pole at 1/5."""
    q = next(found[0] for x in finite_cusps(20)
             if (found := search_modular_quotients(20, 0, 12, positive=[x])))
    return EtaQuotient(20, basis._T20.exponents + q.exponents)


# the level-20 basis broken one way per case, each refused by verify_basis
BROKEN = {
    "order-0": lambda b, _: (b.t, (BasisFunction("c", ((1, ()),), 0), *b.gs[1:])),
    "residue-0": lambda b, _: (b.t, (*b.gs[:3], b.t)),
    "level-40": lambda b, _: (b.t, (BasisFunction.from_quotient("g1", basis._G20.at_level(40), -2),
                                    *b.gs[1:])),
    "expansion-off-order": lambda b, _: (b.t, (b.gs[0], BasisFunction(
        "g2", ((1, (basis._H20,)), (-1, (basis._H20,))), -3), *b.gs[2:])),
    "finite-pole": lambda b, t: (BasisFunction.from_quotient("t", t, -5), b.gs),
    "t-order-5-for-v-1": lambda b, _: (b.t, (b.gs[1],)),
    "unsorted": lambda b, _: (b.t, (b.gs[1], b.gs[0], *b.gs[2:])),
    "zero-at-infinity": lambda b, _: (b.t, (
        BasisFunction.from_quotient("g0", basis._G20.inverse(), 2), b.gs[0], *b.gs[2:])),
    # g times eta(tau)^24 / eta(2 tau)^12: level 20, order -2 at infinity,
    # monic, and every Newman condition but the weight, sum r_d = 12
    "not-modular": lambda b, _: (b.t, (BasisFunction.from_quotient(
        "g1", EtaQuotient(20, basis._G20.exponents + ((1, 24), (2, -12))), -2), *b.gs[1:])),
}


@pytest.mark.parametrize("case", BROKEN)
def test_each_broken_condition_fails_verification(b20, finite_pole_t, case):
    assert not verify_basis(AlgebraBasis(20, *BROKEN[case](b20, finite_pole_t)))


def test_g2_series_is_difference(b20):
    h = eta_expand(EtaQuotient(20, {1: -1, 4: 1, 5: 5, 20: -5}), 40)
    g = eta_expand(EtaQuotient(20, {2: -2, 4: 4, 10: 2, 20: -4}), 40)
    g2 = b20.gs[1].series(30, eta_expand)
    assert g2.agrees_with(h.add(g.scale(-1)))
    assert g2.leading() == (-3, 1)


def test_series_leading_coefficients(b20):
    for fn in (b20.t, *b20.gs):
        s = fn.series(12, eta_expand)
        assert s.leading() == (fn.ord_inf, 1)


@pytest.mark.parametrize("n", [5, 130, 616])
def test_inverse_of_t_is_its_inverse_quotient(b20, n):
    fresh = AlgebraBasis(20, b20.t, b20.gs)
    assert fresh.monomial(-1, 0, n) == fresh.monomial(1, 0, n).inv()


def test_t_powers_match_the_one_factor_chain(b20):
    # t**e from its two halves is t**(e-1) * t, or t**(e+1) * t**-1, one
    # factor at a time; asked short first, then long, so entries are rebuilt
    n = 130
    t = b20.t.series(n, eta_expand)
    chain = {0: QSeries.one(ZZ, n), 1: t, -1: t.inv()}
    for e in range(2, 9):
        chain[e] = chain[e - 1].mul(t)
    for e in range(-2, -7, -1):
        chain[e] = chain[e + 1].mul(chain[-1])
    fresh = AlgebraBasis(20, b20.t, b20.gs)
    for prec in (40, n):
        for e in range(-6, 9):
            s = chain[e]
            assert fresh.monomial(e, 0, prec) == s.truncate(s.val + prec), (e, prec)


def test_a_product_is_kept_beside_its_monomial(b20):
    # A * t**e * g_k is A's entry times the monomial, kept in the one
    # store under a key that holds A's exponents, beside the entries of A
    # and of the quotients t, g and h the monomials are read from; a
    # quotient without exponents is 1
    fresh = AlgebraBasis(20, b20.t, b20.gs)
    A = build_A(rogers_ramanujan().gen)
    for e, k in ((0, 0), (0, 3), (1, 2)):
        want = eta_expand(A, 40).mul(fresh.monomial(e, k, 40)) if e or k else eta_expand(A, 40)
        assert fresh.monomial(e, k, 40, A) == want, (e, k)
        assert fresh.monomial(e, k, 40, EtaQuotient(100, {})) == fresh.monomial(e, k, 40)
    assert {key for key in fresh._monomials if key[2]} == {
        (0, 0, A.exponents), (0, 3, A.exponents), (1, 2, A.exponents),
        *((0, 0, q.exponents) for q in (basis._T20, basis._G20, basis._H20))}


def test_a_quotient_is_expanded_once_per_length_it_outgrows(b20, monkeypatch):
    # the basis store is the one store of expansions: a quotient asked for
    # at 40, 90 and then 40 coefficients is built twice and served cut to
    # what was asked, the basis functions read their quotients from it, so
    # g_1..g_4 expand g and h once, and g_1 is g's entry itself; eta_expand
    # keeps nothing, so asked twice it expands twice
    G, H = basis._G20, basis._H20
    want = [g.series(60, eta_expand) for g in b20.gs]
    made = []
    monkeypatch.setattr(eta, "euler_quotient",
                        lambda exps, n: made.append((exps, n)) or euler_quotient(exps, n))
    fresh = AlgebraBasis(20, b20.t, b20.gs)
    for n in (40, 90, 40):
        assert fresh.monomial(0, 0, n, H) == euler_quotient(H.exponents, n).shift(H.q_shift())
    assert made == [(H.exponents, 40), (H.exponents, 90)]
    del made[:]
    assert [fresh.monomial(0, k, 60) for k in (4, 3, 2, 1)] == want[::-1]
    assert made == [(G.exponents, 60)]
    assert fresh.monomial(0, 1, 60) is fresh._monomials[0, 0, G.exponents]
    del made[:]
    assert eta_expand(G, 30) == eta_expand(G, 30)
    assert made == [(G.exponents, 30)] * 2


def test_the_store_holds_each_expansion_once(b20):
    # after cold RR and AS runs on one basis, no two entries of its store
    # hold one expansion, nor one entry the start of another: t, 1/t and
    # g_1 are the entries of their eta quotients, as A * g_0 is A's; the
    # eta module keeps no store of its own
    fresh = AlgebraBasis(20, b20.t, b20.gs)
    for family in (rogers_ramanujan, andrews_sellers):
        spec = family(B=5)
        iterate(spec, UImageTable(fresh, build_A(spec.gen), 5))
    for s, r in itertools.combinations(fresh._monomials.values(), 2):
        n = min(len(s.coeffs), len(r.coeffs))
        assert s.val != r.val or s.coeffs[:n] != r.coeffs[:n]
    T, G = basis._T20, basis._G20
    for (e, k), q in (((1, 0), T), ((-1, 0), T.inverse()), ((0, 1), G)):
        held = fresh._monomials[0, 0, q.exponents]
        assert fresh.monomial(e, k, held.trunc - held.val) is held, (e, k)
    assert not [name for name, value in vars(eta).items()
                if isinstance(value, dict) and not name.startswith("__")]


def test_reduce_constant(b20):
    one = QSeries.one(ZZ, 10)
    assert mw_reduce([one], b20)[0] == ModuleElement(ZZ, {(0, 0): 1})


def test_reduce_t_times_g1(b20):
    f = b20.monomial(1, 1, 30)
    assert mw_reduce([f], b20)[0] == ModuleElement(ZZ, {(1, 1): 1})


def test_reduce_stalls_on_order_one(b20):
    # no basis element has |ord| == 1 mod 5 with |ord| <= 1, so a simple pole
    # at infinity is irreducible
    f = QSeries(ZZ, [1, 0, 2], -1, 2)
    with pytest.raises(ContractError, match="pole order 1"):
        mw_reduce([f], b20)[0]


def doubled_g1(b20) -> AlgebraBasis:
    """The level-20 basis with g1 doubled, which is no longer monic."""
    doubled = BasisFunction("g1", ((2, b20.gs[0].construction[0][1]),), -2)
    return AlgebraBasis(20, b20.t, (doubled, *b20.gs[1:]))


NOT_MONIC = r"^t\^0\*g1 leads with 2, not 1: the basis is not monic$"


def test_reduce_refuses_a_non_monic_basis(b20, monkeypatch):
    # verify_basis rejects the basis with g1 doubled, and the reduction
    # refuses it at the first step that meets 2*g1, even where that step
    # would divide exactly (2*g1 is the element g1 of this basis), and
    # before any pass returns: at the deepest monomial, or mid-pass after
    # a step over t
    b = doubled_g1(b20)
    assert not verify_basis(b)
    passes = count_passes(monkeypatch)
    g, t = b20.monomial(0, 1, 30), b20.monomial(1, 0, 33)
    for fs in ([g], [g.scale(2)], [t.add(g), t]):
        with pytest.raises(ContractError, match=NOT_MONIC):
            mw_reduce(fs, b)
    assert passes == []
    assert mw_reduce([t], b) == [ModuleElement(ZZ, {(1, 0): 1})]


def test_reduce_detects_corruption(b20):
    # a random series with a module-shaped principal part but a garbage tail
    f = b20.monomial(1, 1, 30)
    broken = f.add(QSeries.from_terms(ZZ, {3: 1}, f.trunc))
    with pytest.raises(ContractError):
        mw_reduce([broken], b20)[0]
    # the last coefficient in view is checked too
    broken = f.add(QSeries.from_terms(ZZ, {f.trunc - 1: 1}, f.trunc))
    with pytest.raises(ContractError, match="nonzero residual"):
        mw_reduce([broken], b20)[0]


def test_reduce_requires_constant_in_view(b20):
    f = QSeries(ZZ, [1], -5, -4)
    with pytest.raises(SpecError):
        mw_reduce([f], b20)[0]
    with pytest.raises(SpecError):
        mw_reduce([QSeries.one(zmod(5, 1), 10)], b20)


def random_module_series(rng, b, prec=40):
    """A random integer element of the module, plus its exact monomial recipe."""
    picks = {}
    for _ in range(rng.randint(1, 5)):
        e = rng.randint(0, 3)
        k = rng.randint(0, b.v)
        picks[(e, k)] = picks.get((e, k), 0) + rng.randint(-9, 9)
    out = QSeries.zero(ZZ, prec - 25)
    for (e, k), c in sorted(picks.items()):
        s = b.monomial(e, k, prec)
        out = out.add(s.truncate(min(s.trunc, prec - 25)).scale(c))
    return out, picks


def run_reduce_reconstruction(cases=200, seed=17, b=None):
    b = load_basis_n20() if b is None else b
    rng = random.Random(seed)
    for _ in range(cases):
        f, picks = random_module_series(rng, b)
        res = mw_reduce([f], b)[0]
        assert res.ring == ZZ
        assert res.terms == {key: c for key, c in picks.items() if c}
        back = module_element_series(res, b, f.trunc)
        assert back.agrees_with(f)
    return cases


def test_reduce_reconstruction_roundtrip():
    run_reduce_reconstruction(cases=60)


def test_reduce_determinism(b20):
    rng = random.Random(4)
    f, _ = random_module_series(rng, b20)
    assert mw_reduce([f], b20)[0] == mw_reduce([f], b20)[0]


# -- the batched reduction against the per-series loop ----------------------

def reference_reduce(f: QSeries, b) -> ModuleElement:
    """The greedy reduction of one series on its own, one remainder list
    reduced in place: the loop the packed batch reduction replaced."""
    v1 = b.v + 1
    terms = {}
    lo, rem, pos = f.val, list(f.coeffs), 0
    while True:
        while pos < len(rem) and not rem[pos]:
            pos += 1
        m = max(0, -(lo + pos)) if pos < len(rem) else 0
        if m == 0:
            terms[(0, 0)] = rem.pop(-lo) if lo <= 0 < lo + len(rem) else 0
            if any(rem):
                raise ContractError("nonzero residual after reduction")
            return ModuleElement(ZZ, terms)
        k = b.residue_index(m % v1)
        n_k = -b.gs[k - 1].ord_inf if k else 0
        if n_k > m:
            raise ContractError(f"reduction stalled at pole order {m}")
        e = (m - n_k) // v1
        s = b.monomial(e, k, m + f.trunc)
        alpha, r = divmod(rem[pos], s.coeffs[0])
        if r:
            raise ContractError(f"non-integral reduction step at pole order {m}")
        rem[pos:] = map(operator.sub, rem[pos:], map(alpha.__mul__, s.coeffs))
        terms[(e, k)] = alpha


def count_passes(monkeypatch) -> list:
    """(width, bound, outcome) of every greedy pass that returns from now on."""
    passes, greedy_pass = [], basis._greedy_pass

    def traced(fs, b, top, width):
        bound, outcome = greedy_pass(fs, b, top, width)
        passes.append((width, bound, outcome))
        return bound, outcome

    monkeypatch.setattr(basis, "_greedy_pass", traced)
    return passes


@pytest.mark.parametrize("family,B", [("rr", 5), ("rr", 7), ("as", 5), ("as", 7)])
def test_cold_run_batches_match_the_per_series_reference(family, B, monkeypatch):
    spec = (rogers_ramanujan if family == "rr" else andrews_sellers)(B=B)
    b20 = load_basis_n20()
    table = UImageTable(AlgebraBasis(b20.level, b20.t, b20.gs), build_A(spec.gen), 5)
    batches = []
    monkeypatch.setattr(ujump, "mw_reduce",
                        lambda fs, b: batches.append((fs, b)) or mw_reduce(fs, b))
    iterate(spec, table)
    assert len(batches) >= 3
    passes = count_passes(monkeypatch)
    for fs, b in batches:
        assert mw_reduce(fs, b) == [reference_reduce(f, b) for f in fs]
    # the first width fits every batch of a cold run
    assert len(passes) == len(batches)


def synthetic_batch(b, trunc=12):
    """Series ending at q**trunc with valuations -18 to 0, a zero series,
    both signs and 10**40-sized coefficients, and the recipe of each."""
    recipes = [{(3, 2): 10 ** 40, (1, 1): -3, (0, 0): 7},
               {(1, 1): 5, (0, 3): -2},
               {(0, 0): -4},
               {},
               {(2, 4): -1, (2, 0): -(10 ** 40) - 1, (1, 0): 9},
               {(1, 2): 1}]
    fs = []
    for recipe in recipes:
        f = QSeries.zero(ZZ, trunc)
        for (e, k), c in recipe.items():
            f = f.add(b.monomial(e, k, trunc + 40).truncate(trunc).scale(c))
        fs.append(f)
    assert sorted({f.val for f in fs}) == [-18, -16, -8, -7, 0, trunc]
    return fs, [ModuleElement(ZZ, recipe) for recipe in recipes]


def test_synthetic_batch_matches_the_per_series_reference(b20):
    fs, want = synthetic_batch(b20)
    assert mw_reduce(fs, b20) == [reference_reduce(f, b20) for f in fs] == want
    for f, me in zip(fs, want):
        assert mw_reduce([f], b20) == [me]
    assert mw_reduce([], b20) == []


@pytest.mark.parametrize("first_width", [2, 133])
def test_a_pass_too_narrow_is_redone_wider(b20, first_width, monkeypatch):
    # 133 bits hold the batch's largest input coefficient, about 2**132.9,
    # but not the sign, so slots already spill into their neighbours when
    # packed; the narrow pass returns without raising, and the wider one
    # gives what the estimated width gives
    fs, want = synthetic_batch(b20)
    passes = count_passes(monkeypatch)
    assert mw_reduce(fs, b20) == want
    assert len(passes) == 1
    monkeypatch.setattr(basis, "_first_width", lambda top, deepest, steps: first_width)
    assert mw_reduce(fs, b20) == want
    (width, bound, outcome), *wider = passes[1:]
    assert width == first_width and bound >= 1 << width - 1 and outcome is None
    assert wider and wider[-1][2] == want


def test_a_failed_series_is_named(b20):
    fs, _ = synthetic_batch(b20)
    trunc = fs[0].trunc
    last = QSeries.from_terms(ZZ, {trunc - 1: 1}, trunc)
    with pytest.raises(ContractError, match="^series 4: nonzero residual"):
        mw_reduce(fs[:4] + [fs[4].add(last)] + fs[5:], b20)
    # with no constant term in the batch, the first coefficient past the
    # constant is checked too
    first = QSeries.from_terms(ZZ, {1: -1}, trunc)
    with pytest.raises(ContractError, match="^series 2: nonzero residual"):
        mw_reduce([fs[1], fs[3], fs[5].add(first), fs[4]], b20)
    pole = QSeries(ZZ, [1, 0, 2], -1, trunc)
    with pytest.raises(ContractError, match="^series 1: reduction stalled at pole order 1"):
        mw_reduce([fs[1], pole, fs[2]], b20)


def test_a_table_over_a_non_monic_basis_stores_no_image(b20, tmp_path):
    b = doubled_g1(b20)
    table = UImageTable(b, build_A(rogers_ramanujan(B=5).gen), 5, cache_dir=tmp_path)
    with pytest.raises(ContractError, match="g1 leads with 2, not 1: the basis is not monic"):
        table.images([(0, 1, 1), (1, -1, 0), (0, 0, 1)])
    assert table._mem == {}
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


def test_a_batch_of_unequal_truncations_is_refused(b20):
    # a shared window would drop the check coefficients of the longer series
    fs, _ = synthetic_batch(b20)
    with pytest.raises(SpecError, match="one truncation"):
        mw_reduce(fs[:2] + [fs[2].truncate(fs[2].trunc - 1)], b20)


# Fingerprints key the cached image tables, so a change to the generator or
# basis search must leave them as they are: level 20 from the curated t,
# levels 5 and 7 from the generators found for p(n).
PINNED_FINGERPRINTS = {20: "4025fb1059232361", 5: "a9716696a9be2a32", 7: "a43c91a2273463fc"}


@pytest.mark.parametrize("N", [20, 5, 7])
def test_construct_basis_level_20(b20, N):
    t = b20.t_quotient() if N == 20 else find_t(FamilyGenerator(1, {1: -1}, N))
    built = construct_basis(t)
    assert verify_basis(built)
    assert built.fingerprint() == PINNED_FINGERPRINTS[N]
    if N == 20:
        assert -built.t.ord_inf == 5
        residues = sorted((-g.ord_inf) % 5 for g in built.gs)
        assert residues == [1, 2, 3, 4]


def test_construct_basis_degenerate_order_one():
    # eta(tau)^8/eta(4tau)^8 has a simple pole at infinity over Gamma0(4)
    t = EtaQuotient(4, {1: 8, 4: -8})
    b = construct_basis(t)
    assert b.v == 0
    assert verify_basis(b)
    # reduction over a pure polynomial module
    f = b.monomial(2, 0, 20).add(b.monomial(1, 0, 20).scale(3)).add(QSeries.one(ZZ, 12))
    assert mw_reduce([f], b)[0] == ModuleElement(ZZ, {(2, 0): 1, (1, 0): 3, (0, 0): 1})


def test_construct_basis_product_closure():
    # at level 34 the search finds no quotient with a pole of order 2, 6 or
    # 10 at infinity alone, so residue 2 mod 4 is covered by g1 * g1
    t = EtaQuotient(34, {1: -2, 2: 4, 17: 2, 34: -4})
    b = construct_basis(t)
    assert verify_basis(b)
    assert b.v == 3
    assert [g.ord_inf for g in b.gs] == [-7, -9, -14]
    (_, (q1,)), = b.gs[0].construction
    assert b.gs[2].construction == ((1, (q1, q1)),)
    run_reduce_reconstruction(cases=60, seed=34, b=b)


def test_product_closure_takes_the_least_pair_of_the_missing_residue(monkeypatch):
    # a search that finds level-20 quotients of pole orders 2, 3 and 9 alone
    # leaves residue 1 mod 5 to the closure: 2 + 2 has the least order but
    # residue 4, 2 + 9 comes first but 3 + 3 = 6 is less
    search = basis.search_modular_quotients
    monkeypatch.setattr(basis, "search_modular_quotients",
                        lambda N, n0, *args, **kwargs:
                        search(N, n0, *args, **kwargs) if n0 in (2, 3, 9) else [])
    b = construct_basis(basis._T20)
    assert [g.ord_inf for g in b.gs] == [-2, -3, -6, -9]
    (_, (q3,)), = b.gs[1].construction
    assert b.gs[2].construction == ((1, (q3, q3)),)


def test_construct_basis_rejects_bad_generator(b20, finite_pole_t):
    with pytest.raises(SpecError, match="modularity"):
        construct_basis(EtaQuotient(20, {1: 1, 20: -1}))
    with pytest.raises(SpecError, match="pole at the finite cusp 1/5"):
        construct_basis(finite_pole_t)
    with pytest.raises(SpecError, match="must have a pole at infinity"):
        construct_basis(b20.t_quotient().inverse())


def test_construct_basis_refuses_what_its_search_cannot_cover(b20, monkeypatch):
    # no quotient found for any pole order leaves every residue uncovered
    monkeypatch.setattr(basis, "search_modular_quotients", lambda *args, **kwargs: [])
    with pytest.raises(SearchExhaustedError,
                       match=re.escape("could not cover residues [1, 2, 3, 4] mod 5 within")):
        construct_basis(b20.t_quotient())


def test_construct_basis_refuses_a_basis_failing_its_conditions(b20, monkeypatch):
    monkeypatch.setattr(basis, "verify_basis", lambda b: False)
    with pytest.raises(ContractError, match="constructed basis fails its own structural"):
        construct_basis(b20.t_quotient())


def test_constant_terms_and_the_zero_element():
    # a construction term with no factors is its coefficient, a constant
    c = BasisFunction("c", ((3, ()), (1, (basis._G20,))), -2)
    assert c.describe() == f"c = 3*1 + 1*{basis._G20!r}"
    assert c.series(4, eta_expand).agrees_with(eta_expand(basis._G20, 4).add(QSeries.one(ZZ, 4).scale(3)))
    assert repr(ModuleElement(ZZ, {(0, 0): 5})) == "<5*1 over Z>"
    assert repr(ModuleElement(ZZ, {(1, 0): 2, (1, 2): 1, (-1, 0): 1})) == \
        "<1*t^-1 + 2*t + 1*t*g2 over Z>"
    assert repr(ModuleElement(zmod(5, 1), {(0, 0): 5})) == "<0>"


# (call, exception, message): the guards of the basis functions
GUARDS = [
    (lambda: AlgebraBasis(20, BasisFunction("t", ((2, (basis._T20,)),), -5), ()).t_quotient(),
     SpecError, "the generator t must be a single eta quotient"),
    (lambda: AlgebraBasis(20, BasisFunction("t", ((1, (basis._T20, basis._T20)),), -10),
                          ()).t_quotient(),
     SpecError, "the generator t must be a single eta quotient"),
    (lambda: AlgebraBasis(20, load_basis_n20().t,
                          (BasisFunction.from_quotient("g1", basis._G20, -2),)).residue_index(1),
     ContractError, "no basis element covers residue 1 mod 2"),
    (lambda: BasisFunction("z", ((1, (basis._G20,)), (-1, (basis._G20,))), -2).series(4, eta_expand),
     ContractError, "z: expansion valuation None does not match declared order -2"),
    # one coefficient from ord_inf -1: a zero sum is refused by name, before
    # its truncation to [-1, 0) would be asked to extend it
    (lambda: BasisFunction("z", ((1, (basis._G20,)), (-1, (basis._G20,))), -1).series(1, eta_expand),
     ContractError, "z: expansion valuation None does not match declared order -1"),
    (lambda: BasisFunction.from_quotient("g", basis._G20, -3).series(4, eta_expand),
     ContractError, "g: expansion valuation -2 does not match declared order -3"),
]


@pytest.mark.parametrize("call, exc, message", GUARDS, ids=[m for _, _, m in GUARDS])
def test_guards_refuse(call, exc, message):
    with pytest.raises(exc, match=re.escape(message)):
        call()
