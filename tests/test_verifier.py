"""The iteration driver, pattern checks, and brute-force cross-checks."""

import re

import pytest

from etacheck import verifier
from etacheck.basis import ModuleElement
from etacheck.errors import ContractError, SpecError
from etacheck.series import ZZ, zmod
from etacheck.ujump import FamilyGenerator, UImageTable, build_A
from etacheck.verifier import (
    CongruenceFamilySpec,
    andrews_sellers,
    builtin_spec,
    consistency_check,
    direct_oracle,
    iterate,
    residue_for_case,
    rogers_ramanujan,
    scaled_congruence_series,
)


def test_residue_for_case():
    assert residue_for_case(24, 5, 4) == 599
    assert residue_for_case(24, 5, 2) == 24
    assert residue_for_case(1, 5, 3) == 1
    assert residue_for_case(12, 5, 1) == 3
    assert residue_for_case(24, 5, 1) == 4
    with pytest.raises(SpecError):
        residue_for_case(10, 5, 2)


def test_residue_matches_closed_form():
    # for the 24n == 1 family the residues are (23*5^(2a)+1)/24
    for a in range(1, 5):
        assert residue_for_case(24, 5, 2 * a) == (23 * 5 ** (2 * a) + 1) // 24


def test_builtin_specs():
    rr = builtin_spec("rogers-ramanujan")
    assert (rr.c, rr.pattern) == (24, "even-alpha")
    assert rr.default_iterations == 2 * rr.B
    asp = builtin_spec("andrews-sellers").with_B(3)
    assert (asp.c, asp.pattern, asp.B) == (12, "every-alpha", 3)
    assert asp.default_iterations == 3
    with pytest.raises(SpecError):
        builtin_spec("nope")
    with pytest.raises(SpecError):
        rr.with_B(0)  # a replaced B is validated again
    with pytest.raises(SpecError, match="B 2.5"):
        rr.with_B(2.5)
    with pytest.raises(SpecError, match="B True"):
        rogers_ramanujan(B=True)  # a bool is not the integer 1


@pytest.mark.parametrize("pattern", ["even-alpha", "every-alpha"])
def test_no_requirement_exceeds_B(pattern):
    # a step computed mod ell**B shows at most valuation B, so a run must
    # never ask for more; its last step asks for exactly B
    gen = rogers_ramanujan().gen
    for B in range(1, 31):
        spec = CongruenceFamilySpec("f", gen, 24, pattern, B)
        reqs = [spec.required_valuation(a) for a in range(spec.default_iterations + 1)]
        assert all(r is None or r <= B for r in reqs)
        assert reqs[-1] == B


def test_spec_json_roundtrip():
    spec = rogers_ramanujan(B=4)
    again = CongruenceFamilySpec.from_json(spec.to_json())
    assert again == spec


def test_direct_oracle_rogers_ramanujan():
    gen = rogers_ramanujan().gen
    assert direct_oracle(gen, 25, 24, 5, 1, 100) is None
    assert direct_oracle(gen, 125, 99, 5, 1, 50) is None
    n = direct_oracle(gen, 125, 99, 5, 2, 50)
    assert n is not None
    # the witness is genuine: recompute that single coefficient
    coeff = gen.series(125 * n + 100).coeff(125 * n + 99)
    assert coeff % 5 == 0 and coeff % 25 != 0


def test_direct_oracle_andrews_sellers():
    gen = andrews_sellers().gen
    assert direct_oracle(gen, 5, 3, 5, 1, 200) is None


def test_iterate_small_run(rr_image_table):
    spec = rogers_ramanujan(B=2)
    rep = iterate(spec, rr_image_table)
    assert rep.iterations == spec.default_iterations == 4
    assert rep.V == [0, 0, 1, 1, 2]
    assert rep.ok
    assert all(0 <= v <= 2 for v in rep.V)


def test_iterate_default_lengths(as_image_table):
    spec = andrews_sellers(B=1)
    rep = iterate(spec, as_image_table)
    assert rep.iterations == 1
    assert rep.V == [0, 1]
    assert rep.saturated[1]  # everything vanishes mod 5^1 after one step


def test_iterate_rogers_ramanujan_B1(rr_image_table):
    # the shortest run: two steps, the last one checked
    rep = iterate(rogers_ramanujan(B=1), rr_image_table)
    assert rep.V == [0, 0, 1] and rep.required == [0, None, 1]
    assert rep.ok and rep.text().endswith("VERIFIED")


def test_reduction_soundness_across_caps(basis20, as_image_table, image_cache_dir):
    # runs with different caps agree wherever the smaller cap was not hit
    spec_lo = andrews_sellers(B=2)
    spec_hi = andrews_sellers(B=4)
    lo = iterate(spec_lo, UImageTable(basis20, build_A(spec_lo.gen), 5,
                                      cache_dir=image_cache_dir))
    hi = iterate(spec_hi, UImageTable(basis20, build_A(spec_hi.gen), 5,
                                      cache_dir=image_cache_dir))
    for v_lo, v_hi in zip(lo.V, hi.V):
        if v_lo < 2:
            assert v_lo == v_hi
        else:
            assert v_hi >= 2


def test_iterate_determinism(rr_image_table):
    spec = rogers_ramanujan(B=3)
    a = iterate(spec, rr_image_table).to_json()
    b = iterate(spec, rr_image_table).to_json()
    a.pop("seconds")
    b.pop("seconds")
    assert a == b


def test_valuations_nondecreasing_on_passing_runs(rr_image_table, as_image_table):
    for spec, table in ((rogers_ramanujan(B=3), rr_image_table),
                        (andrews_sellers(B=3), as_image_table)):
        rep = iterate(spec, table)
        assert rep.ok
        assert all(a <= b for a, b in zip(rep.V, rep.V[1:]))


def test_check_pattern_stricter_requirement_fails(as_image_table):
    spec = andrews_sellers(B=3)
    rep = iterate(spec, as_image_table)

    class Stricter(CongruenceFamilySpec):
        def required_valuation(self, alpha):
            return alpha + 1

    stricter = iterate(Stricter(spec.name, spec.gen, spec.c, spec.pattern, spec.B),
                       as_image_table)
    assert rep.ok
    assert not stricter.ok
    # and among the genuine steps the first failure is alpha=1 (v1=1 < 2)
    first_bad = next(a for a, v in enumerate(rep.V) if a >= 1 and v < a + 1)
    assert first_bad == 1


class _CorruptedTable:
    """Wraps a real table but poisons one image with a unit coefficient."""

    def __init__(self, inner, bad_key):
        self.inner = inner
        self.bad_key = bad_key

    def image(self, i, j, k):
        me = self.inner.image(i, j, k)
        if (i, j, k) == self.bad_key:
            terms = dict(me.terms)
            terms[(-1, 0)] = terms.get((-1, 0), 0) + 1
            return ModuleElement(ZZ, terms)
        return me

    def images(self, keys):
        return [self.image(*key) for key in keys]

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_fault_injection_fails_at_first_affected_step(as_image_table):
    spec = andrews_sellers(B=3)
    # poison an image first consumed at step 2 (plain operator, j=-1, k=0)
    bad = _CorruptedTable(as_image_table, (0, -1, 0))
    rep = iterate(spec, bad)
    assert not rep.ok
    clean = iterate(spec, as_image_table)
    assert clean.V[1] == rep.V[1] == 1  # step 1 untouched
    assert rep.passed.index(False) == 2


def test_runaway_support_guard(rr_image_table, monkeypatch):
    spec = rogers_ramanujan(B=2)
    monkeypatch.setattr(verifier, "J_CEILING", 1)
    with pytest.raises(ContractError):
        iterate(spec, rr_image_table)
    # a support that escapes upward is refused too
    monkeypatch.setattr(verifier, "u_step",
                        lambda table, me, with_A: ModuleElement(me.ring, {(2, 0): 1}))
    message = "t-support [2, 2] escaped the +-1 ceiling at step 1"
    with pytest.raises(ContractError, match=re.escape(message)):
        iterate(spec, rr_image_table)


def test_table_of_another_family_is_refused(rr_image_table, as_image_table):
    with pytest.raises(SpecError, match="another family"):
        iterate(andrews_sellers(B=2), rr_image_table)
    with pytest.raises(SpecError, match="another family"):
        consistency_check(rogers_ramanujan(B=2), as_image_table, 1, 10)


def test_progression_subseries_values():
    # 24n == 1 mod 5 means n = 5m+4; the slice must be a(5m+4) on the nose
    gen = rogers_ramanujan().gen
    g = gen.series(60)
    assert gen.progression(5, 4, 10) == [g.coeff(5 * m + 4) for m in range(10)]
    assert gen.progression(1, 0, 60, zmod(5, 2)) == [g.coeff(n) % 25 for n in range(60)]


def test_each_brute_force_check_expands_G_once(monkeypatch):
    # one expansion per check, ending at the last coefficient it reads
    truncs = []
    series = FamilyGenerator.series
    monkeypatch.setattr(FamilyGenerator, "series",
                        lambda self, trunc, ring=ZZ: truncs.append(trunc) or series(self, trunc, ring))
    rr = rogers_ramanujan()
    assert direct_oracle(rr.gen, 125, 99, 5, 1, 50) is None
    assert truncs == [125 * 50 + 99 + 1] == [6350]
    truncs.clear()
    scaled_congruence_series(rr, 3, 10, zmod(5, 5))
    assert truncs == [125 * 9 + residue_for_case(24, 5, 3) + 1]


def test_consistency_alpha_1_and_2(rr_image_table, as_image_table):
    rr = rogers_ramanujan(B=5)
    assert consistency_check(rr, rr_image_table, 1, 40)
    assert consistency_check(rr, rr_image_table, 2, 40)
    asp = andrews_sellers(B=5)
    assert consistency_check(asp, as_image_table, 1, 40)
    assert consistency_check(asp, as_image_table, 2, 40)


def test_deep_run_in_closed_form(rr_image_table):
    # B = 10 is the first cap at which a unit 1 + 5**9 slipped into every
    # step is visible: V stays the same, the alpha = 1 series does not
    spec = rogers_ramanujan(B=10)
    rep = iterate(spec, rr_image_table)
    assert rep.V == [alpha // 2 for alpha in range(21)] and rep.ok
    for alpha in (0, 1, 2):
        assert consistency_check(spec, rr_image_table, alpha, 40), alpha


def test_report_text_shape(rr_image_table):
    rep = iterate(rogers_ramanujan(B=2), rr_image_table)
    assert rep.text() == ("family rogers-ramanujan: ell=5 B=2 iterations=4\n"
                          "  alpha= 0  v=0 need>=0  ok\n"
                          "  alpha= 1  v=0    \n"
                          "  alpha= 2  v=1 need>=1  ok\n"
                          "  alpha= 3  v=1    \n"
                          "  alpha= 4  v=2 (saturated) need>=2  ok\n"
                          "VERIFIED")
    data = rep.to_json()
    assert data["ok"] and data["V"] == [0, 0, 1, 1, 2]
