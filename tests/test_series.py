"""Series ring laws, Euler product expansion, and eta-quotient expansion."""

import array
import ast
import importlib.util
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from etacheck import eta, series
from etacheck.basis import _G20, _H20, BasisFunction, ModuleElement
from etacheck.errors import SpecError
from etacheck.series import CoeffRing, QSeries, ZZ, zmod, convolve_ints
from etacheck.eta import EtaQuotient, euler_product, euler_quotient, eta_expand
from etacheck.modcurve import Cusp
from etacheck.tfinder import PoleSets
from etacheck.ujump import FamilyGenerator, StabilityExponents, UImageTable, build_A, u_ell
from etacheck.verifier import CongruenceFamilySpec, andrews_sellers, rogers_ramanujan


def finite_euler_oracle(d, trunc):
    """Dense reference: multiply out prod_{m>=1} (1 - q**(d*m)) directly."""
    out = [0] * max(trunc, 1)
    if trunc > 0:
        out[0] = 1
    m = 1
    while d * m < trunc:
        nxt = list(out)
        for e in range(trunc - d * m):
            nxt[e + d * m] -= out[e]
        out = nxt
        m += 1
    return out[:trunc]


def per_factor_quotient(exponents, trunc, ring=ZZ):
    """Reference: each (q**d; q**d)_inf ** r expanded, powered and inverted
    on its own as (q; q)_inf ** r in q**d, and multiplied in at full length."""
    out = None
    for d, r in exponents:
        factor = euler_product(-(-trunc // d), ring).pow(abs(r))
        factor = (factor if r > 0 else factor.inv()).substitute_power(d)
        out = factor.truncate(trunc) if out is None else out.mul(factor)
    return QSeries.one(ring, trunc) if out is None else out


def schoolbook_inverse(coeffs, n, ring):
    """Reference: the first n coefficients of 1/a, a leading with 1, one at
    a time."""
    assert coeffs[0] == 1
    g = []
    for i in range(n):
        acc = sum(coeffs[j] * g[i - j] for j in range(1, min(i, len(coeffs) - 1) + 1))
        g.append(ring.coerce((i == 0) - acc))
    return g


def schoolbook(a, b, n_out):
    out = [0] * n_out
    for i, x in enumerate(a):
        if i >= n_out or x == 0:
            continue
        for j, y in enumerate(b):
            if i + j >= n_out:
                break
            out[i + j] += x * y
    return out


def random_series(rng, ring, max_len=12):
    val = rng.randint(-4, 4)
    n = rng.randint(1, max_len)
    coeffs = [rng.randint(-9, 9) for _ in range(n)]
    if ring != ZZ:
        coeffs = [c % ring.ell ** ring.power for c in coeffs]
    return QSeries(ring, coeffs, val, val + n) if any(coeffs) else QSeries.zero(ring, val + n)


RINGS = [ZZ, zmod(5, 2), zmod(7, 1)]


def test_convolution_matches_schoolbook(monkeypatch):
    rng = random.Random(7)
    cases = [([rng.randint(-50, 50) for _ in range(rng.randint(0, 20))],
              [rng.randint(-50, 50) for _ in range(rng.randint(0, 20))],
              rng.randint(0, 25)) for _ in range(300)]
    # every sign pattern, an all-zero and length-1 operands, and windows both
    # shorter than the operands and longer than the whole product
    pos = [rng.randint(0, 50) for _ in range(9)]
    operands = [pos, [-c for c in pos], [rng.randint(-50, 50) for _ in range(7)],
                [0] * 6, [3], [-3], [0]]
    cases += [(a, b, n) for a in operands for b in operands
              for n in (1, 4, len(a) + len(b) - 1, len(a) + len(b) + 5)]
    # +-(2**s - 1) and +-2**s for every s, s = 8j included: constant operands
    # reach the extreme coefficients +-(bound - 1), with the bound on either
    # side of each byte boundary, so every limb width from 1 to 11 bytes
    boundary = []
    for s in range(1, 42):
        for c in ((1 << s) - 1, 1 << s):
            for a in ([c], [-c], [c] * 3, [-c] * 3, [c, -c, c]):
                boundary += [(a, b, n) for b in ([c] * 3, [-c] * 3, [1], [-c])
                             for n in (1, 3, 7)]
    # the limb width of each int-path operand; the decimal path packs none
    widths = []
    pack = series._pack
    monkeypatch.setattr(series, "_pack", lambda vals, k: widths.append(k) or pack(vals, k))

    def check_all():
        widths.clear()
        for a, b, n in cases + boundary:
            expected = schoolbook(a, b, n) if a and b else []
            assert convolve_ints(a, b, n) == expected, (a, b, n)
        # all again through the 5-dissected mode, at every offset; operands
        # longer than 5 reach the class pairs with r + s = o + 5
        for a, b, n in cases + boundary:
            full = schoolbook(a, b, 5 * n) if a and b else []
            for o in range(5):
                assert convolve_ints(a, b, n, 5, o) == full[o::5], (a, b, n, o)
        assert convolve_ints([], [1, -2], 3) == [] and convolve_ints([5], [], 3) == []
        assert convolve_ints([10**40, -1], [0, 0], 3) == [0, 0, 0]
        return set(widths)

    # bytes: 1..8-byte limbs go through array (3, 5, 6 and 7 by strided
    # copies), 9..11-byte limbs through to_bytes
    assert check_all() == set(range(1, 12))
    # every product through libmpdec
    monkeypatch.setattr(series, "_DECIMAL_DIGITS", 0)
    assert check_all() == set()
    # limbs of more digits than int() may parse fall back to the int multiply
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        widths.clear()
        a = [rng.randint(-10**400, 10**400) for _ in range(4)]
        b = [rng.randint(-10**400, 10**400) for _ in range(5)]
        assert convolve_ints(a, b, 12) == schoolbook(a, b, 12) and widths
        # and no limit at all (0) leaves them to libmpdec
        sys.set_int_max_str_digits(0)
        widths.clear()
        packed, pack_decimal = [], series._pack_decimal
        monkeypatch.setattr(series, "_pack_decimal",
                            lambda vals, digits: packed.append(digits) or pack_decimal(vals, digits))
        assert convolve_ints(a, b, 12) == schoolbook(a, b, 12) and packed and not widths
    finally:
        sys.set_int_max_str_digits(limit)
    # and so does every product without the C decimal module
    monkeypatch.setattr(series, "_libmpdec", lambda: None)
    assert check_all() == set(range(1, 12))


class _EightByteInt(array.array):
    """array items as on a host whose C int is 8 bytes wide."""

    @property
    def itemsize(self):
        return 8 if self.typecode == "i" else super().itemsize


def _packs_through_bytes():
    """Load a second copy of series on the host as patched: it keeps no item
    codes and multiplies through to_bytes."""
    spec = importlib.util.spec_from_file_location("etacheck._series_copy", series.__file__)
    copy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(copy)
    assert copy._WORDS == {} and copy._word(1) is None
    rng = random.Random(7)
    a, b = [rng.randint(-99, 99) for _ in range(40)], [rng.randint(-99, 99) for _ in range(30)]
    assert copy.convolve_ints(a, b, 60) == schoolbook(a, b, 60)


def test_a_host_without_little_endian_words_packs_through_bytes(monkeypatch):
    # on a big-endian host, or one whose array items have other sizes, the
    # module keeps no item codes, so every limb width goes through to_bytes
    monkeypatch.setattr(sys, "byteorder", "big")
    _packs_through_bytes()


def test_a_host_whose_c_int_is_8_bytes_packs_through_bytes(monkeypatch):
    monkeypatch.setattr(array, "array", _EightByteInt)
    _packs_through_bytes()


def test_square_matches_schoolbook(monkeypatch):
    # a is b: the operand is packed once per class and squared, on the int
    # path and through libmpdec, for the plain product and at every offset
    # of the 5-dissected one
    rng = random.Random(19)
    cases = [[rng.randint(-50, 50) for _ in range(n)] for n in (1, 2, 7, 30)]
    cases += [[rng.randint(-10**30, 10**30) for _ in range(12)], [0, 0, 3], [5] * 9, [-7] * 4]
    packs = []
    pack = series._pack
    monkeypatch.setattr(series, "_pack", lambda vals, k: packs.append(k) or pack(vals, k))
    for digits in (series._DECIMAL_DIGITS, 0):
        monkeypatch.setattr(series, "_DECIMAL_DIGITS", digits)
        for a in cases:
            for n in (1, 5, 2 * len(a) - 1, 2 * len(a) + 3):
                packs.clear()
                assert convolve_ints(a, a, n) == schoolbook(a, a, n), (a, n)
                assert len(packs) == (2 if digits and any(a[:n]) else 0)
                full = schoolbook(a, a, 5 * n)
                for o in range(5):
                    assert convolve_ints(a, a, n, 5, o) == full[o::5], (a, n, o)


def test_two_point_products_match_schoolbook(monkeypatch):
    # the int path evaluates each class at x = +-2**h from its even and odd
    # halves and reads the even outputs from the sum of the two products and
    # the odd ones from their difference: halves of opposite sign and very
    # different size, an all-zero half, alternating signs, classes of 1 and 2
    # coefficients, windows of odd and even length, ell = 1 and ell = 5 at
    # every o, squares and distinct operands, limbs of at most 8 bytes
    # (array) and wider (to_bytes)
    rng = random.Random(41)
    profiles = {
        "opposite": lambda odd, big: -big if odd else big,
        "zero even": lambda odd, big: rng.randint(-big, big) if odd else 0,
        "zero odd": lambda odd, big: 0 if odd else rng.randint(-big, big),
        "alternating": lambda odd, big: (-1) ** odd * rng.randint(1, big),
        "small odd": lambda odd, big: rng.randint(-1, 1) if odd else big,
    }
    widths = []
    pack = series._pack
    monkeypatch.setattr(series, "_pack", lambda vals, k: widths.append(k) or pack(vals, k))
    for big in (100, 10**30):
        for ell in (1, 5):
            # the index within its class is i // ell, so "odd" is its parity
            ops = [[f((i // ell) % 2, big) for i in range(n)]
                   for f in profiles.values() for n in {1, 2, ell, ell + 1, 2 * ell, 2 * ell + 3, 33}]
            for a in ops:
                for b in (a, ops[rng.randrange(len(ops))]):
                    full = schoolbook(a, b, ell * (len(a) + len(b) + 2))
                    for n in {1, 2, 3, 4, len(a) + 1, len(a) + len(b) - 1, len(a) + len(b)}:
                        for o in range(ell):
                            got = convolve_ints(a, b, n, ell, o)
                            assert got == full[o::ell][:n], (a, b, n, ell, o)
    assert min(widths) <= 8 < max(widths)
    # through QSeries.mul, plain and U_5, in each ring
    for ring in RINGS:
        for name, f in profiles.items():
            x = [f(i % 2, 10**20) for i in range(41)]
            fx, fy = QSeries(ring, x, -2, 39), QSeries(ring, x[::-1], 1, 42)
            for g in (fx, fy):
                val = fx.val + g.val
                end = min(fx.trunc + g.val, g.trunc + fx.val)
                prod = QSeries(ring, schoolbook(fx.coeffs, g.coeffs, end - val), val, end)
                for ell in (1, 5):
                    trunc = -(-prod.trunc // ell)
                    terms = {e: prod.coeff(ell * e) for e in range(-(-val // ell), trunc)}
                    assert fx.mul(g, ell) == QSeries.from_terms(ring, terms, trunc), (ring, name)


def bound_profiles(rng):
    """Operand pairs whose coefficients grow, decay or spike, for the limb
    width taken from the blocks that can meet: lengths on each side of
    multiples of the block size, and large coefficients placed where they
    meet, or only just miss, those of the other operand."""
    s = series._BLOCK
    big = 10 ** 30
    lengths = sorted({1, 2, s - 1, s, s + 1, 2 * s - 1, 2 * s, 2 * s + 1, 3 * s + 7})
    pairs = []
    for n in lengths:
        grow = [(-1) ** i * rng.randint(1, 2 ** (i + 1)) for i in range(n)]
        decay = grow[::-1]
        head = [big] + [rng.randint(-9, 9) for _ in range(n - 1)]
        tail = [rng.randint(-9, 9) for _ in range(n - 1)] + [-big]
        spikes = [big if i % s in (0, s - 1) else rng.randint(-3, 3) for i in range(n)]
        pairs += [(grow, grow[:]), (grow, decay), (decay, grow), (head, tail), (tail, head),
                  (spikes, grow), (spikes, spikes[::-1]), (tail, spikes)]
    # a huge coefficient that meets only zeros of the other operand: the
    # product needs narrow limbs, but the operand's own limb must hold it
    for n in (s + 9, 2 * s + 3):
        lone = [1] + [0] * (n - 2) + [big]
        late = [0] * (s + 1) + [1]
        pairs += [(lone, late), (late, lone), (lone, [0, 1]), ([5] * s + [-big], [0] * s + [1])]
    return pairs


def test_convolution_of_growing_and_spiked_operands(monkeypatch):
    # every profile, plain and 5-dissected at every offset, on the int path
    # and through libmpdec, at windows cut inside and past the operands
    pairs = bound_profiles(random.Random(29))
    for digits in (series._DECIMAL_DIGITS, 0):
        monkeypatch.setattr(series, "_DECIMAL_DIGITS", digits)
        for a, b in pairs:
            for n in {1, len(a) // 2 + 1, len(a), len(a) + len(b) - 1}:
                assert convolve_ints(a, b, n) == schoolbook(a, b, n), (a, b, n)
                full = schoolbook(a, b, 5 * n)
                for o in range(5):
                    assert convolve_ints(a, b, n, 5, o) == full[o::5], (a, b, n, o)


def test_limb_width_follows_the_coefficients_that_meet(monkeypatch, basis20):
    # t**-1 squared at 616 coefficients needs 23 bytes and U_5 of A * g_4 *
    # t**-4, the deepest RR B = 5 image, 34; the max * max bound packed them
    # at 33 and 44 bytes
    widths = []
    pack = series._pack
    monkeypatch.setattr(series, "_pack", lambda vals, k: widths.append(k) or pack(vals, k))
    inv_t = basis20.monomial(-1, 0, 616)
    widths.clear()
    inv_t.mul(inv_t)
    assert widths and max(widths) <= 24
    table = UImageTable(basis20, build_A(rogers_ramanujan().gen), 5)
    prec = table._precision(1, -4, 4)
    assert prec == 616
    y = basis20.monomial(0, 4, prec, table.A)
    t4 = basis20.monomial(-4, 0, prec)
    widths.clear()
    u_ell(t4, 5, y)
    assert widths and max(widths) <= 36


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_inverse_matches_schoolbook(ring):
    # every length from 1 to 40 and each side of the powers of two, so the
    # Newton steps meet both halving remainders
    rng = random.Random(23)
    lengths = list(range(1, 41)) + [n for k in range(3, 9) for n in (2 ** k - 1, 2 ** k + 1)]
    for n in lengths:
        coeffs = [1] + [ring.coerce(rng.randint(-20, 20)) for _ in range(n - 1)]
        val = rng.randint(-3, 3)
        f = QSeries(ring, coeffs, val, val + n)
        inv = f.inv()
        assert (inv.val, inv.trunc) == (-val, n - val)
        assert list(inv.coeffs) == schoolbook_inverse(coeffs, n, ring), (ring, n)


DIVISION_LENGTHS = list(range(1, 65)) + [n for k in range(3, 9) for n in (2 ** k - 1, 2 ** k + 1)]


def reference_inverse(den):
    """den's inverse to as many coefficients as den holds, by
    ``schoolbook_inverse``."""
    n = den.trunc - den.val
    return QSeries(den.ring, schoolbook_inverse(den.coeffs, n, den.ring), -den.val, n - den.val)


@pytest.mark.parametrize("ring", [ZZ, zmod(5, 3), zmod(7, 1)], ids=str)
def test_division_matches_inverse_then_product(ring):
    # one division step against the schoolbook inverse and a product, at
    # every length to 64 and each side of the powers of two, with windows and
    # valuations that differ between the operands and denominators in q**d
    rng = random.Random(37)
    coeff = lambda: ring.coerce(rng.randint(-30, 30))
    for n in DIVISION_LENGTHS:
        for d in (1, 2, 5):
            small = QSeries(ring, [1] + [coeff() for _ in range(-(-n // d) - 1)], 0, -(-n // d))
            den = small.substitute_power(d).truncate(n).shift(rng.randint(-3, 3))
            extra = rng.randint(0, 3)
            val = rng.randint(-3, 3)
            num = QSeries(ring, [coeff() for _ in range(n + extra)], val, val + n + extra)
            assert num.div(den) == num.mul(reference_inverse(den)), (ring, n, d)
    # a zero numerator keeps the product's window
    den = QSeries(ring, [1, 2, 3], 0, 3)
    zero = QSeries.zero(ring, 4)
    assert zero.div(den) == zero.mul(reference_inverse(den))
    with pytest.raises(SpecError):
        QSeries.one(ring, 9).div(QSeries.zero(ring, 9))


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_division_works_in_the_operands_q_stride(ring, monkeypatch):
    # a denominator in q**5, such as G(q**5) in scaled_congruence_series, is
    # inverted in q**5 to h = n/2: no product of the inverse is longer than
    # ceil(n/10), also when a term past h breaks the stride; a numerator and
    # a denominator both in q**s are divided at ceil(n/s) coefficients
    rng = random.Random(41)
    coeff = lambda: ring.coerce(rng.randint(-30, 30))
    lengths = []
    conv = series.convolve_ints
    monkeypatch.setattr(series, "convolve_ints",
                        lambda a, b, n, *rest: lengths.append(n) or conv(a, b, n, *rest))
    n = 200
    num = QSeries(ring, [coeff() for _ in range(n)], 0, n)
    g5 = euler_quotient(((1, -3), (2, 5), (4, -2)), n // 5, ring).substitute_power(5)
    for den in (g5, g5.add(QSeries.from_terms(ring, {n - 1: 1}, n))):
        lengths.clear()
        quotient = num.div(den)
        assert lengths[-3:] == [n // 2, n, n // 2] and max(lengths[:-3]) <= n // 10
        assert quotient == num.mul(reference_inverse(den))
    for s in (2, 3, 7):
        m = -(-n // s)
        den = QSeries(ring, [1] + [coeff() for _ in range(m - 1)], 0, m)
        den = den.substitute_power(s).truncate(n).shift(rng.randint(-3, 3))
        num = QSeries(ring, [coeff() for _ in range(m + 2)], 0, m + 2)
        num = num.substitute_power(s).truncate(n + 1).shift(rng.randint(-3, 3))
        lengths.clear()
        quotient = num.div(den)
        assert max(lengths) <= m
        assert quotient == num.mul(reference_inverse(den)), (ring, s)


@pytest.mark.parametrize("ring", RINGS + [zmod(5, 3)], ids=str)
def test_euler_powers_from_jacobi_and_pentagonal_series(ring):
    # (q;q)**r as J**(r//3) * P**(r%3), J from Jacobi's identity, against
    # the pentagonal series raised to r, and each in q**d
    for n in (1, 2, 7, 60, 201):
        for r in range(1, 13):
            ref = euler_product(n, ring).pow(r)
            assert eta._power_product([(1, r)], n, ring) == ref, (n, r)
            for d in (2, 5):
                spread = ref.truncate(-(-n // d)).substitute_power(d).truncate(n)
                assert eta._power_product([(d, r)], n, ring) == spread, (n, r, d)


def test_convolution_huge_coefficients():
    rng = random.Random(11)
    a = [rng.randint(-10**40, 10**40) for _ in range(30)]
    b = [rng.randint(-10**40, 10**40) for _ in range(30)]
    assert convolve_ints(a, b, 40) == schoolbook(a, b, 40)


def test_euler_product_small_cases():
    # (q;q)_inf to order 13: pentagonal exponents 0,1,2,5,7,12
    f = euler_product(13)
    assert f.terms() == {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1}
    assert euler_product(0) == QSeries.zero(ZZ, 0)
    # a lone factor in q**4 is expanded to 12 but reported to 10
    assert euler_quotient(((4, 1),), 10) == QSeries.from_terms(ZZ, {0: 1, 4: -1, 8: -1}, 10)
    # no factor of (q^4;q^4) contributes below order 4
    assert euler_quotient(((4, 1),), 4).terms() == {0: 1}
    assert euler_quotient(((2, 1),), 5).terms() == {0: 1, 2: -1, 4: -1}


@pytest.mark.parametrize("d,trunc", [(1, 40), (2, 35), (3, 50), (5, 26), (10, 61)])
def test_euler_product_against_finite_product(d, trunc):
    # (q**d; q**d)_inf spread to q**d by the path the package uses
    f = euler_quotient(((d, 1),), trunc)
    assert f.trunc == trunc and [f.coeff(e) for e in range(trunc)] == finite_euler_oracle(d, trunc)


@pytest.mark.parametrize("exponents", [
    ((1, -3), (2, 5), (4, -2)),   # Rogers-Ramanujan subpartitions
    ((1, -4), (2, 5), (4, -2)),   # 2-colored Frobenius partitions
    ((1, -1),),                   # p(n)
], ids=["rogers-ramanujan", "andrews-sellers", "partitions"])
def test_euler_quotient_mod_prime_power_is_reduced_exact(exponents):
    # expanding in Z/5^e, Newton inversions included, is the exact
    # expansion reduced mod 5^e
    exact = euler_quotient(exponents, 2000)
    for e in (1, 2, 5):
        assert euler_quotient(exponents, 2000, zmod(5, e)) == into(exact, 5, e)


QUOTIENT_EXPONENTS = [
    (),                                   # empty
    ((1, 3), (2, 1), (5, 2)),             # all positive
    ((1, -2), (3, -1), (7, -3)),          # all negative
    ((1, -3), (2, 5), (4, -2)),           # mixed: Rogers-Ramanujan
    ((2, -4), (4, 5), (8, -2)),           # every d even
    ((4, 2), (12, -3), (20, 1)),          # every d a multiple of 4
    ((5, -1), (25, 3), (50, -2)),         # every d a multiple of 5
    ((10, -2), (20, 4)),                  # every d a multiple of 10
]


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("exponents", QUOTIENT_EXPONENTS, ids=str)
def test_euler_quotient_matches_per_factor_product(exponents, ring):
    # one inversion of the denominator, in q**gcd, against every factor
    # expanded alone; truncations the gcd does not divide included
    ref = per_factor_quotient(exponents, 300, ring)
    for trunc in range(1, 301):
        assert euler_quotient(exponents, trunc, ring) == ref.truncate(trunc), (exponents, trunc)


def test_euler_quotient_of_the_built_in_quotients():
    # A, t, 1/t, g and h of both built-ins at the deepest RR B = 5 length
    t = EtaQuotient(20, T_EXPONENTS)
    quotients = [build_A(rogers_ramanujan().gen), build_A(andrews_sellers().gen),
                 t, t.inverse(), _G20, _H20]
    for eq in quotients:
        assert euler_quotient(eq.exponents, 616) == per_factor_quotient(eq.exponents, 616), eq


def test_zmod_results_are_reduced_once(monkeypatch):
    # a product or inverse is reduced in the convolution, and a window of a
    # series is canonical already: none of them makes a second coerce pass
    ring = zmod(5, 3)
    f = euler_quotient(((1, -3), (2, 5)), 200, ring)
    calls = []
    coerce = CoeffRing.coerce
    monkeypatch.setattr(CoeffRing, "coerce", lambda self, c: calls.append(c) or coerce(self, c))
    one = f.mul(f.inv()).truncate(150).shift(3)
    assert calls == []
    assert one == QSeries.one(ring, 150).shift(3)


def run_ring_laws(cases=200, seed=2024):
    rng = random.Random(seed)
    for _ in range(cases):
        ring = rng.choice(RINGS)
        f = random_series(rng, ring)
        g = random_series(rng, ring)
        h = random_series(rng, ring)
        assert f.scale(0) == QSeries.zero(ring, f.trunc)
        assert f.mul(g).agrees_with(g.mul(f))
        assert f.mul(g).mul(h).agrees_with(f.mul(g.mul(h)))
        assert f.mul(g.add(h)).agrees_with(f.mul(g).add(f.mul(h)))
        if f.coeffs[:1] == (1,):
            one = f.mul(f.inv())
            assert one.agrees_with(QSeries.one(ring, one.trunc))
        else:
            with pytest.raises(SpecError, match="a denominator must lead with 1"):
                f.inv()
    return cases


def test_ring_laws():
    run_ring_laws(cases=200)


def test_pow_zero_and_inverse_pairing():
    # pow takes exponents >= 1 only: f**0 and f**-1 are refused, and an
    # inverse is made by inv
    f = QSeries(ZZ, [1, 2, 3, 4], 0, 4)
    for n in (0, -1):
        with pytest.raises(SpecError, match=f"a series power needs an exponent >= 1, not {n}"):
            f.pow(n)
    assert f.mul(f.inv()).terms() == {0: 1}
    g = QSeries(ZZ, [1, -1], -2, 0)
    assert g.pow(1) is g
    assert g.pow(3).leading() == (-6, 1)
    assert g.pow(2).inv().leading() == (4, 1)


def test_geometric_series_product():
    # (1 - q) * (1 + q + q^2 + ...) = 1 up to truncation 5
    f = QSeries(ZZ, [1, -1], 0, 5)
    g = QSeries(ZZ, [1] * 5, 0, 5)
    assert f.mul(g).terms() == {0: 1}


def test_inv_requires_unit_leading():
    # the one unit a denominator may lead with is 1: 2, a unit mod 5**2, and
    # -1, a unit of Z, are refused by div and inv alike, as are 5 mod 5**2
    # and the zero series
    for ring, coeffs, lead in ((ZZ, [2, 1], 2), (zmod(5, 2), [2, 1], 2), (ZZ, [-1, 1], -1),
                               (zmod(5, 2), [5, 1], 5), (ZZ, [], 0)):
        den = QSeries(ring, coeffs, 0, 2)
        for call in (den.inv, lambda: QSeries(ring, [1, 1, 1], 0, 3).div(den)):
            with pytest.raises(SpecError, match=f"a denominator must lead with 1, not {lead}$"):
                call()


def test_integer_rings_reject_non_integers():
    # a fractional coefficient is an error, never silently truncated
    for ring in (ZZ, zmod(5, 2)):
        for bad in (0.5, Fraction(1, 2), Fraction(2, 1)):
            with pytest.raises(TypeError):
                QSeries(ring, [bad], 0, 1)
            with pytest.raises(TypeError):
                QSeries.from_terms(ring, {2: 1, 5: bad}, 8)
    # so is a ring Z/ell^power with a fractional ell or power
    with pytest.raises(SpecError, match="modulus exponent 2.0"):
        zmod(5, 2.0)
    with pytest.raises(SpecError, match="modulus base 5.0"):
        zmod(5.0, 2)


RR_GEN = FamilyGenerator(4, {1: -3, 2: 5, 4: -2}, 5)

# (class, constructor arguments, field names in the order a frozen dataclass
# of the same fields would hash them)
VALUE_CLASSES = [
    (EtaQuotient, (20, {4: -2, 1: 2}), ("level", "exponents")),
    (Cusp, (3, 20), ("c", "a")),
    (CoeffRing, (5, 3), ("ell", "power")),
    (PoleSets, (frozenset({Cusp(1, 4)}), frozenset(), frozenset({Cusp(1, 5)}), frozenset()),
     ("p_A", "p_g", "p0_prime", "p1_prime")),
    (FamilyGenerator, (4, {1: -3, 2: 5, 4: -2}, 5), ("M", "r", "ell")),
    (StabilityExponents, (100, (Cusp(1, 4), Cusp(1, 5)), (1, 2), (-3, 0), (5, -5), (((0, 0),),)),
     ("level", "cusps", "ord_scaled_t", "ord_A", "ord_t", "terms")),
    (BasisFunction, ("g2", ((1, (_H20,)), (-1, (_G20,))), -3), ("name", "construction", "ord_inf")),
    (CongruenceFamilySpec, ("rr", RR_GEN, 24, "even-alpha", 5), ("name", "gen", "c", "pattern", "B")),
    (QSeries, (zmod(5, 2), [26, 5], -1, 3), ("ring", "val", "trunc", "coeffs")),
    (ModuleElement, (zmod(5, 2), {(0, 0): 26, (-1, 2): 25}), ("ring", "terms")),
]


@pytest.mark.parametrize("cls, args, fields", VALUE_CLASSES, ids=lambda x: getattr(x, "__name__", ""))
def test_value_classes_compare_hash_and_freeze_like_frozen_dataclasses(cls, args, fields):
    a, b = cls(*args), cls(*args)
    values = tuple(getattr(a, f) for f in fields)
    assert a is not b and a == b
    if cls is ModuleElement:  # its terms are a dict, so it has no hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(values)
    # equality holds only between instances of one class
    subclass = type("Sub" + cls.__name__, (cls,), {"__slots__": ()})
    assert a != subclass(*args) and subclass(*args) != a
    assert a != values
    assert all(a != other(*other_args) for other, other_args, _ in VALUE_CLASSES if other is not cls)
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
    with pytest.raises(AttributeError):
        delattr(a, fields[0])
    assert a == b and tuple(getattr(a, f) for f in fields) == values


def test_value_class_orders_and_reprs():
    cusps = [Cusp(3, 20), Cusp(1, 0), Cusp(1, 4), Cusp(2, 5), Cusp(1, 20), Cusp(1, 5), Cusp(0, 1)]
    assert sorted(cusps) == sorted(cusps, key=lambda x: (x.c, x.a))
    assert [repr(x) for x in sorted(cusps)] == ["oo", "0", "1/4", "1/5", "2/5", "1/20", "3/20"]
    assert repr(EtaQuotient(20, {4: -2, 1: 2})) == "EtaQuotient(20: 1^2,4^-2)"
    assert repr(EtaQuotient(12, {})) == "EtaQuotient(12: 1)"
    assert (str(ZZ), str(zmod(5, 3))) == ("Z", "Z/5^3")
    assert repr(zmod(5, 3)) == "CoeffRing(ell=5, power=3)"


def test_from_terms_coerces_only_the_given_terms(monkeypatch):
    ring = zmod(5, 2)
    calls = []
    coerce = CoeffRing.coerce
    monkeypatch.setattr(CoeffRing, "coerce", lambda self, c: calls.append(c) or coerce(self, c))
    f = QSeries.from_terms(ring, {-2: -1, 3: 27, 9: 5}, 6)
    assert calls == [-1, 27]
    assert (f.val, f.trunc, f.coeffs) == (-2, 6, (24, 0, 0, 0, 0, 2, 0, 0))
    assert QSeries.from_terms(ring, {1: 25}, 4) == QSeries.zero(ring, 4)


def test_truncation_tracking():
    f = QSeries(ZZ, [1, 1], 0, 8)       # known to q^7
    g = QSeries(ZZ, [1], -3, 2)         # q^-3 known to q^1
    p = f.mul(g)
    assert p.trunc == min(8 + (-3), 2 + 0)
    assert p.val == -3
    i = g.inv()
    assert (i.val, i.trunc) == (3, 2 - 2 * (-3))


def test_substitute_power():
    q = QSeries(ZZ, [1], 1, 2)
    assert q.substitute_power(5).terms() == {5: 1}
    assert q.substitute_power(5).trunc == 10
    s = QSeries(ZZ, [1, 2, 3], 0, 3).substitute_power(5)
    assert s.terms() == {0: 1, 5: 2, 10: 3}
    assert QSeries.zero(ZZ, 3).substitute_power(5) == QSeries.zero(ZZ, 15)


def run_substitution_homomorphism(cases=200, seed=5):
    rng = random.Random(seed)
    for _ in range(cases):
        ring = rng.choice(RINGS)
        f = random_series(rng, ring)
        g = random_series(rng, ring)
        d = rng.randint(1, 4)
        lhs = f.mul(g).substitute_power(d)
        rhs = f.substitute_power(d).mul(g.substitute_power(d))
        assert lhs.agrees_with(rhs)
    return cases


def test_substitution_is_multiplicative():
    run_substitution_homomorphism()


def into(f, ell, b):
    """f's coefficients handed to the constructor of Z/ell^b."""
    return QSeries(zmod(ell, b), f.coeffs, f.val, f.trunc)


def test_reduce_mod_examples():
    f = QSeries(ZZ, [7, 26], 0, 2)
    assert into(f, 5, 2).terms() == {0: 7, 1: 1}
    assert into(QSeries(ZZ, [-1], 0, 1), 5, 1).terms() == {0: 4}
    assert into(QSeries(ZZ, [625], 3, 4), 5, 2).is_zero()


def run_reduce_mod_homomorphism(cases=200, seed=31):
    rng = random.Random(seed)
    for _ in range(cases):
        f = random_series(rng, ZZ)
        g = random_series(rng, ZZ)
        ell, b = rng.choice([(5, 1), (5, 3), (7, 2)])
        assert into(f.add(g), ell, b).agrees_with(into(f, ell, b).add(into(g, ell, b)))
        assert into(f.mul(g), ell, b).agrees_with(into(f, ell, b).mul(into(g, ell, b)))
    return cases


def test_reduce_mod_is_ring_hom():
    run_reduce_mod_homomorphism()


# -- eta expansion ----------------------------------------------------------

T_EXPONENTS = {1: 2, 4: 2, 10: 8, 5: -2, 20: -10}
H_EXPONENTS = {4: 1, 5: 5, 1: -1, 20: -5}
G_EXPONENTS = {4: 4, 10: 2, 2: -2, 20: -4}


def test_eta_expand_leading_terms():
    t = EtaQuotient(20, T_EXPONENTS)
    f = eta_expand(t, 30)
    assert f.leading() == (-5, 1)
    h = eta_expand(EtaQuotient(20, H_EXPONENTS), 30)
    assert h.leading() == (-3, 1)
    assert eta_expand(EtaQuotient(20, {}), 10).terms() == {0: 1}


def test_eta_expand_offset_is_weighted_degree():
    # the prefactor q^(sum(d*r_d)/24) sets the leading exponent, and trunc
    # counts coefficients past it
    t = EtaQuotient(20, T_EXPONENTS)
    f = eta_expand(t, 5)
    assert t.sum_dr() == -120
    assert (f.val, f.trunc) == (-5, 0)
    assert f.coeffs == euler_quotient(t.exponents, 5).coeffs


def test_eta_expand_rejects_fractional_prefactor():
    # eta(tau) = q^(1/24) (q; q)_inf: no integer exponent to shift by
    for eq in (EtaQuotient(1, {1: 1}), EtaQuotient(20, {1: 2, 4: 2})):
        with pytest.raises(SpecError, match="fractional prefactor"):
            eta_expand(eq, 5)
    assert eta_expand(EtaQuotient(1, {1: 24}), 3).leading() == (1, 1)


def run_eta_multiplicativity(cases=200, seed=13):
    rng = random.Random(seed)
    levels = [4, 6, 10, 20]
    for _ in range(cases):
        N = rng.choice(levels)
        ds = [d for d in range(1, N + 1) if N % d == 0]
        e1 = EtaQuotient(N, {d: rng.randint(-3, 3) for d in ds})
        e2 = EtaQuotient(N, {d: rng.randint(-3, 3) for d in ds})
        trunc = 18
        lhs = euler_quotient(e1.exponents, trunc).mul(euler_quotient(e2.exponents, trunc))
        rhs = euler_quotient(EtaQuotient(N, e1.exponents + e2.exponents).exponents, trunc)
        assert lhs.agrees_with(rhs) and lhs.trunc == rhs.trunc == trunc
    return cases


def test_eta_expand_multiplicative():
    run_eta_multiplicativity()


def test_eta_quotient_validation():
    with pytest.raises(SpecError):
        EtaQuotient(20, {3: 1})
    # a float divisor or exponent is refused, never truncated or rounded
    with pytest.raises(SpecError, match="exponent 2.5"):
        EtaQuotient(20, {1: 2.5, 4: 2})
    with pytest.raises(SpecError, match="divisor 4.0"):
        EtaQuotient(20, {1: 2, 4.0: 2})
    with pytest.raises(SpecError, match="exponent True"):
        EtaQuotient(20, {1: True})  # a bool is not the exponent 1
    eq = EtaQuotient(20, {1: 1, 2: 0, 20: -1})
    assert eq.exponents == ((1, 1), (20, -1))
    assert eq.scale_tau(5).level == 100
    assert dict(eq.scale_tau(5).exponents)[100] == -1
    assert eq.at_level(100).level == 100


# (call, exception, message): the guards of the series and eta functions
GUARDS = [
    (lambda: QSeries(ZZ, [1, 2, 3], 0, 2), SpecError, "coefficient window exceeds truncation"),
    (lambda: QSeries.one(ZZ, 3).coeff(3), SpecError, "coefficient q^3 lies beyond truncation 3"),
    (lambda: QSeries.zero(ZZ, 3).leading(), SpecError, "zero series has no leading term"),
    (lambda: QSeries.one(ZZ, 3).add(QSeries.one(zmod(5, 1), 3)), SpecError,
     "ring mismatch: Z vs Z/5^1"),
    (lambda: QSeries.one(ZZ, 3).substitute_power(0), SpecError, "substitution power must be >= 1"),
    (lambda: QSeries.one(ZZ, 3).truncate(4), SpecError, "cannot extend a truncated series"),
    (lambda: zmod(4, 1), SpecError, "modulus base 4 is not prime"),
    (lambda: zmod(5, 0), SpecError, "modulus exponent must be >= 1"),
    (lambda: zmod(0, 0), SpecError, "modulus base 0 is not prime"),
    (lambda: CoeffRing(0, 3), SpecError, "modulus base 0 is not prime"),
    (lambda: EtaQuotient(20, {4: 1}).at_level(10), SpecError,
     "divisor 4 does not divide target level 10"),
    (lambda: EtaQuotient(20, {0: 1}), SpecError, "divisor 0 does not divide level 20"),
    (lambda: EtaQuotient(20, {-4: 1}), SpecError, "divisor -4 does not divide level 20"),
    (lambda: EtaQuotient(20, {4: 1}).scale_tau(0), SpecError, "scaling factor must be >= 1"),
    (lambda: euler_product(-1), SpecError, "truncation must be >= 0"),
    (lambda: eta_expand(EtaQuotient(1, {}), 0), SpecError, "eta expansion needs truncation >= 1"),
]


@pytest.mark.parametrize("call, exc, message", GUARDS, ids=[m for _, _, m in GUARDS])
def test_guards_refuse(call, exc, message):
    with pytest.raises(exc, match=re.escape(message)):
        call()


def test_z_has_one_representation():
    # Z is the ring of the pair (0, 0) however it is written, so series over
    # CoeffRing() and ZZ add, and Z/ell^power is the same ring either way
    assert CoeffRing() == CoeffRing(0, 0) == ZZ and (ZZ.ell, ZZ.power) == (0, 0)
    assert CoeffRing(5, 3) == zmod(5, 3) != ZZ
    assert QSeries.one(CoeffRing(), 3).add(QSeries.one(ZZ, 3)).terms() == {0: 2}


SERIES_INTERNALS = {"_canonical", "_conv", "_check_ring", "_fill"}


VALUE_METHODS = {"__eq__", "__hash__", "__setattr__", "__delattr__"}


def test_only_frozen_writes_value_methods():
    # equality, hashing and immutability have one owner, series.Frozen: no
    # other class defines or assigns them
    for path in sorted(Path(eta.__file__).parent.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef) or cls.name == "Frozen":
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    names = {node.name}
                elif isinstance(node, ast.Assign):
                    names = {t.id for t in node.targets if isinstance(t, ast.Name)}
                else:
                    continue
                assert not names & VALUE_METHODS, f"{path.name}:{node.lineno} {cls.name}"


def test_series_internals_stay_in_series():
    # the window of a product, the ring check and the canonical form have one
    # owner, QSeries: no other module of the package reaches into them
    for path in sorted(Path(eta.__file__).parent.glob("*.py")):
        if path.name == "series.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            assert name not in SERIES_INTERNALS, f"{path.name}:{node.lineno} reads {name}"
