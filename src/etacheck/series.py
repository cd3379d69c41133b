"""Exact truncated Laurent q-series arithmetic.

A :class:`QSeries` is a finite window of a Laurent series in ``q``: integer
exponents from ``val`` up to (but excluding) ``trunc``, coefficients in one of
two rings (exact integers, integers mod a prime power).  Every series lives on
integer exponents; the eta prefactor q**(sum(d*r_d)/24) is folded in by
``eta.eta_expand``, and ``eta.EtaQuotient.q_shift`` rejects a quotient whose
prefactor is not an integer power of q instead of rounding it.

Truncation bookkeeping is pessimistic: every operation reports only the
coefficients its inputs actually determine (``min`` of the operand windows,
shifted by valuations for products and inverses).  All operations are pure;
a series, like every value type of the package, is an immutable ``Frozen``.

Multiplication is Kronecker substitution, the single hot spot of the whole
package: ``convolve_ints`` packs each operand, whatever its signs, into
signed big numbers, so that a C multiply does the convolution, and its
docstring is where the encodings and the limb width are described.  It can
also return only the coefficients at o + ell*n of a product, the part U_ell
keeps.  ``QSeries.mul(other, ell)`` is the one owner of the window of
either: ell = 1 is the product, and ell > 1 is U_ell of the product, which
is never formed.  ``QSeries.div`` is the one owner of q-strides and of the
Newton inverse: when both operands are series in q**s it divides in q**s,
it inverts the denominator only to half the length, in q**(the
denominator's own stride), and one division step (Karp and Markstein)
finishes the quotient.  A denominator must lead with 1, as every one the
method divides by does (an Euler-product denominator, or the generating
function G), so Newton's method starts from 1 in either ring; ``inv`` is one
divided by a series leading with 1, and ``pow`` takes exponents >= 1 only.

Outside this module nothing reduces coefficients into a ring by hand: sums
are formed over Z and handed to the ``QSeries`` constructor (or to
``basis.ModuleElement``'s), which reduces them.
"""

from __future__ import annotations

import operator
import struct
import sys
from array import array
from math import gcd, isqrt

from .errors import SpecError


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def _whole(x, what: str) -> int:
    """x through operator.index, the package's one integer check: a bool, a
    string or a float such as 2.5 or 4.0 raises SpecError."""
    try:
        if isinstance(x, bool):
            raise TypeError
        return operator.index(x)
    except TypeError:
        raise SpecError(f"{what} {x!r} is not an integer") from None


class Frozen:
    """The one immutable base of every value type, ``QSeries`` and
    ``basis.ModuleElement`` included: a frozen dataclass over ``__slots__``
    without code generated at import.  Its fields, at least two, are the slots
    not named "_..." (those hold what the fields determine) and give eq (within
    one class only), hash and repr.  A validating ``__init__`` uses ``_set``."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        slots = [f for c in reversed(cls.__mro__) for f in c.__dict__.get("__slots__", ())]
        cls._fields = tuple(f for f in slots if f[0] != "_")
        cls._values = operator.attrgetter(*cls._fields)  # the tuple of fields

    def __init__(self, *values):  # the fields, in order
        self._set(**dict(zip(self._fields, values, strict=True)))

    def _set(self, **slots):
        for name, value in slots.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({body})"


class CoeffRing(Frozen):
    """Coefficient ring tag: the exact integers Z, ``CoeffRing()`` with
    (ell, power) = (0, 0), or, for any other pair, the integers modulo
    ell**power, a prime ell and power >= 1, with canonical representatives
    in [0, ell**power)."""

    __slots__ = ("ell", "power", "_modulus")

    def __init__(self, ell: int = 0, power: int = 0):
        _whole(ell, "modulus base")
        _whole(power, "modulus exponent")
        if ell or power:
            if not _is_prime(ell):
                raise SpecError(f"modulus base {ell} is not prime")
            if power < 1:
                raise SpecError("modulus exponent must be >= 1")
        self._set(ell=ell, power=power, _modulus=ell ** power if ell else None)

    def coerce(self, c):
        """Bring an integer into canonical form; a non-integer raises
        TypeError instead of being truncated."""
        c = operator.index(c)
        return c if self._modulus is None else c % self._modulus

    def __str__(self):
        return f"Z/{self.ell}^{self.power}" if self._modulus else "Z"


ZZ = CoeffRing()


def zmod(ell: int, power: int) -> CoeffRing:
    """Z/ell**power; the pair (0, 0), which names Z, is refused."""
    if not ell:
        raise SpecError(f"modulus base {ell} is not prime")
    return CoeffRing(ell, power)


# ---------------------------------------------------------------------------
# Kronecker-substitution convolution.

def _libmpdec():
    """The C decimal module, imported by the first product that needs it, or None."""
    global _decimal
    try:
        import _decimal  # libmpdec; the pure-Python _pydecimal is slower than int
    except ImportError:  # pragma: no cover - CPython builds ship _decimal
        _decimal = None
    return _decimal


# Class products of this many decimal digits or more go to libmpdec (see
# ``convolve_ints``).  Both encodings, timed alternately on the 994 products
# of at least 5 000 digits of cold RR (B = 14) and AS (B = 10) runs, the 5^6
# and 5^5 oracle cases, the benchmark's four oracle checks and
# ``consistency_check`` at alpha = 5, take the least time in all there (2-core
# x86-64, CPython 3.11, libmpdec 2.5.1): 8.08 s, against 18.6 s for int alone
# and 9.2 s for libmpdec alone, and within 0.2% of it from 200 000 to 450 000.
_DECIMAL_DIGITS = 210_000

# Blocks of the limb-width bound (``convolve_ints``): an operand of at most
# this many coefficients is one block.
_BLOCK = 32

_FLIP = bytes(x ^ 0x80 for x in range(256))  # flips a byte's top bit
_SIGN = bytes(0xFF if x & 0x80 else 0 for x in range(256))  # its sign extension
# Signed array item codes of 1, 2, 4 and 8 bytes, when the items have those
# sizes and are stored little-endian, as the limbs of a packed integer are.
_WORDS = dict(zip((1, 2, 4, 8), "bhiq"))
if sys.byteorder != "little" or any(array(c).itemsize != w for w, c in _WORDS.items()):
    _WORDS = {}


def _bias(limb_bytes, n):
    """sum of half * 2**(8*limb_bytes*i) for i < n, half = 2**(8*limb_bytes - 1)."""
    return int.from_bytes((bytes(limb_bytes - 1) + b"\x80") * n, "little")


def _word(limb_bytes):
    """The array item width that holds a limb of limb_bytes, or None."""
    w = 1 << (limb_bytes - 1).bit_length()
    return w if w in _WORDS else None


def _pack(vals, limb_bytes):
    """The signed integer sum of vals[i] * 2**(8*limb_bytes*i), written as
    limbs v + half, half = 2**(8*limb_bytes - 1) > |v|, minus their bias.

    v + half is v's two's complement at limb_bytes bytes with its top bit
    flipped.  A limb of at most 8 bytes is written by C: the array of vals at
    the next item width w, then, for limb_bytes < w, the low limb_bytes bytes
    of each item copied by strided slices, then the top byte of each limb
    flipped through a translate table."""
    k = limb_bytes
    w = _word(k)
    if w is None:
        half = 1 << (8 * k - 1)
        packed = b"".join([(v + half).to_bytes(k, "little") for v in vals])
    else:
        words = array(_WORDS[w], vals).tobytes()
        if k == w:
            packed = bytearray(words)
        else:
            packed = bytearray(k * len(vals))
            for p in range(k):
                packed[p::k] = words[p::w]
        packed[k - 1::k] = packed[k - 1::k].translate(_FLIP)
    return int.from_bytes(packed, "little") - _bias(k, len(vals))


def _unpack(raw, limb_bytes):
    """The values d of the limbs d + half of raw, inverse to ``_pack``'s
    encoding: for limbs of at most 8 bytes, the top byte flipped back, each
    limb sign-extended to the next item width through a second translate
    table, and the items read by a memoryview cast; wider limbs are cut by
    ``struct.iter_unpack`` in C, about twice as fast as slicing."""
    k = limb_bytes
    w = _word(k)
    if w is None:
        half = 1 << (8 * k - 1)
        from_bytes = int.from_bytes
        return [from_bytes(limb, "little") - half for (limb,) in struct.iter_unpack(f"{k}s", raw)]
    top = raw[k - 1::k].translate(_FLIP)
    if k == w:
        words = bytearray(raw)
    else:
        words = bytearray(len(raw) // k * w)
        for p in range(k - 1):
            words[p::w] = raw[p::k]
        sign = top.translate(_SIGN)
        for p in range(k, w):
            words[p::w] = sign
    words[k - 1::w] = top
    return memoryview(words).cast(_WORDS[w]).tolist()


def _pack_decimal(vals, digits):
    """The Decimal sum of vals[i] * 10**(digits*i): limbs v + half, each of
    exactly ``digits`` digits, as |v| < 10**(digits-1) and half =
    5 * 10**(digits-1), minus their bias, in the caller's exact context."""
    half = 5 * 10 ** (digits - 1)
    packed = "".join([str(v + half) for v in reversed(vals)])
    return _decimal.Decimal(packed) - _decimal.Decimal(str(half) * len(vals))


def _running_maxima(vals):
    """The largest |v| over vals[:_BLOCK * (i + 1)], for each block i."""
    out, top = [], 0
    for i in range(0, len(vals), _BLOCK):
        block = vals[i:i + _BLOCK]
        top = max(top, max(block), -min(block))
        out.append(top)
    return out


def _class_products(a, b, ell, o, pack, shift):
    """At each evaluation point, the sum over the class pairs (r, s) with
    r + s = o mod ell of the products of the classes' values there: pack(c)
    lists a class's values at the points, and shift multiplies such a list
    by the points when r + s = o + ell.  When a is b, the pair r = s is
    packed once and each value squared (one object times itself), which
    CPython and libmpdec both make about 1.4 times faster than a product of
    two operands of its size (200 000-bit ints, 300 000-digit Decimals)."""
    square = a is b
    totals = None
    for r in range(min(ell, len(a))):
        s = (o - r) % ell
        if s < len(b):
            xs = pack(a[r::ell])
            ys = xs if square and r == s else pack(b[s::ell])
            prods = [x * y for x, y in zip(xs, ys)]
            if r + s > o:
                prods = shift(prods)
            totals = prods if totals is None else [t + p for t, p in zip(totals, prods)]
    return totals


def convolve_ints(a, b, n_out, ell=1, o=0):
    """Coefficients o, o + ell, ..., o + ell*(n_out - 1) of the product of
    integer coefficient lists, for 0 <= o < ell; ell = 1 gives the first
    n_out coefficients.

    Each operand is split into its ell residue classes of index, and each
    class c is packed once, as its values at the encoding's points x (c(x) =
    sum of c[i] * x**i).  Class r of a meets only class s = (o - r) mod ell
    of b: since r + s is o or o + ell, their product holds the wanted
    coefficients from index 0 or 1 on, so it is multiplied by x in the second
    case and added into T(x), whose first n_out coefficients are wanted.  So
    U_ell of a product takes ell products of 1/ell the length and reads back
    1/ell of the limbs.  Every operand coefficient, and every wanted
    coefficient d of T, has absolute value below bound < half, half a limb's
    range.  So each operand limb can be biased by half, and adding half to
    each low limb of a packed sum turns them into limb digits with no borrow
    across limbs.

    The bound comes from the coefficients that can meet, not from
    max|a| * max|b|: coefficients grow along these series, and the last ones
    of two operands never meet in a truncated or U_ell window.  Each operand,
    cut to the n_in indices below the last wanted one, is split into blocks
    of ``_BLOCK`` coefficients, with running maxima ma[i] and mb[j] of |c|
    over them.  Blocks i and j meet in a wanted coefficient only if
    (i + j) * _BLOCK <= n_in - 1, and such a coefficient is a sum of at most
    min(len(a), len(b)) products, so it is below that count times the largest
    ma[i] * mb[j] over those pairs.  The bound never drops below max|a| or
    max|b|, since every operand limb must hold its coefficient (a limb of at
    most 8 bytes would be cut silently by ``_pack``'s strided copy).  So
    t**-1 squared at 616 coefficients packs at 24-byte limbs, and U_5 of the
    deepest RR B = 5 image at 36.  The bound costs about 2 ms over a cold RR
    B = 5 run (38 us on a 616-coefficient operand, against 25 us for
    max|a| * max|b|, and the same for an operand of one block); smaller
    blocks are tighter and cost more.

    The limb encoding follows from the operand sizes alone.  A class product
    of at least ``_DECIMAL_DIGITS`` decimal digits (limb digits times the two
    class lengths) is made in base 10**w by libmpdec, whose number-theoretic
    transform beats CPython's Karatsuba on huge operands (about 3 times
    faster above 10**6 digits), when ``_libmpdec`` loads it and int() may
    parse a w-digit limb; a power of ten above both the sum of the products
    and the n_out limbs keeps the total positive, and the limbs are read
    from its digit string one w-digit slice at a time, never by one int() of
    the whole string and never by ``Context.remainder`` (a full division);
    its one point is x = 10**w.

    Every other product is made by CPython at the two points x = 2**h and
    x = -2**h (D. Harvey, J. Symbolic Comput. 44, 2009): two products of
    half the length, which under Karatsuba cost about 2/3 of one.  A limb is
    k bytes, bit_length(bound) + 1 bits rounded up, and h = 4k bits is half
    of it.  A class c(x) = E(x**2) + x * O(x**2) is packed as its even-index
    half E and odd-index half O, each by ``_pack`` at k-byte limbs, in base
    2**(8k) = x**2; its values are E +- (O << h), each half as wide as c
    packed whole.  Moving a product up one index shifts it by h, negated at
    -2**h.  The sums S+- = T(+-2**h) give S+ + S- = 2 * Te and
    S+ - S- = 2 * 2**h * To, with Te and To the even- and odd-index halves
    of T at 2**(8k): the even outputs are read from (S+ + S-) >> 1 and the
    odd ones from (S+ - S-) >> (h + 1), one bit for the 2 and h for the x in
    front of To, both exact.  Each is biased and masked like a one-point
    sum; the outputs are unpacked together and interleaved.  Limbs of at
    most 8 bytes, the narrow coefficients of the Z/ell^e oracle, are packed
    and unpacked by ``array`` and ``bytes`` operations in C (see ``_pack``);
    wider ones, where the multiply dominates, by ``to_bytes`` and
    ``struct.iter_unpack``.  Rounding k up to the item width made the
    multiply 1.6 to 6 times slower (3 or 5 bytes to 4 or 8, 850 to 6 350
    limbs).
    """
    if n_out <= 0 or not a or not b:
        return []
    n_in = o + ell * (n_out - 1) + 1  # the last wanted index, plus one
    square = a is b  # kept one object, so _class_products squares it
    a = a[:n_in]
    b = a if square else b[:n_in]
    ma = _running_maxima(a)
    mb = ma if square else _running_maxima(b)
    if mb[-1] == 0:  # a leads with a nonzero coefficient; div's residual b may vanish
        return [0] * n_out
    # blocks i and j meet only if i + j <= last; ma and mb never fall, so
    # each i is paired with the last block of b it can meet
    last = (n_in - 1) // _BLOCK
    meet = max(x * mb[min(last - i, len(mb) - 1)] for i, x in enumerate(ma))
    bound = max(meet * min(len(a), len(b)), ma[-1], mb[-1]) + 1
    digits = bound.bit_length() * 30103 // 100000 + 2  # 10**(digits-1) > bound
    size = -(-len(a) // ell) + -(-len(b) // ell)  # limbs of one class product
    str_digits = sys.get_int_max_str_digits()
    if (digits * size >= _DECIMAL_DIGITS and (str_digits == 0 or digits <= str_digits)
            and _libmpdec()):
        half = 5 * 10 ** (digits - 1)
        # 10**top exceeds the sum of at most ell products shifted up one
        # limb, and lies above the n_out limbs
        top = max(digits * n_out, digits * (size + 1) + len(str(ell)))
        with _decimal.localcontext(prec=_decimal.MAX_PREC, Emax=_decimal.MAX_EMAX,
                                   Emin=_decimal.MIN_EMIN):
            start = _decimal.Decimal("1" + "0" * (top - digits * n_out) + str(half) * n_out)
            (total,) = _class_products(a, b, ell, o, lambda v: [_pack_decimal(v, digits)],
                                       lambda p: [p[0].scaleb(digits)]) or [0]
            total = str(start + total)
        end = len(total)
        return [int(total[i - digits:i]) - half for i in range(end, end - digits * n_out, -digits)]
    k = (bound.bit_length() + 8) // 8  # limb bytes: bit_length + 1 bits, whole bytes
    h = 4 * k  # half a limb, in bits

    def pack(v):  # the class at x = 2**h and x = -2**h
        even, odd = _pack(v[0::2], k), _pack(v[1::2], k) << h
        return [even + odd, even - odd]

    plus, minus = _class_products(a, b, ell, o, pack,
                                  lambda p: [p[0] << h, -(p[1] << h)]) or [0, 0]
    # Te(2**(8k)) holds the outputs of even index, To(2**(8k)) the odd ones
    even = (n_out + 1) // 2
    raw = b""
    for t, n in (((plus + minus) >> 1, even), ((plus - minus) >> h + 1, n_out - even)):
        raw += ((t + _bias(k, n)) & ((1 << 8 * k * n) - 1)).to_bytes(k * n, "little")
    vals = _unpack(raw, k)
    out = [0] * n_out
    out[0::2], out[1::2] = vals[:even], vals[even:]
    return out


def _stride(coeffs, n, s=0) -> int:
    """The gcd of s and the offsets 0 < i < n of the nonzero coeffs[i]:
    coeffs[:n] is a series in q**(the result), or a single term when it is
    0.  The scan stops at gcd 1, so a dense series costs O(1)."""
    for i in range(1, n):
        if s == 1:
            break
        if coeffs[i]:
            s = gcd(s, i)
    return s


def _spread(vals, s, n) -> list:
    """The n coefficients of sum of vals[i] * q**(s*i), len(vals) = ceil(n/s)."""
    out = [0] * n
    out[::s] = vals
    return out


# ---------------------------------------------------------------------------


class QSeries(Frozen):
    """Truncated Laurent series: sum of coeffs[i]*q**(val+i) for
    val <= val+i < trunc.

    The stored leading coefficient is nonzero; the zero series is canonically
    val == trunc with an empty coefficient tuple.
    """

    __slots__ = ("ring", "val", "trunc", "coeffs")  # hashed in this order

    def __init__(self, ring: CoeffRing, coeffs, val: int, trunc: int):
        self._fill(ring, [ring.coerce(c) for c in coeffs], val, trunc)

    @classmethod
    def _canonical(cls, ring: CoeffRing, coeffs, val: int, trunc: int) -> "QSeries":
        """A series from coefficients already in the ring's canonical form
        (a reduced product, or a window of another series of the ring), so
        no second pass of ``CoeffRing.coerce`` is made over them."""
        out = object.__new__(cls)
        out._fill(ring, list(coeffs), val, trunc)
        return out

    def _fill(self, ring: CoeffRing, coeffs: list, val: int, trunc: int):
        if val + len(coeffs) > trunc:
            raise SpecError("coefficient window exceeds truncation")
        if coeffs:
            coeffs.extend([0] * (trunc - val - len(coeffs)))
        # strip leading zeros (can appear after Zmod cancellation)
        lead = 0
        while lead < len(coeffs) and coeffs[lead] == 0:
            lead += 1
        coeffs = coeffs[lead:]
        val += lead
        if not coeffs:
            val = trunc
        self._set(ring=ring, val=val, trunc=trunc, coeffs=tuple(coeffs))

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ring: CoeffRing, trunc: int) -> "QSeries":
        return cls(ring, (), trunc, trunc)

    @classmethod
    def from_terms(cls, ring: CoeffRing, terms: dict, trunc: int) -> "QSeries":
        terms = {e: ring.coerce(c) for e, c in terms.items() if e < trunc}
        if not terms:
            return cls.zero(ring, trunc)
        lo = min(terms)
        coeffs = [0] * (trunc - lo)
        for e, c in terms.items():
            coeffs[e - lo] = c
        return cls._canonical(ring, coeffs, lo, trunc)

    @classmethod
    def one(cls, ring: CoeffRing, trunc: int) -> "QSeries":
        return cls.from_terms(ring, {0: 1}, trunc)

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, e: int):
        """Coefficient of q**e."""
        if e >= self.trunc:
            raise SpecError(f"coefficient q^{e} lies beyond truncation {self.trunc}")
        if e < self.val:
            return 0
        return self.coeffs[e - self.val]

    def leading(self):
        """(exponent, coefficient) of the lowest stored term."""
        if self.is_zero():
            raise SpecError("zero series has no leading term")
        return self.val, self.coeffs[0]

    def terms(self):
        return {self.val + i: c for i, c in enumerate(self.coeffs) if c != 0}

    def agrees_with(self, other: "QSeries") -> bool:
        """Coefficient-for-coefficient equality on the shared window."""
        t = min(self.trunc, other.trunc)
        lo = min(self.val, other.val)
        return all(self.coeff(e) == other.coeff(e) for e in range(lo, t))

    # -- arithmetic ---------------------------------------------------------

    def _check_ring(self, other: "QSeries"):
        if self.ring != other.ring:
            raise SpecError(f"ring mismatch: {self.ring} vs {other.ring}")

    def add(self, other: "QSeries") -> "QSeries":
        self._check_ring(other)
        trunc = min(self.trunc, other.trunc)
        if self.is_zero():
            return other.truncate(trunc)
        lo = min(self.val, other.val)
        out = [0] * (trunc - lo)
        for s in (self, other):
            for i, c in enumerate(s.coeffs):
                e = s.val + i
                if e >= trunc:
                    break
                out[e - lo] = out[e - lo] + c
        return QSeries(self.ring, out, lo, trunc)

    def scale(self, c) -> "QSeries":
        """Scalar multiple c*f."""
        c = self.ring.coerce(c)
        return QSeries(self.ring, [c * x for x in self.coeffs], self.val, self.trunc)

    def mul(self, other: "QSeries", ell: int = 1) -> "QSeries":
        """The product self*other; for ell > 1, U_ell of it (the coefficients
        at exponents ell*e, moved to e), of which only those coefficients are
        computed.  A coefficient at e is known exactly when ell*e is inside
        the product's window, so the truncation becomes ceil(trunc/ell)."""
        self._check_ring(other)
        val = self.val + other.val
        trunc = -(-min(self.trunc + other.val, other.trunc + self.val) // ell)
        start = -(-val // ell)
        n_out = trunc - start  # 0 when self or other is zero
        out = self._conv(self.coeffs, other.coeffs, n_out, ell, ell * start - val)
        return QSeries._canonical(self.ring, out, start, trunc)

    def inv(self) -> "QSeries":
        """1/self, as ``div`` makes it: one over self, to as many
        coefficients as self holds.  Like every denominator, self must lead
        with 1, which ``div`` checks."""
        one = QSeries._canonical(self.ring, [1], 0, max(1, self.trunc - self.val))
        return one.div(self)

    def div(self, den: "QSeries") -> "QSeries":
        """The quotient self/den, with the window of ``self.mul(den.inv())``:
        the package's one Newton inverse and the one owner of q-strides.
        den must lead with 1, as every denominator of the method does (an
        Euler-product denominator and the generating function G); any other
        leading coefficient, the zero series' included, is refused.

        For n coefficients, s is the stride of both operands, the gcd of the
        offsets of their nonzero coefficients in the window (``_stride``),
        and the quotient is made in q**s at m = ceil(n/s) coefficients.
        There, by one division step (Karp and Markstein) with h = ceil(m/2):
        den's inverse g to h, then f0 = self*g to h, the residual
        self - den*f0 = q**h * r at h..m-1, and self/den = f0 + q**h * (g*r)
        to m.  The inverse, whose coefficients outgrow the quotient's (the
        denominator of A (RR) at 616 coefficients reaches 151 bits where A
        reaches 82), is never made past h, and the residual's product meets
        only den's narrow coefficients.

        g is made by Newton's method in q**e from g = 1, e the stride of
        den's first h coefficients, so a denominator in q**5 (G(q**5) in
        ``verifier.scaled_congruence_series``) is inverted at ceil(h/5)
        coefficients.  The lengths run through c = ceil(h/e), ceil(c/2),
        ceil(c/4), ... up from 1, so each step takes the k known terms of g
        to t <= 2k: den*g = 1 + q**k * r to t terms, so the inverse to t
        terms is g - q**k * (g*r), and only its new half, the first t - k
        terms of g*r, is computed and appended.
        """
        self._check_ring(den)
        lead = den.coeffs[0] if den.coeffs else 0
        if lead != 1:
            raise SpecError(f"a denominator must lead with 1, not {lead}")
        val = self.val - den.val
        n = min(self.trunc - self.val, den.trunc - den.val)
        if n <= 0:
            return QSeries.zero(self.ring, val + n)
        s = _stride(den.coeffs, n, _stride(self.coeffs, n)) or n
        a, b = self.coeffs[:n:s], den.coeffs[:n:s]
        m = len(b)
        h = -(-m // 2)
        e = _stride(b, h) or h
        c = b[:h:e]
        g = [1]
        lengths = [len(c)]
        while lengths[-1] > 1:
            lengths.append(-(-lengths[-1] // 2))
        for t in reversed(lengths[:-1]):
            k = len(g)
            # -r goes in unreduced, since the product reduces its output
            r = self._conv(c, g, t)[k:]
            g += self._conv(g, [-x for x in r], t - k)
        g = _spread(g, e, h)
        f = self._conv(a, g, h)
        # r goes in unreduced, since the product reduces its output
        r = [x - y for x, y in zip(a[h:], self._conv(b, f, m)[h:])]
        f += self._conv(g, r, m - h)
        return QSeries._canonical(self.ring, _spread(f, s, n), val, val + n)

    def _conv(self, a, b, n_out, ell=1, o=0):
        out = convolve_ints(a, b, n_out, ell, o)
        m = self.ring._modulus
        return [c % m for c in out] if m else out

    def pow(self, n: int) -> "QSeries":
        """f**n for n >= 1, by binary powering."""
        if n < 1:
            raise SpecError(f"a series power needs an exponent >= 1, not {n}")
        base, result = self, None
        while n:
            if n & 1:
                result = base if result is None else result.mul(base)
            n >>= 1
            if n:
                base = base.mul(base)
        return result

    def substitute_power(self, d: int) -> "QSeries":
        """f(q**d): exponents and truncation both scale by d."""
        if d < 1:
            raise SpecError("substitution power must be >= 1")
        if d == 1:
            return self
        out = _spread(self.coeffs, d, d * (self.trunc - self.val))
        return QSeries._canonical(self.ring, out, d * self.val, d * self.trunc)

    def truncate(self, trunc: int) -> "QSeries":
        """Forget coefficients at exponents >= trunc."""
        if trunc >= self.trunc:
            if trunc > self.trunc:
                raise SpecError("cannot extend a truncated series")
            return self
        if trunc <= self.val:
            return QSeries.zero(self.ring, trunc)
        return QSeries._canonical(self.ring, self.coeffs[:trunc - self.val], self.val, trunc)

    def shift(self, k: int) -> "QSeries":
        """Multiply by q**k."""
        return QSeries._canonical(self.ring, self.coeffs, self.val + k, self.trunc + k)
