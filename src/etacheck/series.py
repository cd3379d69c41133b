"""Exact truncated Laurent q-series arithmetic.

A :class:`QSeries` is a finite window of a Laurent series in ``q``: integer
exponents from ``val`` up to (but excluding) ``trunc``, coefficients in one of
two rings (exact integers, integers mod a prime power).  Every series lives on
integer exponents; the fractional eta prefactor q**(sum(d*r_d)/24) is folded
in by ``eta.eta_expand``, which rejects a quotient whose prefactor is not an
integer power of q instead of rounding it.

Truncation bookkeeping is pessimistic: every operation reports only the
coefficients its inputs actually determine (``min`` of the operand windows,
shifted by valuations for products and inverses).  Values are immutable and
all operations are pure.

Multiplication packs each operand's coefficients, whatever their signs, into
one signed big integer (Kronecker substitution) and makes one product, so that
CPython's subquadratic integer multiplication does the convolution; this is
the single hot spot of the whole package.  ``convolve_ints`` can also return
only the coefficients at o + ell*n of a product, the part U_ell keeps: it
packs the ell residue classes of each operand, multiplies just the ell class
pairs that reach those exponents, and adds the products, so it makes ell
products of 1/ell the length and reads back 1/ell of the limbs.  The plain
product is its ell = 1 case.  ``QSeries.mul(other, ell)`` is the one owner of
the window of either: ell = 1 is the product, and ell > 1 is U_ell of the
product, which is never formed.

Outside this module nothing reduces coefficients into a ring by hand: sums
are formed over Z and handed to the ``QSeries`` constructor (or to
``basis.ModuleElement``'s), which reduces them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

from .errors import SpecError


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _whole(x, what: str) -> int:
    """x through operator.index, the package's one integer check: a bool, a
    string or a float such as 2.5 or 4.0 raises SpecError."""
    try:
        if isinstance(x, bool):
            raise TypeError
        return operator.index(x)
    except TypeError:
        raise SpecError(f"{what} {x!r} is not an integer") from None


@dataclass(frozen=True)
class CoeffRing:
    """Coefficient ring tag: exact integers ('Z') or integers modulo
    ell**power ('Zmod') with canonical representatives in [0, ell**power)."""

    kind: str
    ell: int = 0
    power: int = 0

    def __post_init__(self):
        if self.kind not in ("Z", "Zmod"):
            raise SpecError(f"unknown coefficient ring kind {self.kind!r}")
        _whole(self.ell, "modulus base")
        _whole(self.power, "modulus exponent")
        if self.kind == "Zmod":
            if not _is_prime(self.ell):
                raise SpecError(f"modulus base {self.ell} is not prime")
            if self.power < 1:
                raise SpecError("modulus exponent must be >= 1")

    @cached_property
    def modulus(self) -> int:
        """ell**power, computed once per ring (the dataclass is frozen, but
        the cache lives in the instance dict and never enters eq or hash)."""
        if self.kind != "Zmod":
            raise SpecError("only Zmod rings have a modulus")
        return self.ell ** self.power

    def coerce(self, c):
        """Bring an integer into canonical form; a non-integer raises
        TypeError instead of being truncated."""
        c = operator.index(c)
        return c if self.kind == "Z" else c % self.modulus

    def is_unit(self, c) -> bool:
        if self.kind == "Z":
            return c in (1, -1)
        return c % self.ell != 0

    def invert_unit(self, c):
        if not self.is_unit(c):
            raise SpecError(f"{c} is not a unit in {self}")
        if self.kind == "Z":
            return c
        return pow(c, -1, self.modulus)

    def __str__(self):
        if self.kind == "Z":
            return "Z"
        return f"Z/{self.ell}^{self.power}"


ZZ = CoeffRing("Z")


def zmod(ell: int, power: int) -> CoeffRing:
    return CoeffRing("Zmod", ell, power)


# ---------------------------------------------------------------------------
# Kronecker-substitution convolution.

def _bias(limb_bytes, n):
    """sum of half * 2**(8*limb_bytes*i) for i < n, half = 2**(8*limb_bytes - 1)."""
    return int.from_bytes((bytes(limb_bytes - 1) + b"\x80") * n, "little")


def _pack(vals, limb_bytes):
    """The signed integer sum of vals[i] * 2**(8*limb_bytes*i), written as
    limbs v + half, half = 2**(8*limb_bytes - 1) > |v|, minus their bias."""
    half = 1 << (8 * limb_bytes - 1)
    packed = b"".join([(v + half).to_bytes(limb_bytes, "little") for v in vals])
    return int.from_bytes(packed, "little") - _bias(limb_bytes, len(vals))


def convolve_ints(a, b, n_out, ell=1, o=0):
    """Coefficients o, o + ell, ..., o + ell*(n_out - 1) of the product of
    integer coefficient lists, for 0 <= o < ell; ell = 1 gives the first
    n_out coefficients.

    Each operand is split into its ell residue classes of index, and each
    class is packed once, at one common limb width k.  Class r of a meets
    only class s = (o - r) mod ell of b: since r + s is o or o + ell, the
    product of the two packed classes holds the wanted coefficients from
    limb 0 or limb 1 on, so it is shifted up by that many limbs and added.
    Every operand coefficient, and every wanted coefficient d of the sum, has
    absolute value below bound < half = 2**(k-1).  So ``_pack`` can bias each
    operand limb by half, and adding half to each of the low n_out limbs of
    the sum turns them into digits in [0, 2**k) with no borrow across limbs;
    the mask drops the limbs past n_out.
    """
    if n_out <= 0 or not a or not b:
        return []
    n_in = o + ell * (n_out - 1) + 1  # the last wanted index, plus one
    a = a[:n_in]
    b = b[:n_in]
    max_a = max(max(a), -min(a))
    max_b = max(max(b), -min(b))
    if max_a == 0 or max_b == 0:
        return [0] * n_out
    bound = max_a * max_b * min(len(a), len(b)) + 1
    limb_bytes = (bound.bit_length() + 8) // 8  # bit_length + 1 bits, whole bytes
    need = limb_bytes * n_out
    total = _bias(limb_bytes, n_out)
    packed_b = [_pack(b[s::ell], limb_bytes) for s in range(min(ell, len(b)))]
    for r in range(min(ell, len(a))):
        s = (o - r) % ell
        if s < len(packed_b):
            prod = _pack(a[r::ell], limb_bytes) * packed_b[s]
            total += prod << 8 * limb_bytes if r + s > o else prod
    raw = (total & ((1 << 8 * need) - 1)).to_bytes(need, "little")
    half = 1 << (8 * limb_bytes - 1)
    return [int.from_bytes(raw[i:i + limb_bytes], "little") - half
            for i in range(0, need, limb_bytes)]


# ---------------------------------------------------------------------------


class QSeries:
    """Truncated Laurent series: sum of coeffs[i]*q**(val+i) for
    val <= val+i < trunc.

    The stored leading coefficient is nonzero; the zero series is canonically
    val == trunc with an empty coefficient tuple.
    """

    __slots__ = ("ring", "val", "coeffs", "trunc")

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
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, *a):
        raise AttributeError("QSeries is immutable")

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
            return self.ring.coerce(0)
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

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.ring == other.ring and self.val == other.val
                and self.trunc == other.trunc and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ring, self.val, self.trunc, self.coeffs))

    def __repr__(self):
        parts = []
        shown = 0
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            parts.append(f"{c}*q^{self.val + i}")
            shown += 1
            if shown >= 6:
                parts.append("...")
                break
        body = " + ".join(parts) if parts else "0"
        return f"<{body} + O(q^{self.trunc}) over {self.ring}>"

    # -- ring changes -------------------------------------------------------

    def reduce_mod(self, ell: int, power: int) -> "QSeries":
        """Map an exact-integer series into Z/ell**power, least positive residues."""
        if self.ring.kind != "Z":
            raise SpecError("reduce_mod expects an exact-integer series")
        ring = zmod(ell, power)
        return QSeries(ring, self.coeffs, self.val, self.trunc)

    # -- arithmetic ---------------------------------------------------------

    def _check_ring(self, other: "QSeries"):
        if self.ring != other.ring:
            raise SpecError(f"ring mismatch: {self.ring} vs {other.ring}")

    def add(self, other: "QSeries") -> "QSeries":
        self._check_ring(other)
        trunc = min(self.trunc, other.trunc)
        if self.is_zero():
            return other.truncate(trunc)
        if other.is_zero():
            return self.truncate(trunc)
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
        if c == 0:
            return QSeries.zero(self.ring, self.trunc)
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
        n_out = trunc - start  # <= 0 when self or other is zero
        if n_out <= 0:
            return QSeries.zero(self.ring, trunc)
        out = self._conv(self.coeffs, other.coeffs, n_out, ell, ell * start - val)
        return QSeries._canonical(self.ring, out, start, trunc)

    def inv(self) -> "QSeries":
        """Multiplicative inverse, by Newton iteration on the unit part.

        The leading coefficient must be a unit of the ring.
        """
        if self.is_zero():
            raise SpecError("zero series has no inverse")
        lead = self.coeffs[0]
        if not self.ring.is_unit(lead):
            raise SpecError(f"leading coefficient {lead} is not a unit in {self.ring}")
        n = self.trunc - self.val
        a = list(self.coeffs)
        inv0 = self.ring.invert_unit(lead)
        g = [inv0]
        while len(g) < n:
            m = min(2 * len(g), n)
            # g <- g*(2 - a*g) to m terms; 2 - a*g goes in unreduced, since
            # the product reduces its output
            ag = [-c for c in self._conv(a[:m], g, m)]
            ag[0] += 2
            g = self._conv(g, ag, m)
        return QSeries._canonical(self.ring, g, -self.val, self.trunc - 2 * self.val)

    def _conv(self, a, b, n_out, ell=1, o=0):
        out = convolve_ints(a, b, n_out, ell, o)
        if self.ring.kind == "Zmod":
            m = self.ring.modulus
            out = [c % m for c in out]
        return out

    def pow(self, n: int) -> "QSeries":
        """f**n by binary powering; negative n inverts first."""
        if n == 0:
            return QSeries.one(self.ring, self.trunc - self.val)
        base = self if n > 0 else self.inv()
        n = abs(n)
        result = None
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
        if self.is_zero():
            return QSeries.zero(self.ring, d * self.trunc)
        out = [0] * (d * (self.trunc - self.val))
        for i, c in enumerate(self.coeffs):
            out[d * i] = c
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
