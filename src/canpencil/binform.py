"""Binary forms: homogeneous polynomials in (t0, t1) over an exact field.

A form of degree d has the coefficients ``(c_0, ..., c_d)``, where ``c_i``
multiplies ``t0^(d-i) * t1^i``.  They are stored as integer numerators
``nums`` over one positive denominator ``den``.  Over F_p, ``den`` is 1 and
the numerators are residues in [0, p).  Over QQ the pair is canonical:
``gcd(den, *nums) == 1``, so equal forms have equal ``(nums, den)``.  The
``coeffs`` property gives the scalars themselves, ints over F_p and
Fractions over QQ.  The identically-zero form is a single shared shape with
no degree: any API slot that demands "a form of degree d" accepts it,
because the geometric degree formulas routinely prescribe negative degrees
and thereby force coefficients to vanish.

Arithmetic works in Python ints and looks at the field once per form
operation, not per scalar.  A sum brings the two forms to a common
denominator; a product is the dense convolution of the numerators over the
product of the denominators (von zur Gathen-Gerhard, *Modern Computer
Algebra*, ch. 2 and 8).  Each result is reduced once: mod p per
coefficient over F_p, by one gcd of its denominator and numerators over QQ.

Division, gcd, derivatives, root counting and root finding work through
the chart t1 = 1 with the t1-multiplicity tracked separately, so nothing is
lost at the point (1:0).  The chart kernel works on dense ascending lists of
ints.  Over F_p, `_monic`, `_divmod` (by a monic divisor), `_gcd` and
`_derivative` are Euclid over a field (von zur Gathen-Gerhard, ch. 3).  Over
QQ the kernel works over Z on the numerators, since a denominator is only
a scalar: `_zgcd` is a primitive (content-removing) pseudo-remainder
sequence, and `_zquotient` divides exactly by a primitive divisor (Knuth,
TAOCP vol. 2, 4.6.1; Brown, J. ACM 18, 1971).  Root finding over F_p solves
a chart polynomial of degree n <= 2 by the quadratic formula.  A larger one
is evaluated at every residue when p < max(100, floor(3n/2)), where that
is the cheaper exact method (`EVALUATION_PRIME_FLOOR` holds the measured
table).  Otherwise the field is never enumerated: the gcd with t^p - t is
split by deterministic equal-degree splitting, and a factor of degree <= 2
is solved by the quadratic formula.  Powers mod f use Kronecker-packed slots of
n(n + 1)/2 p^3, one big-int square and O(n) interpreted work per bit.
"""

from __future__ import annotations

import math
import re
import sys
from array import array
from fractions import Fraction
from typing import Iterable, Optional

from .fields import FieldSpec, Scalar

_BIG_ENDIAN = sys.byteorder == "big"  #: int.to_bytes puts the high 64-bit word first


class BinFormError(ValueError):
    pass


def _require_same_field(a: "BinForm", b: "BinForm") -> None:
    if a.field is not b.field and a.field != b.field:
        raise BinFormError(f"mixed coefficient fields: {a.field} vs {b.field}")


class BinForm:
    """Immutable homogeneous polynomial in (t0, t1).

    ``BinForm(field, coeffs)`` validates: every coefficient goes through
    ``field.normalize``, so it accepts ints and Fractions alike.  The ring
    operations build their results with :meth:`from_numerators` instead,
    from integer numerators and a denominator they computed themselves.
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: FieldSpec, coeffs: Iterable):
        scalars = [field.normalize(c) for c in coeffs]
        den = 1
        if field.p is None:
            # over the least common denominator the pair is already canonical
            den = math.lcm(*[c.denominator for c in scalars])
            scalars = [c.numerator * (den // c.denominator) for c in scalars]
        if not any(scalars):
            scalars, den = (), 1
        _set_field(self, field)
        _set_nums(self, tuple(scalars))
        _set_den(self, den)

    @staticmethod
    def from_numerators(field: FieldSpec, nums: Iterable[int], den: int = 1) -> "BinForm":
        """The form with coefficients ``nums[i] / den``, for ints and a ``den`` > 0.

        Over F_p the numerators are reduced mod p, times one inverse of
        ``den`` (a ValueError when p divides it); over QQ the pair is reduced
        by one gcd.  All-zero numerators give the zero form.
        """
        p = field.p
        if p is None:
            nums = tuple(nums)
        elif den == 1:
            nums = tuple([n % p for n in nums])
        else:
            inv = pow(den, -1, p)
            nums, den = tuple([n * inv % p for n in nums]), 1
        if not any(nums):
            return _new(field, (), 1)
        if den != 1:
            g = math.gcd(den, *nums)
            if g != 1:
                nums, den = tuple([n // g for n in nums]), den // g
        return _new(field, nums, den)

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("BinForm is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(field: FieldSpec) -> "BinForm":
        return _new(field, (), 1)

    @staticmethod
    def constant(field: FieldSpec, c) -> "BinForm":
        return BinForm(field, (c,))

    @staticmethod
    def one(field: FieldSpec) -> "BinForm":
        return _new(field, (1,), 1)

    @staticmethod
    def monomial(field: FieldSpec, degree: int, t1_exp: int, coeff=1) -> "BinForm":
        """coeff * t0^(degree - t1_exp) * t1^t1_exp."""
        if not 0 <= t1_exp <= degree:
            raise BinFormError(f"exponent {t1_exp} outside degree {degree}")
        c = field.normalize(coeff)
        if not c:
            return _new(field, (), 1)
        nums = [0] * (degree + 1)
        if field.p is None:
            nums[t1_exp] = c.numerator
            return _new(field, tuple(nums), c.denominator)
        nums[t1_exp] = c
        return _new(field, tuple(nums), 1)

    @staticmethod
    def t0(field: FieldSpec) -> "BinForm":
        return BinForm.monomial(field, 1, 0)

    @staticmethod
    def t1(field: FieldSpec) -> "BinForm":
        return BinForm.monomial(field, 1, 1)

    # -- structure ------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as scalars: residues over F_p, Fractions over QQ."""
        if self.field.p is not None:
            return self.nums
        den = self.den
        return tuple([Fraction(n, den) for n in self.nums])

    def _scalar(self, n: int) -> Scalar:
        return n if self.field.p is not None else Fraction(n, self.den)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def degree(self) -> Optional[int]:
        """Homogeneity degree, or None for the zero form."""
        return None if self.is_zero else len(self.nums) - 1

    def coefficient(self, t1_exp: int) -> Scalar:
        if not 0 <= t1_exp < len(self.nums):
            return self.field.zero
        return self._scalar(self.nums[t1_exp])

    @property
    def lead_coeff(self) -> Scalar:
        """Coefficient of the highest t0-power present; 0 for the zero form."""
        for n in self.nums:
            if n:
                return self._scalar(n)
        return self.field.zero

    def t1_multiplicity(self) -> int:
        """Largest e with t1^e dividing the form (0 for the zero form)."""
        for i, n in enumerate(self.nums):
            if n:
                return i
        return 0

    # -- ring operations -------------------------------------------------
    #
    # Each operation looks at field.p once and works on the numerators in
    # Python ints; from_numerators reduces the result once, mod p over F_p
    # or by one gcd over QQ.

    def __add__(self, other: "BinForm") -> "BinForm":
        _require_same_field(self, other)
        a, b = self.nums, other.nums
        if not a:
            return other
        if not b:
            return self
        if len(a) != len(b):
            raise BinFormError(f"degree mismatch in sum: {self.degree} vs {other.degree}")
        da, db = self.den, other.den
        if da == db:
            return BinForm.from_numerators(self.field, [x + y for x, y in zip(a, b)], da)
        g = math.gcd(da, db)
        ma, mb = db // g, da // g
        return BinForm.from_numerators(self.field, [x * ma + y * mb for x, y in zip(a, b)], da * ma)

    def __neg__(self) -> "BinForm":
        p = self.field.p
        if p is None:
            return _new(self.field, tuple([-n for n in self.nums]), self.den)
        return _new(self.field, tuple([-n % p for n in self.nums]), 1)

    def __sub__(self, other: "BinForm") -> "BinForm":
        return self + (-other)

    def __mul__(self, other: "BinForm") -> "BinForm":
        _require_same_field(self, other)
        a, b = self.nums, other.nums
        if not a or not b:
            return _new(self.field, (), 1)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    out[k] += x * y
        return BinForm.from_numerators(self.field, out, self.den * other.den)

    def scale(self, c) -> "BinForm":
        f = self.field
        c = f.normalize(c)
        if f.p is None:
            n = c.numerator
            return BinForm.from_numerators(f, [n * x for x in self.nums], self.den * c.denominator)
        return BinForm.from_numerators(f, [c * x for x in self.nums])

    def __pow__(self, n: int) -> "BinForm":
        if n < 0:
            raise BinFormError("negative power")
        result, base = _new(self.field, (1,), 1), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def monic(self) -> "BinForm":
        if self.is_zero:
            raise BinFormError("zero form has no monic normalization")
        lead = next(n for n in self.nums if n)
        p = self.field.p
        if p is None:
            # c_i / c_lead = n_i / lead
            if lead < 0:
                return BinForm.from_numerators(self.field, [-n for n in self.nums], -lead)
            return BinForm.from_numerators(self.field, self.nums, lead)
        inv = pow(lead, -1, p)
        return BinForm.from_numerators(self.field, [n * inv for n in self.nums])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinForm)
            and (self.field is other.field or self.field == other.field)
            and self.nums == other.nums
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.field, self.nums, self.den))

    def proportional_to(self, other: "BinForm") -> bool:
        """True when the forms differ by a nonzero scalar."""
        _require_same_field(self, other)
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        if self.degree != other.degree:
            return False
        return self.monic() == other.monic()

    # -- evaluation -------------------------------------------------------

    def evaluate(self, a, b) -> Scalar:
        """Value at (t0, t1) = (a, b): Horner in t0, the powers of t1 folded in.

        Over QQ the numerators are evaluated at an integer point and one
        Fraction is built at the end: with a = an/ad and b = bn/bd,
        homogeneity gives F(a, b) = F(an*bd, bn*ad) / (ad*bd)^d.
        """
        f = self.field
        a, b, p = f.normalize(a), f.normalize(b), f.p
        val, b_pow = 0, 1
        if p is not None:
            for n in self.nums:
                val, b_pow = (val * a + n * b_pow) % p, b_pow * b % p
            return val
        if not self.nums:
            return f.zero
        ad, bd = a.denominator, b.denominator
        a, b = a.numerator * bd, b.numerator * ad
        for n in self.nums:
            val, b_pow = val * a + n * b_pow, b_pow * b
        return Fraction(val, self.den * (ad * bd) ** (len(self.nums) - 1))

    # -- chart t1 = 1 ------------------------------------------------------

    def _chart(self) -> list:
        """Numerators of f(x, 1) ascending in x, trimmed: the factor t1^e is dropped."""
        return _trim(list(self.nums[::-1]))

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return format_binform(self)

    def __repr__(self) -> str:
        return f"BinForm({self.field}, {format_binform(self)!r})"


# the slots' own setters, which bypass the immutability guard
_set_field, _set_nums, _set_den = BinForm.field.__set__, BinForm.nums.__set__, BinForm.den.__set__


def _new(field: FieldSpec, nums: tuple, den: int) -> BinForm:
    """Form from numerators and a denominator that are already canonical."""
    form = object.__new__(BinForm)
    _set_field(form, field)
    _set_nums(form, nums)
    _set_den(form, den)
    return form


def _from_chart(field: FieldSpec, u: list, t1_shift: int, den: int = 1) -> BinForm:
    """Inverse of `BinForm._chart`: numerators `u` over `den`, times t1^t1_shift."""
    return BinForm.from_numerators(field, [0] * t1_shift + u[::-1], den)


# ---------------------------------------------------------------------------
# the chart kernel: dense ascending lists of ints.  Over F_p they hold
# residues in [0, p); over QQ they hold integer numerators, and the kernel
# works over Z.
# ---------------------------------------------------------------------------


def _trim(u: list) -> list:
    while u and u[-1] == 0:
        u.pop()
    return u


def _scale(u: list, c: int, p: int) -> list:
    return [x * c % p for x in u]


def _monic(u: list, p: int) -> list:
    """The nonzero trimmed u divided by its leading coefficient."""
    return _scale(u, pow(u[-1], -1, p), p)


def _divmod(u: list, f: list, p: int):
    """Quotient and remainder of u by a monic f; the quotient is trimmed when u is."""
    n = len(f) - 1
    u = list(u)
    q = [0] * max(0, len(u) - n)
    for k in range(len(u) - 1, n - 1, -1):
        c = q[k - n] = u[k] % p
        if c:
            for j in range(n):
                u[k - n + j] -= c * f[j]
    return q, _trim([c % p for c in u[:n]])


def _gcd(u: list, v: list, p: int) -> list:
    """Monic gcd of trimmed u and v, not both zero."""
    while v:
        v = _monic(v, p)
        u, v = v, _divmod(u, v, p)[1]
    return _monic(u, p)


def _derivative(u: list, p: int) -> list:
    """Trimmed formal derivative of u."""
    return _trim([i * u[i] % p for i in range(1, len(u))])


def _primitive(u: list) -> list:
    """The nonzero trimmed u over its content: coprime entries, leading one > 0."""
    c = math.gcd(*u)
    if u[-1] < 0:
        c = -c
    return u if c == 1 else [x // c for x in u]


def _prem(u: list, v: list) -> list:
    """Trimmed remainder of m*u by a nonzero trimmed v, for some integer m != 0.

    A pseudo-remainder over Z: each step cancels the top coefficient c of u
    against the leading coefficient l of v with the smallest multipliers,
    l/gcd(c, l) on u and c/gcd(c, l) on v, so no fraction appears.
    """
    n, lead = len(v) - 1, v[-1]
    u = list(u)
    while len(u) > n:
        c = u.pop()
        if c:
            g = math.gcd(c, lead)
            m, c = lead // g, c // g
            if m != 1:
                u = [x * m for x in u]
            k = len(u) - n
            for j in range(n):
                u[k + j] -= c * v[j]
    return _trim(u)


def _zgcd(u: list, v: list) -> list:
    """Primitive gcd over Z of trimmed u and v, not both zero; leading coefficient > 0.

    The primitive remainder sequence: each pseudo-remainder is divided by
    its content before it divides the next, which keeps the coefficients
    near the size of the inputs.
    """
    while v:
        v = _primitive(v)
        u, v = v, _prem(u, v)
    return _primitive(u)


def _zquotient(u: list, v: list) -> Optional[list]:
    """u / v for a primitive v (coprime entries), or None when v does not divide u over QQ.

    By Gauss's lemma a primitive v that divides u over QQ divides it over Z,
    so every quotient coefficient is an exact integer division: the first
    inexact one, or a nonzero remainder, shows that v does not divide u.
    """
    n, lead = len(v) - 1, v[-1]
    u = list(u)
    q = [0] * max(0, len(u) - n)
    while len(u) > n:
        c, r = divmod(u.pop(), lead)
        if r:
            return None
        k = len(u) - n
        q[k] = c
        if c:
            for j in range(n):
                u[k + j] -= c * v[j]
    return None if any(u) else q


# ---------------------------------------------------------------------------
# gcd / exact division / roots
# ---------------------------------------------------------------------------


def gcd(a: BinForm, b: BinForm) -> BinForm:
    """Monic greatest common divisor; leading coefficient normalized to 1.

    Raises when both inputs are zero.
    """
    _require_same_field(a, b)
    if a.is_zero and b.is_zero:
        raise BinFormError("gcd(0, 0) is undefined")
    e = min(g.t1_multiplicity() for g in (a, b) if not g.is_zero)
    p = a.field.p
    if p is None:
        g = _zgcd(a._chart(), b._chart())
        return _from_chart(a.field, g, e, g[-1])
    return _from_chart(a.field, _gcd(a._chart(), b._chart(), p), e)


def _quotient(a: BinForm, b: BinForm) -> Optional[BinForm]:
    """a / b for a nonzero b, or None when b does not divide a."""
    if a.is_zero:
        return a
    shift = a.t1_multiplicity() - b.t1_multiplicity()
    if shift < 0:
        return None
    p = a.field.p
    v = b._chart()
    if p is None:
        # a / b = (u / a.den) / (c * w / b.den) = (u / w) * b.den / (a.den * c)
        c = math.gcd(*v)
        q = _zquotient(a._chart(), [x // c for x in v])
        if q is None:
            return None
        return _from_chart(a.field, [x * b.den for x in q], shift, a.den * c)
    inv = pow(v[-1], -1, p)
    q, r = _divmod(a._chart(), _scale(v, inv, p), p)
    return None if r else _from_chart(a.field, _scale(q, inv, p), shift)


def divides(divisor: BinForm, dividend: BinForm) -> bool:
    """True when `divisor` divides `dividend` exactly."""
    _require_same_field(divisor, dividend)
    if divisor.is_zero:
        return dividend.is_zero
    return _quotient(dividend, divisor) is not None


def divexact(a: BinForm, b: BinForm) -> BinForm:
    """Exact quotient a / b; raises when the division leaves a remainder."""
    _require_same_field(a, b)
    if b.is_zero:
        raise ZeroDivisionError("division by the zero form")
    q = _quotient(a, b)
    if q is None:
        raise BinFormError("inexact division")
    return q


def _pack(r, k: int = 1) -> int:
    """The int whose slots of k 64-bit words hold 0 <= r[i] < 2^64 in their low words, low slot first.

    `_unpack` reads it back; on a big-endian host both reverse the word order.
    """
    words = array("Q", r)
    if k > 1:
        slots = array("Q", bytes(8 * k * len(words)))
        slots[::k] = words
        words = slots
    if _BIG_ENDIAN:
        words.reverse()
    return int.from_bytes(words, sys.byteorder)


def _unpack(x: int, n: int, k: int = 1):
    """The n slots of k 64-bit words each of 0 <= x < 2^(64 k n), low slot first."""
    w = memoryview(x.to_bytes(8 * k * n, sys.byteorder)).cast("Q")
    if _BIG_ENDIAN:
        w = w[::-1]
    if k == 1:
        return w
    v = w[k - 1 :: k].tolist()
    for j in range(k - 2, -1, -1):
        v = [hi << 64 | lo for hi, lo in zip(v, w[j::k])]
    return v


def _fp_shift_power(a: int, e: int, f: list, p: int) -> list:
    """(t + a)^e mod a monic f of degree n >= 1, for 0 <= a < p, on packed slots."""
    n = len(f) - 1
    k = -(-(n * (n + 1) // 2 * p**3).bit_length() // 64)  # 64-bit words per slot
    w = 64 * k
    shift, mask = w * n, (1 << w * n) - 1
    rows = [_pack([-c % p for c in f[:n]], k)]  # rows[j] = t^(n+j) mod f, slots below p + j p^2
    while len(rows) < n:  # t * rows[-1], its top slot folded back through rows[0]
        rows.append(((rows[-1] << w) & mask) + (rows[-1] >> (shift - w)) % p * rows[0])
    x, t_plus_a = 1, (1 << w) + a
    for bit in bin(e)[2:]:
        x *= x
        if bit == "1":
            x *= t_plus_a
        if hi := x >> shift:
            x &= mask
            for c, r in zip(_unpack(hi, n, k), rows):
                x += c % p * r
        x = _pack([c % p for c in _unpack(x, n, k)], k)
    return _trim(list(_unpack(x, n, k)))


def _fp_small_roots(g: list, p: int) -> list:
    """The distinct roots of a monic g of degree <= 2 over F_p, p >= 5, by the quadratic formula.

    For t^2 + b t + c they are (-b +- r)/2 with r^2 = b^2 - 4c (`sqrt_mod`):
    one root when the discriminant is zero, none when it is not a square.
    """
    if len(g) < 3:
        return [-g[0] % p] if len(g) == 2 else []
    b, r = g[1], sqrt_mod(g[1] * g[1] - 4 * g[0], p)
    if r is None:
        return []
    half = (p + 1) // 2  # 1/2 mod p
    return [(r - b) * half % p, (-r - b) * half % p] if r else [-b * half % p]


def _fp_split(g: list, a: int, p: int, found: list) -> None:
    """Append the roots of g, a monic product of distinct linear factors.

    A g of degree <= 2 is solved by `_fp_small_roots`.  A larger one is
    split by equal-degree splitting with shifts a, a+1, ...: gcd(g,
    (t+a)^((p-1)/2) - 1) collects the roots r with r + a a nonzero square.
    For p >= 5 any two distinct roots are separated by some shift in
    1..p-1, so this ends.
    """
    if len(g) <= 3:
        found += _fp_small_roots(g, p)
        return
    while True:
        h = _fp_shift_power(a % p, (p - 1) // 2, g, p) or [0]
        h[0] = (h[0] - 1) % p
        d = _gcd(g, _trim(h), p)
        a += 1
        if 1 < len(d) < len(g):
            _fp_split(d, a, p, found)
            _fp_split(_divmod(g, d, p)[0], a, p, found)
            return


def _fp_root_multiplicity(u: list, a: int, p: int) -> int:
    """Largest m with (t - a)^m dividing the nonzero trimmed u."""
    m = 0
    while True:
        u, r = _divmod(u, [-a % p, 1], p)
        if r:
            return m
        m += 1


def least_nonresidue(p: int) -> int:
    """The least n > 0 that is not a square mod an odd prime p (Euler's criterion)."""
    n = 2
    while pow(n, (p - 1) // 2, p) == 1:
        n += 1
    return n


def sqrt_mod(a: int, p: int) -> Optional[int]:
    """The least r in 0..p-1 with r^2 = a mod an odd prime p, or None if a is not a square.

    Tonelli-Shanks (Cohen, Alg. 1.5.1): with p - 1 = 2^s q, q odd, x = a^((q+1)/2)
    has x^2 = a b, b = a^q; each step multiplies x by a power of z = n^q, n a
    non-square, that lowers the order 2^m of b, until b = 1.  m = s shows a non-square.
    z is computed at the first such step, so p = 3 mod 4 (s = 1) never needs it.
    """
    a %= p
    if a == 0:
        return 0
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z, x, b = None, pow(a, (q + 1) // 2, p), pow(a, q, p)
    while b != 1:
        m, b2 = 1, b * b % p
        while b2 != 1:
            m, b2 = m + 1, b2 * b2 % p
        if m == s:
            return None
        if z is None:
            z = pow(least_nonresidue(p), q, p)
        t = pow(z, 1 << (s - m - 1), p)
        z, s = t * t % p, m
        x, b = x * t % p, b * z % p
    return min(x, p - x)


#: `roots` evaluates a monic chart polynomial of degree n >= 3 at every
#: residue when p < max(EVALUATION_PRIME_FLOOR, floor(3n/2)), and takes the
#: gcd with t^p - t and splits it otherwise.  Evaluation costs about n p list steps,
#: splitting about n^2 log p word operations plus a fixed cost per call.
#: Per call, evaluation / splitting, on random monic forms (120 forms per
#: cell, best of 5, for n <= 40; 40 forms, best of 3, at n = 100; 10, best
#: of 3, at n = 400; 3, best of 2, at n = 1998; CPython 3.11.7 on a shared
#: 2-core host):
#:
#:     n     below the crossover          above it                    crossover
#:     3     p = 97:   15 / 22 us         p = 151:  22 / 24 us        > 151
#:     4     p = 101:  21 / 23 us         p = 127:  25 / 24 us        ~ 120
#:     6     p = 89:   27 / 29 us         p = 113:  34 / 31 us        ~ 100
#:     10    p = 79:   41 / 45 us         p = 97:   48 / 45 us        ~ 85
#:     20    p = 89:   89 / 94 us         p = 101:  100 / 94 us       ~ 95
#:     40    p = 101:  197 / 235 us       p = 127:  246 / 235 us      ~ 120
#:     100   p = 199:  0.93 / 1.01 ms     p = 251:  1.17 / 1.07 ms    ~ 220
#:     400   p = 601:  15.0 / 16.3 ms     p = 701:  17.4 / 16.0 ms    ~ 650
#:     1998  p = 3001: 363 / 388 ms       p = 4001: 477 / 395 ms      ~ 3300
#:
#: Both methods are exact and give the same roots, so the rule moves only
#: cost: the node census of a member over F_p, p < 100, evaluates; one at
#: p >= 101 splits unless q_y has degree 68 or more.
EVALUATION_PRIME_FLOOR = 100


def _fp_roots_by_evaluation(f: list, p: int) -> list:
    """The distinct roots of a monic f over F_p, ascending, by evaluating f at every residue.

    Horner's rule on all p residues at once: one list pass per coefficient.
    """
    values = [1] * p
    for c in reversed(f[:-1]):
        values = [(v * a + c) % p for a, v in enumerate(values)]
    return [a for a, v in enumerate(values) if not v]


def _fp_roots_by_splitting(f: list, p: int) -> list:
    """The distinct roots of a monic f of degree >= 1 over F_p, p >= 5, in no set order.

    g = gcd(f, t^p - t) is the product of the distinct roots; `_fp_split`
    splits it down to factors of degree <= 2.
    """
    h = _fp_shift_power(0, p, f, p) + [0, 0]
    h[1] = (h[1] - 1) % p
    found = []
    _fp_split(_gcd(f, _trim(h), p), 1, p, found)
    return found


def roots(form: BinForm) -> dict:
    """All roots of a nonzero form in P^1(F_p), with multiplicities.

    Points are canonical pairs ``(a, 1)`` or ``(1, 0)``; (1:0) comes first
    with the t1-multiplicity, then the finite roots by ascending a.
    Rational-root finding over QQ is out of scope and rejected.

    Method: a monic chart polynomial f of degree n <= 2 is solved by the
    quadratic formula (`_fp_small_roots`).  A larger one is solved by one of
    two exact methods, chosen by cost (`EVALUATION_PRIME_FLOOR` holds the
    rule and its measured table).  Below p = max(100, floor(3n/2)),
    `_fp_roots_by_evaluation` evaluates f at every residue, n list passes of
    length p.  At or above it, `_fp_roots_by_splitting` never enumerates the
    field: g = gcd(f, t^p - t) is the product of the distinct roots, split by
    its gcds with the (t + a)^((p-1)/2) - 1 for a = 1, 2, ...
    (Cantor-Zassenhaus without randomness, so results reproduce) down to
    factors of degree <= 2, which the formula finishes.  A power mod f is one
    int, k 64-bit words per coefficient slot.  A step is one big-int square,
    a shift-add for t + a, n products of a top slot mod p by a row t^j mod f
    (j = n..2n-1, kept unreduced) and one O(n) pass that packs the low slots
    again mod p; a slot must hold n(n + 1)/2 p^3.  Multiplicities come from
    division by t - a.
    """
    if not form.field.is_prime_field:
        raise BinFormError("root finding requires a prime field")
    if form.is_zero:
        raise BinFormError("zero form has every point as a root")
    p = form.field.p
    out = {}
    inf_mult = form.t1_multiplicity()
    if inf_mult:
        out[(1, 0)] = inf_mult
    u = form._chart()
    if len(u) < 2:
        return out
    f = _monic(u, p)
    if len(f) <= 3:
        found = _fp_small_roots(f, p)
    elif p < max(EVALUATION_PRIME_FLOOR, 3 * (len(f) - 1) // 2):
        found = _fp_roots_by_evaluation(f, p)
    else:
        found = _fp_roots_by_splitting(f, p)
    for a in sorted(found):
        out[(a, 1)] = _fp_root_multiplicity(f, a, p)
    return out


def count_distinct_roots(form: BinForm) -> int:
    """Number of distinct roots in P^1 over the algebraic closure.

    Computed as the degree of the squarefree part, so it is available over
    the rationals as well; no factorization is performed.  With g =
    gcd(u, u') on the chart polynomial u, deg u - deg g counts the roots
    whose multiplicity p does not divide (all of them over QQ).  Dividing
    those roots out of g leaves a p-th power v(t^p), whose roots are those
    of v, because Frobenius fixes the prime field.
    """
    if form.is_zero:
        raise BinFormError("zero form")
    p = form.field.p
    count = 1 if form.t1_multiplicity() else 0
    u = form._chart()
    if p is None:
        # in characteristic 0 every repeated root of u is a root of u'
        return count + len(u) - len(_zgcd(u, [i * u[i] for i in range(1, len(u))]))
    while len(u) > 1:
        du = _derivative(u, p)
        if not du:
            u = u[::p]
            continue
        g = _gcd(u, du, p)
        count += len(u) - len(g)
        y = _gcd(g, _divmod(u, g, p)[0], p)
        while len(y) > 1:
            g = _divmod(g, y, p)[0]
            y = _gcd(g, y, p)
        u = g
    return count


def random_binform(field: FieldSpec, degree: int, rng) -> BinForm:
    """Uniform coefficients over F_p; bounded integers in [-9, 9] over QQ.

    A negative requested degree yields the zero form, matching the
    forced-zero convention of the degree tables.

    Each coefficient is drawn the way CPython's `random.Random` draws
    `randrange(p)` and `randint(-9, 9)` (3.10 to 3.13): `getrandbits(k)`,
    k = n.bit_length(), until the value is below n, with n = p, or n = 19
    and the value shifted by -9.  So the form and the generator's state
    afterwards are those of one `randrange` or `randint` call per
    coefficient, without their argument handling.
    """
    if degree < 0:
        return BinForm.zero(field)
    p = field.p
    low, n = (0, p) if p else (-9, 19)
    k, getrandbits, nums = n.bit_length(), rng.getrandbits, []
    for _ in range(degree + 1):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        nums.append(r + low)
    # residues over F_p, integers over the denominator 1 over QQ: canonical as drawn
    return _new(field, tuple(nums), 1) if any(nums) else _new(field, (), 1)


def random_split_squarefree(field: FieldSpec, degree: int, rng) -> BinForm:
    """Product of `degree` distinct monic linear forms t0 - c*t1 (prime field)."""
    if not field.is_prime_field:
        raise BinFormError("split-squarefree construction needs a prime field")
    if degree > field.p:
        raise BinFormError("not enough distinct roots available")
    cs = rng.sample(range(field.p), degree)
    out = BinForm.one(field)
    for c in cs:
        out = out * BinForm(field, (1, -c))
    return out


# ---------------------------------------------------------------------------
# parsing / printing of the literal grammar
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    """Syntax or homogeneity error; `offset` counts characters, though the message says "byte"."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


# A factor, read from its first non-space character: the operator before it
# ("" on the first factor), then an integer with an optional "/den", or t0
# or t1 with an optional "^e".  Factors join by "*" into terms, and terms by
# "+" or "-".  Whitespace is read only by a `\s*` right after a piece that
# must be there, so no two quantifiers compete for one run of characters and
# a match that fails does so in linear time (3.10's re has no atomic groups).
_FACTOR = re.compile(r"([-+*]?)\s*(?:(\d+)\s*(?:/\s*(\d+)\s*)?|t([01])\s*(?:\^\s*(\d+)\s*)?)")
# A word other than t0 and t1 (an unknown variable if it starts with a
# letter), or a character that the grammar never uses.
_BAD = re.compile(r"(?!t[01])[^\W\d]\w*|[^\w\s*/^+-]")
_SPACE = re.compile(r"\s*")

# A term as `format_binform` prints it with an integral coefficient, after its
# opener: "" or "-" at the start, or " + " or " - ", each read as the factor
# reader reads it.  A term is N, N*M or M, where M is t0[^e][*t1[^e]] or t1[^e],
# and N and e have no leading zero.  From the first character that opens no such
# term, the rest of the text is one last match, set exactly when the text has
# another shape, so one `findall` reads the text once, in linear time.
_NUMBER = r"[1-9]\d*"
_PRINTED_TERM = re.compile(rf"(^-?| [-+] )(?:({_NUMBER})(?:\*(?=t)|(?![t*]))|(?=t))"
                           rf"(?:(t0)(?:\^({_NUMBER}))?(?:\*(?=t1)|(?!t1)))?"
                           rf"(?:(t1)(?:\^({_NUMBER}))?)?|(.+)", re.S)


def _read_terms(text: str) -> list:
    """``[numerator, denominator, e0, e1, offset]`` per term of a literal, one `_FACTOR` match per factor.

    Each match starts where the last one stopped, so no character goes
    unread; where no factor fits, `_syntax_error` words why.  An integer
    longer than `sys.get_int_max_str_digits()` is an error at its first
    digit, unless the text has a bad character anywhere.
    """
    terms, prev, pos = [], None, _SPACE.match(text).end()
    try:
        while pos < len(text) or prev is None:
            m = _FACTOR.match(text, pos)
            if m is None or m[1] == ("*" if prev is None else ""):
                raise _syntax_error(text, pos, prev)
            op, num, den, var, exp = m.groups()
            if op != "*":
                term = [-1 if op == "-" else 1, 1, 0, 0, m.start()]
                terms.append(term)
            if var:
                term[2 if var == "0" else 3] += int(exp) if exp else 1
            else:
                term[0] *= int(num)
                if den:
                    d = int(den)
                    if not d:
                        raise _syntax_error(text, m.end(), m)
                    term[1] *= d
            prev, pos = m, m.end()
    except ValueError as exc:  # a ParseError, or int() past sys.get_int_max_str_digits()
        if isinstance(exc, ParseError):
            raise
        if _BAD.search(text):
            raise _syntax_error(text, pos, prev) from None  # a bad character still comes first
        limit = sys.get_int_max_str_digits()
        g = next(g for g in (2, 3, 5) if m[g] and len(m[g]) > limit)
        raise ParseError(f"integer with {len(m[g])} digits exceeds the limit of {limit} digits",
                         m.start(g)) from None
    return terms


def _syntax_error(text: str, pos: int, prev) -> ParseError:
    """Why the literal stops at `pos`, where `prev` is the `_FACTOR` match before it (None if none).

    The first bad word or character anywhere in the text wins.  Then the
    literal is empty, `prev` has a zero denominator, or the character at
    `pos` lacks what must follow it: a factor after an operator, a
    denominator after '/', an exponent after '^', or else '+' or '-' before
    a new term.  A missing factor, denominator or exponent is reported
    where it is due, past the operator and its whitespace; a missing '+' or
    '-' at `pos`.
    """
    bad = _BAD.search(text)
    if bad:
        word = bad.group()
        return ParseError(f"unknown variable {word!r} (expected t0 or t1)" if word[0].isalpha()
                          else f"unexpected character {word[0]!r}", bad.start())
    if prev is None and pos == len(text):
        return ParseError("empty polynomial literal", 0)
    if prev and prev[3] and not int(prev[3]):
        return ParseError("zero denominator", prev.start(3))
    c, due = text[pos], _SPACE.match(text, pos + 1).end()
    if c in "+-" or (c == "*" and prev):
        return ParseError("expected coefficient or variable", due)
    if prev is None:  # "*", "/" or "^" opens the literal
        return ParseError("expected coefficient or variable", pos)
    if c == "/" and prev[2] and not prev[3]:
        return ParseError("expected denominator after '/'", due)
    if c == "^" and prev[4] and not prev[5]:
        return ParseError("expected integer exponent after '^'", due)
    return ParseError("expected '+' or '-' between terms", pos)


def _scan_printed(text: str, p: Optional[int]):
    """`scan_binform`'s value for a literal in the shape `format_binform` prints, or None.

    None also where the terms do not come in ascending t1-exponent order, as
    the printer writes them, or where the back half would drop a term or
    word an error: a coefficient that is 0 mod p, a term of another degree,
    or an integer past `sys.get_int_max_str_digits()`.
    """
    terms = _PRINTED_TERM.findall(text)
    if not terms or terms[-1][-1]:
        return None
    degree, last, coeffs = None, -1, {}
    try:
        for opener, num, t0, e0, t1, e1, _ in terms:
            c = -int(num or 1) if "-" in opener else int(num or 1)
            if p:
                c %= p
                if not c:
                    return None
            j = int(e1 or 1) if t1 else 0
            d = j + (int(e0 or 1) if t0 else 0)
            if j <= last or (coeffs and d != degree):
                return None
            degree, last, coeffs[j] = d, j, c
    except ValueError:  # int() past sys.get_int_max_str_digits()
        return None
    return degree, coeffs, 1


def scan_binform(text: str, field: FieldSpec):
    """Read a literal as ``(degree, {t1 exponent: numerator}, den)`` without building the form.

    The coefficient of t1^e is ``numerator / den``: nonzero residues and
    ``den`` = 1 over F_p, nonzero integers over one common denominator over
    QQ (not yet reduced), keyed in ascending order of e.  The zero form
    reads as ``(None, {}, 1)``.

    The front half, `_read_terms`, turns the text into one record
    ``[numerator, denominator, e0, e1, offset]`` per term.  It reads the
    literal with one anchored `_FACTOR` match per factor, each starting
    where the last one stopped.  Where no factor fits, or a denominator is
    zero, `_syntax_error` words the error from that point: a bad character
    anywhere in the text first, then what the character there lacks.
    The back half reduces each term, puts the terms over one denominator
    and words the other two errors, in this order: a denominator not
    invertible in `field` (at its own term), and a nonzero term whose
    degree differs from the first nonzero term's.  Both halves take time
    linear in the length of the text, also on a literal they refuse.

    A literal exactly as `format_binform` prints a form with integral
    coefficients, as every equation file that `generate` or
    `SurfaceEquations.save` writes holds, takes a shorter lane first:
    `_scan_printed` reads it once, with one `findall`, and returns the same
    value.  Any other text, and any printed literal whose terms the back
    half would drop, merge or refuse, goes both halves' way, so every error
    is worded there.
    """
    printed = _scan_printed(text, field.p)
    if printed is not None:
        return printed
    terms = _read_terms(text)
    p, live, coeffs = field.p, [], {}
    for num, den, e0, e1, off in terms:
        if den != 1:
            g = math.gcd(num, den)
            num, den = num // g, den // g
            if p:  # the term's residue
                if den % p == 0:
                    raise ParseError(f"denominator {den} not invertible mod {p}", off)
                num, den = num * pow(den, -1, p), 1
        if (num % p if p else num):
            live.append((num, den, e0 + e1, e1, off))
    den = 1 if p else math.lcm(*[t[1] for t in live])
    for num, d, degree, e1, off in live:
        if degree != live[0][2]:
            raise ParseError(f"inhomogeneous literal: term of degree {degree} "
                             f"in a degree-{live[0][2]} form", off)
        coeffs[e1] = coeffs.get(e1, 0) + (num if d == den else num * (den // d))
    coeffs = {e1: c % p if p else c for e1, c in sorted(coeffs.items())}
    coeffs = {e1: c for e1, c in coeffs.items() if c}
    return (live[0][2] if coeffs else None), coeffs, den


def build_binform(scanned, field: FieldSpec) -> BinForm:
    """The form `scan_binform` read, with dense numerators of t0^(d-i)*t1^i.

    Nonzero residues over F_p and integers over the denominator 1 over QQ
    are already canonical, so only a QQ literal with another denominator
    goes through `BinForm.from_numerators`, for its one gcd.
    """
    degree, nums, den = scanned
    if den == 1 and nums and len(nums) > degree:  # every coefficient, keyed in ascending order
        return _new(field, tuple(nums.values()), 1)
    dense = [0] * (degree + 1 if nums else 0)
    for e1, n in nums.items():
        dense[e1] = n
    if den != 1:
        return BinForm.from_numerators(field, dense, den)
    return _new(field, tuple(dense), 1)


def parse_binform(text: str, field: FieldSpec) -> BinForm:
    """Parse the literal grammar: signed ints or a/b rationals, t0, t1, + - * ^.

    Example: ``"3*t0^2*t1 - 1/2*t1^3"``.  All terms must share one total
    degree once zero-coefficient terms are dropped.
    """
    return build_binform(scan_binform(text, field), field)


def format_binform(form: BinForm) -> str:
    """Canonical printer; output re-parses to an equal form."""
    if form.is_zero:
        return "0"
    d, den = form.degree, form.den
    pieces = []
    for i, n in enumerate(form.nums):
        if n == 0:
            continue
        e0, e1 = d - i, i
        mono_parts = []
        if e0:
            mono_parts.append("t0" if e0 == 1 else f"t0^{e0}")
        if e1:
            mono_parts.append("t1" if e1 == 1 else f"t1^{e1}")
        mono = "*".join(mono_parts)
        negative = n < 0  # only over QQ: residues are >= 0
        mag, q = abs(n), 1
        if den != 1:
            g = math.gcd(mag, den)
            mag, q = mag // g, den // g
        if mono and mag == q == 1:
            body = mono
        else:
            body = str(mag) if q == 1 else f"{mag}/{q}"
            if mono:
                body = f"{body}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f" - {body}" if negative else f" + {body}")
    return "".join(pieces)
