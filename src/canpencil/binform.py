"""Binary forms: homogeneous polynomials in (t0, t1) over an exact field.

A form of degree d is stored as the coefficient tuple ``(c_0, ..., c_d)``
where ``c_i`` multiplies ``t0^(d-i) * t1^i``.  The identically-zero form is
a single shared shape with no degree: any API slot that demands "a form of
degree d" accepts it, because the geometric degree formulas routinely
prescribe negative degrees and thereby force coefficients to vanish.

Arithmetic looks at the field once per form operation, not per scalar.
A product is the dense convolution with one reduction per output
coefficient (von zur Gathen-Gerhard, *Modern Computer Algebra*, ch. 2
and 8): over F_p the sums accumulate in Python ints and are reduced mod p
once; over QQ the factors are written as integer numerators over a
common denominator, convolved the same way, and each output coefficient
becomes one Fraction.

Division, gcd and root finding work through the chart t1 = 1 with the
t1-multiplicity tracked separately, so nothing is lost at the point (1:0).
Root finding over F_p never enumerates the field: it takes the gcd with
t^p - t and splits it by deterministic equal-degree splitting, on plain
int lists mod p, in O(d^2 log p) for a form of degree d.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional

from .fields import FieldSpec, Scalar


class BinFormError(ValueError):
    pass


def _require_same_field(a: "BinForm", b: "BinForm") -> None:
    if a.field is not b.field and a.field != b.field:
        raise BinFormError(f"mixed coefficient fields: {a.field} vs {b.field}")


_setattr = object.__setattr__


def _qq_numerators(coeffs: tuple):
    """Integer numerators of Fraction coefficients over their least common denominator."""
    den = math.lcm(*(c.denominator for c in coeffs))
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _qq_fractions(nums: list, den: int) -> tuple:
    if den == 1:
        return tuple(map(Fraction, nums))
    return tuple(Fraction(n, den) for n in nums)


class BinForm:
    """Immutable homogeneous polynomial in (t0, t1).

    ``BinForm(field, coeffs)`` validates: every coefficient goes through
    ``field.normalize``, so it accepts ints and Fractions alike.  The ring
    operations build their results with :meth:`_trusted` instead, from
    coefficients they computed canonically themselves: ints in [0, p)
    over F_p, Fractions over QQ.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: Iterable):
        normalized = tuple(field.normalize(c) for c in coeffs)
        if not any(normalized):
            normalized = ()
        _setattr(self, "field", field)
        _setattr(self, "coeffs", normalized)

    @staticmethod
    def _trusted(field: FieldSpec, coeffs: tuple) -> "BinForm":
        """Form from a tuple already canonical in `field`; all zeros give the zero form."""
        form = object.__new__(BinForm)
        _setattr(form, "field", field)
        _setattr(form, "coeffs", coeffs if any(coeffs) else ())
        return form

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("BinForm is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(field: FieldSpec) -> "BinForm":
        return BinForm(field, ())

    @staticmethod
    def constant(field: FieldSpec, c) -> "BinForm":
        return BinForm(field, (c,))

    @staticmethod
    def one(field: FieldSpec) -> "BinForm":
        return BinForm(field, (1,))

    @staticmethod
    def monomial(field: FieldSpec, degree: int, t1_exp: int, coeff=1) -> "BinForm":
        """coeff * t0^(degree - t1_exp) * t1^t1_exp."""
        if not 0 <= t1_exp <= degree:
            raise BinFormError(f"exponent {t1_exp} outside degree {degree}")
        coeffs = [0] * (degree + 1)
        coeffs[t1_exp] = coeff
        return BinForm(field, coeffs)

    @staticmethod
    def t0(field: FieldSpec) -> "BinForm":
        return BinForm.monomial(field, 1, 0)

    @staticmethod
    def t1(field: FieldSpec) -> "BinForm":
        return BinForm.monomial(field, 1, 1)

    # -- structure ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> Optional[int]:
        """Homogeneity degree, or None for the zero form."""
        return None if self.is_zero else len(self.coeffs) - 1

    def coefficient(self, t1_exp: int) -> Scalar:
        if self.is_zero or not 0 <= t1_exp < len(self.coeffs):
            return self.field.zero
        return self.coeffs[t1_exp]

    @property
    def lead_coeff(self) -> Scalar:
        """Coefficient of the highest t0-power present; 0 for the zero form."""
        for c in self.coeffs:
            if c != 0:
                return c
        return self.field.zero

    def t1_multiplicity(self) -> int:
        """Largest e with t1^e dividing the form (0 for the zero form)."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return 0

    # -- ring operations -------------------------------------------------
    #
    # Each operation looks at field.p once: over F_p (p an int) it works on
    # plain ints and reduces once per output coefficient, over QQ (p None)
    # on Fractions, or for a product on integer numerators over a common
    # denominator.  Results go through _trusted, not the normalizing
    # constructor.

    def __add__(self, other: "BinForm") -> "BinForm":
        _require_same_field(self, other)
        a, b = self.coeffs, other.coeffs
        if not a:
            return other
        if not b:
            return self
        if len(a) != len(b):
            raise BinFormError(f"degree mismatch in sum: {self.degree} vs {other.degree}")
        p = self.field.p
        if p is None:
            return BinForm._trusted(self.field, tuple(x + y for x, y in zip(a, b)))
        return BinForm._trusted(self.field, tuple((x + y) % p for x, y in zip(a, b)))

    def __neg__(self) -> "BinForm":
        p = self.field.p
        if p is None:
            return BinForm._trusted(self.field, tuple(-c for c in self.coeffs))
        return BinForm._trusted(self.field, tuple(-c % p for c in self.coeffs))

    def __sub__(self, other: "BinForm") -> "BinForm":
        return self + (-other)

    def __mul__(self, other: "BinForm") -> "BinForm":
        _require_same_field(self, other)
        a, b = self.coeffs, other.coeffs
        f = self.field
        if not a or not b:
            return BinForm._trusted(f, ())
        p = f.p
        if p is None:
            a, da = _qq_numerators(a)
            b, db = _qq_numerators(b)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    out[k] += x * y
        if p is None:
            return BinForm._trusted(f, _qq_fractions(out, da * db))
        return BinForm._trusted(f, tuple(c % p for c in out))

    def scale(self, c) -> "BinForm":
        f = self.field
        c = f.normalize(c)
        p = f.p
        if p is None:
            return BinForm._trusted(f, tuple(c * x for x in self.coeffs))
        return BinForm._trusted(f, tuple(c * x % p for x in self.coeffs))

    def __pow__(self, n: int) -> "BinForm":
        if n < 0:
            raise BinFormError("negative power")
        f = self.field
        result, base = BinForm._trusted(f, (f.one,)), self
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
        return self.scale(self.field.inv(self.lead_coeff))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinForm)
            and (self.field is other.field or self.field == other.field)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def proportional_to(self, other: "BinForm") -> bool:
        """True when the forms differ by a nonzero scalar."""
        _require_same_field(self, other)
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        if self.degree != other.degree:
            return False
        return self.monic() == other.monic()

    # -- evaluation and calculus ------------------------------------------

    def evaluate(self, a, b) -> Scalar:
        """Value at (t0, t1) = (a, b)."""
        f = self.field
        a, b = f.normalize(a), f.normalize(b)
        if self.is_zero:
            return f.zero
        d = len(self.coeffs) - 1
        pa = [f.one]
        for _ in range(d):
            pa.append(f.mul(pa[-1], a))
        pb = [f.one]
        for _ in range(d):
            pb.append(f.mul(pb[-1], b))
        acc = f.zero
        for i, c in enumerate(self.coeffs):
            if c != 0:
                acc = f.add(acc, f.mul(c, f.mul(pa[d - i], pb[i])))
        return acc

    def deriv_t0(self) -> "BinForm":
        """Formal partial derivative with respect to t0."""
        if self.is_zero or self.degree == 0:
            return BinForm.zero(self.field)
        d = self.degree
        f = self.field
        return BinForm(f, tuple(f.mul(f.normalize(d - i), self.coeffs[i]) for i in range(d)))

    def deriv_t1(self) -> "BinForm":
        if self.is_zero or self.degree == 0:
            return BinForm.zero(self.field)
        f = self.field
        return BinForm(f, tuple(f.mul(f.normalize(i), self.coeffs[i]) for i in range(1, len(self.coeffs))))

    # -- chart t1 = 1 ------------------------------------------------------

    def dehomogenize(self) -> list:
        """Coefficients of f(x, 1) ascending in x; exact length deg+1."""
        return [self.coeffs[len(self.coeffs) - 1 - j] for j in range(len(self.coeffs))]

    @staticmethod
    def homogenize(field: FieldSpec, poly: list, t1_shift: int = 0) -> "BinForm":
        """Inverse of :meth:`dehomogenize`, times an extra t1^t1_shift."""
        while poly and poly[-1] == 0:
            poly = poly[:-1]
        if not poly:
            return BinForm.zero(field)
        d = len(poly) - 1
        coeffs = [poly[d - i] for i in range(d + 1)]
        return BinForm(field, [field.zero] * t1_shift + coeffs)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return format_binform(self)

    def __repr__(self) -> str:
        return f"BinForm({self.field}, {format_binform(self)!r})"


# ---------------------------------------------------------------------------
# univariate helpers on dense ascending coefficient lists
# ---------------------------------------------------------------------------


def _upoly_trim(u: list) -> list:
    while u and u[-1] == 0:
        u.pop()
    return u


def _upoly_divmod(u: list, v: list, p: Optional[int]):
    """Quotient and remainder over F_p, or over QQ when p is None."""
    v = _upoly_trim(list(v))
    if not v:
        raise ZeroDivisionError("division by zero polynomial")
    u = _upoly_trim(list(u))
    if p is not None:
        inv = pow(v[-1], -1, p)
        q, r = _fp_divmod(u, [c * inv % p for c in v], p)
        return [c * inv % p for c in q], r
    q = [Fraction(0)] * max(0, len(u) - len(v) + 1)
    lead = v[-1]
    for k in range(len(u) - len(v), -1, -1):
        c = u[k + len(v) - 1] / lead
        if c:
            q[k] = c
            for j, vj in enumerate(v, k):
                u[j] -= c * vj
    return q, _upoly_trim(u)


def _upoly_gcd(u: list, v: list, p: Optional[int]) -> list:
    """Monic gcd over F_p, or over QQ when p is None; [] when both are zero."""
    u, v = _upoly_trim(list(u)), _upoly_trim(list(v))
    if p is not None:
        return _fp_gcd(u, v, p) if u or v else []
    while v:
        u, v = v, _upoly_divmod(u, v, None)[1]
    return [c / u[-1] for c in u] if u else u


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
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    f = a.field
    e = min(a.t1_multiplicity(), b.t1_multiplicity())
    g = _upoly_gcd(a.dehomogenize(), b.dehomogenize(), f.p)
    return BinForm.homogenize(f, g, t1_shift=e)


def divides(divisor: BinForm, dividend: BinForm) -> bool:
    """True when `divisor` divides `dividend` exactly."""
    _require_same_field(divisor, dividend)
    if divisor.is_zero:
        return dividend.is_zero
    if dividend.is_zero:
        return True
    if divisor.t1_multiplicity() > dividend.t1_multiplicity():
        return False
    _, r = _upoly_divmod(dividend.dehomogenize(), divisor.dehomogenize(), dividend.field.p)
    return not r


def divexact(a: BinForm, b: BinForm) -> BinForm:
    """Exact quotient a / b; raises when the division leaves a remainder."""
    _require_same_field(a, b)
    if b.is_zero:
        raise ZeroDivisionError("division by the zero form")
    if a.is_zero:
        return a
    shift = a.t1_multiplicity() - b.t1_multiplicity()
    if shift < 0:
        raise BinFormError("inexact division (t1 multiplicity)")
    q, r = _upoly_divmod(a.dehomogenize(), b.dehomogenize(), a.field.p)
    if r:
        raise BinFormError("inexact division")
    return BinForm.homogenize(a.field, q, t1_shift=shift)


def lcm(a: BinForm, b: BinForm) -> BinForm:
    if a.is_zero or b.is_zero:
        return BinForm.zero(a.field)
    return divexact(a * b, gcd(a, b)).monic()


def _fp_monic(u: list, p: int) -> list:
    inv = pow(u[-1], -1, p)
    return [c * inv % p for c in u]


def _fp_divmod(u: list, f: list, p: int):
    """Quotient and remainder of u by a monic f, on int lists mod p."""
    n = len(f) - 1
    u = list(u)
    q = [0] * max(0, len(u) - n)
    for k in range(len(u) - 1, n - 1, -1):
        c = u[k] % p
        if c:
            q[k - n] = c
            for j in range(n):
                u[k - n + j] -= c * f[j]
    return q, _upoly_trim([c % p for c in u[:n]])


def _fp_gcd(u: list, v: list, p: int) -> list:
    """Monic gcd of a nonzero u and any v, on int lists mod p."""
    while v:
        v = _fp_monic(v, p)
        u, v = v, _fp_divmod(u, v, p)[1]
    return _fp_monic(u, p)


def _fp_shift_power(a: int, e: int, f: list, p: int) -> list:
    """(t + a)^e mod a monic f of degree >= 1, by left-to-right squaring."""
    r = [1]
    for bit in bin(e)[2:]:
        sq = [0] * (2 * len(r))
        for i, ri in enumerate(r):
            if ri:
                for j, rj in enumerate(r):
                    sq[i + j] += ri * rj
        if bit == "1" and r:  # times (t + a)
            for i in range(len(sq) - 1, 0, -1):
                sq[i] = sq[i - 1] + a * sq[i]
            sq[0] *= a
        r = _fp_divmod(sq, f, p)[1]
    return r


def _fp_split(g: list, a: int, p: int, found: list) -> None:
    """Append the roots of g, a monic product of distinct linear factors.

    Equal-degree splitting with shifts a, a+1, ...: gcd(g, (t+a)^((p-1)/2) - 1)
    collects the roots r with r + a a nonzero square.  For p >= 5 any two
    distinct roots are separated by some shift in 1..p-1, so this ends.
    """
    if len(g) <= 2:
        if len(g) == 2:
            found.append(-g[0] % p)
        return
    while True:
        h = _fp_shift_power(a, (p - 1) // 2, g, p) or [0]
        h[0] = (h[0] - 1) % p
        d = _fp_gcd(g, _upoly_trim(h), p)
        a += 1
        if 1 < len(d) < len(g):
            _fp_split(d, a, p, found)
            _fp_split(_fp_divmod(g, d, p)[0], a, p, found)
            return


def _fp_root_multiplicity(u: list, a: int, p: int) -> int:
    """Largest m with (t - a)^m dividing the nonzero u, by synthetic division."""
    m = 0
    while True:
        partial, acc = [], 0
        for c in reversed(u):
            acc = (acc * a + c) % p
            partial.append(acc)
        if acc:
            return m
        m += 1
        u = partial[-2::-1]


def roots(form: BinForm) -> dict:
    """All roots of a nonzero form in P^1(F_p), with multiplicities.

    Points are canonical pairs ``(a, 1)`` or ``(1, 0)``; (1:0) comes first
    with the t1-multiplicity, then the finite roots by ascending a.
    Rational-root finding over QQ is out of scope and rejected.

    Method: on the monic chart polynomial f of degree n, t^p mod f comes
    from repeated squaring, g = gcd(f, t^p - t) is the product of the
    distinct roots, and g is split by gcds with (t + a)^((p-1)/2) - 1 for
    the fixed shifts a = 1, 2, ... (Cantor-Zassenhaus without randomness,
    so results reproduce exactly).  Multiplicities come from repeated
    division by t - a.  Each powering costs O(n^2 log p) and a split
    round typically needs one or two shifts, against O(p n) for trying
    every residue.  The kernel runs on plain ints mod p, without
    FieldSpec dispatch.
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
    u = _upoly_trim(form.dehomogenize())
    if len(u) < 2:
        return out
    f = _fp_monic(u, p)
    h = _fp_shift_power(0, p, f, p) + [0, 0]
    h[1] = (h[1] - 1) % p
    found: list = []
    _fp_split(_fp_gcd(f, _upoly_trim(h), p), 1, p, found)
    for a in sorted(found):
        out[(a, 1)] = _fp_root_multiplicity(f, a, p)
    return out


def _distinct_upoly_roots(u: list, f: FieldSpec) -> int:
    """Distinct roots of a univariate polynomial in the algebraic closure."""
    if len(u) <= 1:
        return 0
    du = _upoly_trim([f.mul(f.normalize(i), u[i]) for i in range(1, len(u))])
    if not du:
        # u' = 0 in characteristic p: u = v(x^p), and over the prime field
        # Frobenius fixes scalars, so v has the same coefficients
        p = f.p
        v = [u[j] for j in range(0, len(u), p)]
        return _distinct_upoly_roots(v, f)
    g = _upoly_gcd(u, du, f.p)
    return (len(u) - 1) - (len(g) - 1)


def count_distinct_roots(form: BinForm) -> int:
    """Number of distinct roots in P^1 over the algebraic closure.

    Computed as the degree of the squarefree part, so it is available over
    the rationals as well; no factorization is performed.
    """
    if form.is_zero:
        raise BinFormError("zero form")
    if form.degree == 0:
        return 0
    e = form.t1_multiplicity()
    u = _upoly_trim(form.dehomogenize())
    distinct_finite = _distinct_upoly_roots(u, form.field)
    return distinct_finite + (1 if e > 0 else 0)


def random_binform(field: FieldSpec, degree: int, rng) -> BinForm:
    """Uniform coefficients over F_p; bounded integers in [-9, 9] over QQ.

    A negative requested degree yields the zero form, matching the
    forced-zero convention of the degree tables.
    """
    if degree < 0:
        return BinForm.zero(field)
    return BinForm(field, [field.random_element(rng) for _ in range(degree + 1)])


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
    """Syntax or homogeneity error; `offset` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if text.startswith("t0", i) or text.startswith("t1", i):
            tokens.append(("var", text[i : i + 2], i))
            i += 2
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            raise ParseError(f"unknown variable {text[i:j]!r} (expected t0 or t1)", i)
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


def parse_binform(text: str, field: FieldSpec) -> BinForm:
    """Parse the literal grammar: signed ints or a/b rationals, t0, t1, + - * ^.

    Example: ``"3*t0^2*t1 - 1/2*t1^3"``.  All terms must share one total
    degree once zero-coefficient terms are dropped.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial literal", 0)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None, len(text))

    def advance():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def parse_factor():
        kind, value, off = peek()
        if kind == "int":
            advance()
            num = int(value)
            if peek()[0] == "/":
                advance()
                k2, v2, o2 = peek()
                if k2 != "int":
                    raise ParseError("expected denominator after '/'", o2)
                advance()
                if int(v2) == 0:
                    raise ParseError("zero denominator", o2)
                return ("coeff", Fraction(num, int(v2)), off)
            return ("coeff", Fraction(num), off)
        if kind == "var":
            advance()
            exp = 1
            if peek()[0] == "^":
                advance()
                k2, v2, o2 = peek()
                if k2 != "int":
                    raise ParseError("expected integer exponent after '^'", o2)
                advance()
                exp = int(v2)
            return (value, exp, off)
        raise ParseError("expected coefficient or variable", off)

    terms = []  # (coeff Fraction, e0, e1, offset)
    while True:
        sign = 1
        kind, value, off = peek()
        term_off = off
        if kind in ("+", "-"):
            advance()
            sign = -1 if kind == "-" else 1
        coeff = Fraction(sign)
        e0 = e1 = 0
        while True:
            what, val, foff = parse_factor()
            if what == "coeff":
                coeff *= val
            elif what == "t0":
                e0 += val
            else:
                e1 += val
            if peek()[0] == "*":
                advance()
                continue
            break
        terms.append((coeff, e0, e1, term_off))
        kind, _, off = peek()
        if kind is None:
            break
        if kind not in ("+", "-"):
            raise ParseError("expected '+' or '-' between terms", off)

    try:
        live = [(field.normalize(c), e0, e1, off) for (c, e0, e1, off) in terms]
    except ZeroDivisionError as exc:
        raise ParseError(str(exc), terms[0][3]) from None
    live = [t for t in live if t[0] != 0]
    if not live:
        return BinForm.zero(field)
    degree = live[0][1] + live[0][2]
    for c, e0, e1, off in live:
        if e0 + e1 != degree:
            raise ParseError(
                f"inhomogeneous literal: term of degree {e0 + e1} in a degree-{degree} form", off
            )
    coeffs = [field.zero] * (degree + 1)
    for c, e0, e1, _ in live:
        coeffs[e1] = field.add(coeffs[e1], c)
    return BinForm(field, coeffs)


def format_binform(form: BinForm) -> str:
    """Canonical printer; output re-parses to an equal form."""
    if form.is_zero:
        return "0"
    d = form.degree
    pieces = []
    for i, c in enumerate(form.coeffs):
        if c == 0:
            continue
        e0, e1 = d - i, i
        mono_parts = []
        if e0:
            mono_parts.append("t0" if e0 == 1 else f"t0^{e0}")
        if e1:
            mono_parts.append("t1" if e1 == 1 else f"t1^{e1}")
        mono = "*".join(mono_parts)
        if isinstance(c, Fraction):
            negative = c < 0
            mag = -c if negative else c
        else:
            negative = False
            mag = c
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f" - {body}" if negative else f" + {body}")
    return "".join(pieces)
