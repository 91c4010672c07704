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

Division, gcd, derivatives, root counting and root finding work through
the chart t1 = 1 with the t1-multiplicity tracked separately, so nothing is
lost at the point (1:0).  One kernel serves both fields: `_monic`,
`_divmod` (by a monic divisor), `_gcd` and `_derivative` take dense
ascending coefficient lists and ``p`` (None for QQ), and branch on it once
per step, on plain ints mod p or on Fractions.  Euclid over a field is one
algorithm for both (von zur Gathen-Gerhard, ch. 3).  Root finding over F_p
never enumerates the field: it takes the gcd with t^p - t and splits it by
deterministic equal-degree splitting, in O(d^2 log p) for a form of
degree d.
"""

from __future__ import annotations

import math
import re
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
        return BinForm._trusted(field, (field.one,))

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
        """Value at (t0, t1) = (a, b): Horner in t0, the powers of t1 folded in."""
        f = self.field
        a, b, p = f.normalize(a), f.normalize(b), f.p
        val, b_pow = f.zero, f.one
        for c in self.coeffs:
            val, b_pow = val * a + c * b_pow, b_pow * b
            if p is not None:
                val, b_pow = val % p, b_pow % p
        return val

    def deriv_t0(self) -> "BinForm":
        """Formal partial derivative with respect to t0."""
        return BinForm._trusted(self.field, tuple(_partial(self.coeffs[::-1], self.field)[::-1]))

    def deriv_t1(self) -> "BinForm":
        """Formal partial derivative with respect to t1."""
        return BinForm._trusted(self.field, tuple(_partial(self.coeffs, self.field)))

    # -- chart t1 = 1 ------------------------------------------------------

    def dehomogenize(self) -> list:
        """Coefficients of f(x, 1) ascending in x; exact length deg+1."""
        return list(self.coeffs[::-1])

    @staticmethod
    def homogenize(field: FieldSpec, poly: list, t1_shift: int = 0) -> "BinForm":
        """Inverse of :meth:`dehomogenize` on canonical scalars, times an extra t1^t1_shift."""
        poly = _trim(list(poly))
        if not poly:
            return BinForm.zero(field)
        return BinForm._trusted(field, tuple([field.zero] * t1_shift + poly[::-1]))

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return format_binform(self)

    def __repr__(self) -> str:
        return f"BinForm({self.field}, {format_binform(self)!r})"


# ---------------------------------------------------------------------------
# the chart kernel: dense ascending coefficient lists over F_p, or QQ when p
# is None.  Scalars stay canonical (ints in [0, p), or Fractions), so the
# results can be homogenized without normalizing them again.
# ---------------------------------------------------------------------------


def _trim(u: list) -> list:
    while u and u[-1] == 0:
        u.pop()
    return u


def _scale(u: list, c, p: Optional[int]) -> list:
    return [x * c for x in u] if p is None else [x * c % p for x in u]


def _monic(u: list, p: Optional[int]) -> list:
    """The nonzero trimmed u divided by its leading coefficient."""
    return _scale(u, 1 / u[-1] if p is None else pow(u[-1], -1, p), p)


def _divmod(u: list, f: list, p: Optional[int]):
    """Quotient and remainder of u by a monic f; the quotient is trimmed when u is."""
    n = len(f) - 1
    u = list(u)
    q = [0] * max(0, len(u) - n)
    for k in range(len(u) - 1, n - 1, -1):
        c = q[k - n] = u[k] if p is None else u[k] % p
        if c:
            for j in range(n):
                u[k - n + j] -= c * f[j]
    return q, _trim(u[:n] if p is None else [c % p for c in u[:n]])


def _gcd(u: list, v: list, p: Optional[int]) -> list:
    """Monic gcd of trimmed u and v, not both zero."""
    while v:
        v = _monic(v, p)
        u, v = v, _divmod(u, v, p)[1]
    return _monic(u, p)


def _derivative(u: list, p: Optional[int]) -> list:
    """Trimmed formal derivative of u."""
    if p is None:
        return _trim([i * u[i] for i in range(1, len(u))])
    return _trim([i * u[i] % p for i in range(1, len(u))])


def _partial(coeffs, field: FieldSpec) -> list:
    """Derivative of coeffs read ascending, padded back to length len(coeffs) - 1."""
    du = _derivative(list(coeffs), field.p)
    return du + [field.zero] * (len(coeffs) - 1 - len(du))


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
    g = _gcd(_trim(a.dehomogenize()), _trim(b.dehomogenize()), a.field.p)
    return BinForm.homogenize(a.field, g, t1_shift=e)


def _quotient(a: BinForm, b: BinForm) -> Optional[BinForm]:
    """a / b for a nonzero b, or None when b does not divide a."""
    if a.is_zero:
        return a
    shift = a.t1_multiplicity() - b.t1_multiplicity()
    if shift < 0:
        return None
    p = a.field.p
    v = _trim(b.dehomogenize())
    inv = 1 / v[-1] if p is None else pow(v[-1], -1, p)
    q, r = _divmod(_trim(a.dehomogenize()), _scale(v, inv, p), p)
    return None if r else BinForm.homogenize(a.field, _scale(q, inv, p), t1_shift=shift)


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


def lcm(a: BinForm, b: BinForm) -> BinForm:
    if a.is_zero or b.is_zero:
        return BinForm.zero(a.field)
    return divexact(a * b, gcd(a, b)).monic()


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
        r = _divmod(sq, f, p)[1]
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
    every residue.
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
    u = _trim(form.dehomogenize())
    if len(u) < 2:
        return out
    f = _monic(u, p)
    h = _fp_shift_power(0, p, f, p) + [0, 0]
    h[1] = (h[1] - 1) % p
    found: list = []
    _fp_split(_gcd(f, _trim(h), p), 1, p, found)
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
    u = _trim(form.dehomogenize())
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
    """
    if degree < 0:
        return BinForm.zero(field)
    return BinForm._trusted(field, tuple(field.random_element(rng) for _ in range(degree + 1)))


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


# An unsigned decimal integer, a variable, an operator, a word (an unknown
# variable if it starts with a letter) or any other non-space character.
_TOKEN = re.compile(r"(?P<int>\d+)|(?P<var>t[01])|(?P<op>[-+*/^])|(?P<word>\w+)|(?P<char>\S)")


def scan_binform(text: str, field: FieldSpec):
    """Read a literal as ``(degree, {t1 exponent: coefficient})`` without building the form.

    Coefficients are canonical in `field` and nonzero; the zero form reads
    as ``(None, {})``.  Errors come in this order: a bad character, a syntax
    error, a denominator not invertible in `field` (at its own term), and a
    nonzero term whose degree differs from the first nonzero term's.
    """
    tokens = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN.finditer(text)]
    for kind, tok, off in tokens:
        if kind == "word" or kind == "char":
            raise ParseError(f"unknown variable {tok!r} (expected t0 or t1)" if tok[0].isalpha()
                             else f"unexpected character {tok[0]!r}", off)
    if not tokens:
        raise ParseError("empty polynomial literal", 0)
    if tokens[0][1] not in ("+", "-"):  # an implicit '+' opens the first term
        tokens.insert(0, ("op", "+", tokens[0][2]))
    # state: "factor" is due next; an "int" or a "var" was just read; "/" or
    # "^" waits for its integer; a "term" may end here
    terms, state = [], "term"  # [numerator, denominator, e0, e1, offset] per term
    for kind, tok, off in tokens + [("end", "", len(text))]:
        if state == "factor":
            if kind == "int":
                term[0] *= int(tok)
            elif kind == "var":
                var = 2 if tok == "t0" else 3
                term[var] += 1
            else:
                raise ParseError("expected coefficient or variable", off)
            state = kind
        elif state == "/" or state == "^":
            if kind != "int":
                what = "denominator after '/'" if state == "/" else "integer exponent after '^'"
                raise ParseError(f"expected {what}", off)
            if state == "^":
                term[var] += int(tok) - 1
            elif int(tok):
                term[1] *= int(tok)
            else:
                raise ParseError("zero denominator", off)
            state = "term"
        elif tok == "*":
            state = "factor"
        elif (state, tok) in (("int", "/"), ("var", "^")):
            state = tok
        elif tok == "+" or tok == "-":
            term = [-1 if tok == "-" else 1, 1, 0, 0, off]
            terms.append(term)
            state = "factor"
        elif kind != "end":
            raise ParseError("expected '+' or '-' between terms", off)
    p, live, coeffs = field.p, [], {}
    for num, den, e0, e1, off in terms:
        try:
            c = num % p if p and den == 1 else field.normalize(Fraction(num, den))
        except ZeroDivisionError as exc:
            raise ParseError(str(exc), off) from None
        if c:
            live.append((c, e0 + e1, e1, off))
    for c, degree, e1, off in live:
        if degree != live[0][1]:
            raise ParseError(f"inhomogeneous literal: term of degree {degree} "
                             f"in a degree-{live[0][1]} form", off)
        coeffs[e1] = coeffs.get(e1, 0) + c
    coeffs = {e1: c % p if p else c for e1, c in coeffs.items()}
    coeffs = {e1: c for e1, c in coeffs.items() if c}
    return (live[0][1] if coeffs else None), coeffs


def build_binform(scanned, field: FieldSpec) -> BinForm:
    """The form `scan_binform` read, with dense coefficients of t0^(d-i)*t1^i."""
    degree, coeffs = scanned
    dense = [field.zero] * (degree + 1 if coeffs else 0)
    for e1, c in coeffs.items():
        dense[e1] = c
    return BinForm._trusted(field, tuple(dense))


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
