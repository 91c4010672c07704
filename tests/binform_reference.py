"""Package code as it stood before a faster rewrite, kept as test references.

The equation-literal parser as it stood before the one-scan parser: a
tokenizer, a recursive-descent term loop with a Fraction per factor, then
one normalization per term and one more in the final `BinForm`.
`canpencil.binform.parse_binform` must match it.

`shift_power_schoolbook` is the F_p powering kernel as it stood before the
packed-slot kernel: one schoolbook square and one schoolbook `_divmod` per
exponent bit.  `canpencil.binform._fp_shift_power` must match it.

The oracle tests in test_binform.py and test_census.py compare the two.
"""

from fractions import Fraction

from canpencil.binform import BinForm, ParseError, _divmod
from canpencil.fields import FieldSpec


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


def shift_power_schoolbook(a: int, e: int, f: list, p: int) -> list:
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
