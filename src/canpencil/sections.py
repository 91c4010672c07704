"""Sections of the bigraded line bundles on the weighted bundle P over P^1.

P is Proj(Sym V) for V = O(1)x0 + O(p_g+1)x1 + O(2p_g+T)y + O(3p_g+T)z,
graded with deg x_i = 1, deg y = 2, deg z = 3 (T is the offset `theta`).
A section of O_P(d*H + m*F) is a sum of fiber monomials x0^i x1^j y^k z^l of
weight i + j + 2k + 3l = d, each carrying a binary form on the base whose
degree must equal m plus the monomial's twist sum.  Monomials whose
prescribed coefficient degree is negative can only carry the zero form,
which the sparse representation stores as absence; the bidegree is explicit
and never inferred, so a forced zero stays distinguishable from an
accidental one.

A `GradedSection` is a plain record of bundle, field, bidegree and terms:
the toolkit builds, loads, reduces and checks the sections Q and G but
never adds or multiplies them.  The one sparse ring is `SparsePoly`, with
tuple keys and no grading; `relalg.YPoly` adds its own helpers to it.
"""

from __future__ import annotations

import sys
from operator import add
from typing import Dict, NamedTuple, Tuple

from .binform import BinForm, ParseError, build_binform, format_binform, scan_binform
from .fields import FieldSpec, Record, _setattr


class BundleData(Record):
    """The pair (p_g, theta) and the derived rank-4 bundle twists."""

    __slots__ = ("pg", "theta")

    def __init__(self, pg: int, theta: int):
        if pg < 2:
            raise ValueError("p_g >= 2 required")
        if not 0 <= theta <= 6:
            raise ValueError("theta must lie in [0, 6]")
        _setattr(self, "pg", pg)
        _setattr(self, "theta", theta)

    @property
    def twists(self) -> Tuple[int, int, int, int]:
        return (1, self.pg + 1, 2 * self.pg + self.theta, 3 * self.pg + self.theta)

    @property
    def chi(self) -> int:
        return self.pg + 1

    @property
    def k2(self) -> int:
        return 4 * self.pg - 6 + self.theta


class FiberMonomial(NamedTuple):
    """Exponents (i, j, k, l) of (x0, x1, y, z)."""

    i: int
    j: int
    k: int
    l: int

    @property
    def weight(self) -> int:
        return self.i + self.j + 2 * self.k + 3 * self.l

    def twist_sum(self, bundle: BundleData) -> int:
        a = bundle.twists
        return self.i * a[0] + self.j * a[1] + self.k * a[2] + self.l * a[3]

    def __str__(self) -> str:
        return monomial_str(self)


_VAR_NAMES = ("x0", "x1", "y", "z")


def monomial_str(m: FiberMonomial) -> str:
    parts = []
    for name, e in zip(_VAR_NAMES, m):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def monomial_from_str(s: str) -> FiberMonomial:
    """The monomial a key such as ``"x1^2*y"`` names; exponents are ASCII decimal integers.

    An exponent longer than `sys.get_int_max_str_digits()` is refused with
    its variable, its digit count and the limit, as a literal's integer is.
    """
    exps = {name: 0 for name in _VAR_NAMES}
    if s.strip() == "1":
        return FiberMonomial(0, 0, 0, 0)
    for piece in s.split("*"):
        name, caret, expo = piece.strip().partition("^")
        if name not in exps:
            raise ValueError(f"monomial {s!r}: unknown fiber variable {name!r}")
        if caret and not (expo.isascii() and expo.isdigit()):
            raise ValueError(f"monomial {s!r}: exponent {expo!r} is not a non-negative "
                             "decimal integer")
        try:
            exps[name] += int(expo) if caret else 1
        except ValueError:  # int() past sys.get_int_max_str_digits()
            raise ValueError(f"monomial exponent of {name!r}: integer with {len(expo)} digits "
                             f"exceeds the limit of {sys.get_int_max_str_digits()} digits") from None
    return FiberMonomial(*(exps[n] for n in _VAR_NAMES))


_X0SQ = FiberMonomial(2, 0, 0, 0)
_X1SQ = FiberMonomial(0, 2, 0, 0)
_Y = FiberMonomial(0, 0, 1, 0)
_ZSQ = FiberMonomial(0, 0, 0, 2)

#: the z-free monomials x0^i x1^j y^k of fiber weight 6, ascending in (i, j, k):
#: the branch slots of G, in the order a member draws their coefficients
BRANCH_MONOMIALS = tuple(sorted(
    FiberMonomial(i, 6 - 2 * k - i, k, 0) for k in range(4) for i in range(7 - 2 * k)))

#: the monomials Q and G may hold: x0^2, x1^2 and y in Q; z^2 and the branch slots in G
MEMBER_MONOMIALS = {"Q": frozenset((_X0SQ, _X1SQ, _Y)), "G": frozenset((_ZSQ, *BRANCH_MONOMIALS))}

#: the monomials Q and G may hold, by their printed form
_KEYS = {monomial_str(m): m for monos in MEMBER_MONOMIALS.values() for m in monos}


class SectionDegreeError(ValueError):
    """Coefficient degree disagrees with the bidegree rule."""

    def __init__(self, monomial: FiberMonomial, expected: int, actual, message: str):
        super().__init__(message)
        self.monomial = monomial
        self.expected = expected
        self.actual = actual


def slot_degree(bundle: BundleData, m: int, mono: FiberMonomial) -> int:
    """The degree m + a(M) of the coefficient at `mono` in a section of F-degree m."""
    return m + mono.twist_sum(bundle)


def _check_term(
    bundle: BundleData, bidegree: Tuple[int, int], mono: FiberMonomial, degree: int
) -> None:
    """Refuse a nonzero coefficient of `degree` at `mono` in a section of `bidegree`.

    The monomial's exponents must be non-negative with fiber weight equal to
    the H-degree, and the coefficient's degree must equal m + a(M) >= 0.
    """
    h, m = bidegree
    if min(mono) < 0:
        raise SectionDegreeError(mono, 0, None, f"negative exponent in monomial {mono}")
    if mono.weight != h:
        raise SectionDegreeError(
            mono, h, mono.weight,
            f"monomial {mono} has fiber weight {mono.weight}, section has H-degree {h}",
        )
    expected = slot_degree(bundle, m, mono)
    if expected < 0:
        raise SectionDegreeError(
            mono, expected, degree,
            f"monomial {mono} has prescribed degree {expected} < 0 and must carry the zero form",
        )
    if degree != expected:
        raise SectionDegreeError(
            mono, expected, degree, f"coefficient of {mono} has degree {degree}, expected {expected}"
        )


def _checked_terms(field: FieldSpec, terms: dict, key) -> dict:
    """`terms` keyed by `key(exps)` without zero coefficients; refuse one of another field."""
    clean = {}
    for exps, coeff in terms.items():
        if coeff.field is not field and coeff.field != field:
            raise ValueError("coefficient field disagrees with the polynomial field")
        if coeff.nums:
            clean[key(exps)] = coeff
    return clean


class SparsePoly(Record):
    """Immutable sparse polynomial: exponent tuples -> nonzero BinForms over one field.

    The one sparse ring: ``+``, ``-``, ``*`` and `scale` take operands of
    one type and field, and ``==`` is `Record`'s, by type, field and terms.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: FieldSpec, terms: Dict[tuple, BinForm]):
        _setattr(self, "field", field)  # not `Record.__init__`: YPoly builds several per op
        _setattr(self, "terms", _checked_terms(field, terms, tuple))

    def coefficient(self, exps) -> BinForm:
        return self.terms.get(tuple(exps), BinForm.zero(self.field))

    def _compat(self, other: "SparsePoly") -> None:
        """Refuse `other` unless it is of this type and over this field, before reading a term."""
        if type(other) is not type(self):
            raise ValueError("mismatched polynomial rings")
        if self.field != other.field:
            raise ValueError("mismatched coefficient fields")

    def _like(self, terms: dict) -> "SparsePoly":
        """A ring result of this type and field, from `terms` that the operation built.

        Built the way `BinForm._new` builds a form: `_compat` and the
        `BinForm` operations have checked the operands, and every key is
        already a tuple, so only zero coefficients are dropped.
        """
        poly = object.__new__(type(self))
        _setattr(poly, "field", self.field)
        _setattr(poly, "terms", {m: c for m, c in terms.items() if c.nums})
        return poly

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._compat(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = terms.get(mono)
            terms[mono] = coeff if acc is None else acc + coeff
        return self._like(terms)

    def __neg__(self) -> "SparsePoly":
        return self._like({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        self._compat(other)
        terms: Dict[tuple, BinForm] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(map(add, m1, m2))
                prod = c1 * c2
                acc = terms.get(mono)
                terms[mono] = prod if acc is None else acc + prod
        return self._like(terms)

    def scale(self, coeff: BinForm) -> "SparsePoly":
        """Multiply every coefficient by one base form."""
        return self._like({m: coeff * c for m, c in self.terms.items()})


class GradedSection(Record):
    """Section of O_P(h*H + m*F), `FiberMonomial` -> nonzero BinForm over one field; immutable.

    `bidegree` is the plain pair (h, m).  A record, not a ring: the
    sections Q and G are built, loaded, reduced and checked, never
    added or multiplied.
    """

    __slots__ = ("bundle", "field", "bidegree", "terms")

    def __init__(
        self,
        bundle: BundleData,
        field: FieldSpec,
        bidegree: Tuple[int, int],
        terms: Dict[FiberMonomial, BinForm],
    ):
        super().__init__(bundle, field, tuple(bidegree),
                         _checked_terms(field, terms, FiberMonomial._make))

    def coefficient(self, mono: FiberMonomial) -> BinForm:
        return self.terms.get(mono, BinForm.zero(self.field))

    def __repr__(self):
        body = " + ".join(
            f"[{format_binform(c)}]*{monomial_str(m)}" for m, c in sorted(self.terms.items())
        )
        h, m = self.bidegree
        return f"GradedSection({h}H{m:+d}F: {body or '0'})"

    def validate(self) -> "GradedSection":
        """Check fiber weights and the coefficient degree rule; return self.

        Every monomial must have weight equal to the H-degree, and every
        coefficient must be homogeneous of degree m + a(M).  Slots with
        m + a(M) < 0 may only hold the (absent) zero form.
        """
        for mono, coeff in self.terms.items():
            _check_term(self.bundle, self.bidegree, mono, coeff.degree)
        return self


def _section(bundle: BundleData, field: FieldSpec, bidegree: Tuple[int, int],
             terms: Dict[FiberMonomial, BinForm]) -> GradedSection:
    """A section of checked terms keyed by `FiberMonomial`; only zero coefficients are dropped."""
    section = object.__new__(GradedSection)
    Record.__init__(section, bundle, field, tuple(bidegree),
                    {m: c for m, c in terms.items() if c.nums})
    return section


# ---------------------------------------------------------------------------
# JSON section bodies
# ---------------------------------------------------------------------------


def section_terms_to_dict(s: GradedSection) -> Dict[str, str]:
    return {monomial_str(m): format_binform(c) for m, c in sorted(s.terms.items())}


def section_terms_from_dict(
    bundle: BundleData,
    field: FieldSpec,
    bidegree: Tuple[int, int],
    body: Dict[str, str],
) -> GradedSection:
    """The section a JSON body describes, each nonzero term checked once by `_check_term`.

    A key is looked up in `_KEYS`, the printed forms of the 20 monomials
    that Q or G may hold; any other spelling (``"y*x1^4"``, ``" x1^2 "``,
    ``"x0*x0"``) is read by `monomial_from_str`, which also words every key
    error.  Each literal is read once, by `scan_binform`, and its degree
    checked against its monomial's slot before its dense form is built, so a
    literal such as ``"t0^99999999999"`` is refused without allocating it.
    The section is built from the checked terms by `_section`, without
    `GradedSection.validate` or the constructor's walk over the same terms.
    """
    terms = {}
    for mono_s, coeff_s in body.items():
        mono = _KEYS.get(mono_s) or monomial_from_str(mono_s)
        try:
            scanned = scan_binform(coeff_s, field)
        except ParseError as exc:
            raise ValueError(f"coefficient of {mono_s!r}: {exc}") from None
        degree = scanned[0]
        if degree is not None:
            _check_term(bundle, bidegree, mono, degree)
        if mono in terms:
            raise ValueError(f"duplicate monomial {mono_s!r}")
        terms[mono] = build_binform(scanned, field)
    return _section(bundle, field, bidegree, terms)
