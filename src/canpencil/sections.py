"""The bigraded section ring of the weighted bundle P over P^1.

P is Proj(Sym V) for V = O(1)x0 + O(p_g+1)x1 + O(2p_g+T)y + O(3p_g+T)z,
graded with deg x_i = 1, deg y = 2, deg z = 3 (T is the offset `theta`).
A section of O_P(d*H + m*F) is a sum of fiber monomials x0^i x1^j y^k z^l of
weight i + j + 2k + 3l = d, each carrying a binary form on the base whose
degree must equal m plus the monomial's twist sum.  Monomials whose
prescribed coefficient degree is negative can only carry the zero form,
which the sparse representation stores as absence; the bidegree is explicit
and never inferred, so a forced zero stays distinguishable from an
accidental one.

The sparse ring operations live once, in `SparsePoly`; `GradedSection`
adds the bundle and bidegree, and `relalg.YPoly` its own helpers.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from operator import add, sub
from typing import Dict, NamedTuple, Optional, Tuple

from .binform import BinForm, ParseError, build_binform, format_binform, scan_binform
from .fields import FieldSpec

WEIGHTS = (1, 1, 2, 3)

_setattr = object.__setattr__


@dataclass(frozen=True)
class BundleData:
    """The pair (p_g, theta) and the derived rank-4 bundle twists."""

    pg: int
    theta: int

    def __post_init__(self):
        if self.pg < 2:
            raise ValueError("p_g >= 2 required")
        if not 0 <= self.theta <= 6:
            raise ValueError("theta must lie in [0, 6]")

    @property
    def twists(self) -> Tuple[int, int, int, int]:
        return (1, self.pg + 1, 2 * self.pg + self.theta, 3 * self.pg + self.theta)

    @property
    def weights(self) -> Tuple[int, int, int, int]:
        return WEIGHTS

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


class SectionDegreeError(ValueError):
    """Coefficient degree disagrees with the bidegree rule."""

    def __init__(self, monomial: FiberMonomial, expected: int, actual, message: str):
        super().__init__(message)
        self.monomial = monomial
        self.expected = expected
        self.actual = actual


def _check_term(
    bundle: BundleData, bidegree: Tuple[int, int], mono: FiberMonomial, degree: int
) -> None:
    """Refuse a nonzero coefficient of `degree` at `mono` in a section of `bidegree`.

    The monomial's exponents must be non-negative with fiber weight equal to
    the H-degree, and the coefficient's degree must equal m + a(M) >= 0.
    """
    h, m = bidegree
    if any(e < 0 for e in mono):
        raise SectionDegreeError(mono, 0, None, f"negative exponent in monomial {mono}")
    if mono.weight != h:
        raise SectionDegreeError(
            mono, h, mono.weight,
            f"monomial {mono} has fiber weight {mono.weight}, section has H-degree {h}",
        )
    expected = m + mono.twist_sum(bundle)
    if expected < 0:
        raise SectionDegreeError(
            mono, expected, degree,
            f"monomial {mono} has prescribed degree {expected} < 0 and must carry the zero form",
        )
    if degree != expected:
        raise SectionDegreeError(
            mono, expected, degree, f"coefficient of {mono} has degree {degree}, expected {expected}"
        )


class SparsePoly:
    """Immutable sparse polynomial: exponent tuples -> nonzero BinForms over one field.

    The one home of ``+``, ``-``, ``*``, `scale` and ``==``.  A subclass names
    its key type in `_key` and refines the hooks for its ring and grading,
    which here are the field alone and no grading.
    """

    __slots__ = ("field", "terms")

    _key = tuple  # builds a key from an iterable of exponents

    def __init__(self, field: FieldSpec, terms: Dict[tuple, BinForm]):
        key = self._key
        clean = {}
        for exps, coeff in terms.items():
            if coeff.field != field:
                raise ValueError("coefficient field disagrees with the polynomial field")
            if not coeff.is_zero:
                clean[key(exps)] = coeff
        _setattr(self, "field", field)
        _setattr(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps) -> BinForm:
        return self.terms.get(self._key(exps), BinForm.zero(self.field))

    # -- hooks -----------------------------------------------------------

    def _mismatch(self, other: "SparsePoly") -> Optional[str]:
        """Why `other` lies in another ring, or None."""
        return None if self.field == other.field else "mismatched coefficient fields"

    def _compat(self, other: "SparsePoly") -> None:
        reason = self._mismatch(other)
        if reason:
            raise ValueError(reason)

    _grading = None  # summands must share it

    def _product_grading(self, other: "SparsePoly"):
        return None

    def _scaled_grading(self, coeff: BinForm):
        return None

    def _like(self, terms: dict, grading) -> "SparsePoly":
        return type(self)(self.field, terms)

    # -- ring structure --------------------------------------------------

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._compat(other)
        if self._grading != other._grading:
            raise ValueError(f"grading mismatch in sum: {self._grading} vs {other._grading}")
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = terms.get(mono)
            terms[mono] = coeff if acc is None else acc + coeff
        return self._like(terms, self._grading)

    def __neg__(self) -> "SparsePoly":
        return self._like({m: -c for m, c in self.terms.items()}, self._grading)

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        self._compat(other)
        key = self._key
        terms: Dict[tuple, BinForm] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = key(map(add, m1, m2))
                prod = c1 * c2
                acc = terms.get(mono)
                terms[mono] = prod if acc is None else acc + prod
        return self._like(terms, self._product_grading(other))

    def scale(self, coeff: BinForm) -> "SparsePoly":
        """Multiply every coefficient by one base form."""
        if coeff.is_zero:
            return self._like({}, self._grading)
        terms = {m: coeff * c for m, c in self.terms.items()}
        return self._like(terms, self._scaled_grading(coeff))

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self._mismatch(other) is None
                and self._grading == other._grading and self.terms == other.terms)


class GradedSection(SparsePoly):
    """Sparse section of O_P(d*H + m*F), keyed by `FiberMonomial`; immutable.

    Sections of different bundles never mix; a product adds bidegrees, and
    scaling by a base form raises the F-twist by its degree.
    """

    __slots__ = ("bundle", "h", "m")

    _key = staticmethod(FiberMonomial._make)

    def __init__(
        self,
        bundle: BundleData,
        field: FieldSpec,
        bidegree: Tuple[int, int],
        terms: Dict[FiberMonomial, BinForm],
    ):
        _setattr(self, "bundle", bundle)
        _setattr(self, "h", bidegree[0])
        _setattr(self, "m", bidegree[1])
        super().__init__(field, terms)

    # -- basics --------------------------------------------------------

    @property
    def bidegree(self) -> Tuple[int, int]:
        return (self.h, self.m)

    _grading = bidegree

    def _mismatch(self, other: "GradedSection") -> Optional[str]:
        if self.bundle != other.bundle:
            return "mismatched bundle data"
        return super()._mismatch(other)

    def _product_grading(self, other: "GradedSection") -> Tuple[int, int]:
        return (self.h + other.h, self.m + other.m)

    def _scaled_grading(self, coeff: BinForm) -> Tuple[int, int]:
        return (self.h, self.m + coeff.degree)

    def _like(self, terms: dict, bidegree: Tuple[int, int]) -> "GradedSection":
        return GradedSection(self.bundle, self.field, bidegree, terms)

    def expected_coeff_degree(self, mono: FiberMonomial) -> int:
        return self.m + mono.twist_sum(self.bundle)

    def __repr__(self):
        body = " + ".join(
            f"[{format_binform(c)}]*{monomial_str(m)}" for m, c in sorted(self.terms.items())
        )
        return f"GradedSection({self.h}H{self.m:+d}F: {body or '0'})"

    # -- construction helpers --------------------------------------------

    @staticmethod
    def zero(bundle, field, bidegree) -> "GradedSection":
        return GradedSection(bundle, field, bidegree, {})

    @staticmethod
    def variable(bundle: BundleData, field: FieldSpec, index: int) -> "GradedSection":
        """The tautological section x0, x1, y or z of bidegree (w_i, -a_i)."""
        exps = [0, 0, 0, 0]
        exps[index] = 1
        mono = FiberMonomial(*exps)
        return GradedSection(
            bundle,
            field,
            (WEIGHTS[index], -bundle.twists[index]),
            {mono: BinForm.one(field)},
        )

    # -- validation --------------------------------------------------------

    def validate(self) -> "GradedSection":
        """Check fiber weights and the coefficient degree rule; return self.

        Every monomial must have weight equal to the H-degree, and every
        coefficient must be homogeneous of degree m + a(M).  Slots with
        m + a(M) < 0 may only hold the (absent) zero form.
        """
        for mono, coeff in self.terms.items():
            _check_term(self.bundle, self.bidegree, mono, coeff.degree)
        return self


# ---------------------------------------------------------------------------
# normal-form reduction modulo (Q, G)
# ---------------------------------------------------------------------------

_X0SQ = FiberMonomial(2, 0, 0, 0)
_ZSQ = FiberMonomial(0, 0, 0, 2)


def _check_monic_relation(rel: GradedSection, lead: FiberMonomial, name: str) -> None:
    c = rel.terms.get(lead)
    if c is None or c.degree != 0 or c.lead_coeff != 1:
        raise ValueError(f"relation {name} must have {monomial_str(lead)}-coefficient exactly 1")


def _order_key(m: FiberMonomial):
    # reduction order: lexicographic on (l, i), ties broken by (k, j)
    return (m.l, m.i, m.k, m.j)


def normal_form(s: GradedSection, Q: GradedSection, G: GradedSection) -> GradedSection:
    """Reduce modulo the ideal (Q, G) for the monic normal shape.

    Q must have x0^2-coefficient exactly 1 and G z^2-coefficient exactly 1.
    The result has every monomial with x0-exponent <= 1 and z-exponent <= 1
    and is congruent to s.  The leading monomials x0^2 and z^2 are coprime,
    so the rewriting system is confluent and the fixed reduction order is a
    determinism choice, not a correctness one.
    """
    _check_monic_relation(Q, _X0SQ, "Q")
    _check_monic_relation(G, _ZSQ, "G")
    s._compat(Q)
    s._compat(G)

    work: Dict[FiberMonomial, BinForm] = dict(s.terms)
    while True:
        reducible = [m for m in work if m.l >= 2 or m.i >= 2]
        if not reducible:
            break
        target = max(reducible, key=_order_key)
        coeff = work.pop(target)
        if target.l >= 2:
            rel, lead = G, _ZSQ
        else:
            rel, lead = Q, _X0SQ
        stub = FiberMonomial._make(map(sub, target, lead))
        # c * target == c * stub * rel  -  c * stub * (tail of rel)   (mod ideal)
        for mono, relc in rel.terms.items():
            if mono == lead:
                continue
            dest = FiberMonomial._make(map(add, stub, mono))
            delta = coeff * relc
            acc = work.get(dest)
            new = -delta if acc is None else acc - delta
            if new.is_zero:
                work.pop(dest, None)
            else:
                work[dest] = new
    return GradedSection(s.bundle, s.field, s.bidegree, work)


# ---------------------------------------------------------------------------
# JSON section bodies
# ---------------------------------------------------------------------------


#: the monomials Q and G may hold, by their printed form: x0^2, x1^2 and y
#: in Q; z^2 and the 16 z-free monomials of fiber weight 6 in G
_KEYS = {monomial_str(m): m for m in [
    _X0SQ, FiberMonomial(0, 2, 0, 0), FiberMonomial(0, 0, 1, 0), _ZSQ,
    *(FiberMonomial(i, 6 - 2 * k - i, k, 0) for k in range(4) for i in range(7 - 2 * k))]}


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
    error.  Each literal is scanned and its degree checked against its
    monomial's slot before its dense form is built, so a literal such as
    ``"t0^99999999999"`` is refused without allocating it.  The section is
    not validated again: `GradedSection.validate` would repeat the same
    checks on the same terms.
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
    return GradedSection(bundle, field, bidegree, terms)
