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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Tuple

from .binform import BinForm, format_binform, parse_binform
from .fields import FieldSpec

WEIGHTS = (1, 1, 2, 3)


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

    def __mul__(self, other: "FiberMonomial") -> "FiberMonomial":
        return FiberMonomial(
            self.i + other.i, self.j + other.j, self.k + other.k, self.l + other.l
        )

    def __str__(self) -> str:
        return monomial_str(self)


_VAR_NAMES = ("x0", "x1", "y", "z")


def monomial_str(m: FiberMonomial) -> str:
    parts = []
    for name, e in zip(_VAR_NAMES, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def monomial_from_str(s: str) -> FiberMonomial:
    exps = {name: 0 for name in _VAR_NAMES}
    s = s.strip()
    if s == "1":
        return FiberMonomial(0, 0, 0, 0)
    for piece in s.split("*"):
        piece = piece.strip()
        if "^" in piece:
            name, _, expo = piece.partition("^")
            e = int(expo)
        else:
            name, e = piece, 1
        if name not in exps:
            raise ValueError(f"unknown fiber variable {name!r} in monomial {s!r}")
        exps[name] += e
    return FiberMonomial(*(exps[n] for n in _VAR_NAMES))


class SectionDegreeError(ValueError):
    """Coefficient degree disagrees with the bidegree rule."""

    def __init__(self, monomial: FiberMonomial, expected: int, actual, message: str):
        super().__init__(message)
        self.monomial = monomial
        self.expected = expected
        self.actual = actual


class GradedSection:
    """Sparse section of O_P(d*H + m*F); immutable."""

    __slots__ = ("bundle", "field", "h", "m", "terms")

    def __init__(
        self,
        bundle: BundleData,
        field: FieldSpec,
        bidegree: Tuple[int, int],
        terms: Dict[FiberMonomial, BinForm],
    ):
        clean = {}
        for mono, coeff in terms.items():
            if not isinstance(mono, FiberMonomial):
                mono = FiberMonomial(*mono)
            if coeff.field != field:
                raise ValueError("coefficient field disagrees with the section field")
            if not coeff.is_zero:
                clean[mono] = coeff
        object.__setattr__(self, "bundle", bundle)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "h", bidegree[0])
        object.__setattr__(self, "m", bidegree[1])
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("GradedSection is immutable")

    # -- basics --------------------------------------------------------

    @property
    def bidegree(self) -> Tuple[int, int]:
        return (self.h, self.m)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono) -> BinForm:
        if not isinstance(mono, FiberMonomial):
            mono = FiberMonomial(*mono)
        return self.terms.get(mono, BinForm.zero(self.field))

    def expected_coeff_degree(self, mono: FiberMonomial) -> int:
        return self.m + mono.twist_sum(self.bundle)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedSection)
            and self.bundle == other.bundle
            and self.field == other.field
            and self.bidegree == other.bidegree
            and self.terms == other.terms
        )

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
            if any(e < 0 for e in mono):
                raise SectionDegreeError(
                    mono, 0, None, f"negative exponent in monomial {monomial_str(mono)}"
                )
            if mono.weight != self.h:
                raise SectionDegreeError(
                    mono,
                    self.h,
                    mono.weight,
                    f"monomial {monomial_str(mono)} has fiber weight {mono.weight}, "
                    f"section has H-degree {self.h}",
                )
            expected = self.expected_coeff_degree(mono)
            if expected < 0:
                raise SectionDegreeError(
                    mono,
                    expected,
                    coeff.degree,
                    f"monomial {monomial_str(mono)} has prescribed degree {expected} < 0 "
                    "and must carry the zero form",
                )
            if coeff.degree != expected:
                raise SectionDegreeError(
                    mono,
                    expected,
                    coeff.degree,
                    f"coefficient of {monomial_str(mono)} has degree {coeff.degree}, "
                    f"expected {expected}",
                )
        return self

    # -- ring structure -------------------------------------------------------

    def _compat(self, other: "GradedSection") -> None:
        if self.bundle != other.bundle:
            raise ValueError("mismatched bundle data")
        if self.field != other.field:
            raise ValueError("mismatched coefficient fields")

    def __add__(self, other: "GradedSection") -> "GradedSection":
        self._compat(other)
        if self.bidegree != other.bidegree:
            raise ValueError(f"bidegree mismatch in sum: {self.bidegree} vs {other.bidegree}")
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = terms.get(mono)
            terms[mono] = coeff if acc is None else acc + coeff
        return GradedSection(self.bundle, self.field, self.bidegree, terms)

    def __neg__(self) -> "GradedSection":
        return GradedSection(
            self.bundle, self.field, self.bidegree, {m: -c for m, c in self.terms.items()}
        )

    def __sub__(self, other: "GradedSection") -> "GradedSection":
        return self + (-other)

    def __mul__(self, other: "GradedSection") -> "GradedSection":
        self._compat(other)
        bidegree = (self.h + other.h, self.m + other.m)
        terms: Dict[FiberMonomial, BinForm] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = m1 * m2
                prod = c1 * c2
                acc = terms.get(mono)
                terms[mono] = prod if acc is None else acc + prod
        return GradedSection(self.bundle, self.field, bidegree, terms)

    def scale(self, coeff: BinForm) -> "GradedSection":
        """Multiply by a base form, raising the F-twist by its degree."""
        if coeff.is_zero:
            return GradedSection.zero(self.bundle, self.field, self.bidegree)
        return GradedSection(
            self.bundle,
            self.field,
            (self.h, self.m + coeff.degree),
            {m: coeff * c for m, c in self.terms.items()},
        )

    def __pow__(self, n: int) -> "GradedSection":
        if n < 0:
            raise ValueError("negative power")
        result = GradedSection(
            self.bundle, self.field, (0, 0), {FiberMonomial(0, 0, 0, 0): BinForm.one(self.field)}
        )
        for _ in range(n):
            result = result * self
        return result

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, point) -> int:
        """Plain polynomial evaluation at (t0, t1, x0, x1, y, z) over F_p."""
        if not self.field.is_prime_field:
            raise ValueError("evaluation is supported over prime fields only")
        t0, t1, x0, x1, y, z = point
        p = self.field.p
        total = 0
        for mono, coeff in self.terms.items():
            c = coeff.evaluate(t0, t1)
            if c == 0:
                continue
            v = (
                c
                * pow(x0 % p, mono.i, p)
                * pow(x1 % p, mono.j, p)
                * pow(y % p, mono.k, p)
                * pow(z % p, mono.l, p)
            )
            total = (total + v) % p
        return total


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
        stub = FiberMonomial(
            target.i - lead.i, target.j - lead.j, target.k - lead.k, target.l - lead.l
        )
        # c * target == c * stub * rel  -  c * stub * (tail of rel)   (mod ideal)
        for mono, relc in rel.terms.items():
            if mono == lead:
                continue
            dest = stub * mono
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


def section_terms_to_dict(s: GradedSection) -> Dict[str, str]:
    return {monomial_str(m): format_binform(c) for m, c in sorted(s.terms.items())}


def section_terms_from_dict(
    bundle: BundleData,
    field: FieldSpec,
    bidegree: Tuple[int, int],
    body: Dict[str, str],
) -> GradedSection:
    terms = {}
    for mono_s, coeff_s in body.items():
        mono = monomial_from_str(mono_s)
        coeff = parse_binform(coeff_s, field)
        if mono in terms:
            raise ValueError(f"duplicate monomial {mono_s!r}")
        terms[mono] = coeff
    return GradedSection(bundle, field, bidegree, terms)
