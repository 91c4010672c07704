"""The conic-bundle layer: multiplication-map data, tau, and the degree-6 sheaf.

This module works with the matrix of the multiplication map from the
symmetric square of the rank-2 piece into the rank-3 piece of the algebra,
normalized so its third column is (0, 0, 1):

        ( g0  f0  0 )
        ( g1  f1  0 )          deg f0 = alpha,  gcd(f0, f1) = 1.
        ( g2  0   1 )

Everything downstream of that matrix is symbolic and exact: the
determinant divisor tau, the conic relation in the three bundle
coordinates (y0, y1, y2) (a `YPoly`, the toolkit's one sparse
polynomial ring), the rank-2 quotient acting on cubics, the
f0^4 annihilator certificates, and the three exceptional low-invariant
families, which are rebuilt from scratch and checked coefficient by
coefficient.

Rational functions never materialize.  Each congruence that the theory
states with denominators f1^2, f1^3 is verified after clearing them; the
clearing is lossless because gcd(f0, f1) = 1 makes f1 invertible modulo
any power of f0.  Divisibility by f0^4 is decided by exact division in
the chart t1 = 1, which is faithful whenever t1 does not divide f0 (true
for every slot where the check is used; asserted at run time).
"""

from __future__ import annotations

from operator import add
from typing import Dict, List, Optional, Tuple

from .binform import (
    BinForm,
    _pack,
    _quotient,
    _unpack,
    count_distinct_roots,
    divexact,
    divides,
    format_binform,
    gcd,
    random_binform,
)
from .fields import QQ, FieldSpec, Record, _setattr


class SigmaError(ValueError):
    pass


# ---------------------------------------------------------------------------
# polynomials in (y0, y1, y2) with binary-form coefficients
# ---------------------------------------------------------------------------


class YPoly(Record):
    """Immutable sparse polynomial in y0, y1, y2: exponent tuples -> nonzero BinForms over one field.

    The toolkit's one sparse ring: ``+``, ``-``, ``*`` and `scale` take
    operands over one field, and ``==`` is `Record`'s, by field and terms.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: FieldSpec, terms: Dict[tuple, BinForm]):
        for coeff in terms.values():
            if coeff.field is not field and coeff.field != field:
                raise ValueError("coefficient field disagrees with the polynomial field")
        _setattr(self, "field", field)  # not `Record.__init__`: several are built per op
        _setattr(self, "terms", {tuple(exps): c for exps, c in terms.items() if c.nums})

    def coefficient(self, exps) -> BinForm:
        return self.terms.get(tuple(exps), BinForm.zero(self.field))

    def _like(self, terms: dict) -> "YPoly":
        """A ring result over this field, from `terms` that the operation built.

        Built the way `BinForm._new` builds a form: the operation has
        refused an operand over another field before reading a term, the
        `BinForm` operations have checked the coefficients, and every key is
        already a tuple, so only zero coefficients are dropped.
        """
        poly = object.__new__(YPoly)
        _setattr(poly, "field", self.field)
        _setattr(poly, "terms", {m: c for m, c in terms.items() if c.nums})
        return poly

    def __add__(self, other: "YPoly") -> "YPoly":
        if self.field != other.field:
            raise ValueError("mismatched coefficient fields")
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = terms.get(mono)
            terms[mono] = coeff if acc is None else acc + coeff
        return self._like(terms)

    def __neg__(self) -> "YPoly":
        return self._like({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "YPoly") -> "YPoly":
        return self + (-other)

    def __mul__(self, other: "YPoly") -> "YPoly":
        if self.field != other.field:
            raise ValueError("mismatched coefficient fields")
        terms: Dict[tuple, BinForm] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(map(add, m1, m2))
                prod = c1 * c2
                acc = terms.get(mono)
                terms[mono] = prod if acc is None else acc + prod
        return self._like(terms)

    def scale(self, coeff: BinForm) -> "YPoly":
        """Multiply every coefficient by one base form."""
        return self._like({m: coeff * c for m, c in self.terms.items()})

    @staticmethod
    def from_linear(c0: BinForm, c1: BinForm, c2: BinForm) -> "YPoly":
        return YPoly(c0.field, {(1, 0, 0): c0, (0, 1, 0): c1, (0, 0, 1): c2})

    def substitute(self, y0: BinForm, y1: BinForm, y2: BinForm) -> BinForm:
        """Evaluate at binary-form values of the three coordinates.

        A term with a positive power of a zero coordinate is skipped, each
        power y_i^e is computed once, and a zeroth power is not multiplied in.
        """
        values, powers = (y0, y1, y2), ({}, {}, {})
        total = BinForm.zero(self.field)
        for exps, coeff in self.terms.items():
            if any(e and not y.nums for e, y in zip(exps, values)):
                continue
            for e, y, known in zip(exps, values, powers):
                if e:
                    if e not in known:
                        known[e] = y**e
                    coeff = coeff * known[e]
            total = total + coeff
        return total

    def twist_offset(self, twists: Tuple[int, int, int]) -> Optional[int]:
        """The common value deg(coeff) - sum(e_i d_i), or raise if mixed.

        A homogeneous section of a symmetric power twisted by O(m) has all
        its coefficients on this one line; `None` for the zero polynomial.
        """
        offset = None
        for e, c in self.terms.items():
            m = c.degree - sum(ei * di for ei, di in zip(e, twists))
            if offset is None:
                offset = m
            elif offset != m:
                raise SigmaError(f"inhomogeneous twist: {m} vs {offset} at {e}")
        return offset

    def __repr__(self):
        body = " + ".join(
            f"[{format_binform(c)}]*y^{e}" for e, c in sorted(self.terms.items())
        )
        return f"YPoly({body or '0'})"


# ---------------------------------------------------------------------------
# matrices of binary forms
# ---------------------------------------------------------------------------

BinMatrix = List[List[BinForm]]


def mat_mul(a: BinMatrix, b: BinMatrix) -> BinMatrix:
    """The product a b, on packed ints (Kronecker substitution, von zur Gathen-Gerhard §8.4).

    Each nonzero entry of at most n coefficients is packed once into one
    int, slot i of w = 64 k bits holding its coefficient of t1^i, with k the
    fewest words that hold every coefficient of a product entry.  Over F_p
    a slot holds a residue, packed by `_pack`, and k holds
    inner * n * (p - 1)^2.  Over QQ, when every denominator is 1, a slot
    holds a signed numerator, packed exactly by `_pack_signed`, and k keeps
    inner * n * max|num|^2 below 2^(w-1).  An output entry is one sum
    of big-int products over its nonzero pairs, unpacked once and reduced
    once.  Over QQ one bias int first adds 2^(w-1) to every slot, so that no
    slot is negative, and 2^(w-1) is taken off each unpacked slot.  For
    mixed fields, a denominator other than 1, and an entry whose nonzero
    products differ in degree, the entry is their BinForm sum in k order,
    which raises on the mismatch unless the partial sum has cancelled to
    zero first.
    """
    inner, cols = len(b), len(b[0])
    if any(len(r) != inner for r in a) or any(len(r) != cols for r in b):
        raise AssertionError("matrix shapes do not chain")
    entries = [e for r in (*a, *b) for e in r]
    field = entries[0].field if entries else QQ  # no entry: the loop's empty product
    if any(e.den != 1 or (e.field is not field and e.field != field) for e in entries):
        return [[_sum_of_products(r, b, j) for j in range(cols)] for r in a]
    n = max([len(e.nums) for e in entries], default=0) or 1
    if (p := field.p) is not None:
        k = -(-(inner * n * (p - 1) ** 2).bit_length() // 64)
        pack, half = _pack, 0
    else:
        top = max([max(max(e.nums), -min(e.nums)) for e in entries if e.nums], default=0)
        k = (inner * n * top * top).bit_length() // 64 + 1
        pack, half, most = _pack_signed, 1 << (64 * k - 1), 2 * n - 1
        bias = int.from_bytes(half.to_bytes(8 * k, "little") * most, "little")  # half in every slot
    zero = BinForm.zero(field)
    columns = [[(len(e.nums), pack(e.nums, k)) if e.nums else (0, 0) for e in c] for c in zip(*b)]
    out = []
    for r in a:
        packed = [(len(e.nums), pack(e.nums, k)) if e.nums else (0, 0) for e in r]
        row = []
        for j, col in enumerate(columns):
            # (length of the product, packed product) of each nonzero pair
            pairs = [(la + lb - 1, x * y) for (la, x), (lb, y) in zip(packed, col) if la and lb]
            if not pairs:
                row.append(zero)
            elif any(length != pairs[0][0] for length, _ in pairs):
                row.append(_sum_of_products(r, b, j))
            elif acc := sum([xy for _, xy in pairs]):
                length = pairs[0][0]
                if half:  # over QQ: every slot non-negative for the unpack, then the bias off again
                    nums = _unpack(acc + (bias >> 64 * k * (most - length)), length, k)
                    row.append(BinForm.from_numerators(field, [c - half for c in nums]))
                else:
                    row.append(BinForm.from_numerators(field, _unpack(acc, length, k)))
            else:
                row.append(zero)
        out.append(row)
    return out


def _pack_signed(nums, k: int) -> int:
    """`_pack` for signed ints: sum nums[i] 2^(64 k i), by Horner's rule."""
    w, x = 64 * k, 0
    for c in reversed(nums):
        x = (x << w) + c
    return x


def _sum_of_products(row: List[BinForm], b: BinMatrix, j: int) -> BinForm:
    """Entry j of the row times b, summed one BinForm product at a time."""
    acc = BinForm.zero(row[0].field)
    for x, b_row in zip(row, b):
        acc = acc + x * b_row[j]
    return acc


def mat_is_zero(a: BinMatrix) -> bool:
    return all(c.is_zero for row in a for c in row)


# ---------------------------------------------------------------------------
# the multiplication-map data
# ---------------------------------------------------------------------------


class SigmaTwoData(Record):
    __slots__ = ("pg", "theta", "alpha", "f0", "f1", "g0", "g1", "g2")  # ints, then BinForms

    def __init__(self, pg, theta, alpha, f0, f1, g0, g1, g2):
        _setattr(self, "pg", pg)
        _setattr(self, "theta", theta)
        _setattr(self, "alpha", alpha)
        _setattr(self, "f0", f0)
        _setattr(self, "f1", f1)
        _setattr(self, "g0", g0)
        _setattr(self, "g1", g1)
        _setattr(self, "g2", g2)

    @property
    def field(self) -> FieldSpec:
        return self.f0.field


def degree_slots(pg: int, theta: int, alpha: int) -> Dict[str, int]:
    """Prescribed degree of each of the forms f0, f1, g0, g1, g2."""
    return {
        "f0": alpha,
        "f1": pg + theta - alpha - 2,
        "g0": pg + alpha,
        "g1": 2 * pg + theta - alpha - 2,
        "g2": 2 * pg,
    }


def split_type(pg: int, theta: int, alpha: int) -> Tuple[int, int, int]:
    """Splitting degrees (d0, d1, d2) of the rank-3 bundle; they sum to 5 p_g + theta + 4."""
    return (pg + 2 + alpha, 2 * pg + theta - alpha, 2 * pg + 2)


def alpha_feasible(pg: int, theta: int, alpha: int) -> bool:
    """Which (p_g, theta, alpha) admit valid data.

    alpha = 0 always does; a positive alpha needs 1 <= alpha <= theta and
    p_g <= 2*alpha - theta + 4.  In particular theta = 0 forces alpha = 0,
    and p_g > theta + 4 does as well.
    """
    if alpha == 0:
        return True
    return 1 <= alpha <= theta and pg <= 2 * alpha - theta + 4


def validate_sigma2(data: SigmaTwoData) -> Tuple[int, int, int]:
    """Full consistency check; returns the splitting degrees (d0, d1, d2).

    Order matters for diagnostics: the (p_g, theta, alpha) feasibility
    bound is decided before any polynomial is inspected.
    """
    pg, th, a = data.pg, data.theta, data.alpha
    if pg < 2:
        raise SigmaError("p_g >= 2 required")
    if not 0 <= th <= 6:
        raise SigmaError("theta must lie in [0, 6]")
    if a < 0:
        raise SigmaError("alpha must be non-negative")
    if not alpha_feasible(pg, th, a):
        if a > th:
            raise SigmaError(f"alpha = {a} exceeds theta = {th}")
        raise SigmaError(
            f"alpha = {a} > 0 requires p_g <= 2*alpha - theta + 4 = {2 * a - th + 4}, got {pg}"
        )
    for name, deg in degree_slots(pg, th, a).items():
        form = getattr(data, name)
        if form.is_zero:
            continue
        if deg < 0:
            raise SigmaError(f"slot {name} has prescribed degree {deg} < 0 and must be zero")
        if form.degree != deg:
            raise SigmaError(f"slot {name} has degree {form.degree}, expected {deg}")
    if data.f0.is_zero and data.f1.is_zero:
        raise SigmaError("f0 and f1 cannot both vanish")
    if gcd(data.f0, data.f1) != BinForm.one(data.field):
        raise SigmaError("gcd(f0, f1) != 1")
    return split_type(pg, th, a)


def tau_of(data: SigmaTwoData) -> BinForm:
    """Determinant of the 3x3 matrix: g0*f1 - g1*f0.

    Nonzero by assumption on honest data and of degree exactly
    2*p_g + theta - 2, the Horikawa number K^2 - 2*chi + 6.
    """
    det = data.g0 * data.f1 - data.g1 * data.f0
    if det.is_zero:
        raise SigmaError("degenerate data: det sigma_2 = 0")
    expected = 2 * data.pg + data.theta - 2
    if det.degree != expected:
        raise AssertionError(f"tau degree {det.degree} != {expected}")
    return det


def q_relation(data: SigmaTwoData) -> YPoly:
    """The conic relation (f0 y0 + f1 y1)^2 - y2 (g0 y0 + g1 y1 + g2 y2)."""
    lin_f = YPoly.from_linear(data.f0, data.f1, BinForm.zero(data.field))
    lin_g = YPoly.from_linear(data.g0, data.g1, data.g2)
    y2 = YPoly(data.field, {(0, 0, 1): BinForm.one(data.field)})
    rel = lin_f * lin_f - y2 * lin_g
    # bihomogeneity against the splitting twists, with offset -(2 p_g + 4)
    offset = rel.twist_offset(split_type(data.pg, data.theta, data.alpha))
    if offset is not None and offset != -(2 * data.pg + 4):
        raise AssertionError(f"relation twist offset {offset} != {-(2 * data.pg + 4)}")
    return rel


def s6prime_rows(f0: BinForm, f1: BinForm) -> tuple:
    """The bare 2x4 surjection matrix onto the rank-2 quotient of cubics.

        ( 3 f1^2   -2 f0 f1    f0^2      0     )
        ( 0         f1^2      -2 f0 f1   3 f0^2 )
    """
    f00, m2f01, f11 = f0 * f0, (f0 * f1).scale(-2), f1 * f1
    zero = BinForm.zero(f0.field)
    return ((f11.scale(3), m2f01, f00, zero), (zero, f11, m2f01, f00.scale(3)))


def s6prime_matrix(data: SigmaTwoData) -> Tuple[tuple, Tuple[int, int]]:
    """(rows, summand_degrees): the surjection matrix of the rank-2 quotient of
    cubics in (y0, y1) and its two summand degrees 5p_g + 2T + alpha + 2 and
    6p_g + 3T - alpha."""
    degs = (
        5 * data.pg + 2 * data.theta + data.alpha + 2,
        6 * data.pg + 3 * data.theta - data.alpha,
    )
    return s6prime_rows(data.f0, data.f1), degs


def relation_matrix(f0: BinForm, f1: BinForm) -> BinMatrix:
    """The 4x2 matrix whose image the s6prime matrix must annihilate.

    Columns are (f0 y0 + f1 y1)^2 * y0 and (f0 y0 + f1 y1)^2 * y1 written in
    the cubic monomial basis (y0^3, y0^2 y1, y0 y1^2, y1^3).
    """
    f00, two_f01, f11 = f0 * f0, (f0 * f1).scale(2), f1 * f1
    zero = BinForm.zero(f0.field)
    return [[f00, zero], [two_f01, f00], [f11, two_f01], [zero, f11]]


# ---------------------------------------------------------------------------
# the f0^4 annihilator
# ---------------------------------------------------------------------------


class LiftingCertificate(Record):
    """Explicit witnesses that f0^4 annihilates the obstruction cokernel.

    For each standard basis vector e_i the triple `solutions[i]` combines the
    columns of

        ( f0^2      0     0   )
        ( 2 f0 f1   f0^2  0   )
        ( -g0       0     f0^2 )

    into f0^4 * e_i.  `verify` re-expands every combination literally.
    """

    __slots__ = ("data", "solutions")  # solutions: 3 triples of BinForm

    def columns(self) -> BinMatrix:
        f0, f1, g0 = self.data.f0, self.data.f1, self.data.g0
        f02, zero = f0 * f0, BinForm.zero(self.data.field)
        return [[f02, zero, zero], [(f0 * f1).scale(2), f02, zero], [-g0, zero, f02]]

    def verify(self) -> bool:
        columns = self.columns()
        f04 = columns[0][0] * columns[0][0]  # (f0^2)^2
        zero = BinForm.zero(self.data.field)
        prod = mat_mul(columns, [list(row) for row in zip(*self.solutions)])
        return all(
            prod[r][i] == (f04 if r == i else zero) for r in range(3) for i in range(3)
        )


def lifting_annihilator(data: SigmaTwoData) -> LiftingCertificate:
    """The solutions of M x = f0^4 e_i, in closed form.

    M = f0^2 I + N, where N is nonzero only below the diagonal of column 0,
    so N^2 = 0 and M (f0^2 I - N) = f0^4 I: the columns of f0^2 I - N,
    (f0^2, -2 f0 f1, g0), (0, f0^2, 0) and (0, 0, f0^2), are the solutions.
    The certificate is returned as it is built; its `verify` re-expands it.
    """
    if data.f0.is_zero:
        raise SigmaError("f0 must be nonzero for the annihilator")
    f0 = data.f0
    f02, zero = f0 * f0, BinForm.zero(data.field)
    sols = ((f02, (f0 * data.f1).scale(-2), data.g0), (zero, f02, zero), (zero, zero, f02))
    return LiftingCertificate(data, sols)


# ---------------------------------------------------------------------------
# the three exceptional families
# ---------------------------------------------------------------------------

EXAMPLE_KEYS = ((1, 1, 15, 5), (1, 2, 12, 4), (2, 2, 20, 6))


def example_data(key: Tuple[int, int, int, int]) -> SigmaTwoData:
    """Rebuild the exceptional family with invariants (alpha, theta, K^2, p_g) over QQ.

    Affine shorthand is homogenized once and for all: the degree-2 factor
    "t0 - 2" becomes t0 - 2*t1.
    """
    if key not in EXAMPLE_KEYS:
        raise ValueError(f"unknown example {key}; choose one of {EXAMPLE_KEYS}")
    alpha, theta, k2, pg = key
    t0, t1 = BinForm.t0(QQ), BinForm.t1(QQ)
    f0 = t0 if alpha == 1 else t0 * (t0 - t1.scale(2))
    exp = (pg + 2) // alpha
    if alpha * exp != pg + 2:
        raise AssertionError(f"alpha = {alpha} does not divide p_g + 2 = {pg + 2}")
    return SigmaTwoData(
        pg=pg,
        theta=theta,
        alpha=alpha,
        f0=f0,
        f1=t1**(alpha + 2),
        g0=t1**(pg + alpha),
        g1=f0**(exp + 1),
        g2=BinForm.zero(QQ),
    )


def _branch_cubic(data: SigmaTwoData) -> YPoly:
    """The displayed branch numerator for the exceptional families.

    E = f0 * (t1^(T-a) y1^2 - y0 y2) * (f0 y1 - 2 t1^(p_g-2) y2) - 4 f0^2 y0 y1 y2,
    each displayed factor built as it is written, the products expanded in the ring.
    """
    field = data.field
    t1 = BinForm.t1(field)
    first = YPoly(field, {(0, 2, 0): t1 ** (data.theta - data.alpha), (1, 0, 1): -BinForm.one(field)})
    second = YPoly(field, {(0, 1, 0): data.f0, (0, 0, 1): (t1 ** (data.pg - 2)).scale(-2)})
    corr = YPoly(field, {(1, 1, 1): (data.f0 * data.f0).scale(4)})
    return (first * second).scale(data.f0) - corr


def example_verify(key: Tuple[int, int, int, int]) -> dict:
    """One family's entry of the `example` document: every displayed identity recomputed.

    (a) cleared congruence: f1^3 * E == (sum b_i y_i) * Q modulo f0^4, where
        b0 = -2 f0 F030, b1 = f1 F030, b2 = -2 g0 (F030 / f0) are the
        denominators-cleared coefficients;
    (b) the y0*y1*y2 coefficient of E is exactly -5 f0^2;
    (c) the restriction to the section (y2 = 0, y1 = -f0/f1 * y0, cleared)
        equals t1^(theta-alpha) * f0 up to a unit and has exactly theta
        distinct roots.
    When f0^2 does not divide F030, the checks on its cofactor and (a) read
    False, and (b), (c) and the tau checks still run.  The entry holds
    (alpha, theta, K2, p_g), each check's bool in a fixed order, each detail
    as the str that `example` prints, and whether every check passed.
    """
    data = example_data(key)
    checks: Dict[str, bool] = {}
    details: Dict[str, object] = {"split_type": validate_sigma2(data)}

    f0, f1, g0 = data.f0, data.f1, data.g0
    field = data.field
    t1 = BinForm.t1(field)
    f04 = f0 ** 4
    if f0.t1_multiplicity() != 0:
        raise AssertionError("chart t1=1 reduction requires t1 coprime to f0")

    E = _branch_cubic(data)
    F030 = E.coefficient((0, 3, 0))
    f02 = f0 * f0
    h = _quotient(F030, f02)  # F030 / f0^2, or None when f0^2 does not divide it
    checks["F030-divisible-by-f0^2"] = h is not None and not F030.is_zero
    checks["F030-cofactor-degree"] = checks["congruence-mod-f0^4"] = False  # unless h exists
    if h is not None:
        details["F030_cofactor_degree"] = h.degree  # theta - alpha, in {0, 1}
        checks["F030-cofactor-degree"] = h.degree == data.theta - data.alpha

        # (a) cleared congruence mod f0^4
        Q = q_relation(data)
        b0 = (f0 * F030).scale(-2)
        b1 = f1 * F030
        b2 = (g0 * divexact(F030, f0)).scale(-2)
        rhs = YPoly.from_linear(b0, b1, b2) * Q
        diff = E.scale(f1 ** 3) - rhs
        checks["congruence-mod-f0^4"] = all(divides(f04, c) for c in diff.terms.values())

    # (b) the F111 coefficient
    F111 = E.coefficient((1, 1, 1))
    checks["F111-is-minus-5-f0^2"] = F111 == f02.scale(-5)
    details["F111"] = format_binform(F111)

    # (c) restriction to the section, cleared of the f1^3 y0^3 unit
    restricted = E.substitute(f1, -f0, BinForm.zero(field))
    cleared = _quotient(restricted, f04)
    checks["restriction-divisible-by-f0^4"] = cleared is not None
    if cleared is not None:
        expected = t1 ** (data.theta - data.alpha) * f0
        checks["restriction-shape"] = cleared.proportional_to(expected)
        nroots = count_distinct_roots(cleared)
        details["restriction_distinct_roots"] = nroots
        checks["restriction-root-count"] = nroots == data.theta
    else:
        checks["restriction-shape"] = False
        checks["restriction-root-count"] = False

    # determinant divisor: t1^(p_g + 2 alpha + 2) - f0^((p_g+2)/alpha + 2)
    tau = tau_of(data)
    exp = (data.pg + 2) // data.alpha + 2
    expected_tau = t1 ** (data.pg + 2 * data.alpha + 2) - f0 ** exp
    checks["tau-shape"] = tau == expected_tau or tau == -expected_tau
    checks["tau-degree"] = tau.degree == 2 * data.pg + data.theta - 2
    details["tau"] = format_binform(tau)

    alpha, theta, k2, pg = key
    return {"alpha": alpha, "theta": theta, "K2": k2, "p_g": pg, "checks": checks,
            "details": {k: str(v) for k, v in details.items()}, "passed": all(checks.values())}


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------


def random_sigma_data(field: FieldSpec, rng) -> SigmaTwoData:
    """Random data accepted by `validate_sigma2` and `tau_of`.

    (p_g, theta, alpha) is drawn from the feasible region, with p_g <= 12
    when alpha = 0, and every slot uniformly over F_p (over QQ, with integer
    coefficients in [-9, 9]).  A draw is redrawn exactly when
    `validate_sigma2` or `tau_of` raises SigmaError: f0 = f1 = 0,
    gcd(f0, f1) != 1 or det sigma_2 = 0, all non-generic.  Their
    AssertionErrors, a library fault, propagate.
    """
    for _ in range(1000):
        th = rng.randint(0, 6)
        a = rng.choice([0] + [x for x in range(1, th + 1) if 2 * x - th + 4 >= 2])
        p = rng.randint(2, 12 if a == 0 else 2 * a - th + 4)
        forms = {k: random_binform(field, d, rng) for k, d in degree_slots(p, th, a).items()}
        data = SigmaTwoData(pg=p, theta=th, alpha=a, **forms)
        try:
            validate_sigma2(data)
            tau_of(data)
        except SigmaError:
            continue
        return data
    raise RuntimeError("failed to draw valid data after 1000 attempts")
