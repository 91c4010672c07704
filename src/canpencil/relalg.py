"""The conic-bundle layer: multiplication-map data, tau, and the degree-6 sheaf.

This module works with the matrix of the multiplication map from the
symmetric square of the rank-2 piece into the rank-3 piece of the algebra,
normalized so its third column is (0, 0, 1):

        ( g0  f0  0 )
        ( g1  f1  0 )          deg f0 = alpha,  gcd(f0, f1) = 1.
        ( g2  0   1 )

Everything downstream of that matrix is symbolic and exact: the
determinant divisor tau, the conic relation in the three bundle
coordinates (y0, y1, y2) (a `YPoly`, whose ring operations are the shared
`sections.SparsePoly` ones), the rank-2 quotient acting on cubics, the
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

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .binform import (
    BinForm,
    count_distinct_roots,
    divexact,
    divides,
    format_binform,
    gcd,
    random_binform,
)
from .fields import QQ, FieldSpec
from .sections import SparsePoly


class SigmaError(ValueError):
    pass


# ---------------------------------------------------------------------------
# polynomials in (y0, y1, y2) with binary-form coefficients
# ---------------------------------------------------------------------------


class YPoly(SparsePoly):
    """Sparse polynomial in the three rank-3 coordinates y0, y1, y2, keyed by exponents."""

    __slots__ = ()

    @staticmethod
    def variable(field: FieldSpec, index: int) -> "YPoly":
        exps = [0, 0, 0]
        exps[index] = 1
        return YPoly(field, {tuple(exps): BinForm.one(field)})

    @staticmethod
    def from_linear(c0: BinForm, c1: BinForm, c2: BinForm) -> "YPoly":
        field = c0.field
        return YPoly(field, {(1, 0, 0): c0, (0, 1, 0): c1, (0, 0, 1): c2})

    def substitute(self, y0: BinForm, y1: BinForm, y2: BinForm) -> BinForm:
        """Evaluate at binary-form values of the three coordinates."""
        total = BinForm.zero(self.field)
        for (e0, e1, e2), coeff in self.terms.items():
            total = total + coeff * y0**e0 * y1**e1 * y2**e2
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
    rows, inner, cols = len(a), len(b), len(b[0])
    if not all(len(r) == inner for r in a):
        raise AssertionError("matrix shapes do not chain")
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = BinForm.zero(a[i][0].field)
            for k in range(inner):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_is_zero(a: BinMatrix) -> bool:
    return all(c.is_zero for row in a for c in row)


# ---------------------------------------------------------------------------
# the multiplication-map data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmaTwoData:
    pg: int
    theta: int
    alpha: int
    f0: BinForm
    f1: BinForm
    g0: BinForm
    g1: BinForm
    g2: BinForm

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


@dataclass(frozen=True)
class SplitType:
    """Splitting degrees (d0, d1, d2) of the rank-3 bundle."""

    d0: int
    d1: int
    d2: int

    @staticmethod
    def from_params(pg: int, theta: int, alpha: int) -> "SplitType":
        st = SplitType(pg + 2 + alpha, 2 * pg + theta - alpha, 2 * pg + 2)
        if st.d0 + st.d1 + st.d2 != 5 * pg + theta + 4:
            raise AssertionError(f"splitting degrees {st} do not sum to 5 p_g + theta + 4")
        return st

    @property
    def twists(self) -> Tuple[int, int, int]:
        return (self.d0, self.d1, self.d2)


def alpha_feasible(pg: int, theta: int, alpha: int) -> bool:
    """Which (p_g, theta, alpha) admit valid data.

    alpha = 0 always does; a positive alpha needs 1 <= alpha <= theta and
    p_g <= 2*alpha - theta + 4.  In particular theta = 0 forces alpha = 0,
    and p_g > theta + 4 does as well.
    """
    if alpha == 0:
        return True
    return 1 <= alpha <= theta and pg <= 2 * alpha - theta + 4


def validate_sigma2(data: SigmaTwoData) -> SplitType:
    """Full consistency check; returns the splitting type.

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
    return SplitType.from_params(pg, th, a)


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
    y2 = YPoly.variable(data.field, 2)
    rel = lin_f * lin_f - y2 * lin_g
    # bihomogeneity against the splitting twists, with offset -(2 p_g + 4)
    st = SplitType.from_params(data.pg, data.theta, data.alpha)
    offset = rel.twist_offset(st.twists)
    if offset is not None and offset != -(2 * data.pg + 4):
        raise AssertionError(f"relation twist offset {offset} != {-(2 * data.pg + 4)}")
    return rel


@dataclass(frozen=True)
class S6Prime:
    """The rank-2 quotient of cubics in (y0, y1) and its summand degrees."""

    matrix: tuple  # 2 x 4 of BinForm, acting on (y0^3, y0^2 y1, y0 y1^2, y1^3)
    summand_degrees: Tuple[int, int]


def s6prime_rows(f0: BinForm, f1: BinForm) -> tuple:
    """The bare 2x4 surjection matrix onto the rank-2 quotient of cubics.

        ( 3 f1^2   -2 f0 f1    f0^2      0     )
        ( 0         f1^2      -2 f0 f1   3 f0^2 )
    """
    field = f0.field
    zero = BinForm.zero(field)
    three = BinForm.constant(field, 3)
    m2 = BinForm.constant(field, -2)
    row0 = (three * f1 * f1, m2 * f0 * f1, f0 * f0, zero)
    row1 = (zero, f1 * f1, m2 * f0 * f1, three * f0 * f0)
    return (row0, row1)


def s6prime_matrix(data: SigmaTwoData) -> S6Prime:
    """The surjection matrix together with the two summand degrees
    5p_g + 2T + alpha + 2 and 6p_g + 3T - alpha."""
    degs = (
        5 * data.pg + 2 * data.theta + data.alpha + 2,
        6 * data.pg + 3 * data.theta - data.alpha,
    )
    return S6Prime(s6prime_rows(data.f0, data.f1), degs)


def relation_matrix(f0: BinForm, f1: BinForm) -> BinMatrix:
    """The 4x2 matrix whose image the s6prime matrix must annihilate.

    Columns are (f0 y0 + f1 y1)^2 * y0 and (f0 y0 + f1 y1)^2 * y1 written in
    the cubic monomial basis (y0^3, y0^2 y1, y0 y1^2, y1^3).
    """
    field = f0.field
    zero = BinForm.zero(field)
    two = BinForm.constant(field, 2)
    return [
        [f0 * f0, zero],
        [two * f0 * f1, f0 * f0],
        [f1 * f1, two * f0 * f1],
        [zero, f1 * f1],
    ]


# ---------------------------------------------------------------------------
# the f0^4 annihilator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftingCertificate:
    """Explicit witnesses that f0^4 annihilates the obstruction cokernel.

    For each standard basis vector e_i the triple `solutions[i]` combines the
    columns of

        ( f0^2      0     0   )
        ( 2 f0 f1   f0^2  0   )
        ( -g0       0     f0^2 )

    into f0^4 * e_i.  `verify` re-expands every combination literally.
    """

    data: SigmaTwoData
    solutions: tuple  # 3 triples of BinForm

    def columns(self) -> BinMatrix:
        f0, f1, g0 = self.data.f0, self.data.f1, self.data.g0
        field = self.data.field
        zero = BinForm.zero(field)
        two = BinForm.constant(field, 2)
        return [
            [f0 * f0, zero, zero],
            [two * f0 * f1, f0 * f0, zero],
            [-g0, zero, f0 * f0],
        ]

    def verify(self) -> bool:
        f04 = self.data.f0 ** 4
        zero = BinForm.zero(self.data.field)
        prod = mat_mul(self.columns(), [list(row) for row in zip(*self.solutions)])
        return all(
            prod[r][i] == (f04 if r == i else zero) for r in range(3) for i in range(3)
        )


def lifting_annihilator(data: SigmaTwoData) -> LiftingCertificate:
    """Solve M x = f0^4 e_i for each i by back-substitution.

    The matrix is lower triangular with diagonal f0^2, so each step is one
    exact division by f0^2; failure of any division would signal corrupt
    data and raises.
    """
    if data.f0.is_zero:
        raise SigmaError("f0 must be nonzero for the annihilator")
    f0, f1, g0 = data.f0, data.f1, data.g0
    field = data.field
    f02 = f0 * f0
    f04 = f02 * f02
    two = BinForm.constant(field, 2)
    zero = BinForm.zero(field)
    sols = []
    for i in range(3):
        rhs = [f04 if r == i else zero for r in range(3)]
        x0 = divexact(rhs[0], f02)
        x1 = divexact(rhs[1] - two * f0 * f1 * x0, f02)
        x2 = divexact(rhs[2] + g0 * x0, f02)
        sols.append((x0, x1, x2))
    cert = LiftingCertificate(data, tuple(sols))
    if not cert.verify():
        raise SigmaError("annihilator certificate failed to verify")  # arithmetic bug
    return cert


# ---------------------------------------------------------------------------
# the induced map on the rank-2 quotient
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeltaRestriction:
    """The pair representing the branch map on the rank-2 quotient.

    ``entries = (F120/f0^2, 3 F030/f0^2 - 2 f1 F120/f0^3)``.  A zero pair is
    flagged: the branch curve cannot contain the section, so the map must
    be nonzero for data coming from an actual surface.
    """

    entries: Tuple[BinForm, BinForm]

    @property
    def is_zero_map(self) -> bool:
        return all(e.is_zero for e in self.entries)


def delta_on_s6prime(F120: BinForm, F030: BinForm, data: SigmaTwoData) -> DeltaRestriction:
    f0 = data.f0
    f02 = f0 * f0
    f03 = f02 * f0
    if not divides(f02, F120):
        raise SigmaError("f0^2 does not divide F120")
    first = divexact(F120, f02)
    three = BinForm.constant(data.field, 3)
    two = BinForm.constant(data.field, 2)
    cleared = three * F030 * f0 - two * data.f1 * F120
    if not divides(f03, cleared):
        raise SigmaError("3*F030/f0^2 - 2*f1*F120/f0^3 is not a polynomial")
    second = divexact(cleared, f03)
    return DeltaRestriction((first, second))


def s_algebra_degrees(deg_s1: int, tau_prime: BinForm, d_max: int) -> List[int]:
    """Degrees of the graded pieces: deg S_d = d*deg S_1 + floor(d/2)*deg tau'.

    The zero form counts as the empty divisor of degree 0.
    """
    if d_max < 1:
        raise ValueError("d_max >= 1 required")
    dt = 0 if tau_prime.is_zero else tau_prime.degree
    return [d * deg_s1 + (d // 2) * dt for d in range(1, d_max + 1)]


# ---------------------------------------------------------------------------
# the slope bound with the correction term
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XiaoVerdict:
    satisfied: bool
    margin: int
    forced_equality_broken: bool
    message: str


def xiao_bound(k2: int, chi: int, q: int, deg_tau: int, deg_tau_prime: int) -> XiaoVerdict:
    """K^2 >= 4*chi + 6q - 10 + 3*deg(tau - tau'), with the low-K^2 corollary.

    Inputs must be consistent: deg tau = K^2 - 2*chi + 6 and
    0 <= deg tau' <= deg tau.  When K^2 <= 4*chi - 8 the bound forces
    q = 0 and tau = tau'; a violation of that clause is flagged.
    """
    if deg_tau != k2 - 2 * chi + 6:
        raise ValueError(f"deg tau must equal K^2 - 2*chi + 6 = {k2 - 2 * chi + 6}")
    if not 0 <= deg_tau_prime <= deg_tau:
        raise ValueError("need 0 <= deg tau' <= deg tau")
    if q not in (0, 1):
        raise ValueError("q must be 0 or 1")
    rhs = 4 * chi + 6 * q - 10 + 3 * (deg_tau - deg_tau_prime)
    margin = k2 - rhs
    forced = k2 <= 4 * chi - 8 and (q != 0 or deg_tau_prime != deg_tau)
    msg = "satisfied" if margin >= 0 else "violated"
    if forced:
        msg += "; K^2 <= 4*chi - 8 forces q = 0 and tau = tau', which fails here"
    return XiaoVerdict(margin >= 0, margin, forced, msg)


# ---------------------------------------------------------------------------
# the three exceptional families
# ---------------------------------------------------------------------------

EXAMPLE_KEYS = ((1, 1, 15, 5), (1, 2, 12, 4), (2, 2, 20, 6))


def example_data(key: Tuple[int, int, int, int], field: FieldSpec = QQ) -> SigmaTwoData:
    """Rebuild the exceptional family with invariants (alpha, theta, K^2, p_g).

    Affine shorthand is homogenized once and for all: the degree-2 factor
    "t0 - 2" becomes t0 - 2*t1.
    """
    if key not in EXAMPLE_KEYS:
        raise ValueError(f"unknown example {key}; choose one of {EXAMPLE_KEYS}")
    alpha, theta, k2, pg = key
    t0 = BinForm.t0(field)
    t1 = BinForm.t1(field)
    if alpha == 1:
        f0 = t0
    else:
        f0 = t0 * (t0 - t1.scale(2))
    exp = (pg + 2) // alpha
    if alpha * exp != pg + 2:
        raise AssertionError(f"alpha = {alpha} does not divide p_g + 2 = {pg + 2}")
    data = SigmaTwoData(
        pg=pg,
        theta=theta,
        alpha=alpha,
        f0=f0,
        f1=t1**(alpha + 2),
        g0=t1**(pg + alpha),
        g1=f0**(exp + 1),
        g2=BinForm.zero(field),
    )
    return data


@dataclass(frozen=True)
class ExampleReport:
    key: Tuple[int, int, int, int]
    checks: Dict[str, bool]
    details: Dict[str, object]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def _branch_cubic(data: SigmaTwoData) -> YPoly:
    """The displayed branch numerator for the exceptional families.

    E = f0 * (t1^(T-a) y1^2 - y0 y2) * (f0 y1 - 2 t1^(p_g-2) y2) - 4 f0^2 y0 y1 y2.
    """
    field = data.field
    t1 = BinForm.t1(field)
    y0 = YPoly.variable(field, 0)
    y1 = YPoly.variable(field, 1)
    y2 = YPoly.variable(field, 2)
    first = (y1 * y1).scale(t1 ** (data.theta - data.alpha)) - y0 * y2
    second = y1.scale(data.f0) - y2.scale((t1 ** (data.pg - 2)).scale(2))
    cubic = (first * second).scale(data.f0)
    corr = (y0 * y1 * y2).scale((data.f0 * data.f0).scale(4))
    return cubic - corr


def _ypoly_divisible(poly: YPoly, divisor: BinForm) -> bool:
    return all(divides(divisor, c) for c in poly.terms.values())


def example_verify(key: Tuple[int, int, int, int], field: FieldSpec = QQ) -> ExampleReport:
    """Recompute and check every displayed identity of one exceptional family.

    (a) cleared congruence: f1^3 * E == (sum b_i y_i) * Q modulo f0^4, where
        b0 = -2 f0 F030, b1 = f1 F030, b2 = -2 g0 (F030 / f0) are the
        denominators-cleared coefficients;
    (b) the y0*y1*y2 coefficient of E is exactly -5 f0^2;
    (c) the restriction to the section (y2 = 0, y1 = -f0/f1 * y0, cleared)
        equals t1^(theta-alpha) * f0 up to a unit and has exactly theta
        distinct roots.
    """
    data = example_data(key, field)
    split = validate_sigma2(data)
    checks: Dict[str, bool] = {}
    details: Dict[str, object] = {"split_type": split.twists}

    f0, f1, g0 = data.f0, data.f1, data.g0
    field = data.field
    t1 = BinForm.t1(field)
    f04 = f0 ** 4
    if f0.t1_multiplicity() != 0:
        raise AssertionError("chart t1=1 reduction requires t1 coprime to f0")

    E = _branch_cubic(data)
    F030 = E.coefficient((0, 3, 0))
    f02 = f0 * f0
    checks["F030-divisible-by-f0^2"] = divides(f02, F030) and not F030.is_zero
    h = divexact(F030, f02)
    details["F030_cofactor_degree"] = h.degree  # theta - alpha, in {0, 1}
    checks["F030-cofactor-degree"] = h.degree == data.theta - data.alpha

    # (a) cleared congruence mod f0^4
    Q = q_relation(data)
    b0 = (f0 * F030).scale(-2)
    b1 = f1 * F030
    b2 = (g0 * divexact(F030, f0)).scale(-2)
    rhs = YPoly.from_linear(b0, b1, b2) * Q
    diff = E.scale(f1 ** 3) - rhs
    checks["congruence-mod-f0^4"] = _ypoly_divisible(diff, f04)

    # (b) the F111 coefficient
    F111 = E.coefficient((1, 1, 1))
    checks["F111-is-minus-5-f0^2"] = F111 == f02.scale(-5)
    details["F111"] = format_binform(F111)

    # (c) restriction to the section, cleared of the f1^3 y0^3 unit
    restricted = E.substitute(f1, -f0, BinForm.zero(field))
    checks["restriction-divisible-by-f0^4"] = divides(f04, restricted)
    if checks["restriction-divisible-by-f0^4"]:
        cleared = divexact(restricted, f04)
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

    return ExampleReport(key, checks, details)


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
