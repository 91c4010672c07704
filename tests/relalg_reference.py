"""Package code as it stood before the packed matrix product, kept as test references.

`mat_mul` is the matrix product as one BinForm product and one BinForm sum
per term, in k order.  `s6prime_rows`, `relation_matrix` and `columns` (the
body of `LiftingCertificate.columns`, taking the certificate) build every
product they need anew, each of f0^2, f0 f1 and f1^2 several times.
`lifting_annihilator` solves for the f0^4 certificate by back-substitution,
one exact division by f0^2 per step.

`example_verify` is the exceptional-family check as it stood before its
factors became literals: `_branch_cubic` multiplies unit variables
(`variable`, once `YPoly.variable`), `substitute` (once
`YPoly.substitute`) multiplies every power of every term, and f0^2 and
f0^4 divide F030 and the restriction twice, once in `divides` and once in
`divexact`.  `canpencil.relalg` must match them; the oracle tests in
test_relalg.py compare the two.
"""

from typing import Dict

from canpencil.binform import BinForm, count_distinct_roots, divexact, divides, format_binform
from canpencil.relalg import (
    LiftingCertificate,
    SigmaError,
    YPoly,
    example_data,
    q_relation,
    tau_of,
    validate_sigma2,
)

BinMatrix = list


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


def s6prime_rows(f0: BinForm, f1: BinForm) -> tuple:
    field = f0.field
    zero = BinForm.zero(field)
    three = BinForm.constant(field, 3)
    m2 = BinForm.constant(field, -2)
    row0 = (three * f1 * f1, m2 * f0 * f1, f0 * f0, zero)
    row1 = (zero, f1 * f1, m2 * f0 * f1, three * f0 * f0)
    return (row0, row1)


def relation_matrix(f0: BinForm, f1: BinForm) -> BinMatrix:
    field = f0.field
    zero = BinForm.zero(field)
    two = BinForm.constant(field, 2)
    return [
        [f0 * f0, zero],
        [two * f0 * f1, f0 * f0],
        [f1 * f1, two * f0 * f1],
        [zero, f1 * f1],
    ]


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


def lifting_annihilator(data):
    """Solve M x = f0^4 e_i for each i by back-substitution.

    The matrix is lower triangular with diagonal f0^2, so each step is one
    exact division by f0^2; failure of any division would signal corrupt
    data and raises.  Step i of solve i divides f0^4 itself, since the
    entries above it are zero, so f0^4 / f0^2 is computed once for all three.
    """
    if data.f0.is_zero:
        raise SigmaError("f0 must be nonzero for the annihilator")
    f0, f1, g0 = data.f0, data.f1, data.g0
    f02 = f0 * f0
    f04 = f02 * f02
    diag = divexact(f04, f02)
    two_f01 = (f0 * f1).scale(2)
    zero = BinForm.zero(data.field)
    sols = []
    for i in range(3):
        rhs = [f04 if r == i else zero for r in range(3)]
        x0 = diag if i == 0 else divexact(rhs[0], f02)
        x1 = diag if i == 1 else divexact(rhs[1] - two_f01 * x0, f02)
        x2 = diag if i == 2 else divexact(rhs[2] + g0 * x0, f02)
        sols.append((x0, x1, x2))
    cert = LiftingCertificate(data, tuple(sols))
    if not cert.verify():
        raise SigmaError("annihilator certificate failed to verify")  # arithmetic bug
    return cert


def variable(field, index: int) -> YPoly:
    """The coordinate y_index as a `YPoly`."""
    exps = [0, 0, 0]
    exps[index] = 1
    return YPoly(field, {tuple(exps): BinForm.one(field)})


def substitute(poly: YPoly, y0: BinForm, y1: BinForm, y2: BinForm) -> BinForm:
    total = BinForm.zero(poly.field)
    for (e0, e1, e2), coeff in poly.terms.items():
        total = total + coeff * y0**e0 * y1**e1 * y2**e2
    return total


def _branch_cubic(data) -> YPoly:
    field = data.field
    t1 = BinForm.t1(field)
    y0 = variable(field, 0)
    y1 = variable(field, 1)
    y2 = variable(field, 2)
    first = (y1 * y1).scale(t1 ** (data.theta - data.alpha)) - y0 * y2
    second = y1.scale(data.f0) - y2.scale((t1 ** (data.pg - 2)).scale(2))
    cubic = (first * second).scale(data.f0)
    corr = (y0 * y1 * y2).scale((data.f0 * data.f0).scale(4))
    return cubic - corr


def example_verify(key) -> dict:
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
    checks["F030-divisible-by-f0^2"] = divides(f02, F030) and not F030.is_zero
    h = divexact(F030, f02)
    details["F030_cofactor_degree"] = h.degree
    checks["F030-cofactor-degree"] = h.degree == data.theta - data.alpha

    Q = q_relation(data)
    b0 = (f0 * F030).scale(-2)
    b1 = f1 * F030
    b2 = (g0 * divexact(F030, f0)).scale(-2)
    rhs = YPoly.from_linear(b0, b1, b2) * Q
    diff = E.scale(f1 ** 3) - rhs
    checks["congruence-mod-f0^4"] = all(divides(f04, c) for c in diff.terms.values())

    F111 = E.coefficient((1, 1, 1))
    checks["F111-is-minus-5-f0^2"] = F111 == f02.scale(-5)
    details["F111"] = format_binform(F111)

    restricted = substitute(E, f1, -f0, BinForm.zero(field))
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

    tau = tau_of(data)
    exp = (data.pg + 2) // data.alpha + 2
    expected_tau = t1 ** (data.pg + 2 * data.alpha + 2) - f0 ** exp
    checks["tau-shape"] = tau == expected_tau or tau == -expected_tau
    checks["tau-degree"] = tau.degree == 2 * data.pg + data.theta - 2
    details["tau"] = format_binform(tau)

    alpha, theta, k2, pg = key
    return {"alpha": alpha, "theta": theta, "K2": k2, "p_g": pg, "checks": checks,
            "details": {k: str(v) for k, v in details.items()}, "passed": all(checks.values())}
