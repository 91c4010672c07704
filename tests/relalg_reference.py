"""Package code as it stood before the packed matrix product, kept as test references.

`mat_mul` is the matrix product as one BinForm product and one BinForm sum
per term, in k order.  `s6prime_rows`, `relation_matrix` and `columns` (the
body of `LiftingCertificate.columns`, taking the certificate) build every
product they need anew, each of f0^2, f0 f1 and f1^2 several times.
`lifting_annihilator` solves for the f0^4 certificate by back-substitution,
one exact division by f0^2 per step.  `canpencil.relalg` must match them;
the oracle tests in test_relalg.py compare the two.
"""

from canpencil.binform import BinForm, divexact
from canpencil.relalg import LiftingCertificate, SigmaError

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
