"""The bidouble branch table and invariants as they stood before the integer forms.

Kept verbatim as the reference that `canpencil.family.bidouble_branch_data`
and `bidouble_invariants` must match (see the oracle tests in
test_family.py): all seven `BranchData` rows are built and validated on
every call, and chi is summed in `Fraction`s.  The one edit: the branch
classes are read as `d1, d2, d3`, since `BranchData.divisors()` is gone.
"""

from fractions import Fraction
from typing import Tuple

from canpencil.family import BranchData


def bidouble_branch_data(theta: int, pg: int) -> BranchData:
    """Branch triple realizing (K^2, chi) = (4p_g - 6 + theta, p_g + 1).

    Rows 0..4 are the classified table; theta = 5 is the explicit extra
    construction on F_1; theta = 6 extends the same pattern on the quadric
    and matches the externally known bidouble covers there, so it is
    labeled as an external-source row.  Every row is cross-validated by
    `bidouble_invariants` against the intersection-theory invariants.
    """
    if not 0 <= theta <= 6:
        raise ValueError("theta must lie in [0, 6]")
    if pg < 2:
        raise ValueError("p_g >= 2 required")
    rows = {
        0: BranchData(2, (1, 2 * pg), (3, 6), (1, 0)),
        1: BranchData(1, (1, 2 * pg), (3, 4), (1, 0)),
        2: BranchData(0, (1, 2 * pg), (3, 2), (1, 0)),
        3: BranchData(1, (1, 2 * pg + 1), (3, 3), (1, 1)),
        4: BranchData(2, (1, 2 * pg + 2), (3, 4), (1, 2)),
        5: BranchData(1, (1, 2 * pg + 2), (3, 2), (1, 2), source="explicit construction"),
        6: BranchData(0, (1, 2 * pg + 2), (3, 0), (1, 2), source="external-source row"),
    }
    return rows[theta]


def _hirzebruch_product(r: int, a: Tuple[int, int], b: Tuple[int, int]) -> int:
    # (u1 Ginf + v1 G) . (u2 Ginf + v2 G) with Ginf^2 = -r, Ginf.G = 1, G^2 = 0
    return -r * a[0] * b[0] + a[0] * b[1] + a[1] * b[0]


def bidouble_invariants(data: BranchData) -> dict:
    """Invariants of the smooth bidouble cover with the given branch triple.

    K^2 = (2K_Y + D1 + D2 + D3)^2 and
    chi = 4*chi(O_Y) + (1/2) * sum_i L_i.(L_i + K_Y) with 2L_i = D_j + D_k.
    These are the standard smooth-bidouble formulas; the package treats
    them as self-verifying through the cross-check against the
    intersection-theory invariants rather than as trusted inputs.
    """
    r = data.base_r
    ky = (-2, -(r + 2))
    d1, d2, d3 = data.d1, data.d2, data.d3
    total = (2 * ky[0] + d1[0] + d2[0] + d3[0], 2 * ky[1] + d1[1] + d2[1] + d3[1])
    k2 = _hirzebruch_product(r, total, total)
    chi = Fraction(4)  # 4 * chi(O) of a Hirzebruch surface
    for dj, dk in ((d2, d3), (d1, d3), (d1, d2)):
        s = (dj[0] + dk[0], dj[1] + dk[1])
        if s[0] % 2 or s[1] % 2:
            raise ValueError(f"branch pair sum {s} is not 2-divisible; no square root exists")
        li = (s[0] // 2, s[1] // 2)
        li_plus_k = (li[0] + ky[0], li[1] + ky[1])
        chi += Fraction(_hirzebruch_product(r, li, li_plus_k), 2)
    if chi.denominator != 1:
        raise AssertionError("chi of a bidouble cover must be integral")
    return {"K2": k2, "chi": int(chi)}
