"""Construction and analysis of the classified families.

Covers the coefficient degree tables, seeded random members and their
equation files, the bidouble-cover branch data over Hirzebruch surfaces,
and the genus feasibility filter driven by the classical numeric
inequalities.
"""

from __future__ import annotations

import json
import warnings
from random import Random
from typing import List, Tuple

from .binform import BinForm, random_binform, random_split_squarefree
from .chow import CLASS_Q, class_G, surface_invariants
from .fields import FieldSpec, Record, _setattr, json_int
from .sections import (
    _X0SQ,
    _X1SQ,
    _Y,
    _ZSQ,
    BRANCH_MONOMIALS,
    MEMBER_MONOMIALS,
    BundleData,
    FiberMonomial,
    GradedSection,
    section_terms_from_dict,
    section_terms_to_dict,
    slot_degree,
)


#: largest p_g of a member with equations, checked before any draw or scan.
#: The node census of a QQ member is quadratic in deg q_y = 2 p_g - 2 + theta
#: (the row products of each squaring, and the gcd): in-process `census
#: --prime 35027 --skip-sweep` of the seed-1, theta-0 member took 0.05 s at
#: p_g = 200, 0.78 s at 800 and 1.1 s at 1000, and the theta-6 member 2.7 s at
#: p = 2^31 - 1 (CPython 3.11.7, shared 2-core host), while `generate` took
#: 0.03 s.
#: The closed forms (`invariants`, `degrees`, `bidouble`) are not bounded.
PG_MAX = 1000


def _member_bundle(pg: int, theta: int) -> BundleData:
    """`BundleData(pg, theta)` for a member with equations, refusing p_g above PG_MAX."""
    bundle = BundleData(pg, theta)
    if pg > PG_MAX:
        raise ValueError(f"p_g must be at most {PG_MAX} for a family member, got {pg}")
    return bundle


# ---------------------------------------------------------------------------
# degree tables
# ---------------------------------------------------------------------------


class DegreeTable(Record):
    __slots__ = ("pg", "theta", "q_x", "q_y", "g")  # g: (i, j, k) with i + j + 2k = 6 -> degree

    def g_present(self) -> List[Tuple[int, int, int]]:
        return sorted(s for s, d in self.g.items() if d >= 0)

    def branch_in_y_squared(self) -> bool:
        """True when every branch slot left has k >= 2, so the branch form b lies in (y^2).

        Then z^2 + b and all its partials vanish at y = z = 0, and every
        member is singular along the curve {y = z = 0, x0^2 + q_x x1^2 = 0},
        whatever its seed and prime.  For p_g <= PG_MAX this holds exactly
        when theta >= 5, where G_041 and G_060 are forced to zero (a test
        checks this).
        """
        return all(k >= 2 for _, _, k in self.g_present())

    def to_json_dict(self) -> dict:
        return {
            "p_g": self.pg,
            "theta": self.theta,
            "q_x": self.q_x,
            "q_y": self.q_y,
            "G": {f"G_{i}{j}{k}": d for (i, j, k), d in sorted(self.g.items())},
            "forced_zero": [f"G_{i}{j}{k}" for (i, j, k), d in sorted(self.g.items()) if d < 0],
        }


def degree_table(pg: int, theta: int) -> DegreeTable:
    """The slot degrees of a member: q_x, q_y and G's at every branch monomial.

    Each is `slot_degree`, m + a(M), with m the F-degree of the class of Q
    or G (Dolgachev, *Weighted projective varieties*, LNM 956, 1982); at
    x0^i x1^j y^k of G that is -i*p_g + (k-2)*theta + 6 - 2k.  A negative
    slot is forced to zero.
    """
    bundle = BundleData(pg, theta)
    q_m, g_m = CLASS_Q.f, class_G(bundle).f
    g = {mono[:3]: slot_degree(bundle, g_m, mono) for mono in BRANCH_MONOMIALS}
    return DegreeTable(pg, theta, slot_degree(bundle, q_m, _X1SQ), slot_degree(bundle, q_m, _Y), g)


# ---------------------------------------------------------------------------
# surface equations and member generation
# ---------------------------------------------------------------------------


class SurfaceEquations(Record):
    __slots__ = ("bundle", "field", "Q", "G")

    def validate(self) -> "SurfaceEquations":
        """Check the shape, then every term; return self.

        The shape (`_check_shape`) is the x0^2 and z^2 coefficients, the
        bidegrees of Q and G and their allowed monomials.  The per-term pass
        is `GradedSection.validate` on Q and G, for sections built in code;
        `from_json_dict` runs the shape checks alone, because
        `section_terms_from_dict` has already checked each term it read.
        """
        self._check_shape()
        self.Q.validate()
        self.G.validate()
        return self

    def _check_shape(self) -> "SurfaceEquations":
        one = BinForm.one(self.field)
        if self.Q.coefficient(_X0SQ) != one:
            raise ValueError("Q must have x0^2-coefficient exactly 1")
        if self.G.coefficient(_ZSQ) != one:
            raise ValueError("G must have z^2-coefficient exactly 1")
        if self.Q.bidegree != CLASS_Q:
            raise ValueError("Q must live in |2H - 2F|")
        expected_G = class_G(self.bundle)
        if self.G.bidegree != expected_G:
            raise ValueError(f"G must live in |{expected_G}|")
        for name, section in (("Q", self.Q), ("G", self.G)):
            allowed = MEMBER_MONOMIALS[name]
            if not allowed.issuperset(section.terms):
                mono = next(m for m in section.terms if m not in allowed)
                raise ValueError(f"unexpected monomial {mono} in {name}")
        return self

    @property
    def q_x(self) -> BinForm:
        return self.Q.coefficient(_X1SQ)

    @property
    def q_y(self) -> BinForm:
        return self.Q.coefficient(_Y)

    def g_coefficient(self, i: int, j: int, k: int) -> BinForm:
        return self.G.coefficient(FiberMonomial(i, j, k, 0))

    def branch_terms(self):
        """The z-free part of G: the branch data of the double cover."""
        return {m: c for m, c in self.G.terms.items() if m != _ZSQ}

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "p_g": self.bundle.pg,
            "theta": self.bundle.theta,
            "field": self.field.to_json(),
            "Q": section_terms_to_dict(self.Q),
            "G": section_terms_to_dict(self.G),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "SurfaceEquations":
        """Equations from their JSON document; a malformed one is a ValueError."""
        if not isinstance(d, dict):
            raise ValueError(f"an equation file holds a JSON object, not {type(d).__name__}")
        for key in ("p_g", "theta", "field", "Q", "G"):
            if key not in d:
                raise ValueError(f"missing key {key!r}")
        for key in ("field", "Q", "G"):
            if not isinstance(d[key], dict):
                raise ValueError(f"{key!r} must be a JSON object, not {type(d[key]).__name__}")
        for key in ("Q", "G"):
            for mono, coeff in d[key].items():
                if not isinstance(coeff, str):
                    raise ValueError(f"{key!r} coefficient of {mono!r} must be a string, "
                                     f"not {type(coeff).__name__}")
        bundle = _member_bundle(json_int(d["p_g"], "'p_g'"), json_int(d["theta"], "'theta'"))
        field = FieldSpec.from_json(d["field"])
        sections = {}
        for key, bidegree in (("Q", CLASS_Q), ("G", class_G(bundle))):
            try:
                sections[key] = section_terms_from_dict(bundle, field, bidegree, d[key])
            except ValueError as exc:
                raise ValueError(f"{key!r} {exc}") from None
        return SurfaceEquations(bundle, field, sections["Q"], sections["G"])._check_shape()

    @staticmethod
    def load(path: str) -> "SurfaceEquations":
        with open(path) as fh:
            return SurfaceEquations.from_json_dict(json.load(fh))


def generate_member(pg: int, theta: int, field: FieldSpec, seed: int,
                    split_qy: bool = False) -> SurfaceEquations:
    """Random member of the family, a pure function of its arguments.

    (p_g, theta) is checked first, p_g against PG_MAX too, before any draw.
    Coefficients are drawn uniformly over a prime field and as bounded
    integers over the rationals, at the prescribed degrees.  At theta >= 5
    every member is singular along a curve
    (`DegreeTable.branch_in_y_squared`); such offsets are permitted with a
    warning that says so.  `split_qy` forces q_y to be a product of
    distinct rational linear forms, which pins the whole node census inside
    the base field.  A q_y that comes out identically zero (possible
    over a small prime) is redrawn, so every member has a node census.
    """
    bundle = _member_bundle(pg, theta)
    table = degree_table(pg, theta)
    if table.branch_in_y_squared():
        warnings.warn(
            f"theta = {theta}: every member is singular along the curve "
            "y = z = 0, x0^2 + q_x*x1^2 = 0, since every branch slot left has "
            "a factor y^2",
            stacklevel=2,
        )
    rng = Random(seed)
    one = BinForm.one(field)
    if split_qy:
        q_y = random_split_squarefree(field, table.q_y, rng)
    else:
        q_y = random_binform(field, table.q_y, rng)
        while q_y.is_zero:  # no node census exists; deg q_y = 2p_g - 2 + theta >= 2
            q_y = random_binform(field, table.q_y, rng)
    Q = GradedSection(
        bundle,
        field,
        CLASS_Q,
        {_X0SQ: one, _X1SQ: random_binform(field, table.q_x, rng), _Y: q_y},
    )
    g_terms = {_ZSQ: one}
    for mono in BRANCH_MONOMIALS:
        degree = table.g[mono[:3]]
        if degree >= 0:
            g_terms[mono] = random_binform(field, degree, rng)
    G = GradedSection(bundle, field, class_G(bundle), g_terms)
    return SurfaceEquations(bundle, field, Q, G).validate()


# ---------------------------------------------------------------------------
# bidouble covers of Hirzebruch surfaces
# ---------------------------------------------------------------------------


class BranchData(Record):
    """Three branch classes on F_r: pairs (u, v) in the basis (G_inf, G_fib).

    On the quadric (r = 0) the basis is the two rulings.  Each pairwise sum
    D_j + D_k must be even so the square roots L_i exist.
    """

    __slots__ = ("base_r", "d1", "d2", "d3", "source")

    def __init__(self, base_r: int, d1: tuple, d2: tuple, d3: tuple, source: str = "table row"):
        if base_r < 0:
            raise ValueError("Hirzebruch index must be non-negative")
        for d in (d1, d2, d3):
            if d[0] < 0 or d[1] < 0:
                raise ValueError(f"branch class {d} is not effective on F_{base_r}")
        _setattr(self, "base_r", base_r)
        _setattr(self, "d1", d1)
        _setattr(self, "d2", d2)
        _setattr(self, "d3", d3)
        _setattr(self, "source", source)

    @property
    def base_name(self) -> str:
        return "P1xP1" if self.base_r == 0 else f"F{self.base_r}"

#: theta -> (r, D1 offset past 2p_g, D2, D3, source) of the branch triple on F_r
_BRANCH_ROWS = (
    (2, 0, (3, 6), (1, 0), "table row"),
    (1, 0, (3, 4), (1, 0), "table row"),
    (0, 0, (3, 2), (1, 0), "table row"),
    (1, 1, (3, 3), (1, 1), "table row"),
    (2, 2, (3, 4), (1, 2), "table row"),
    (1, 2, (3, 2), (1, 2), "explicit construction"),
    (0, 2, (3, 0), (1, 2), "external-source row"),
)


def bidouble_branch_data(pg: int, theta: int) -> BranchData:
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
    r, d1_offset, d2, d3, source = _BRANCH_ROWS[theta]
    return BranchData(r, (1, 2 * pg + d1_offset), d2, d3, source)


def bidouble_invariants(data: BranchData) -> dict:
    """Invariants of the smooth bidouble cover with the given branch triple.

    K^2 = (2K_Y + D1 + D2 + D3)^2 and
    chi = 4*chi(O_Y) + (1/2) * sum_i L_i.(L_i + K_Y) with 2L_i = D_j + D_k.
    These are the standard smooth-bidouble formulas; the package treats
    them as self-verifying through the cross-check against the
    intersection-theory invariants rather than as trusted inputs.
    Both are summed in ints on the (u, v) components, chi as 2*chi, which
    must come out even.  On F_r, (u1 Ginf + v1 G).(u2 Ginf + v2 G) is
    -r u1 u2 + u1 v2 + v1 u2, since Ginf^2 = -r, Ginf.G = 1 and G^2 = 0.
    """
    r = data.base_r
    ku, kv = -2, -(r + 2)  # K_Y
    (u1, v1), (u2, v2), (u3, v3) = data.d1, data.d2, data.d3
    tu, tv = 2 * ku + u1 + u2 + u3, 2 * kv + v1 + v2 + v3
    k2 = -r * tu * tu + 2 * tu * tv
    twice_chi = 8  # 2 * 4 * chi(O) of a Hirzebruch surface
    for su, sv in ((u2 + u3, v2 + v3), (u1 + u3, v1 + v3), (u1 + u2, v1 + v2)):
        if su % 2 or sv % 2:
            raise ValueError(
                f"branch pair sum {(su, sv)} is not 2-divisible; no square root exists")
        lu, lv = su // 2, sv // 2
        twice_chi += -r * lu * (lu + ku) + lu * (lv + kv) + lv * (lu + ku)
    if twice_chi % 2:
        raise AssertionError("chi of a bidouble cover must be integral")
    return {"K2": k2, "chi": twice_chi // 2}


def bidouble_cross_check(pg: int, theta: int) -> dict:
    """Branch-data invariants vs intersection theory; raises on mismatch."""
    data = bidouble_branch_data(pg, theta)
    got = bidouble_invariants(data)
    want = surface_invariants(pg, theta)
    ok = got["K2"] == want["K2"] and got["chi"] == want["chi"]
    if not ok:
        raise AssertionError(
            f"bidouble invariants {got} disagree with intersection theory "
            f"({want['K2']}, {want['chi']}) at theta={theta}, p_g={pg}"
        )
    return {"theta": theta, "p_g": pg, "K2": got["K2"], "chi": got["chi"], "base": data.base_name}


# ---------------------------------------------------------------------------
# genus feasibility
# ---------------------------------------------------------------------------


class GenusVerdict(Record):
    __slots__ = ("genus", "conditions")  # conditions: (name, holds) pairs

    @property
    def feasible(self) -> bool:
        return all(ok for _, ok in self.conditions)


class FeasibilityReport(Record):
    __slots__ = ("k2", "chi", "q", "verdicts")

    @property
    def classification_complete(self) -> bool:
        return self.chi > 20  # the filter is sharp only for chi > 20

    @property
    def feasible_genera(self) -> set:
        return {v.genus for v in self.verdicts if v.feasible}

    def to_json_dict(self) -> dict:
        return {
            "K2": self.k2,
            "chi": self.chi,
            "q": self.q,
            "feasible_genera": sorted(self.feasible_genera),
            "classification_complete": self.classification_complete,
            "caveat": "necessary-condition filter; complete as a classification only for chi > 20",
            "genera": {
                str(v.genus): {
                    "feasible": v.feasible,
                    "conditions": {name: ok for name, ok in v.conditions},
                }
                for v in self.verdicts
            },
        }


def genus_feasibility(k2: int, chi: int, q: int) -> FeasibilityReport:
    """Which pencil genera in {2,3,4,5} pass the necessary inequalities.

    Per genus g: the general bound K^2 >= 2(g-1)(chi-2); for g = 2 the
    slope bound K^2 >= 4chi + 6q - 10; for g in {3,4,5} the sharper linear
    bounds 12K^2 >= 63p_g - 142, 7K^2 >= 48p_g - 134, 9K^2 >= 80p_g - 262
    with p_g = chi - 1 + q; and always K^2 <= 9chi.
    """
    if k2 <= 0 or chi <= 0:
        raise ValueError("K^2 and chi must be positive")
    if q not in (0, 1):
        raise ValueError("q must be 0 or 1")
    pg = chi - 1 + q
    my = k2 <= 9 * chi
    verdicts = []
    for g in (2, 3, 4, 5):
        conds = [("beauville", k2 >= 2 * (g - 1) * (chi - 2)), ("miyaoka_yau", my)]
        if g == 2:
            conds.append(("genus2_slope", k2 >= 4 * chi + 6 * q - 10))
        elif g == 3:
            conds.append(("genus3_linear", 12 * k2 >= 63 * pg - 142))
        elif g == 4:
            conds.append(("genus4_linear", 7 * k2 >= 48 * pg - 134))
        else:
            conds.append(("genus5_linear", 9 * k2 >= 80 * pg - 262))
        verdicts.append(GenusVerdict(g, tuple(conds)))
    return FeasibilityReport(k2, chi, q, tuple(verdicts))
