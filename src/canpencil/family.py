"""Construction and analysis of the classified families.

Covers the coefficient degree tables, seeded random members, the structure
of the canonical system, moduli dimension bookkeeping, the bidouble-cover
branch data over Hirzebruch surfaces, and the genus feasibility filter
driven by the classical numeric inequalities.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from random import Random
from typing import Dict, List, Tuple

from .binform import BinForm, random_binform, random_split_squarefree
from .chow import CLASS_Q, F, class_G, class_fixed_part, surface_invariants, top_intersection
from .fields import FieldSpec, json_int
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


@dataclass(frozen=True)
class FamilyParams:
    pg: int
    theta: int
    field: FieldSpec
    seed: int

    def __post_init__(self):
        _member_bundle(self.pg, self.theta)  # range checks


# ---------------------------------------------------------------------------
# degree tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeTable:
    pg: int
    theta: int
    q_x: int
    q_y: int
    g: Dict[Tuple[int, int, int], int]  # (i, j, k) with i + j + 2k = 6

    def g_present(self) -> List[Tuple[int, int, int]]:
        return sorted(s for s, d in self.g.items() if d >= 0)

    def g_forced_zero(self) -> List[Tuple[int, int, int]]:
        return sorted(s for s, d in self.g.items() if d < 0)

    def to_json_dict(self) -> dict:
        return {
            "p_g": self.pg,
            "theta": self.theta,
            "q_x": self.q_x,
            "q_y": self.q_y,
            "G": {f"G_{i}{j}{k}": d for (i, j, k), d in sorted(self.g.items())},
            "forced_zero": [f"G_{i}{j}{k}" for (i, j, k) in self.g_forced_zero()],
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


@dataclass(frozen=True)
class SurfaceEquations:
    bundle: BundleData
    field: FieldSpec
    Q: GradedSection
    G: GradedSection

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

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path: str) -> "SurfaceEquations":
        with open(path) as fh:
            return SurfaceEquations.from_json_dict(json.load(fh))


def generate_member(params: FamilyParams, split_qy: bool = False) -> SurfaceEquations:
    """Random member of the family, a pure function of (params, seed).

    Coefficients are drawn uniformly over a prime field and as bounded
    integers over the rationals, at the prescribed degrees.  Smoothness of
    the general member is only guaranteed for theta <= 4; larger offsets
    are permitted with a warning.  `split_qy` forces q_y to be a product
    of distinct rational linear forms, which pins the whole node census
    inside the base field.  A q_y that comes out identically zero (possible
    over a small prime) is redrawn, so every member has a node census.
    """
    if params.theta > 4:
        warnings.warn(
            f"theta = {params.theta} > 4: generic smoothness is not guaranteed",
            stacklevel=2,
        )
    rng = Random(params.seed)
    bundle = BundleData(params.pg, params.theta)
    field = params.field
    table = degree_table(params.pg, params.theta)
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
# the canonical system
# ---------------------------------------------------------------------------


def canonical_structure(eqs: SurfaceEquations) -> dict:
    """Shape of |K|: fixed part, moving pencil, and the canonical image.

    The fixed part is cut by x1 = 0; the moving sections are h * x1 with
    deg h = p_g - 1, so there are p_g of them and the canonical image is
    the rational normal curve of degree p_g - 1.  The horizontal fiber
    degree of the fixed part is recomputed by intersection theory and must
    equal 2.
    """
    eqs.validate()
    bundle = eqs.bundle
    pg = bundle.pg
    fixed = class_fixed_part(bundle)
    fiber_deg = top_intersection(bundle, fixed, F, CLASS_Q, class_G(bundle))
    if fiber_deg != 2:
        raise AssertionError(f"fixed part should meet every fibre twice, got {fiber_deg}")
    return {
        "fixed_part": {
            "divisor": "x1 = 0",
            "class": list(fixed),
            "fiber_degree": int(fiber_deg),
        },
        "moving_part": {
            "shape": "h * x1 with deg h = p_g - 1",
            "h_degree": pg - 1,
        },
        "section_count": pg,
        "pencil_degree": pg - 1,
        "canonical_image": f"rational normal curve of degree {pg - 1} in P^{pg - 1}",
    }


# ---------------------------------------------------------------------------
# moduli dimension bookkeeping
# ---------------------------------------------------------------------------


def family_dimension(pg: int, theta: int) -> dict:
    """Dimension count in the regime theta <= 2, p_g > 6 - 2*theta.

    `dimension` is the moduli dimension 4*p_g + 9 - 2*theta.
    `parameter_count` sums (degree + 1) over the surviving coefficient
    slots, which is 4*p_g + 16 - theta here.  Their difference is reported
    as the dimension of the symmetry group absorbed by the family map; it
    is bookkeeping output, not an independently established value.
    """
    if theta > 2:
        raise ValueError("dimension count requires theta <= 2")
    if pg <= 6 - 2 * theta:
        raise ValueError(f"dimension count requires p_g > {6 - 2 * theta}")
    table = degree_table(pg, theta)
    count = (table.q_x + 1) + (table.q_y + 1)
    for slot in table.g_present():
        i = slot[0]
        if i != 0:
            raise AssertionError("x0-slots must be forced to zero in this regime")
        count += table.g[slot] + 1
    moduli_dim = 4 * pg + 9 - 2 * theta
    if count != 4 * pg + 16 - theta:
        raise AssertionError(f"parameter count {count} != {4 * pg + 16 - theta}")
    return {
        "p_g": pg,
        "theta": theta,
        "dimension": moduli_dim,
        "parameter_count": count,
        "symmetry_delta": count - moduli_dim,
    }


# ---------------------------------------------------------------------------
# bidouble covers of Hirzebruch surfaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchData:
    """Three branch classes on F_r: pairs (u, v) in the basis (G_inf, G_fib).

    On the quadric (r = 0) the basis is the two rulings.  Each pairwise sum
    D_j + D_k must be even so the square roots L_i exist.
    """

    base_r: int
    d1: Tuple[int, int]
    d2: Tuple[int, int]
    d3: Tuple[int, int]
    source: str = "table row"

    @property
    def base_name(self) -> str:
        return "P1xP1" if self.base_r == 0 else f"F{self.base_r}"

    def divisors(self):
        return (self.d1, self.d2, self.d3)

    def __post_init__(self):
        if self.base_r < 0:
            raise ValueError("Hirzebruch index must be non-negative")
        for d in (self.d1, self.d2, self.d3):
            if d[0] < 0 or d[1] < 0:
                raise ValueError(f"branch class {d} is not effective on F_{self.base_r}")


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
    r, d1_offset, d2, d3, source = _BRANCH_ROWS[theta]
    return BranchData(r, (1, 2 * pg + d1_offset), d2, d3, source)


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
    Both are summed in ints, chi as 2*chi, which must come out even.
    """
    r = data.base_r
    ky = (-2, -(r + 2))
    d1, d2, d3 = data.divisors()
    total = (2 * ky[0] + d1[0] + d2[0] + d3[0], 2 * ky[1] + d1[1] + d2[1] + d3[1])
    k2 = _hirzebruch_product(r, total, total)
    twice_chi = 8  # 2 * 4 * chi(O) of a Hirzebruch surface
    for dj, dk in ((d2, d3), (d1, d3), (d1, d2)):
        s = (dj[0] + dk[0], dj[1] + dk[1])
        if s[0] % 2 or s[1] % 2:
            raise ValueError(f"branch pair sum {s} is not 2-divisible; no square root exists")
        li = (s[0] // 2, s[1] // 2)
        li_plus_k = (li[0] + ky[0], li[1] + ky[1])
        twice_chi += _hirzebruch_product(r, li, li_plus_k)
    if twice_chi % 2:
        raise AssertionError("chi of a bidouble cover must be integral")
    return {"K2": k2, "chi": twice_chi // 2}


def bidouble_cross_check(theta: int, pg: int) -> dict:
    """Branch-data invariants vs intersection theory; raises on mismatch."""
    data = bidouble_branch_data(theta, pg)
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


@dataclass(frozen=True)
class GenusVerdict:
    genus: int
    feasible: bool
    conditions: Tuple[Tuple[str, bool], ...]


@dataclass(frozen=True)
class FeasibilityReport:
    k2: int
    chi: int
    q: int
    verdicts: Tuple[GenusVerdict, ...]
    classification_complete: bool  # the filter is sharp only for chi > 20

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
        verdicts.append(GenusVerdict(g, all(ok for _, ok in conds), tuple(conds)))
    return FeasibilityReport(k2, chi, q, tuple(verdicts), chi > 20)
