"""Finite-field census: nodes, branch incidence, and a quasi-smoothness sweep.

Characteristic-p results are sanity evidence, never proof: generic
smoothness is a characteristic-0 statement, so the sweep can falsify a
member but cannot verify the family.  The driver policy is to regenerate a
member on a char-p singularity and to raise an alarm only when failures
persist across several seeds.

The fiber of the ambient bundle is the weighted projective space
P(1:1:2:3); points are classes of (x0, x1, y, z) != 0 modulo
(x0, x1, y, z) ~ (l*x0, l*x1, l^2*y, l^3*z).  The canonical representative
normalizes the first nonzero coordinate to 1 whenever the weighted action
allows it (always, for x0 or x1 nonzero) and otherwise takes the
lexicographically smallest orbit element, which resolves the square/cube
class ambiguity deterministically.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterator, List, Optional, Tuple

from .binform import BinForm, roots
from .fields import FieldSpec
from .family import SurfaceEquations
from .sections import GradedSection


@dataclass(frozen=True, order=True)
class WPSPoint:
    """A point of the bundle over F_p: base in P^1, fiber in P(1:1:2:3)."""

    base: Tuple[int, int]
    fiber: Tuple[int, int, int, int]

    def to_json_dict(self) -> dict:
        return {"base": list(self.base), "fiber": list(self.fiber)}


def canonical_fiber_rep(p: int, v: Tuple[int, int, int, int]) -> Tuple[int, int, int, int]:
    x0, x1, y, z = (c % p for c in v)
    if x0 == x1 == y == z == 0:
        raise ValueError("the origin is not a point of the weighted fiber")
    if x0 != 0:
        l = pow(x0, -1, p)
    elif x1 != 0:
        l = pow(x1, -1, p)
    else:
        # only y and z survive; minimize (l^2 y, l^3 z) lexicographically
        best = None
        for l in range(1, p):
            cand = (0, 0, l * l * y % p, pow(l, 3, p) * z % p)
            if best is None or cand < best:
                best = cand
        return best
    return (l * x0 % p, l * x1 % p, l * l * y % p, pow(l, 3, p) * z % p)


def base_points(p: int) -> List[Tuple[int, int]]:
    return [(a, 1) for a in range(p)] + [(1, 0)]


def _check_prime(p: int) -> FieldSpec:
    return FieldSpec.prime_field(p)  # rejects 2, 3, composites


def _reduce_form(form: BinForm, spec: FieldSpec) -> BinForm:
    """A rational form over F_p: its numerators times one inverse of its denominator.

    When p divides the denominator, the ValueError ("bad reduction") names
    the own denominator of the first coefficient that has no reduction.
    """
    p, den = spec.p, form.den
    if den % p == 0:
        own = next(d for d in (den // math.gcd(n, den) for n in form.nums) if d % p == 0)
        raise ValueError(f"bad reduction mod {p}: denominator {own} not invertible mod {p}")
    return BinForm.from_numerators(spec, form.nums, den)


def _as_prime_equations(eqs: SurfaceEquations, p: int) -> SurfaceEquations:
    """Equations over F_p: reduce a rational member, or verify the field.

    A member over F_p itself is returned at once: its `FieldSpec` checked p
    when it was built, so the primality test does not run again.
    """
    if isinstance(p, int) and eqs.field.p == p:
        return eqs
    spec = _check_prime(p)
    if eqs.field.is_prime_field:
        if eqs.field.p != p:
            raise ValueError(f"member lives over F_{eqs.field.p}, cannot census at p = {p}")
        return eqs
    def reduce_section(s: GradedSection) -> GradedSection:
        terms = {m: _reduce_form(coeff, spec) for m, coeff in s.terms.items()}
        return GradedSection(s.bundle, spec, s.bidegree, terms)
    return SurfaceEquations(eqs.bundle, spec, reduce_section(eqs.Q), reduce_section(eqs.G))


# ---------------------------------------------------------------------------
# node census at {x0 = x1 = 0}
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeRecord:
    point: WPSPoint
    multiplicity: int
    a1_ok: bool
    hessian_det: int

    def to_json_dict(self) -> dict:
        return {
            "point": self.point.to_json_dict(),
            "multiplicity": self.multiplicity,
            "type": "A1" if self.a1_ok else "degenerate",
            "hessian_det": self.hessian_det,
        }


@dataclass(frozen=True)
class NodeCensus:
    nodes: Tuple[NodeRecord, ...]
    bound: int  # 2 p_g - 2 + theta, the count over the algebraic closure
    rational_multiplicity_total: int
    roots_outside_field: bool


def _chart_value_and_derivative(form: BinForm, base: Tuple[int, int], p: int) -> Tuple[int, int]:
    """(f, df/dt) at a base point over F_p, in the chart where it is finite.

    The local coordinate t is t0 in the chart t1 != 0 and t1 at (1:0).
    """
    c = form.nums  # residues; c[i] multiplies t0^(d-i) t1^i
    a, b = base
    if b == 0:
        return (c[0] if c else 0), (c[1] if len(c) > 1 else 0)
    # Horner in t0 for f and df/dt0 together, the powers of t1 folded in
    val = der = 0
    b_pow = 1
    for ci in c:
        der = (der * a + val) % p
        val = (val * a + ci * b_pow) % p
        b_pow = b_pow * b % p
    return val, der


def node_census(eqs: SurfaceEquations, p: int) -> NodeCensus:
    """Nodes of C = Q intersect {z = 0} along the section x0 = x1 = 0.

    They sit over the F_p-zeros of q_y at the fiber point (0:0:1:0).  Near
    such a point the chart y != 0 of the conic bundle has the invariant
    coordinates v = x0*x1/y, w = x1^2/y in which C is the hypersurface

        v^2 + q_x(t) w^2 + q_y(t) w = 0,

    so the singularity is an ordinary double point exactly when the
    Hessian of that local equation is invertible, which happens exactly at
    simple roots of q_y (the determinant is -2 * q_y'(t)^2).  The literal
    3x3 Hessian is assembled and tested rather than shortcut.
    """
    eqs = _as_prime_equations(eqs, p)
    qy = eqs.q_y
    if qy.is_zero:
        raise ValueError("q_y vanishes identically; the node census is undefined")
    qx = eqs.q_x
    found = roots(qy)
    records = []
    for base in sorted(found):
        mult = found[base]
        qx_val, _ = _chart_value_and_derivative(qx, base, p)
        _, qy_d = _chart_value_and_derivative(qy, base, p)
        hess = (
            (2, 0, 0),
            (0, 2 * qx_val % p, qy_d % p),
            (0, qy_d % p, 0),
        )
        det = (
            hess[0][0] * (hess[1][1] * hess[2][2] - hess[1][2] * hess[2][1])
            - hess[0][1] * (hess[1][0] * hess[2][2] - hess[1][2] * hess[2][0])
            + hess[0][2] * (hess[1][0] * hess[2][1] - hess[1][1] * hess[2][0])
        ) % p
        records.append(
            NodeRecord(
                point=WPSPoint(base, (0, 0, 1, 0)),
                multiplicity=mult,
                a1_ok=det != 0,
                hessian_det=det,
            )
        )
    total = sum(found.values())
    bound = 2 * eqs.bundle.pg - 2 + eqs.bundle.theta
    return NodeCensus(
        nodes=tuple(records),
        bound=bound,
        rational_multiplicity_total=total,
        roots_outside_field=total < bound,
    )


# ---------------------------------------------------------------------------
# branch disjointness at the nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchViolation:
    point: WPSPoint
    branch_value: int  # always 0: recorded for the report schema

    def to_json_dict(self) -> dict:
        return {"point": self.point.to_json_dict(), "branch_value": self.branch_value}


def branch_disjointness(
    eqs: SurfaceEquations, p: int, census: Optional[NodeCensus] = None
) -> List[BranchViolation]:
    """Nodes where the branch curve passes through the branch point set.

    The branch form is the z-free part of G; at a node x0 = x1 = 0, y = 1
    only the y^3-coefficient survives.  A nonempty list is a report about
    the member, not an error.  `census` is the member's node census at p
    when the caller already has it; otherwise it is computed here.
    """
    eqs = _as_prime_equations(eqs, p)
    if census is None:
        census = node_census(eqs, p)
    g003 = eqs.g_coefficient(0, 0, 3)
    return [BranchViolation(rec.point, 0) for rec in census.nodes
            if g003.evaluate(*rec.point.base) == 0]


# ---------------------------------------------------------------------------
# quasi-smoothness sweep
# ---------------------------------------------------------------------------


def _sqrt_table(p: int) -> Dict[int, List[int]]:
    table: Dict[int, List[int]] = {}
    for r in range(p):
        table.setdefault(r * r % p, []).append(r)
    return table


def _fiber_candidates(p: int, qx: int, qy: int) -> Iterator[Tuple[int, int, int]]:
    """(x0, x1, y) of the cone points of Q = x0^2 + qx x1^2 + qy y = 0.

    With (x0, x1) != 0 only the orbit representatives (1, a) and (0, 1)
    are listed: Q is linear in y, so qy != 0 gives one y each, and qy = 0
    gives every y where x0^2 + qx x1^2 = 0.  With x0 = x1 = 0, Q = 0
    needs y = 0 (the cone vertex, skipped) unless qy = 0, and then every
    y != 0 is listed, not only orbit representatives.
    """
    if qy:
        inv = pow(-qy, -1, p)  # y = (x0^2 + qx x1^2) / (-qy)
        for a in range(p):
            yield 1, a, (1 + qx * a * a) * inv % p
        yield 0, 1, qx * inv % p
        return
    for a in range(p):
        if (1 + qx * a * a) % p == 0:
            for y in range(p):
                yield 1, a, y
    if qx == 0:
        for y in range(p):
            yield 0, 1, y
    for y in range(1, p):
        yield 0, 0, y


def quasi_smooth_sweep(eqs: SurfaceEquations, p: int) -> List[WPSPoint]:
    """Rational points of X where the Jacobian of its affine cone drops rank.

    In the chart of a base point the equations read

        Q = x0^2 + q_x x1^2 + q_y y,    G = z^2 + b(x0, x1, y),

    with b the branch form.  Q and G are weighted-homogeneous of weights 2
    and 6, so at l * v the Jacobian is diag(l^2, l^6) J(v) diag(l^-1,
    l^-1, l^-2, l^-3, 1): its rank is the same at every point of a
    weighted orbit, and one point per orbit suffices.  An orbit with
    (x0, x1) != 0 has exactly one point with (x0, x1) = (1, a) or (0, 1),
    its canonical representative.  Q is linear in y, so over each base
    point there are p + 1 such (x0, x1) with one y each when q_y(t) != 0,
    and O(p) points in all when q_y(t) = 0 (see `_fiber_candidates`).
    Points with x0 = x1 = 0 lie only over the roots of q_y; all p - 1
    values of y are visited there and the failures collapsed by
    `canonical_fiber_rep`.  The roots z come from a square-root table of
    -b.  The 2x5 Jacobian in (x0, x1, y, z, t) has the rows

        row_q = (2 x0, 2 q_x x1, q_y, 0, q_x' x1^2 + q_y' y),
        row_g = (b_x0, b_x1, b_y, 2 z, b_t),

    and only the branch value b is computed at every candidate:

    * b = 0 forces z = 0; the partials of b are computed and all 2x2
      minors tested.
    * b != 0 makes every root z nonzero.  The minors through the z column
      are then 2z times the entries of row_q, so the rank is below two
      exactly when row_q vanishes: x0 = 0, q_y(t) = 0, q_x x1 = 0 (which
      Q = 0 then implies, but it is tested anyway) and q_x' x1^2 + q_y' y
      = 0.  No partial of b is needed.

    Powers come from one table a^e mod p built per prime.  The result is
    sorted and independent of the processing order.
    """
    eqs = _as_prime_equations(eqs, p)
    sqrt = _sqrt_table(p)
    failures = set()
    branch = [(m.i, m.j, m.k, c) for m, c in eqs.branch_terms().items()]
    top = max((max(i, j, k) for i, j, k, _ in branch), default=0)
    pw = [[pow(a, e, p) for e in range(top + 1)] for a in range(p)]
    qx_form, qy_form = eqs.q_x, eqs.q_y

    for base in base_points(p):
        qx, qx_d = _chart_value_and_derivative(qx_form, base, p)
        qy, qy_d = _chart_value_and_derivative(qy_form, base, p)
        gl = []
        for (i, j, k, coeff) in branch:
            val, dval = _chart_value_and_derivative(coeff, base, p)
            if val or dval:
                gl.append((i, j, k, val, dval))
        for x0, x1, y in _fiber_candidates(p, qx, qy):
            px0, px1, py = pw[x0], pw[x1], pw[y]
            b_val = 0
            for (i, j, k, g, _) in gl:
                b_val += g * px0[i] * px1[j] * py[k]
            b_val %= p
            if b_val:
                # z != 0: rank < 2 iff row_q = 0
                if (x0 == 0 and qy == 0 and qx * x1 % p == 0
                        and (qx_d * x1 * x1 + qy_d * y) % p == 0):
                    for z in sqrt.get(p - b_val, ()):
                        failures.add(WPSPoint(base, canonical_fiber_rep(p, (x0, x1, y, z))))
                continue
            b_x0 = b_x1 = b_y = b_t = 0
            for (i, j, k, g, gd) in gl:
                b_t += gd * px0[i] * px1[j] * py[k]
                if i:
                    b_x0 += g * i * px0[i - 1] * px1[j] * py[k]
                if j:
                    b_x1 += g * j * px0[i] * px1[j - 1] * py[k]
                if k:
                    b_y += g * k * px0[i] * px1[j] * py[k - 1]
            row_q = (2 * x0, 2 * qx * x1 % p, qy, 0, (qx_d * x1 * x1 + qy_d * y) % p)
            row_g = (b_x0 % p, b_x1 % p, b_y % p, 0, b_t % p)
            if _rank_below_two(row_q, row_g, p):
                failures.add(WPSPoint(base, canonical_fiber_rep(p, (x0, x1, y, 0))))
    return sorted(failures)


def _rank_below_two(r1, r2, p: int) -> bool:
    for a in range(5):
        for b in range(a + 1, 5):
            if (r1[a] * r2[b] - r1[b] * r2[a]) % p:
                return False
    return True


# ---------------------------------------------------------------------------
# assembled report
# ---------------------------------------------------------------------------


@dataclass
class SingularReport:
    p_nodes: int
    p_sweep: Optional[int]
    nodes: NodeCensus = None
    branch_hits: List[BranchViolation] = dc_field(default_factory=list)
    cone_singularities: List[WPSPoint] = dc_field(default_factory=list)
    sweep_skipped: bool = False
    timings: Dict[str, float] = dc_field(default_factory=dict)

    @property
    def clean(self) -> bool:
        nodes_ok = all(r.a1_ok for r in self.nodes.nodes)
        return nodes_ok and not self.branch_hits and not self.cone_singularities

    def to_json_dict(self) -> dict:
        return {
            "prime_nodes": self.p_nodes,
            "prime_sweep": self.p_sweep,
            "node_bound": self.nodes.bound,
            "node_count": len(self.nodes.nodes),
            "roots_outside_field": self.nodes.roots_outside_field,
            "nodes": [r.to_json_dict() for r in self.nodes.nodes],
            "branch_hits": [v.to_json_dict() for v in self.branch_hits],
            "cone_singularities": [q.to_json_dict() for q in self.cone_singularities],
            "sweep_skipped": self.sweep_skipped,
            "clean": self.clean,
            "timings": self.timings,
        }


#: largest prime the sweep runs at, a conservative limit: the sweep visits
#: about (p + 1)^2 fiber candidates, the count the refusal quotes, 0.12 s
#: at p = 257 for a (p_g, theta) = (2, 0) member under CPython 3.11 on a
#: 2-core host, and grows as p^2.
SWEEP_PRIME_MAX = 257


def _census_prime(eqs: SurfaceEquations, p: Optional[int], default: int) -> int:
    """p, or `default` when p is None, for a rational member; else the member's prime."""
    if not eqs.field.is_prime_field:
        return default if p is None else p
    if p is not None and p != eqs.field.p:
        raise ValueError(
            f"member lives over F_{eqs.field.p}; censusing at --prime {p} "
            "would cross characteristics"
        )
    return eqs.field.p


def run_census(
    eqs: SurfaceEquations,
    p_nodes: Optional[int] = None,
    p_sweep: Optional[int] = None,
    skip_sweep: bool = False,
) -> SingularReport:
    """Node census plus branch check, and optionally the full sweep.

    A member over F_p is censused at p: None stands for p, and any other
    prime is a ValueError.  A rational member is reduced modulo p_nodes
    (None: 101) and p_sweep (None: 11).  A sweep above SWEEP_PRIME_MAX is
    refused with a ValueError before any work is done.
    """
    p_nodes = _census_prime(eqs, p_nodes, 101)
    p_sweep = _census_prime(eqs, p_sweep, 11)
    if not skip_sweep and p_sweep > SWEEP_PRIME_MAX:
        raise ValueError(
            f"sweep at p = {p_sweep} would visit {(p_sweep + 1) ** 2} fiber candidates "
            f"(limit p <= {SWEEP_PRIME_MAX}); pass --skip-sweep"
        )
    report = SingularReport(p_nodes=p_nodes, p_sweep=None if skip_sweep else p_sweep)
    t0 = time.perf_counter()
    reduced = _as_prime_equations(eqs, p_nodes)
    report.nodes = node_census(reduced, p_nodes)
    report.branch_hits = branch_disjointness(reduced, p_nodes, report.nodes)
    report.timings["nodes_s"] = round(time.perf_counter() - t0, 6)
    if not skip_sweep:
        t1 = time.perf_counter()
        report.cone_singularities = quasi_smooth_sweep(eqs, p_sweep)
        report.timings["sweep_s"] = round(time.perf_counter() - t1, 6)
    else:
        report.sweep_skipped = True
    return report
