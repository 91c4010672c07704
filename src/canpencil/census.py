"""Finite-field census: nodes, branch incidence, and a quasi-smoothness sweep.

Characteristic-p results are sanity evidence, never proof: generic
smoothness is a characteristic-0 statement, so the sweep can falsify a
member but cannot verify the family.  The driver policy is to regenerate a
member on a char-p singularity and to raise an alarm only when failures
persist across several seeds.

The fiber of the ambient bundle is the weighted projective space
P(1:1:2:3); points are classes of (x0, x1, y, z) != 0 modulo
(x0, x1, y, z) ~ (l*x0, l*x1, l^2*y, l^3*z).  The sweep reports each
point by its canonical representative: the first nonzero coordinate is
normalized to 1 whenever the weighted action allows it (always, for x0 or
x1 nonzero), and otherwise the representative is the lexicographically
smallest orbit element.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence, Tuple

from .binform import BinForm, least_nonresidue, roots, sqrt_mod
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


def base_points(p: int) -> List[Tuple[int, int]]:
    return [(a, 1) for a in range(p)] + [(1, 0)]


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
    """Equations over F_p: a rational member reduced mod p.

    A member over F_p itself is returned at once: its `FieldSpec` checked p
    when it was built, so the primality test does not run again.  A member
    over another prime field is refused once p itself has been checked.
    """
    if isinstance(p, int) and eqs.field.p == p:
        return eqs
    spec = FieldSpec.prime_field(p)  # rejects 2, 3, composites
    if eqs.field.is_prime_field:
        raise ValueError(f"member lives over F_{eqs.field.p}, cannot census at p = {p}")
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
    Hessian of that local equation in (v, w, t) is invertible.  It is
    ((2, 0, 0), (0, 2 q_x, q_y'), (0, q_y', 0)) at v = w = 0, q_y(t) = 0,
    with determinant -2 q_y'(t)^2, so that is what is recorded: it is
    nonzero exactly at the simple roots of q_y.
    """
    eqs = _as_prime_equations(eqs, p)
    qy = eqs.q_y
    if qy.is_zero:
        raise ValueError("q_y vanishes identically; the node census is undefined")
    found = roots(qy)
    records = []
    for base in sorted(found):
        qy_d = _chart_value_and_derivative(qy, base, p)[1]
        det = -2 * qy_d * qy_d % p
        records.append(
            NodeRecord(
                point=WPSPoint(base, (0, 0, 1, 0)),
                multiplicity=found[base],
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


def _base_values(form: BinForm, p: int) -> List[int]:
    """The form's residues at the base points (a : 1), a = 0..p-1, then at (1 : 0)."""
    vals = [0] * p
    for c in form.nums:
        vals = [(v * a + c) % p for a, v in enumerate(vals)]
    return vals + [form.nums[0] if form.nums else 0]


def _sextic_candidates(p: int, qx: int, qy: int, jk, gs) -> List[Tuple[int, int, tuple]]:
    """The (x0, x1, (y,)) of Q = 0 over a base with qy != 0 where beta and its partials vanish.

    On the graph y = -(x0^2 + qx x1^2)/qy of Q = 0 the branch form is the
    sextic beta = qy^3 b(x0, x1, y); in the chart x0 = 1 it is f(a), where
    a term g x0^i x1^j y^k ((j, k) in `jk`, g in `gs`) adds
    g (-1)^k qy^(3-k) a^j (1 + qx a^2)^k.  The candidates are the a with
    f(a) = f'(a) = 0, and (0, 1) when c6 = c5 = 0 (beta and its x0-partial).
    """
    qy2, qx2 = qy * qy, qx * qx
    # (-1)^k qy^(3-k) (1 + qx a^2)^k: the coefficient of a^(2l) at l
    w = ((qy2 * qy,), (-qy2, -qy2 * qx), (qy, 2 * qy * qx, qy * qx2),
         (-1, -3 * qx, -3 * qx2, -qx2 * qx))
    c = [0] * 7
    for (j, k), g in zip(jk, gs):
        if g:
            for l, wl in enumerate(w[k]):
                c[j + 2 * l] += g * wl
    c0, c1, c2, c3, c4, c5, c6 = [x % p for x in c]
    inv = pow(-qy, -1, p)
    hits = [a for a in range(p)
            if not ((((((c6 * a + c5) * a + c4) * a + c3) * a + c2) * a + c1) * a + c0) % p]
    out = [(1, a, ((1 + qx * a * a) * inv % p,)) for a in hits
           if not (((((6 * c6 * a + 5 * c5) * a + 4 * c4) * a + 3 * c3) * a + 2 * c2) * a + c1) % p]
    if not (c6 or c5):
        out.append((0, 1, (qx * inv % p,)))
    return out


def _fiber_candidates(p: int, qx: int) -> List[Tuple[int, int, Sequence[int]]]:
    """(x0, x1, ys): one point per weighted orbit of Q = x0^2 + qx x1^2 = 0 over a root of q_y.

    (x0, x1) runs over the representatives (1, a) and (0, 1) on Q = 0, each
    with every y.  With x0 = x1 = 0, l^2 scales every y != 0 to 1 or to the
    least non-residue n, so y runs over (1, n); y = 0 is no point of X,
    since there G = z^2.  Only l = ±1 fixes those y, so the points of one
    such orbit differ in the sign of z alone.
    """
    out = [(1, a, range(p)) for a in range(p) if (1 + qx * a * a) % p == 0]
    if qx == 0:
        out.append((0, 1, range(p)))
    return out + [(0, 0, (1, least_nonresidue(p)))]


def quasi_smooth_sweep(eqs: SurfaceEquations, p: int) -> List[WPSPoint]:
    """Rational points of X where the Jacobian of its affine cone drops rank.

    In the chart of a base point Q = x0^2 + q_x x1^2 + q_y y and
    G = z^2 + b(x0, x1, y) are weighted-homogeneous of weights 2 and 6, so
    at l * v the Jacobian is diag(l^2, l^6) J(v) diag(l^-1, l^-1, l^-2,
    l^-3, 1): its rank is the same on a weighted orbit, and one point per
    orbit is tested.  The 2x5 Jacobian in (x0, x1, y, z, t) has the rows

        row_q = (2 x0, 2 q_x x1, q_y, 0, q_x' x1^2 + q_y' y),
        row_g = (b_x0, b_x1, b_y, 2 z, b_t),

    and `_rank_below_two` decides every failure; the rest picks candidates.

    * q_y(t) != 0: the (y, z) minor 2 z q_y forces z = 0, so b = 0 and
      row_g = (b_y / q_y) row_q.  By the chain rule through y on Q = 0,
      the sextic beta = q_y^3 b and its (x0, x1)-partials vanish there, so
      only the points of `_sextic_candidates` are tested (one Horner value
      per a; all p + 1 when beta vanishes on the fiber).
    * q_y(t) = 0: one point per orbit of Q = 0, from `_fiber_candidates`,
      is tested.  Where b != 0 the roots z = ±sqrt(-b) are nonzero, the
      minors through z are 2z times row_q, and the rank drops exactly when
      row_q = 0.  Both roots are reported at (0 : 1); with x0 = x1 = 0,
      l = -1 maps z to -z, so only the least root r = `sqrt_mod(-b, p)`.

    Every point is listed in its canonical form, so none is normalized
    afterwards.  The t-derivatives of the coefficients and the powers of
    the fiber coordinates are taken only over a base point with a
    candidate.  The result is sorted and independent of the processing
    order.
    """
    eqs = _as_prime_equations(eqs, p)
    failures = set()
    branch = [(m.i, m.j, m.k, c) for m, c in eqs.branch_terms().items()]
    jk = [(j, k) for _, j, k, _ in branch]
    values = list(zip(*[_base_values(c, p) for *_, c in branch])) or [()] * (p + 1)
    qx_vals, qy_vals = _base_values(eqs.q_x, p), _base_values(eqs.q_y, p)

    for base in base_points(p):
        n = base[0] if base[1] else p
        qx, qy = qx_vals[n], qy_vals[n]
        cands = _sextic_candidates(p, qx, qy, jk, values[n]) if qy else _fiber_candidates(p, qx)
        if not cands:
            continue
        qx_d = _chart_value_and_derivative(eqs.q_x, base, p)[1]
        qy_d = _chart_value_and_derivative(eqs.q_y, base, p)[1]
        gl = [(i, j, k, *_chart_value_and_derivative(c, base, p)) for i, j, k, c in branch]
        gl = [t for t in gl if t[3] or t[4]]
        for x0, x1, ys in cands:
            b3 = [0] * 4  # b(x0, x1, y) as a cubic in y
            for i, j, k, g, _ in gl:
                b3[k] += g * x0**i * x1**j
            for y in ys:
                b_val = (((b3[3] * y + b3[2]) * y + b3[1]) * y + b3[0]) % p
                if b_val:
                    # z != 0: rank < 2 iff row_q = 0
                    if (x0 == 0 and qy == 0 and qx * x1 % p == 0
                            and (qx_d * x1 * x1 + qy_d * y) % p == 0):
                        r = sqrt_mod(-b_val, p)
                        if r is not None:
                            # at (0 : 0) l = -1 maps z to -z: the least root alone
                            for z in (r, p - r) if x1 else (r,):
                                failures.add(WPSPoint(base, (x0, x1, y, z)))
                    continue
                b_x0 = b_x1 = b_y = b_t = 0
                for (i, j, k, g, gd) in gl:
                    b_t += gd * x0**i * x1**j * y**k
                    if i:
                        b_x0 += g * i * x0**(i - 1) * x1**j * y**k
                    if j:
                        b_x1 += g * j * x0**i * x1**(j - 1) * y**k
                    if k:
                        b_y += g * k * x0**i * x1**j * y**(k - 1)
                row_q = (2 * x0, 2 * qx * x1 % p, qy, 0, (qx_d * x1 * x1 + qy_d * y) % p)
                row_g = (b_x0 % p, b_x1 % p, b_y % p, 0, b_t % p)
                if _rank_below_two(row_q, row_g, p):
                    failures.add(WPSPoint(base, (x0, x1, y, 0)))
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


#: largest prime the sweep runs at, a conservative limit: the refusal quotes
#: the (p + 1)^2 fiber candidates, one per point of the conic over each base
#: point; the sweep takes one value of the branch sextic at each, about 30 ms
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
