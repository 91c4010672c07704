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
smallest orbit element.  A point of the bundle is the plain tuple
(base, fiber): base (t0, t1) in P^1, fiber (x0, x1, y, z); points sort
as tuples, by base and then fiber.  The node census is the tuple of its
`NodeRecord`s; `SingularReport` holds them together with the node bound
2 p_g - 2 + theta and says whether some roots of q_y lie outside F_p.
"""

from __future__ import annotations

import math
import time
from typing import List, Optional, Sequence, Tuple

from .binform import BinForm, _pack, _unpack, least_nonresidue, roots, sqrt_mod
from .fields import FieldSpec, Record
from .family import SurfaceEquations
from .sections import _Y, FiberMonomial, GradedSection


def _point_json(point: tuple) -> dict:
    base, fiber = point
    return {"base": list(base), "fiber": list(fiber)}


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


#: the slots the node census and the branch check read: q_y and G_003
_NODE_MONOMIALS = frozenset((_Y, FiberMonomial(0, 0, 3, 0)))


def _over_prime(eqs: SurfaceEquations, p: int,
                monomials: Optional[frozenset] = None) -> SurfaceEquations:
    """Equations over F_p: a rational member reduced mod p, in the slots `monomials` (None: all).

    A member over F_p itself is returned at once: its `FieldSpec` checked p
    when it was built, so the primality test does not run again.  At any
    other prime `_census_prime` refuses a member over a prime field, and
    p = None falls through to the modulus check.  For a rational member p
    is checked before anything is reduced: 5 <= p < 2**31, then `is_prime`
    by the bases (2, 7, 61), which decide every n < 4 759 123 141.  Every
    denominator, Q's then G's, is tested before any slot is reduced, so a
    bad reduction is refused whichever slots are asked for.  A slot that
    reduces to zero is dropped; with `monomials` given, Q and G hold those
    slots alone, so they are no member.
    """
    if eqs.field.is_prime_field and _census_prime(eqs, p, None) == p:
        return eqs
    spec = FieldSpec.prime_field(p)  # rejects None, 2, 3, composites
    for coeff in (*eqs.Q.terms.values(), *eqs.G.terms.values()):
        if coeff.den % p == 0:
            _reduce_form(coeff, spec)  # words the bad reduction
    Q, G = (GradedSection(eqs.bundle, spec, s.bidegree,
                          {m: _reduce_form(c, spec) for m, c in s.terms.items()
                           if monomials is None or m in monomials})
            for s in (eqs.Q, eqs.G))
    return SurfaceEquations(eqs.bundle, spec, Q, G)


# ---------------------------------------------------------------------------
# node census at {x0 = x1 = 0}
# ---------------------------------------------------------------------------


class NodeRecord(Record):
    __slots__ = ("point", "multiplicity", "hessian_det")

    @property
    def a1_ok(self) -> bool:
        return self.hessian_det != 0

    def to_json_dict(self) -> dict:
        return {
            "point": _point_json(self.point),
            "multiplicity": self.multiplicity,
            "type": "A1" if self.a1_ok else "degenerate",
            "hessian_det": self.hessian_det,
        }


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


def node_census(eqs: SurfaceEquations, p: int) -> Tuple[NodeRecord, ...]:
    """Nodes of C = Q intersect {z = 0} along the section x0 = x1 = 0, one record per root.

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
    eqs = _over_prime(eqs, p, _NODE_MONOMIALS)
    qy = eqs.q_y
    if qy.is_zero:
        raise ValueError("q_y vanishes identically; the node census is undefined")
    found = roots(qy)
    records = []
    for base in sorted(found):
        qy_d = _chart_value_and_derivative(qy, base, p)[1]
        records.append(NodeRecord((base, (0, 0, 1, 0)), found[base], -2 * qy_d * qy_d % p))
    return tuple(records)


# ---------------------------------------------------------------------------
# branch disjointness at the nodes
# ---------------------------------------------------------------------------


def branch_disjointness(
    eqs: SurfaceEquations, p: int, nodes: Optional[Tuple[NodeRecord, ...]] = None
) -> List[tuple]:
    """Nodes where the branch curve passes through the branch point set.

    The branch form is the z-free part of G; at a node x0 = x1 = 0, y = 1
    only the y^3-coefficient survives.  A nonempty list is a report about
    the member, not an error.  `nodes` are the member's node records at p
    when the caller already has them; otherwise they are computed here.
    """
    eqs = _over_prime(eqs, p, _NODE_MONOMIALS)
    if nodes is None:
        nodes = node_census(eqs, p)
    g003 = eqs.g_coefficient(0, 0, 3)
    return [rec.point for rec in nodes if g003.evaluate(*rec.point[0]) == 0]


# ---------------------------------------------------------------------------
# quasi-smoothness sweep
# ---------------------------------------------------------------------------


def _power_rows(p: int, top: int) -> List[int]:
    """Rows m = 0..top of a^m mod p, a = 0..p-1, packed one 64-bit slot per a.

    a^m = a^((m - 1) mod (p - 1) + 1) for m >= 1, so a row past p - 1 is an earlier one.
    """
    rows, powers = [], [1] * p
    for _ in range(min(top, p - 1) + 1):
        rows.append(_pack(powers))
        powers = [x * a % p for a, x in enumerate(powers)]
    return rows + [rows[(m - 1) % (p - 1) + 1] for m in range(p, top + 1)]


def _base_values(form: BinForm, p: int, rows: List[int]) -> List[int]:
    """The form's residues at the base points (a : 1), a = 0..p-1, then at (1 : 0).

    The values at every (a : 1) are the slots of one int, sum c_i row[d - i]
    over `_power_rows`; a slot holds at most (d + 1) (p - 1)^2 < 2^64.
    """
    c = form.nums
    d = len(c) - 1
    packed = sum(ci * rows[d - i] for i, ci in enumerate(c))
    return [v % p for v in _unpack(packed, p)] + [c[0] if c else 0]


def _sextic_residues(p: int, jk, values, qx_vals, qy_vals) -> List[List[int]]:
    """c0..c6 of the sextic f(a) = beta(1, a) at every base, each a list indexed like the values.

    A branch term g x0^i x1^j y^k ((j, k) in `jk`, g at each base in
    `values`) adds g (-1)^k qy^(3-k) a^j (1 + qx a^2)^k, whose coefficient of
    a^(j + 2l) is g times the weight w[k][l] below.  One list pass per
    (term, l) over the bases, then one reduction mod p.
    """
    # (-1)^k qy^(3-k) (1 + qx a^2)^k: its coefficient of a^(2l) is w[k][l]
    ws = list(zip(*[(qy**3, -qy * qy, -qy * qy * qx, qy, 2 * qy * qx, qy * qx * qx,
                     -1, -3 * qx, -3 * qx * qx, -qx**3) for qx, qy in zip(qx_vals, qy_vals)]))
    w = (ws[:1], ws[1:3], ws[3:6], ws[6:])
    c = [[0] * len(qy_vals) for _ in range(7)]
    for (j, k), gs in zip(jk, values):
        if any(gs):
            for l, wl in enumerate(w[k]):
                c[j + 2 * l] = [cm + g * wm for cm, g, wm in zip(c[j + 2 * l], gs, wl)]
    return [[cm % p for cm in cs] for cs in c]


def _slot_test(p: int) -> Tuple[int, int, int, int]:
    """(p^-1 mod 2^32, low, bias, top) for one packed test of p | s in every 64-bit slot.

    For odd p and 0 <= s < 2^32, p | s exactly when s p^-1 mod 2^32 <=
    L = floor((2^32 - 1) / p) (Granlund-Montgomery, PLDI 1994, section 9).
    `low` masks the low 32 bits of each slot, `bias` holds 2^32 + L in each
    and `top` bit 32 of each: bias - (x & low) keeps bit 32 exactly where
    x p^-1 mod 2^32 <= L, and no slot borrows from the next.
    """
    bound = (1 << 32) - 1
    return (pow(p, -1, 1 << 32), _pack([bound] * p), _pack([bound + 1 + bound // p] * p),
            _pack([bound + 1] * p))


def _sextic_candidates(p: int, qx: int, qy: int, c, rows, test) -> List[Tuple[int, int, tuple]]:
    """The (x0, x1, (y,)) of Q = 0 over a base with qy != 0 where beta and its partials vanish.

    On the graph y = -(x0^2 + qx x1^2)/qy of Q = 0 the branch form is the
    sextic beta = qy^3 b(x0, x1, y); in the chart x0 = 1 it is f(a), with
    the residues c = (c0, ..., c6) of `_sextic_residues`.  The candidates
    are the a with f(a) = f'(a) = 0, and (0, 1) when c6 = c5 = 0 (beta and
    its x0-partial).  f at every a is the slots of v = sum c_m rows[m],
    each at most 7 (p - 1)^2 < 2^32, and one `_slot_test` of v finds the a
    with p | f(a); f' is taken only there.
    """
    c0, c1, c2, c3, c4, c5, c6 = c
    r0, r1, r2, r3, r4, r5, r6 = rows
    inv_p, low, bias, top = test
    v = c0 * r0 + c1 * r1 + c2 * r2 + c3 * r3 + c4 * r4 + c5 * r5 + c6 * r6
    hits = (bias - (v * inv_p & low)) & top
    if not hits and (c6 or c5):
        return []
    inv, out = pow(-qy, -1, p), []
    while hits:
        bit = hits & -hits
        hits ^= bit
        a = bit.bit_length() >> 6  # the bit is bit 32 of slot a
        if not (((((6 * c6 * a + 5 * c5) * a + 4 * c4) * a + 3 * c3) * a + 2 * c2) * a + c1) % p:
            out.append((1, a, ((1 + qx * a * a) * inv % p,)))
    if not (c6 or c5):
        out.append((0, 1, (qx * inv % p,)))
    return out


def _fiber_candidates(p: int, qx: int, n: int) -> List[Tuple[int, int, Sequence[int]]]:
    """(x0, x1, ys): one point per weighted orbit of Q = x0^2 + qx x1^2 = 0 over a root of q_y.

    (x0, x1) runs over the representatives (1, a) and (0, 1) on Q = 0, each
    with every y.  With x0 = x1 = 0, l^2 scales every y != 0 to 1 or to the
    least non-residue n = `least_nonresidue(p)`, so y runs over (1, n);
    y = 0 is no point of X, since there G = z^2.  Only l = ±1 fixes those
    y, so the points of one such orbit differ in the sign of z alone.
    """
    out = [(1, a, range(p)) for a in range(p) if (1 + qx * a * a) % p == 0]
    if qx == 0:
        out.append((0, 1, range(p)))
    return out + [(0, 0, (1, n))]


def quasi_smooth_sweep(eqs: SurfaceEquations, p: int) -> List[tuple]:
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
      only the points of `_sextic_candidates` are tested (all p + 1 when
      beta vanishes on the fiber).  The sextic's seven residues come from
      `_sextic_residues` at every base at once, and its values at every a
      are the 64-bit slots of one int, tested for p | f with one multiply
      by p^-1 mod 2^32; that needs 7 (p - 1)^2 < 2^32, so p <= 24771, and
      a larger p is a ValueError.
    * q_y(t) = 0: one point per orbit of Q = 0, from `_fiber_candidates`,
      is tested.  Where b != 0 the roots z = ±sqrt(-b) are nonzero, the
      minors through z are 2z times row_q, and the rank drops exactly when
      row_q = 0.  Both roots are reported at (0 : 1); with x0 = x1 = 0,
      l = -1 maps z to -z, so only the least root r = `sqrt_mod(-b, p)`.

    Every point is listed in its canonical form, so none is normalized
    afterwards.  The values of q_x, q_y and the branch coefficients at
    every base come from one table of packed powers (`_power_rows`,
    `_base_values`); their t-derivatives and the powers of the fiber
    coordinates are taken only over a base point with a candidate.  The
    result is sorted and independent of the processing order.
    """
    eqs = _over_prime(eqs, p)
    if 7 * (p - 1) ** 2 >> 32:
        raise ValueError(f"sweep at p = {p}: its slot test needs 7 (p - 1)^2 < 2^32, so p <= 24771")
    failures = set()
    branch = [(m.i, m.j, m.k, c) for m, c in eqs.branch_terms().items()]
    forms = [eqs.q_x, eqs.q_y] + [c for *_, c in branch]
    rows = _power_rows(p, max([6] + [len(f.nums) - 1 for f in forms]))
    qx_vals, qy_vals, *values = [_base_values(f, p, rows) for f in forms]
    jk = [(j, k) for _, j, k, _ in branch]
    sextics = list(zip(*_sextic_residues(p, jk, values, qx_vals, qy_vals)))
    low_rows, test, nonresidue = rows[:7], _slot_test(p), least_nonresidue(p)

    for base in base_points(p):
        n = base[0] if base[1] else p
        qx, qy = qx_vals[n], qy_vals[n]
        if qy:
            cands = _sextic_candidates(p, qx, qy, sextics[n], low_rows, test)
        else:
            cands = _fiber_candidates(p, qx, nonresidue)
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
                                failures.add((base, (x0, x1, y, z)))
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
                    failures.add((base, (x0, x1, y, 0)))
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


class SingularReport(Record):
    # node_bound: 2 p_g - 2 + theta = deg q_y, the node count over the algebraic closure
    __slots__ = ("p_nodes", "p_sweep", "nodes", "node_bound", "branch_hits", "cone_singularities",
                 "timings")

    @property
    def sweep_skipped(self) -> bool:
        return self.p_sweep is None

    @property
    def roots_outside_field(self) -> bool:
        return sum(r.multiplicity for r in self.nodes) < self.node_bound

    @property
    def clean(self) -> bool:
        nodes_ok = all(r.a1_ok for r in self.nodes)
        return nodes_ok and not self.branch_hits and not self.cone_singularities

    def to_json_dict(self) -> dict:
        return {
            "prime_nodes": self.p_nodes,
            "prime_sweep": self.p_sweep,
            "node_bound": self.node_bound,
            "node_count": len(self.nodes),
            "roots_outside_field": self.roots_outside_field,
            "nodes": [r.to_json_dict() for r in self.nodes],
            "branch_hits": [{"point": _point_json(q), "branch_value": 0} for q in self.branch_hits],
            "cone_singularities": [_point_json(q) for q in self.cone_singularities],
            "sweep_skipped": self.sweep_skipped,
            "clean": self.clean,
            "timings": self.timings,
        }


#: largest prime the sweep runs at: the refusal quotes the (p + 1)^2 fiber
#: candidates, one per point of the conic over each base point.  The sweep
#: still grows as p^2, but a base point costs a few big-int operations on p
#: packed 64-bit slots.  At p = 1009 a whole census took 28 ms for the seed-9
#: (p_g, theta) = (2, 0) member, and 0.28 s (theta = 0) and 0.52 s
#: (theta = 6) for the seed-1 p_g = 1000 members, the largest measured
#: (in-process, best of 3, CPython 3.11.7 on a shared 2-core host).  Its
#: slot test needs 7 (p - 1)^2 < 2^32, which caps any bound at p = 24771
#: (a test checks this).
SWEEP_PRIME_MAX = 1009


def _census_prime(eqs: SurfaceEquations, p: Optional[int], default: Optional[int]) -> int:
    """p, or `default` when p is None, for a rational member; else the member's prime.

    A member over F_q is censused at q alone: any other p is a ValueError.
    """
    q = eqs.field.p
    if q is None:
        return default if p is None else p
    if p is not None and p != q:
        raise ValueError(f"member lives over F_{q}; censusing at --prime {p} "
                         "would cross characteristics")
    return q


def run_census(eqs: SurfaceEquations, prime: Optional[int] = None,
               skip_sweep: bool = False) -> SingularReport:
    """Node census plus branch check, and optionally the full sweep.

    A member over F_p is censused at p: None stands for p, and any other
    prime is a ValueError.  A rational member is reduced modulo `prime`
    for both; None stands for 101 for the nodes and 11 for the sweep.  A
    sweep above SWEEP_PRIME_MAX is refused with a ValueError before any
    work is done; a `prime` that is no prime below 2**31 is reported as
    such first.
    """
    p_nodes = _census_prime(eqs, prime, 101)
    p_sweep = _census_prime(eqs, prime, 11)
    if not skip_sweep and p_sweep > SWEEP_PRIME_MAX:
        FieldSpec.prime_field(p_sweep)  # rejects composites and p >= 2**31
        raise ValueError(
            f"sweep at p = {p_sweep} would visit {(p_sweep + 1) ** 2} fiber candidates "
            f"(limit p <= {SWEEP_PRIME_MAX}); pass --skip-sweep"
        )
    t0 = time.perf_counter()
    reduced = _over_prime(eqs, p_nodes, _NODE_MONOMIALS)
    nodes = node_census(reduced, p_nodes)
    branch_hits = branch_disjointness(reduced, p_nodes, nodes)
    timings = {"nodes_s": round(time.perf_counter() - t0, 6)}
    cone_singularities = []
    if skip_sweep:
        p_sweep = None
    else:
        t1 = time.perf_counter()
        cone_singularities = quasi_smooth_sweep(eqs, p_sweep)
        timings["sweep_s"] = round(time.perf_counter() - t1, 6)
    bound = 2 * eqs.bundle.pg - 2 + eqs.bundle.theta
    return SingularReport(p_nodes, p_sweep, nodes, bound, branch_hits, cone_singularities, timings)
