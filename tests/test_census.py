import random
from fractions import Fraction
from typing import Tuple

import pytest

import canpencil.binform as binform_mod
import canpencil.census as census_mod
import canpencil.fields as fields_mod
from canpencil.binform import BinForm, least_nonresidue, parse_binform, random_binform, roots
from canpencil.census import (
    base_points,
    branch_disjointness,
    node_census,
    quasi_smooth_sweep,
    run_census,
)
from canpencil.family import SurfaceEquations, degree_table, generate_member
from canpencil.fields import FieldSpec, QQ
from canpencil.relalg import YPoly
from canpencil.sections import (
    BRANCH_MONOMIALS,
    BundleData,
    FiberMonomial,
    GradedSection,
)

import binform_reference
from binform_reference import deriv_t0, deriv_t1

F11 = FieldSpec.prime_field(11)
F101 = FieldSpec.prime_field(101)


def member_2_0(seed, p=101, split=True):
    return generate_member(2, 0, FieldSpec.prime_field(p), seed=seed, split_qy=split)


# -- point enumeration -----------------------------------------------------------


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


def test_fiber_class_count_vs_orbit_oracle():
    p = 5
    classes = enumerate_fiber_classes(p)
    # oracle: explicit orbit partition of F_p^4 \ {0} under the weighted action
    orbits = set()
    for v in (
        (a, b, c, d)
        for a in range(p)
        for b in range(p)
        for c in range(p)
        for d in range(p)
    ):
        if v == (0, 0, 0, 0):
            continue
        orbit = frozenset(
            ((l * v[0]) % p, (l * v[1]) % p, (l * l * v[2]) % p, (pow(l, 3, p) * v[3]) % p)
            for l in range(1, p)
        )
        orbits.add(orbit)
    assert len(classes) == len(orbits)
    # no duplicates and each class is its own canonical form
    assert len(set(classes)) == len(classes)
    for c in classes:
        assert canonical_fiber_rep(p, c) == c


def test_canonical_rep_conventions():
    assert canonical_fiber_rep(5, (1, 0, 0, 0)) == (1, 0, 0, 0)
    assert canonical_fiber_rep(5, (3, 1, 2, 4))[0] == 1
    # y a square: normalizes to 1; else to the smallest orbit value
    assert canonical_fiber_rep(5, (0, 0, 4, 0)) == (0, 0, 1, 0)
    assert canonical_fiber_rep(5, (0, 0, 2, 0)) == (0, 0, 2, 0)
    assert canonical_fiber_rep(5, (0, 0, 3, 0)) == (0, 0, 2, 0)
    with pytest.raises(ValueError):
        canonical_fiber_rep(5, (0, 0, 0, 0))


def test_canonical_rep_with_x0_x1_zero_has_listed_y():
    """The orbit fact behind the sweep's (0 : 0) stratum, checked with the l-loop.

    Every (0, 0, y, z) with y != 0 is canonically (0, 0, 1 or n, z*), n the
    least non-residue, where z* is the smaller of z' and p - z' for the z'
    that l^2 y = 1 or n gives: the only other l with that l^2 is -l.
    """
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        n = least_nonresidue(p)
        for y in range(1, p):
            for z in range(p):
                _, _, y_rep, z_rep = canonical_fiber_rep(p, (0, 0, y, z))
                assert y_rep in (1, n), (p, y, z)
                l = next(l for l in range(1, p) if l * l * y % p == y_rep)
                z1 = pow(l, 3, p) * z % p
                assert z_rep == min(z1, (p - z1) % p), (p, y, z)


def test_enumerate_points_shape():
    pts = list(enumerate_points(2, 0, 5))
    fibers = enumerate_fiber_classes(5)
    assert len(pts) == 6 * len(fibers)
    assert len(set(pts)) == len(pts)
    assert pts[0][0] == (0, 1)


def test_enumerate_points_rejects_bad_prime():
    with pytest.raises(ValueError):
        list(enumerate_points(2, 0, 3))


# -- node census -------------------------------------------------------------------


def test_node_census_split_member():
    member = member_2_0(seed=20260808)
    nodes = node_census(member, 101)
    doc = run_census(member, 101, skip_sweep=True)
    assert doc["node_bound"] == 2 and doc["nodes"] == [r.to_json_dict() for r in nodes]
    assert len(nodes) == 2
    assert all(r.a1_ok and r.multiplicity == 1 for r in nodes)
    assert all(r.point[1] == (0, 0, 1, 0) for r in nodes)
    assert not doc["roots_outside_field"]
    # node count equals the number of distinct rational roots of q_y
    assert len(nodes) == len(roots(member.q_y))


def test_node_census_irrational_roots_flagged():
    bundle = BundleData(2, 0)
    one = BinForm.one(F101)
    # q_y = t0^2 + 2 t1^2: -2 is not a square mod 101, so no rational roots
    qy = parse_binform("t0^2 + 2*t1^2", F101)
    assert roots(qy) == {}
    Q = GradedSection(
        bundle, F101, (2, -2),
        {FiberMonomial(2, 0, 0, 0): one,
         FiberMonomial(0, 2, 0, 0): parse_binform("t0^4", F101),
         FiberMonomial(0, 0, 1, 0): qy},
    )
    member = generate_member(2, 0, F101, seed=9)
    eqs = SurfaceEquations(bundle, F101, Q, member.G).validate()
    assert node_census(eqs, 101) == ()
    assert run_census(eqs, 101, skip_sweep=True)["roots_outside_field"] is True


def test_node_census_double_root_fails_a1():
    bundle = BundleData(2, 0)
    one = BinForm.one(F101)
    qy = parse_binform("t0^2", F101)  # double root at (0:1)
    member = generate_member(2, 0, F101, seed=10)
    Q = GradedSection(
        bundle, F101, (2, -2),
        {FiberMonomial(2, 0, 0, 0): one,
         FiberMonomial(0, 2, 0, 0): member.q_x,
         FiberMonomial(0, 0, 1, 0): qy},
    )
    eqs = SurfaceEquations(bundle, F101, Q, member.G).validate()
    (rec,) = node_census(eqs, 101)
    assert rec.multiplicity == 2 and not rec.a1_ok and rec.hessian_det == 0
    # the double root is counted twice against the bound: every root lies in F_101
    doc = run_census(eqs, 101, skip_sweep=True)
    assert doc["roots_outside_field"] is False
    # a degenerate node alone keeps the member from being clean
    assert (doc["branch_hits"], doc["cone_singularities"], doc["clean"]) == ([], [], False)


@pytest.mark.parametrize("p", [101, 35027])
def test_node_hessian_det_is_closed_form(p):
    """hessian_det is -2 q_y'(t)^2 in the node's chart, and A1 means a simple root.

    Checked against BinForm calculus on split members of three shapes, one
    of them with q_y replaced by l^2 times a cofactor so that a double root
    occurs next to simple ones.
    """
    field = FieldSpec.prime_field(p)
    members = [generate_member(pg, theta, field, seed=seed, split_qy=True)
               for pg, theta in ((2, 0), (3, 2), (4, 4)) for seed in range(3)]
    member = members[-1]
    lin = _linear_factor(field, min(roots(member.q_y)))
    terms = dict(member.Q.terms)
    terms[FiberMonomial(0, 0, 1, 0)] = lin * lin * random_binform(
        field, member.q_y.degree - 2, random.Random(p))
    Q = GradedSection(member.bundle, field, member.Q.bidegree, terms)
    members.append(SurfaceEquations(member.bundle, field, Q, member.G))
    mults = set()
    for eqs in members:
        for rec in node_census(eqs, p):
            t0, t1 = rec.point[0]
            d = (deriv_t0 if t1 else deriv_t1)(eqs.q_y).evaluate(t0, t1)
            assert rec.hessian_det == -2 * d * d % p
            assert rec.a1_ok == (rec.multiplicity == 1)
            mults.add(rec.multiplicity)
    assert {1, 2} <= mults


def test_node_census_rejects_zero_qy():
    bundle = BundleData(2, 0)
    member = generate_member(2, 0, F101, seed=11)
    Q = GradedSection(
        bundle, F101, (2, -2),
        {FiberMonomial(2, 0, 0, 0): BinForm.one(F101),
         FiberMonomial(0, 2, 0, 0): member.q_x},
    )
    eqs = SurfaceEquations(bundle, F101, Q, member.G)
    with pytest.raises(ValueError, match="q_y"):
        node_census(eqs, 101)


def test_node_census_count_bounded():
    for seed in range(3):
        member = generate_member(3, 2, F101, seed=seed)
        doc = run_census(member, 101, skip_sweep=True)
        assert doc["node_count"] == len(doc["nodes"]) <= doc["node_bound"] == 2 * 3 - 2 + 2


def fiber_variables(field):
    """x0, x1, y and z as `YPoly`s keyed by their exponents (i, j, k, l)."""
    one = BinForm.one(field)
    return [YPoly(field, {tuple(int(i == n) for i in range(4)): one}) for n in range(4)]


def test_node_local_model_identity():
    """The quotient-chart equation behind the A1 test is exact.

    With v = x0*x1/y and w = x1^2/y, the local equation of C in the chart
    y != 0 is v^2 + q_x w^2 + q_y w; clearing y^2 this must equal x1^2 * Q
    identically as polynomials in (x0, x1, y, z), for any member.
    """
    for seed in (1, 2, 3):
        member = generate_member(3, 2, QQ, seed=seed)
        x0, x1, y, _ = fiber_variables(member.field)
        v = x0 * x1
        w = x1 * x1
        lhs = v * v + (w * w).scale(member.q_x) + (w * y).scale(member.q_y)
        assert lhs == (x1 * x1) * YPoly(member.field, member.Q.terms)


def test_node_count_matches_root_count():
    for seed in range(6):
        member = generate_member(2, 1, F101, seed=seed)
        if member.q_y.is_zero:
            continue
        nodes = node_census(member, 101)
        assert len(nodes) == len(roots(member.q_y))
        assert sum(r.multiplicity for r in nodes) == sum(roots(member.q_y).values())


# -- branch disjointness ----------------------------------------------------------------


def test_branch_disjointness_generic_member_clean():
    member = member_2_0(seed=20260808)
    assert branch_disjointness(member, 101, node_census(member, 101)) == []


def test_branch_disjointness_doctored_member():
    # the (0,0,3) slot has degree theta, so doctor a (2,2) member where a
    # coefficient vanishing at a chosen node exists
    member22 = generate_member(2, 2, F101, seed=4, split_qy=True)
    nodes22 = node_census(member22, 101)
    assert nodes22, "need a rational node to doctor"
    (a, b) = nodes22[0].point[0]
    vanishing = parse_binform(f"t0 - {a}*t1", F101) * parse_binform("t1", F101)
    assert vanishing.degree == member22.g_coefficient(0, 0, 3).degree
    terms = dict(member22.G.terms)
    terms[FiberMonomial(0, 0, 3, 0)] = vanishing
    G = GradedSection(member22.bundle, F101, member22.G.bidegree, terms)
    doctored = SurfaceEquations(member22.bundle, F101, member22.Q, G).validate()
    hits = branch_disjointness(doctored, 101, node_census(doctored, 101))
    assert any(base == (a, b) for base, _ in hits)
    # independent recheck: the full branch section vanishes at each hit
    for (t0, t1), _ in hits:
        value = sum(
            c.evaluate(t0, t1)
            for m, c in doctored.branch_terms().items()
            if m.i == 0 and m.j == 0
        ) % 101
        assert value == 0


def test_branch_value_is_g003_at_nodes():
    member = generate_member(2, 2, F101, seed=4, split_qy=True)
    for rec in node_census(member, 101):
        t0, t1 = rec.point[0]
        g003 = member.g_coefficient(0, 0, 3)
        full = evaluate_section(member.G, (t0, t1, 0, 0, 1, 0))
        assert full == g003.evaluate(t0, t1)


# -- quasi-smoothness sweep ---------------------------------------------------------------


def test_sweep_detects_double_line():
    # q_x = q_y = 0 makes Q = x0^2, a double line: every cone point with
    # x0 = 0 on G is singular
    bundle = BundleData(2, 0)
    one = BinForm.one(F11)
    Q = GradedSection(bundle, F11, (2, -2), {FiberMonomial(2, 0, 0, 0): one})
    member = generate_member(2, 0, F11, seed=2)
    eqs = SurfaceEquations(bundle, F11, Q, member.G)
    fails = quasi_smooth_sweep(eqs, 11)
    assert fails
    assert all(fiber[0] == 0 for _, fiber in fails)


def test_sweep_clean_member():
    member = generate_member(2, 0, F11, seed=1)
    assert quasi_smooth_sweep(member, 11) == []


def test_sweep_deterministic_and_order_independent(monkeypatch):
    member = generate_member(2, 0, F11, seed=4)  # has failures
    serial = quasi_smooth_sweep(member, 11)
    assert serial, "seed 4 should produce a singular member for this test"
    shuffled = base_points(11)
    random.Random(0).shuffle(shuffled)
    with monkeypatch.context() as m:
        m.setattr(census_mod, "base_points", lambda p: list(shuffled))
        assert quasi_smooth_sweep(member, 11) == serial
    assert quasi_smooth_sweep(member, 11) == serial


def test_chart_value_and_derivative_matches_binform_calculus():
    rng = random.Random(3)
    forms = [BinForm.zero(F101)] + [random_binform(F101, rng.randrange(7), rng) for _ in range(20)]
    for form in forms:
        for a, b in ((rng.randrange(101), rng.randrange(1, 101)), (rng.randrange(101), 1)):
            expected = (form.evaluate(a, b), deriv_t0(form).evaluate(a, b))
            assert census_mod._chart_value_and_derivative(form, (a, b), 101) == expected
        expected = (form.evaluate(1, 0), deriv_t1(form).evaluate(1, 0))
        assert census_mod._chart_value_and_derivative(form, (1, 0), 101) == expected


def _chart_terms(section, base):
    """(exponents, value, d/dt) of each term at a base point, in its chart.

    The base coordinate t is t0 in the chart t1 = 1 and t1 at (1:0).
    """
    t0, t1 = base
    return [
        ((m.i, m.j, m.k, m.l), c.evaluate(t0, t1),
         (deriv_t0 if t1 else deriv_t1)(c).evaluate(t0, t1))
        for m, c in section.terms.items()
    ]


def _value(terms, fiber, p):
    return sum(c * pow(fiber[0], e[0], p) * pow(fiber[1], e[1], p)
               * pow(fiber[2], e[2], p) * pow(fiber[3], e[3], p)
               for e, c, _ in terms) % p


def _gradient(terms, fiber, p):
    """The 5 partials in (x0, x1, y, z, t), term by term."""
    grad = [0] * 5
    for exps, c, dc in terms:
        powers = [pow(x, e, p) for x, e in zip(fiber, exps)]
        grad[4] += dc * powers[0] * powers[1] * powers[2] * powers[3]
        for v, (x, e) in enumerate(zip(fiber, exps)):
            if e:
                rest = [powers[u] for u in range(4) if u != v]
                grad[v] += c * e * pow(x, e - 1, p) * rest[0] * rest[1] * rest[2]
    return [g % p for g in grad]


def enumerate_fiber_classes(p):
    """All weighted-projective classes of the fiber, canonical and sorted."""
    seen = set()
    # x0 = 1 stratum: free (x1, y, z)
    for x1 in range(p):
        for y in range(p):
            for z in range(p):
                seen.add((1, x1, y, z))
    # x0 = 0, x1 = 1 stratum
    for y in range(p):
        for z in range(p):
            seen.add((0, 1, y, z))
    # x0 = x1 = 0: orbit representatives computed explicitly
    for y in range(p):
        for z in range(p):
            if y or z:
                seen.add(canonical_fiber_rep(p, (0, 0, y, z)))
    return sorted(seen)


def enumerate_points(pg, theta, p):
    """Every point of the bundle over F_p exactly once, in canonical order."""
    BundleData(pg, theta)
    FieldSpec.prime_field(p)  # rejects 2, 3, composites
    fibers = enumerate_fiber_classes(p)
    for base in base_points(p):
        for fiber in fibers:
            yield base, fiber


def evaluate_section(section, point):
    """Plain polynomial evaluation of a GradedSection at (t0, t1, x0, x1, y, z) over F_p."""
    if not section.field.is_prime_field:
        raise ValueError("evaluation is supported over prime fields only")
    t0, t1, x0, x1, y, z = point
    p = section.field.p
    total = 0
    for mono, coeff in section.terms.items():
        c = coeff.evaluate(t0, t1)
        if c == 0:
            continue
        v = (
            c
            * pow(x0 % p, mono.i, p)
            * pow(x1 % p, mono.j, p)
            * pow(y % p, mono.k, p)
            * pow(z % p, mono.l, p)
        )
        total = (total + v) % p
    return total


def _brute_force_singular_points(eqs, p):
    """Every point of the bundle where Q = G = 0 and the Jacobian has rank < 2."""
    out, chart = [], {}
    for base, fiber in enumerate_points(eqs.bundle.pg, eqs.bundle.theta, p):
        if base not in chart:
            chart[base] = (_chart_terms(eqs.Q, base), _chart_terms(eqs.G, base))
        q_terms, g_terms = chart[base]
        if _value(q_terms, fiber, p) or _value(g_terms, fiber, p):
            continue
        dq, dg = _gradient(q_terms, fiber, p), _gradient(g_terms, fiber, p)
        if all((dq[a] * dg[b] - dq[b] * dg[a]) % p == 0
               for a in range(5) for b in range(a + 1, 5)):
            out.append((base, fiber))
    return sorted(out)


def _double_line_member(p, seed=2, theta=0):
    bundle = BundleData(2, theta)
    field = FieldSpec.prime_field(p)
    Q = GradedSection(bundle, field, (2, -2), {FiberMonomial(2, 0, 0, 0): BinForm.one(field)})
    member = generate_member(2, theta, field, seed=seed)
    return SurfaceEquations(bundle, field, Q, member.G)


def _both_classes_member(p):
    """A (2, 2) double line whose y^3 coefficient is t0 t1.

    q_y vanishes everywhere, so every base point can carry rank drops with
    x0 = x1 = 0 and z != 0: at (0, 0, y) they need -b = -a y^3 to be a
    square over (a : 1).  -a is a square for some a and not for others, so
    the listed y = 1 and y = n both fail somewhere with z != 0.
    """
    member = _double_line_member(p, theta=2)
    terms = dict(member.G.terms)
    terms[FiberMonomial(0, 0, 3, 0)] = parse_binform("t0*t1", member.field)
    G = GradedSection(member.bundle, member.field, member.G.bidegree, terms)
    return SurfaceEquations(member.bundle, member.field, member.Q, G)


def _linear_factor(field, base):
    """The linear form vanishing at the base point (a : b)."""
    a, b = base
    return BinForm(field, (b, -a))


def _with_q_x(member, q_x):
    terms = dict(member.Q.terms)
    terms[FiberMonomial(0, 2, 0, 0)] = q_x
    Q = GradedSection(member.bundle, member.field, member.Q.bidegree, terms)
    return SurfaceEquations(member.bundle, member.field, Q, member.G)


def _shared_root_member(p, pg, theta, seed):
    """A split member whose q_x is multiplied by the linear factor of a root of q_y.

    Over that root Q restricts to x0^2, so the fiber (0 : 1) can carry
    rank drops with z != 0.
    """
    field = FieldSpec.prime_field(p)
    member = generate_member(pg, theta, field, seed=seed, split_qy=True)
    lin = _linear_factor(field, min(roots(member.q_y)))
    rest = random_binform(field, member.q_x.degree - 1, random.Random(seed))
    return _with_q_x(member, lin * rest)


def _flat_fiber_member(p, seed=0):
    """A (2, 0) member with rank drops in every q_y(t) = 0 branch of the sweep.

    q_y has two rational roots r and s; q_x = -l_s^4 with l_s the linear
    factor of s; every branch coefficient is divisible by (l_r l_s)^2, so b
    and db/dt vanish on the fibers over r and s and every point there with
    z = 0 is a rank drop.  Over r, -q_x is a nonzero square, so Q = 0 has
    points with x0 = 1; over s, Q = x0^2, so it has points with x0 = 0,
    x1 = 1; over both it has the points with x0 = x1 = 0.
    """
    field = FieldSpec.prime_field(p)
    rng = random.Random(seed)
    member = generate_member(2, 0, field, seed=seed, split_qy=True)
    r, s = sorted(roots(member.q_y))
    square = (_linear_factor(field, r) * _linear_factor(field, s)) ** 2
    g_terms = {m: square * random_binform(field, c.degree - 4, rng)
               for m, c in member.G.terms.items()}
    g_terms[FiberMonomial(0, 0, 0, 2)] = BinForm.one(field)
    G = GradedSection(member.bundle, field, member.G.bidegree, g_terms)
    flat = SurfaceEquations(member.bundle, field, member.Q, G)
    return _with_q_x(flat, -(_linear_factor(field, s) ** 4))


def _sweep_members(p, seeds):
    field = FieldSpec.prime_field(p)
    shapes = ((2, 0), (2, 2), (3, 1))
    members = [
        generate_member(pg, theta, field, seed=seed, split_qy=split)
        for (pg, theta) in shapes
        for split in (False, True)
        for seed in seeds
    ]
    members += [_shared_root_member(p, pg, theta, seed) for (pg, theta) in shapes for seed in seeds]
    members += [_double_line_member(p), _both_classes_member(p), _flat_fiber_member(p)]
    return members


def _tally(counts, eqs, expected, p):
    """Count a member's rank drops by kind, and by the sweep branch over q_y = 0.

    With x0 = x1 = 0 the count is split by the listed y (1 or the least
    non-residue n) and by z = 0 or z != 0.
    """
    counts["singular" if expected else "clean"] += 1
    counts["z != 0"] += any(fiber[3] for _, fiber in expected)
    for base, (x0, x1, y, z) in expected:
        if census_mod._chart_value_and_derivative(eqs.q_y, base, p)[0] == 0:
            if x0 or x1:
                counts["x0 = 1" if x0 else "(0 : 1)"] += 1
            else:
                counts[f"(0 : 0), y = {'1' if y == 1 else 'n'}, z {'!=' if z else '='} 0"] += 1


def _new_tally():
    return dict.fromkeys(("clean", "singular", "z != 0", "x0 = 1", "(0 : 1)",
                          "(0 : 0), y = 1, z = 0", "(0 : 0), y = 1, z != 0",
                          "(0 : 0), y = n, z = 0", "(0 : 0), y = n, z != 0"), 0)


@pytest.mark.oracle
@pytest.mark.parametrize("p", [5, 7])
def test_sweep_matches_brute_force_jacobian(p):
    """The sweep finds exactly the rank-drop points of a brute-force scan.

    The members cover every branch of the enumeration over the roots of
    q_y, each with at least one rank drop.
    """
    counts = _new_tally()
    for eqs in _sweep_members(p, range(3)):
        expected = _brute_force_singular_points(eqs, p)
        assert quasi_smooth_sweep(eqs, p) == expected
        _tally(counts, eqs, expected, p)
    assert all(counts.values()), counts


def _sqrt_table(p):
    """Every residue that is a square mod p -> all its square roots, ascending."""
    table = {}
    for r in range(p):
        table.setdefault(r * r % p, []).append(r)
    return table


def _orbit_fiber_candidates(p, qx, qy):
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


def _orbit_sweep(eqs, p):
    """The orbit sweep: the branch value at one point per weighted orbit.

    Over each base point it visits the p + 1 orbit representatives with
    (x0, x1) != 0 when q_y(t) != 0, and every cone point when q_y(t) = 0,
    with powers from one table a^e mod p.  b = 0 forces z = 0 and the
    partials of b go to the rank test; b != 0 makes z nonzero, and the
    rank drops exactly when row_q = 0.  Kept as the reference for
    `quasi_smooth_sweep`, which tests only the points where q_y = 0 or the
    branch sextic is singular.
    """
    eqs = census_mod._over_prime(eqs, p)
    sqrt = _sqrt_table(p)
    failures = set()
    branch = [(m.i, m.j, m.k, c) for m, c in eqs.branch_terms().items()]
    top = max((max(i, j, k) for i, j, k, _ in branch), default=0)
    pw = [[pow(a, e, p) for e in range(top + 1)] for a in range(p)]
    qx_form, qy_form = eqs.q_x, eqs.q_y

    for base in base_points(p):
        qx, qx_d = census_mod._chart_value_and_derivative(qx_form, base, p)
        qy, qy_d = census_mod._chart_value_and_derivative(qy_form, base, p)
        gl = []
        for (i, j, k, coeff) in branch:
            val, dval = census_mod._chart_value_and_derivative(coeff, base, p)
            if val or dval:
                gl.append((i, j, k, val, dval))
        for x0, x1, y in _orbit_fiber_candidates(p, qx, qy):
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
                        failures.add((base, canonical_fiber_rep(p, (x0, x1, y, z))))
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
            if census_mod._rank_below_two(row_q, row_g, p):
                failures.add((base, canonical_fiber_rep(p, (x0, x1, y, 0))))
    return sorted(failures)


def _sparsified(member, rng):
    """The member with each branch term dropped with probability 1/2 (z^2 is kept)."""
    terms = {m: c for m, c in member.G.terms.items() if m.l or rng.random() < 0.5}
    G = GradedSection(member.bundle, member.field, member.G.bidegree, terms)
    return SurfaceEquations(member.bundle, member.field, member.Q, G)


def _vanishing_fiber_member(p, power, seed=0):
    """A (3, 1) member whose branch terms all vanish to order `power` over a base with q_y != 0.

    b is then zero on that whole fiber, so all p + 1 of its points are
    candidates; with power 2, b_t vanishes there too and every point of the
    fiber with z = 0 is a rank drop.  Terms of degree below `power` are dropped.
    """
    field = FieldSpec.prime_field(p)
    rng = random.Random(seed)
    member = generate_member(3, 1, field, seed=seed)
    base = next(b for b in base_points(p) if member.q_y.evaluate(*b))
    lin = _linear_factor(field, base) ** power
    terms = {m: lin * random_binform(field, c.degree - power, rng)
             for m, c in member.G.terms.items() if m.l == 0 and c.degree >= power}
    terms[FiberMonomial(0, 0, 0, 2)] = BinForm.one(field)
    G = GradedSection(member.bundle, field, member.G.bidegree, terms)
    return SurfaceEquations(member.bundle, field, member.Q, G)


def _sextic_paths(eqs, expected, p):
    """The branches of the sweep that a member reaches, found without the sweep.

    "beta = 0": a base point with q_y != 0 where b vanishes at every point
    of Q = 0 with (x0, x1) != 0; "(0 : 1)": one where b and b_x0 vanish at
    (0 : 1 : q_x / -q_y), so c6 = c5 = 0; "z != 0": a failure off z = 0,
    which lies over a root of q_y.
    """
    hit = {"z != 0"} if any(fiber[3] for _, fiber in expected) else set()
    for base in base_points(p):
        qx, qy = eqs.q_x.evaluate(*base), eqs.q_y.evaluate(*base)
        if not qy:
            continue
        g_terms, inv = _chart_terms(eqs.G, base), pow(-qy, -1, p)
        top = (0, 1, qx * inv % p, 0)
        if _value(g_terms, top, p) == 0:
            if _gradient(g_terms, top, p)[0] == 0:
                hit.add("(0 : 1)")
            if all(_value(g_terms, (1, a, (1 + qx * a * a) * inv % p, 0), p) == 0
                   for a in range(p)):
                hit.add("beta = 0")
    return hit


@pytest.mark.oracle
@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43])
def test_sweep_matches_orbit_sweep(p):
    """The sextic sweep agrees with the orbit sweep, and its rare branches are reached.

    Generated members of five shapes, the members of `_sweep_members`, each
    of them with sparsified branch terms, and two members with a fiber where
    b vanishes.
    """
    field = FieldSpec.prime_field(p)
    members = [generate_member(pg, theta, field, seed=seed)
               for pg, theta in ((4, 4), (6, 0)) for seed in range(2)]
    members += _sweep_members(p, range(2))
    rng = random.Random(p)
    members += [_sparsified(eqs, rng) for eqs in members]
    members += [_vanishing_fiber_member(p, power) for power in (1, 2)]
    paths, counts = set(), _new_tally()
    for eqs in members:
        expected = _orbit_sweep(eqs, p)
        found = quasi_smooth_sweep(eqs, p)
        assert found == expected
        assert all(canonical_fiber_rep(p, fiber) == fiber for _, fiber in found)
        paths |= _sextic_paths(eqs, expected, p)
        _tally(counts, eqs, expected, p)
    assert paths == {"beta = 0", "(0 : 1)", "z != 0"}
    assert all(counts.values()), counts


@pytest.mark.parametrize("p", [101, 257])
def test_flat_fiber_sweep_reports_canonical_points(p, time_limit):
    """The sweep lists one canonical point per orbit, so nothing needs normalizing.

    The flat-fiber member fails at every z = 0 point over both roots of
    q_y, on all three strata; at p = 257 that is over a thousand points.
    """
    time_limit(20)
    found = quasi_smooth_sweep(_flat_fiber_member(p), p)
    assert any(fiber[:2] == (0, 0) for _, fiber in found)
    for _, fiber in found:
        assert canonical_fiber_rep(p, fiber) == fiber, fiber


def test_sweep_finds_the_least_nonresidue_once(monkeypatch):
    # the flat-fiber member's q_y has two rational roots, each with x0 = x1 = 0 candidates
    calls, real = [], census_mod.least_nonresidue
    monkeypatch.setattr(census_mod, "least_nonresidue", lambda q: calls.append(q) or real(q))
    for p in (11, 101):
        calls.clear()
        found = quasi_smooth_sweep(_flat_fiber_member(p), p)
        assert any(fiber[:2] == (0, 0) for _, fiber in found)
        assert calls in ([], [p])


# -- the packed sweep kernel against the list kernels it replaced ---------------------


def _list_base_values(form: BinForm, p: int):
    """The form's residues at the base points (a : 1), a = 0..p-1, then at (1 : 0)."""
    vals = [0] * p
    for c in form.nums:
        vals = [(v * a + c) % p for a, v in enumerate(vals)]
    return vals + [form.nums[0] if form.nums else 0]


def _horner_sextic_candidates(p: int, qx: int, qy: int, jk, gs):
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


SWEEP_SHAPES = ((2, 0), (2, 2), (3, 1), (4, 4), (6, 0))
#: the degree of the tallest coefficient of any sweep shape (q_x of (6, 0))
TALLEST = max(max(t.q_x, t.q_y, *t.g.values()) for t in (degree_table(*s) for s in SWEEP_SHAPES))
BRANCH_JK = [(m.j, m.k) for m in BRANCH_MONOMIALS]
PRIMES_TO_257 = [p for p in range(5, 258) if all(p % d for d in range(2, int(p**0.5) + 1))]


def _packed_sextic_candidates(p, qx, qy, jk, gs):
    """`_sextic_candidates` at one base, with its residues from `_sextic_residues`."""
    c = census_mod._sextic_residues(p, jk, [[g] for g in gs], [qx], [qy])
    rows = census_mod._power_rows(p, 6)
    return census_mod._sextic_candidates(p, qx, qy, [cm[0] for cm in c], rows[:7],
                                         census_mod._slot_test(p))


@pytest.mark.oracle
@pytest.mark.parametrize("p", PRIMES_TO_257 + [509, 1009])
def test_packed_kernel_matches_list_kernels(p):
    """Packed base values and the packed scan agree with the list kernels at every prime to 257,
    at 509 and at the sweep bound 1009.

    Base values: the zero form, constant forms, forms whose every
    coefficient is p - 1 (the largest slot sums) and random forms, up to
    the tallest coefficient of any sweep shape, which is taller than p - 1
    at the smallest primes.  Scan: random residues of c0..c6 (through the
    seven y-free terms, c_j = g qy^3), random residues of all sixteen
    branch terms, sextics with a planted double root, and the all-zero
    sextic, where every a is a hit.
    """
    field, rng = FieldSpec.prime_field(p), random.Random(p)
    rows = census_mod._power_rows(p, TALLEST)
    forms = [BinForm.zero(field), BinForm.one(field), BinForm.from_numerators(field, [p - 1], 1)]
    forms += [BinForm.from_numerators(field, [p - 1] * (d + 1), 1) for d in (6, TALLEST)]
    forms += [random_binform(field, rng.randrange(TALLEST + 1), rng) for _ in range(20)]
    forms += [random_binform(field, TALLEST, rng) for _ in range(5)]
    for form in forms:
        assert census_mod._base_values(form, p, rows) == _list_base_values(form, p), form

    y_free = [(j, 0) for j in range(7)]
    cases = [(y_free, [0] * 7), (BRANCH_JK, [0] * len(BRANCH_JK))]
    for _ in range(30):
        cases.append((y_free, [rng.randrange(p) for _ in range(7)]))
        cases.append((BRANCH_JK, [rng.randrange(p) for _ in BRANCH_JK]))
        r = rng.randrange(p)  # (a - r)^2 times a quartic: f(r) = f'(r) = 0
        double = [0] * 7
        for i, q in enumerate(rng.randrange(p) for _ in range(5)):
            for e, m in enumerate((r * r, -2 * r, 1)):
                double[i + e] = (double[i + e] + q * m) % p
        cases.append((y_free, double))
    for jk, gs in cases:
        qx, qy = rng.randrange(p), rng.randrange(1, p)
        if jk is y_free:  # g_j = c_j / qy^3 makes c_j the residue drawn
            gs = [g * pow(qy, -3, p) % p for g in gs]
        expected = _horner_sextic_candidates(p, qx, qy, jk, gs)
        assert _packed_sextic_candidates(p, qx, qy, jk, gs) == expected, (qx, qy, gs)
        if not any(gs):
            assert len(expected) == p + 1


def test_sweep_bound_keeps_slot_sums_below_two_to_the_32():
    # every slot of the packed scan holds at most 7 (p - 1)^2 before its 32-bit test
    assert 7 * (census_mod.SWEEP_PRIME_MAX - 1) ** 2 < 2**32


def test_slot_test_at_the_largest_prime_it_holds_for():
    p = 24767  # the largest prime with 7 (p - 1)^2 < 2^32
    assert 7 * (p - 1) ** 2 < 2**32 <= 7 * (24781 - 1) ** 2  # 24781 is the next prime
    inv_p, low, bias, top = census_mod._slot_test(p)
    top_sum, rng = 7 * (p - 1) ** 2, random.Random(1)
    slots = [0, p, top_sum, top_sum - 1, top_sum // p * p, 2**32 - 1]
    slots += [rng.randrange(top_sum + 1) for _ in range(p - len(slots) - 200)]
    slots += [rng.randrange(top_sum // p + 1) * p for _ in range(200)]
    hits = (bias - (binform_mod._pack(slots) * inv_p & low)) & top
    assert [s >> 32 for s in binform_mod._unpack(hits, p)] == [s % p == 0 for s in slots]


def test_sweep_refuses_a_prime_past_the_slot_bound():
    member = generate_member(2, 0, QQ, seed=6)
    with pytest.raises(ValueError, match="p <= 24771"):
        quasi_smooth_sweep(member, 24781)


def _cone_point_sweep(eqs, p, base_order=None):
    """The cone-point sweep: every cone point over every base point.

    Solves Q for x0 and G for z through square-root tables, about p^2
    points per base point, and collapses rank drops to canonical orbit
    representatives.  Kept as the reference the sweep must match at
    primes too large for the brute-force scan.
    """
    eqs = census_mod._over_prime(eqs, p)
    sqrt = _sqrt_table(p)
    failures = set()
    bases = base_order if base_order is not None else base_points(p)
    branch = [(m.i, m.j, m.k, c) for m, c in eqs.branch_terms().items()]
    top = max((max(i, j, k) for i, j, k, _ in branch), default=0)
    pw = [[pow(a, e, p) for e in range(top + 1)] for a in range(p)]
    qx_form, qy_form = eqs.q_x, eqs.q_y

    for base in bases:
        qx, qx_d = census_mod._chart_value_and_derivative(qx_form, base, p)
        qy, qy_d = census_mod._chart_value_and_derivative(qy_form, base, p)
        gl = []
        for (i, j, k, coeff) in branch:
            val, dval = census_mod._chart_value_and_derivative(coeff, base, p)
            if val or dval:
                gl.append((i, j, k, val, dval))
        for x1 in range(p):
            px1 = pw[x1]
            x1sq = x1 * x1 % p
            # with x1 fixed, b = (even part in x0) + (odd part in x0)
            even = [(i, k, g * px1[j]) for (i, j, k, g, _) in gl if i % 2 == 0 and px1[j]]
            odd = [(i, k, g * px1[j]) for (i, j, k, g, _) in gl if i % 2 and px1[j]]
            for y in range(p):
                x0_roots = sqrt.get((-(qx * x1sq + qy * y)) % p)
                if not x0_roots:
                    continue
                py = pw[y]
                px0 = pw[x0_roots[0]]  # the roots are r and p - r, or 0 alone
                b_even = b_odd = 0
                for (i, k, c) in even:
                    b_even += c * px0[i] * py[k]
                for (i, k, c) in odd:
                    b_odd += c * px0[i] * py[k]
                for x0, b_val in zip(x0_roots, ((b_even + b_odd) % p, (b_even - b_odd) % p)):
                    if b_val:
                        # z != 0: rank < 2 iff row_q = 0
                        if (x0 == 0 and qy == 0 and qx * x1 % p == 0
                                and (qx_d * x1sq + qy_d * y) % p == 0):
                            for z in sqrt.get(p - b_val, ()):
                                failures.add((base, canonical_fiber_rep(p, (x0, x1, y, z))))
                        continue
                    if x0 == 0 and x1 == 0 and y == 0:
                        continue  # z = 0 too: the vertex of the cone
                    px0 = pw[x0]
                    b_x0 = b_x1 = b_y = b_t = 0
                    for (i, j, k, g, gd) in gl:
                        b_t += gd * px0[i] * px1[j] * py[k]
                        if i:
                            b_x0 += g * i * px0[i - 1] * px1[j] * py[k]
                        if j:
                            b_x1 += g * j * px0[i] * px1[j - 1] * py[k]
                        if k:
                            b_y += g * k * px0[i] * px1[j] * py[k - 1]
                    row_q = (2 * x0 % p, 2 * qx * x1 % p, qy, 0,
                             (qx_d * x1sq + qy_d * y) % p)
                    row_g = (b_x0 % p, b_x1 % p, b_y % p, 0, b_t % p)
                    if census_mod._rank_below_two(row_q, row_g, p):
                        failures.add((base, canonical_fiber_rep(p, (x0, x1, y, 0))))
    return sorted(failures)


@pytest.mark.oracle
@pytest.mark.parametrize("p", [11, 13, 17, 19, 23])
def test_sweep_matches_cone_point_sweep(p):
    """The sweep agrees with the cone-point reference beyond brute-force reach."""
    counts = _new_tally()
    for eqs in _sweep_members(p, range(2)):
        expected = _cone_point_sweep(eqs, p)
        assert quasi_smooth_sweep(eqs, p) == expected
        _tally(counts, eqs, expected, p)
    assert all(counts.values()), counts


def test_sweep_failures_lie_on_both_hypersurfaces():
    member = generate_member(2, 0, F11, seed=4)
    for t, (x0, x1, y, z) in quasi_smooth_sweep(member, 11):
        assert evaluate_section(member.Q, (t[0], t[1], x0, x1, y, z)) == 0
        assert evaluate_section(member.G, (t[0], t[1], x0, x1, y, z)) == 0


@pytest.mark.oracle
@pytest.mark.parametrize("p", [35027, 2**31 - 1])
def test_node_census_matches_schoolbook_powering(p, monkeypatch):
    # deg q_y = 398; seed 3 has a node at both primes, three at 2^31 - 1
    member = generate_member(200, 0, QQ, seed=3)
    census = node_census(member, p)
    assert census
    monkeypatch.setattr(binform_mod, "_fp_shift_power", binform_reference.shift_power_schoolbook)
    assert node_census(member, p) == census


# -- assembled report -----------------------------------------------------------------------


def test_run_census_rational_member_reduces():
    member = generate_member(2, 0, QQ, seed=6, split_qy=False)
    doc = run_census(member)
    assert doc["prime_nodes"] == 101
    assert doc["prime_sweep"] == 11
    assert doc["node_bound"] == 2
    assert isinstance(doc["clean"], bool)


def test_run_census_prime_member_uses_own_prime():
    member = generate_member(2, 0, F11, seed=1)
    for prime in (None, 11):
        doc = run_census(member, prime)
        assert doc["prime_nodes"] == 11 and doc["prime_sweep"] == 11
    for prime in (101, 13):
        with pytest.raises(ValueError, match="would cross characteristics"):
            run_census(member, prime, skip_sweep=True)


def test_run_census_skip_sweep():
    member = member_2_0(seed=20260808)
    doc = run_census(member, skip_sweep=True)
    assert doc["sweep_skipped"] is True and doc["prime_sweep"] is None
    assert doc["cone_singularities"] == [] and "sweep_s" not in doc["timings"]


def test_run_census_computes_node_census_once(monkeypatch):
    calls = []
    original = census_mod.node_census

    def counting(eqs, p):
        calls.append(p)
        return original(eqs, p)

    monkeypatch.setattr(census_mod, "node_census", counting)
    run_census(member_2_0(seed=20260808), skip_sweep=True)
    assert calls == [101]


def test_run_census_builds_one_prime_field(monkeypatch):
    # the reduced member carries F_p, so node_census and branch_disjointness
    # take it as it is instead of testing p for primality again
    tested = []
    original = fields_mod.is_prime

    def counting(n):
        tested.append(n)
        return original(n)

    member = generate_member(3, 2, QQ, seed=5)
    monkeypatch.setattr(fields_mod, "is_prime", counting)
    run_census(member, 35027, skip_sweep=True)
    assert tested == [35027]


def test_run_census_refuses_large_sweep_before_any_work(monkeypatch):
    calls = []
    monkeypatch.setattr(census_mod, "node_census", lambda eqs, p: calls.append(p))
    member = generate_member(2, 0, QQ, seed=6)
    p = next(q for q in range(census_mod.SWEEP_PRIME_MAX + 1, 2**31)
             if all(q % d for d in range(2, int(q**0.5) + 1)))  # 1013, the next prime
    with pytest.raises(ValueError, match=f"sweep at p = {p} would visit"):
        run_census(member, p)
    assert calls == []


def test_census_bad_reduction_is_value_error(member_over_11):
    with pytest.raises(ValueError, match="bad reduction mod 11"):
        run_census(member_over_11, 11, skip_sweep=True)
    # any other prime reduces fine
    assert run_census(member_over_11, 13, skip_sweep=True)["prime_nodes"] == 13


def test_census_bad_reduction_names_the_coefficient_denominator(member_over_11):
    # q_x becomes 8/33 t0^4 - 8/11 t0^3 t1 - 7/22 t0^2 t1^2 - ...: the first
    # coefficient that 11 cannot reduce has denominator 33, the form's common
    # denominator is 66, and the message names the coefficient's own
    terms = dict(member_over_11.Q.terms)
    qx = terms[FiberMonomial(0, 2, 0, 0)]
    terms[FiberMonomial(0, 2, 0, 0)] = qx + BinForm(QQ, (Fraction(1, 3), 0, Fraction(1, 2), 0, 0))
    Q = GradedSection(member_over_11.bundle, QQ, member_over_11.Q.bidegree, terms)
    member = SurfaceEquations(member_over_11.bundle, QQ, Q, member_over_11.G).validate()
    assert member.q_x.coefficient(0) == Fraction(8, 33)
    with pytest.raises(ValueError) as err:
        run_census(member, 11, skip_sweep=True)
    assert str(err.value) == "bad reduction mod 11: denominator 33 not invertible mod 11"


def test_census_bad_reduction_in_a_slot_the_node_census_does_not_read(branch_over_11):
    # q_y and the y^3-coefficient reduce mod 11, but x1^4*y does not: the census still refuses
    message = "^bad reduction mod 11: denominator 33 not invertible mod 11$"
    # branch_disjointness refuses the member before it reads a node
    for census in (node_census, lambda eqs, p: branch_disjointness(eqs, p, ()),
                   quasi_smooth_sweep):
        with pytest.raises(ValueError, match=message):
            census(branch_over_11, 11)
    with pytest.raises(ValueError, match=message):
        run_census(branch_over_11, 11, skip_sweep=True)
    # a second bad slot later in G does not change which one is reported
    terms = dict(branch_over_11.G.terms)
    terms[FiberMonomial(0, 6, 0, 0)] = terms[FiberMonomial(0, 6, 0, 0)].scale(Fraction(1, 22))
    G = GradedSection(branch_over_11.bundle, QQ, branch_over_11.G.bidegree, terms)
    member = SurfaceEquations(branch_over_11.bundle, QQ, branch_over_11.Q, G).validate()
    assert list(G.terms).index(FiberMonomial(0, 4, 1, 0)) < list(G.terms).index(FiberMonomial(0, 6, 0, 0))
    with pytest.raises(ValueError, match=message):
        run_census(member, 11, skip_sweep=True)


def _doctored_rational_member():
    """A seed-1 rational member with denominators 3 and 7 whose y^3-coefficient is 0 mod 11."""
    member = generate_member(2, 0, QQ, seed=1)
    terms = dict(member.G.terms)
    terms[FiberMonomial(0, 0, 3, 0)] = terms[FiberMonomial(0, 0, 3, 0)].scale(Fraction(11, 3))
    terms[FiberMonomial(0, 4, 1, 0)] = terms[FiberMonomial(0, 4, 1, 0)].scale(Fraction(1, 7))
    G = GradedSection(member.bundle, QQ, member.G.bidegree, terms)
    return SurfaceEquations(member.bundle, QQ, member.Q, G).validate()


@pytest.mark.parametrize("p", [11, 101, 35027])
def test_reduction_matches_the_coefficientwise_oracle(p):
    # every coefficient reduced on its own by BinForm's scalar rule, zero forms dropped
    spec = FieldSpec.prime_field(p)
    members = [generate_member(pg, theta, QQ, seed=seed)
               for pg, theta, seed in ((2, 0, 1), (3, 2, 5), (7, 3, 5))]
    for member in members + [_doctored_rational_member()]:
        expected = [{m: f for m, c in s.terms.items() if not (f := BinForm(spec, c.coeffs)).is_zero}
                    for s in (member.Q, member.G)]
        full = census_mod._over_prime(member, p)
        assert full.field == spec and full.bundle == member.bundle
        assert [full.Q.terms, full.G.terms] == expected
        assert (full.Q.bidegree, full.G.bidegree) == (member.Q.bidegree, member.G.bidegree)
        node = census_mod._over_prime(member, p, census_mod._NODE_MONOMIALS)
        assert node.field == spec
        assert node.Q.terms == {m: f for m, f in expected[0].items() if m == FiberMonomial(0, 0, 1, 0)}
        assert node.G.terms == {m: f for m, f in expected[1].items() if m == FiberMonomial(0, 0, 3, 0)}
        assert node.q_y == full.q_y and node.g_coefficient(0, 0, 3) == full.g_coefficient(0, 0, 3)
    # the doctored y^3-coefficient 3 * 11/3 = 11 vanishes mod 11 alone
    assert (FiberMonomial(0, 0, 3, 0) in expected[1]) == (p != 11)


def test_one_rule_refuses_a_prime_member_at_another_prime():
    member = generate_member(2, 0, F11, seed=1)
    message = "^member lives over F_11; censusing at --prime 13 would cross characteristics$"
    for census in (node_census, lambda eqs, p: branch_disjointness(eqs, p, ()),
                   quasi_smooth_sweep, run_census):
        with pytest.raises(ValueError, match=message):
            census(member, 13)
    with pytest.raises(ValueError, match="^prime modulus must satisfy 5 <= p < 2\\*\\*31, got None$"):
        node_census(member, None)


def test_census_prime_mismatch_rejected():
    member = member_2_0(seed=20260808)
    with pytest.raises(ValueError, match="F_101"):
        node_census(member, 11)
