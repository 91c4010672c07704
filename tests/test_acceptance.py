"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every numeric check is exact equality, and the stated wall-clock
budgets are asserted alongside the mathematics.
"""

import random
import time
from contextlib import contextmanager

import pytest

from canpencil.binform import BinForm, random_binform
from canpencil.census import branch_disjointness, node_census, quasi_smooth_sweep, run_census
from canpencil.chow import H, adjunction_check, surface_invariants
from canpencil.family import (
    bidouble_branch_data,
    bidouble_cross_check,
    bidouble_invariants,
    degree_table,
    generate_member,
    genus_feasibility,
)
from canpencil.fields import QQ, FieldSpec
from canpencil.relalg import (
    EXAMPLE_KEYS,
    SigmaError,
    SigmaTwoData,
    alpha_feasible,
    example_verify,
    lifting_annihilator,
    mat_is_zero,
    mat_mul,
    random_sigma_data,
    relation_matrix,
    s6prime_rows,
    tau_of,
    validate_sigma2,
)
from canpencil.sections import BundleData

F11 = FieldSpec.prime_field(11)
F101 = FieldSpec.prime_field(101)
F10007 = FieldSpec.prime_field(10007)


@contextmanager
def criterion(number, description, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s > {budget_s}s"
    print(f"[PASS] criterion {number} ({elapsed:.2f}s): {description}")


def test_criterion_01_invariant_closed_forms():
    with criterion(1, "K^2 = 4p_g - 6 + theta, chi = p_g + 1, adjunction = H", budget_s=1.0):
        for pg in range(2, 51):
            for theta in range(7):
                inv = surface_invariants(pg, theta)
                assert inv["K2"] == 4 * pg - 6 + theta
                assert inv["chi"] == pg + 1
                assert adjunction_check(BundleData(pg, theta)) == H


def test_criterion_02_tau_degree():
    # deterministic per-index seeds: each instance is an independent task
    with criterion(2, "deg det sigma_2 = K^2 - 2 chi + 6 on 200 F_10007 + 50 QQ instances",
                   budget_s=5.0):
        for field, count, base in ((F10007, 200, 20_000), (QQ, 50, 50_000)):
            for idx in range(count):
                data = random_sigma_data(field, random.Random(base + idx))
                tau = tau_of(data)
                k2 = 4 * data.pg - 6 + data.theta
                chi = data.pg + 1
                assert tau.degree == k2 - 2 * chi + 6 == 2 * data.pg + data.theta - 2


def test_criterion_03_lifting_annihilator():
    with criterion(3, "f0^4-annihilator certificates verify on 100 instances", budget_s=5.0):
        done = 0
        idx = 0
        while done < 100:
            data = random_sigma_data(F10007, random.Random(30_000 + idx))
            idx += 1
            if data.f0.is_zero:
                continue
            cert = lifting_annihilator(data)
            assert cert.verify()  # literal re-expansion to zero
            done += 1


def test_criterion_04_s6_kernel():
    with criterion(4, "2x4 quotient matrix annihilates the relation image, 100 pairs"):
        rng = random.Random(404)
        for _ in range(100):
            f0 = random_binform(F10007, rng.randint(0, 4), rng)
            f1 = random_binform(F10007, rng.randint(0, 8), rng)
            rows = s6prime_rows(f0, f1)
            prod = mat_mul([list(r) for r in rows], relation_matrix(f0, f1))
            assert mat_is_zero(prod)


def test_criterion_05_exceptional_examples():
    with criterion(5, "three exceptional families verify (congruence, F111, roots)",
                   budget_s=10.0):
        for key in EXAMPLE_KEYS:
            entry = example_verify(key)
            assert entry["passed"], (key, entry["checks"])
            assert entry["checks"]["congruence-mod-f0^4"]
            assert entry["checks"]["F111-is-minus-5-f0^2"]
            assert entry["details"]["restriction_distinct_roots"] == str(key[1])


def test_criterion_06_bidouble_cross_check():
    with criterion(6, "bidouble invariants match intersection theory, theta 0..6, p_g 2..20"):
        for theta in range(7):
            for pg in range(2, 21):
                data, inv, matches = bidouble_cross_check(pg, theta)
                assert data == bidouble_branch_data(pg, theta) and inv == bidouble_invariants(data)
                assert inv["K2"] == 4 * pg - 6 + theta
                assert inv["chi"] == pg + 1
                ref = surface_invariants(pg, theta)
                assert (inv["K2"], inv["chi"]) == (ref["K2"], ref["chi"])
                assert matches is True


def test_criterion_07_node_census():
    with criterion(7, "split member at (2,0)/F_101: 2 A1 nodes, branch disjoint",
                   budget_s=10.0):
        member = generate_member(2, 0, F101, seed=20260808, split_qy=True)
        nodes = node_census(member, 101)
        doc = run_census(member, 101, skip_sweep=True)
        assert len(nodes) == 2 == doc["node_bound"]  # 2 p_g - 2 + theta
        assert doc["nodes"] == [rec.to_json_dict() for rec in nodes]
        assert not doc["roots_outside_field"]
        assert all(rec.a1_ok for rec in nodes)
        assert all(rec.point[1] == (0, 0, 1, 0) for rec in nodes)
        assert branch_disjointness(member, 101, nodes) == []


# deterministic seed panels; theta = 0 includes one genuinely singular draw,
# exercising the 4-of-5 tolerance
SWEEP_SEEDS = {0: (1, 2, 3, 4, 5), 2: (7, 8, 9, 10, 11)}


@pytest.mark.parametrize("theta", sorted(SWEEP_SEEDS))
def test_criterion_08_quasi_smoothness(theta):
    with criterion(8, f"(2,{theta})/F_11 sweep: at least 4 of 5 seeds clean", budget_s=300.0):
        clean = 0
        for seed in SWEEP_SEEDS[theta]:
            member = generate_member(2, theta, F11, seed=seed)
            t0 = time.perf_counter()
            failures = quasi_smooth_sweep(member, 11)
            assert time.perf_counter() - t0 < 60.0  # per-member budget
            if not failures:
                clean += 1
        assert clean >= 4, f"persistent singularity across seeds: only {clean} clean"


def test_criterion_09_genus_feasibility():
    with criterion(9, "chi = 30: K^2 <= 112 leaves only genus 2; K^2 = 9 chi + 1 leaves none"):
        for k2 in range(1, 113):
            feasible = genus_feasibility(k2, 30, 0)["feasible_genera"]
            assert set(feasible) <= {2}, (k2, feasible)  # the linear bounds kill g >= 3
            if k2 >= 110:  # the genus-2 slope bound holds from 4 chi - 10 upward
                assert feasible == [2]
        assert genus_feasibility(9 * 30 + 1, 30, 0)["feasible_genera"] == []


def _probe_data(pg, theta, alpha):
    """Concrete degree-correct data for the feasibility sweep."""
    f1_deg = pg + theta - alpha - 2
    field = QQ
    return SigmaTwoData(
        pg=pg,
        theta=theta,
        alpha=alpha,
        f0=BinForm.t0(field) ** alpha,
        f1=BinForm.t1(field) ** f1_deg if f1_deg >= 0 else BinForm.zero(field),
        g0=BinForm.zero(field),
        g1=BinForm.zero(field),
        g2=BinForm.zero(field),
    )


def test_criterion_10_alpha_feasibility():
    with criterion(10, "validate_sigma2 accepts exactly the feasible (p_g, theta, alpha)"):
        for pg in range(2, 31):
            for theta in range(7):
                accepted = set()
                for alpha in range(7):
                    data = _probe_data(pg, theta, alpha)
                    try:
                        validate_sigma2(data)
                        ok = True
                    except SigmaError:
                        ok = False
                    assert ok == alpha_feasible(pg, theta, alpha), (pg, theta, alpha)
                    assert alpha_feasible(pg, theta, alpha) == (
                        alpha == 0
                        or (1 <= alpha <= theta and pg <= 2 * alpha - theta + 4)
                    )
                    if ok:
                        accepted.add(alpha)
                if theta == 0:
                    assert accepted == {0}


def test_criterion_11_dimension_bookkeeping():
    with criterion(11, "parameter count 4p_g + 16 - theta, every present G slot free of x0"):
        for pg, theta in [(7, 0), (6, 1), (5, 2)]:
            table = degree_table(pg, theta)
            present = table.g_present()
            assert all(i == 0 for i, _, _ in present), present
            count = (table.q_x + 1) + (table.q_y + 1) + sum(table.g[slot] + 1 for slot in present)
            assert count == 4 * pg + 16 - theta
