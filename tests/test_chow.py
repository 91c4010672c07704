import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canpencil.chow import (
    CLASS_K_SURFACE,
    CLASS_Q,
    DivisorClass,
    F,
    H,
    adjunction_check,
    class_G,
    class_K_relative,
    class_fixed_part,
    invariants_report,
    surface_invariants,
    top_intersection,
)
from canpencil.sections import BundleData


def test_h3f_value():
    # oracle: the two primitives are the unique solution of the displayed
    # invariant chain 12*H^4 - 4*(3p+T+15)*H^3F = 2*(sum a_i/w_i) - 4*(3p+T+15)/6,
    # which pins H^3F = 1/6 and H^4 = (sum a_i/w_i)/6
    for pg, theta in [(2, 0), (5, 1), (7, 6)]:
        c = BundleData(pg, theta)
        assert top_intersection(c, H, H, H, F) == Fraction(1, 6)
        s = Fraction(1) + (pg + 1) + Fraction(2 * pg + theta, 2) + Fraction(3 * pg + theta, 3)
        lhs = 12 * top_intersection(c, H, H, H, H) - 4 * (3 * pg + theta + 15) * top_intersection(
            c, H, H, H, F
        )
        rhs = 2 * s - Fraction(4 * (3 * pg + theta + 15), 6)
        assert lhs == rhs


def test_ff_vanishes():
    assert top_intersection(BundleData(3, 2), F, F, H, H) == 0


def test_k2_product():
    for pg, theta in [(2, 0), (5, 1), (6, 2), (11, 4)]:
        k = CLASS_K_SURFACE
        b = BundleData(pg, theta)
        val = top_intersection(b, k, k, CLASS_Q, class_G(b))
        assert val == 4 * pg - 6 + theta


@settings(max_examples=50)
@given(
    st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5),
    st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5),
)
def test_symmetry_and_multilinearity(a1, b1, a2, b2, a3, b3, a4, b4):
    c = BundleData(4, 3)
    cls = [DivisorClass(a1, b1), DivisorClass(a2, b2), DivisorClass(a3, b3), DivisorClass(a4, b4)]
    base = top_intersection(c, *cls)
    rng = random.Random(hash((a1, b1, a2, b2, a3, b3, a4, b4)) & 0xFFFF)
    perm = cls[:]
    rng.shuffle(perm)
    assert top_intersection(c, *perm) == base
    # linearity in the first slot
    extra = DivisorClass(rng.randint(-4, 4), rng.randint(-4, 4))
    lhs = top_intersection(c, cls[0] + extra, cls[1], cls[2], cls[3])
    assert lhs == base + top_intersection(c, extra, cls[1], cls[2], cls[3])



def fraction_top_intersection(bundle, classes) -> Fraction:
    """The expansion on Fraction scalars: H^4 = (sum a_i/w_i)/6, H^3.F = 1/6."""
    h4 = sum(Fraction(ai, wi) for ai, wi in zip(bundle.twists, bundle.weights)) / 6
    coeff_h4 = Fraction(1)
    for c in classes:
        coeff_h4 *= c.h
    coeff_h3f = Fraction(0)
    for idx in range(4):
        term = Fraction(classes[idx].f)
        for jdx in range(4):
            if jdx != idx:
                term *= classes[jdx].h
        coeff_h3f += term
    return coeff_h4 * h4 + coeff_h3f * Fraction(1, 6)


def assert_matches_fraction_expansion(bundle, classes) -> None:
    val = top_intersection(bundle, *classes)
    assert type(val) is Fraction
    assert val == fraction_top_intersection(bundle, classes)


@pytest.mark.oracle
def test_top_intersection_matches_fraction_expansion_on_ledger_grid():
    for pg in range(2, 51):
        for theta in range(7):
            b = BundleData(pg, theta)
            k, q, g = CLASS_K_SURFACE, CLASS_Q, class_G(b)
            for classes in [(k, k, q, g), (class_fixed_part(b), F, q, g), (H, H, H, H),
                            (H, H, H, F), (class_K_relative(b), q, g, H), (F, F, H, H)]:
                assert_matches_fraction_expansion(b, classes)


@pytest.mark.oracle
@settings(max_examples=300)
@given(st.integers(2, 60), st.integers(0, 6),
       st.lists(st.tuples(st.integers(-40, 40), st.integers(-400, 400)), min_size=4, max_size=4))
def test_top_intersection_matches_fraction_expansion_on_random_classes(pg, theta, pairs):
    assert_matches_fraction_expansion(BundleData(pg, theta), [DivisorClass(*hf) for hf in pairs])


def test_surface_invariants_examples():
    assert surface_invariants(2, 0) == {"K2": 2, "chi": 3, "pg": 2, "q": 0}
    assert surface_invariants(5, 1)["K2"] == 15
    assert surface_invariants(5, 1)["chi"] == 6
    assert surface_invariants(6, 2)["K2"] == 20
    assert surface_invariants(6, 2)["chi"] == 7


def test_surface_invariants_range_checks():
    with pytest.raises(ValueError):
        surface_invariants(1, 0)
    with pytest.raises(ValueError):
        surface_invariants(4, 7)


def test_closed_forms_sweep():
    for pg in range(2, 51):
        for theta in range(7):
            inv = surface_invariants(pg, theta)
            assert inv["K2"] == 4 * pg - 6 + theta
            assert inv["chi"] == pg + 1
            # Horikawa number is the tau degree and must be non-negative here
            assert inv["K2"] - 2 * inv["chi"] + 6 == 2 * pg + theta - 2 >= 0


def test_adjunction():
    for pg, theta in [(2, 0), (9, 5)]:
        b = BundleData(pg, theta)
        assert adjunction_check(b) == H
        assert class_K_relative(b) == DivisorClass(-7, 6 * pg + 2 * theta + 2)
    assert CLASS_K_SURFACE == DivisorClass(1, -2)


def test_invariants_report_shape():
    rep = invariants_report(5, 1)
    assert rep["K2"] == 15 and rep["chi"] == 6
    assert rep["classes"]["Q"] == [2, -2]
    assert rep["classes"]["G"] == [6, -32]
    assert rep["classes"]["K_rel"] == [-7, 34]
    assert rep["classes"]["K"] == [1, -2]
