import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canpencil.chow import (
    CLASS_K_SURFACE,
    CLASS_Q,
    DivisorClass,
    H,
    adjunction_check,
    class_G,
    class_K_relative,
    invariants_report,
    surface_invariants,
    top_intersection_numerator,
)
from canpencil.sections import BundleData

import chow_reference
from canpencil import chow

F = DivisorClass(0, 1)  # the fiber class


def test_h3f_value():
    # oracle: the two primitives are the unique solution of the displayed
    # invariant chain 12*H^4 - 4*(3p+T+15)*H^3F = 2*(sum a_i/w_i) - 4*(3p+T+15)/6,
    # which pins H^3F = 1/6 and H^4 = (sum a_i/w_i)/6
    for pg, theta in [(2, 0), (5, 1), (7, 6)]:
        c = BundleData(pg, theta)
        assert top_intersection_numerator(c, H, H, H, F) == 6  # 36 * H^3.F = 36 / 6
        s = Fraction(1) + (pg + 1) + Fraction(2 * pg + theta, 2) + Fraction(3 * pg + theta, 3)
        lhs = Fraction(12 * top_intersection_numerator(c, H, H, H, H)
                       - 4 * (3 * pg + theta + 15) * top_intersection_numerator(c, H, H, H, F), 36)
        rhs = 2 * s - Fraction(4 * (3 * pg + theta + 15), 6)
        assert lhs == rhs


def test_ff_vanishes():
    assert top_intersection_numerator(BundleData(3, 2), F, F, H, H) == 0


def test_k2_product():
    for pg, theta in [(2, 0), (5, 1), (6, 2), (11, 4)]:
        k = CLASS_K_SURFACE
        b = BundleData(pg, theta)
        val = top_intersection_numerator(b, k, k, CLASS_Q, class_G(b))
        assert val == 36 * (4 * pg - 6 + theta)


@settings(max_examples=50)
@given(
    st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5),
    st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5),
)
def test_symmetry_and_multilinearity(a1, b1, a2, b2, a3, b3, a4, b4):
    c = BundleData(4, 3)
    cls = [DivisorClass(a1, b1), DivisorClass(a2, b2), DivisorClass(a3, b3), DivisorClass(a4, b4)]
    base = top_intersection_numerator(c, *cls)
    rng = random.Random(hash((a1, b1, a2, b2, a3, b3, a4, b4)) & 0xFFFF)
    perm = cls[:]
    rng.shuffle(perm)
    assert top_intersection_numerator(c, *perm) == base
    # linearity in the first slot
    extra = DivisorClass(rng.randint(-4, 4), rng.randint(-4, 4))
    lhs = top_intersection_numerator(c, cls[0] + extra, cls[1], cls[2], cls[3])
    assert lhs == base + top_intersection_numerator(c, extra, cls[1], cls[2], cls[3])



def fraction_top_intersection(bundle, classes) -> Fraction:
    """The expansion on Fraction scalars: H^4 = (sum a_i/w_i)/6, H^3.F = 1/6.

    The fiber weights (w_i) of (x0, x1, y, z) are (1, 1, 2, 3).
    """
    h4 = sum(Fraction(ai, wi) for ai, wi in zip(bundle.twists, (1, 1, 2, 3))) / 6
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
    n = top_intersection_numerator(bundle, *classes)
    assert type(n) is int
    assert Fraction(n, 36) == fraction_top_intersection(bundle, classes)


@pytest.mark.oracle
def test_top_intersection_matches_fraction_expansion_on_ledger_grid():
    for pg in range(2, 51):
        for theta in range(7):
            b = BundleData(pg, theta)
            k, q, g = CLASS_K_SURFACE, CLASS_Q, class_G(b)
            for classes in [(k, k, q, g), (DivisorClass(1, -(b.pg + 1)), F, q, g), (H, H, H, H),
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


def test_surface_invariants_computes_class_G_once(monkeypatch):
    # K^2 and the adjunction check share one class_G per call
    calls, real = [], chow.class_G
    monkeypatch.setattr(chow, "class_G", lambda b: calls.append(b) or real(b))
    assert surface_invariants(5, 2)["K2"] == 16
    assert calls == [BundleData(5, 2)]


def test_invariants_report_shape():
    rep = invariants_report(5, 1)
    assert rep["K2"] == 15 and rep["chi"] == 6
    assert rep["classes"]["Q"] == [2, -2]
    assert rep["classes"]["G"] == [6, -32]
    assert rep["classes"]["K_rel"] == [-7, 34]
    assert rep["classes"]["K"] == [1, -2]


# -- the package against its reference copy -------------------------------------------------


def assert_same_value(got, want) -> None:
    """Equal values of equal types, down to the components of a class or a report."""
    assert (type(got), got) == (type(want), want)
    parts = got.values() if isinstance(got, dict) else got if isinstance(got, tuple) else ()
    wants = want.values() if isinstance(want, dict) else want if isinstance(want, tuple) else ()
    assert [type(v) for v in parts] == [type(v) for v in wants]


def assert_numerator_matches_reference(bundle, classes) -> None:
    """The int numerator is 36 times the reference value."""
    n = top_intersection_numerator(bundle, *classes)
    assert type(n) is int
    assert_same_value(Fraction(n, 36), chow_reference.top_intersection(bundle, *classes))


@pytest.mark.oracle
def test_closed_forms_match_reference_on_grid():
    for pg in range(2, 201):
        for theta in range(7):
            b = BundleData(pg, theta)
            k, g = CLASS_K_SURFACE, class_G(b)
            assert_numerator_matches_reference(b, (k, k, CLASS_Q, g))
            assert_numerator_matches_reference(b, (DivisorClass(1, -(b.pg + 1)), F, CLASS_Q, g))
            assert_same_value(adjunction_check(b), chow_reference.adjunction_check(b))
            assert_same_value(surface_invariants(pg, theta),
                              chow_reference.surface_invariants(pg, theta))


divisor_classes = st.builds(DivisorClass, st.integers(-40, 40), st.integers(-400, 400))


@pytest.mark.oracle
@settings(max_examples=300)
@given(st.integers(2, 300), st.integers(0, 6), st.lists(divisor_classes, min_size=4, max_size=4))
def test_top_intersection_matches_reference_on_random_classes(pg, theta, classes):
    b = BundleData(pg, theta)
    assert_numerator_matches_reference(b, classes)
    total = classes[0] + classes[1]
    assert_same_value(total, DivisorClass(classes[0].h + classes[1].h, classes[0].f + classes[1].f))


@pytest.mark.parametrize("name, value, message", [
    ("CLASS_Q", DivisorClass(1, 0), "K^2 not integral: 5/2"),
    ("CLASS_Q", DivisorClass(2, -1), "K^2 cross-check failed: 4 vs 3"),
    ("CLASS_K_SURFACE", DivisorClass(1, -1), "K^2 cross-check failed: 7 vs 3"),
    ("class_K_relative", lambda b: DivisorClass(-7, 6 * b.pg + 2 * b.theta + 3),
     "adjunction failed: 1H+1F"),
])
def test_faults_raise_the_reference_messages(monkeypatch, name, value, message):
    monkeypatch.setattr(chow, name, value)
    monkeypatch.setattr(chow_reference, name, value)
    for fn in (surface_invariants, chow_reference.surface_invariants):
        with pytest.raises(AssertionError) as exc:
            fn(2, 1)
        assert str(exc.value) == message
