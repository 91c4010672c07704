"""Intersection numbers and surface invariants as they stood before the int closed forms.

Kept verbatim as the reference that `canpencil.chow.top_intersection_numerator` (over 36),
`adjunction_check` and `surface_invariants` must match (see the oracle
tests in test_chow.py): the expansion reads each class through its
attributes, and adjunction sums three `DivisorClass`es.  The classes and
`BundleData` are the package's own.
"""

from fractions import Fraction

from canpencil.chow import CLASS_K_SURFACE, CLASS_Q, H, class_G, class_K_relative
from canpencil.sections import BundleData


def top_intersection(bundle: BundleData, c1, c2, c3, c4) -> Fraction:
    """Exact top intersection number of four divisor classes on `bundle`.

    Multilinear expansion in which every monomial containing F^2 dies, so
    only H^4 and H^3.F survive.  Their coefficients are integers, and so are
    36 * H^4 = 6 * sum a_i/w_i = 6a0 + 6a1 + 3a2 + 2a3, from the bundle's
    twists a_i, and 36 * H^3.F = 6.
    """
    a0, a1, a2, a3 = bundle.twists
    coeff_h4 = c1.h * c2.h * c3.h * c4.h
    coeff_h3f = (
        c1.f * c2.h * c3.h * c4.h
        + c1.h * c2.f * c3.h * c4.h
        + c1.h * c2.h * c3.f * c4.h
        + c1.h * c2.h * c3.h * c4.f
    )
    return Fraction(coeff_h4 * (6 * a0 + 6 * a1 + 3 * a2 + 2 * a3) + coeff_h3f * 6, 36)


def adjunction_check(bundle: BundleData):
    """K_{P|P^1} + Q + G, asserted to be exactly H."""
    total = class_K_relative(bundle) + CLASS_Q + class_G(bundle)
    if total != H:  # library bug if this trips
        raise AssertionError(f"adjunction failed: {total}")
    return total


def surface_invariants(pg: int, theta: int) -> dict:
    """K^2, chi, p_g, q of the complete intersection X = Q cap G.

    K^2 comes from intersection theory with K_X = (H-2F)|_X; an AssertionError
    says it missed the closed form 4p_g - 6 + theta or adjunction failed.
    chi = p_g + 1 is the degree count of the direct image O(1) + O(p_g+1).
    """
    bundle = BundleData(pg, theta)
    k = CLASS_K_SURFACE
    k2 = top_intersection(bundle, k, k, CLASS_Q, class_G(bundle))
    if k2.denominator != 1:
        raise AssertionError(f"K^2 not integral: {k2}")
    k2 = int(k2)
    if k2 != bundle.k2:
        raise AssertionError(f"K^2 cross-check failed: {k2} vs {bundle.k2}")
    adjunction_check(bundle)
    return {"K2": k2, "chi": bundle.chi, "pg": pg, "q": 0}
