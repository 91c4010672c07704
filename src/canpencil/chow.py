"""Intersection numbers on the weighted bundle P and surface invariants.

The ambient is the rank-4 weighted bundle over P^1 with weights (1,1,2,3)
and twists (1, p_g+1, 2p_g+T, 3p_g+T).  On its Chow ring only two primitive
top products matter:

    F^2 = 0,   H^3.F = 1/prod(w) = 1/6,   H^4 = (sum a_i/w_i) / prod(w),

hard-coded for this one family rather than derived from a general toric
engine.  Every weight divides prod(w) = 6, so 36 * H^3.F = 6 and
36 * H^4 = 6a0 + 6a1 + 3a2 + 2a3 are integers: `top_intersection` expands
a product in ints and divides by 36 once.  Intersection numbers are exact
rationals; only the final surface invariants are asserted integral.

`verify` recomputes the invariants of every (p_g, theta) on every run, with no
cache: the classes of Q and K_X are constants, and only `top_intersection`
builds a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .sections import BundleData


class DivisorClass(NamedTuple):
    """alpha*H + beta*F."""

    h: int
    f: int

    def __str__(self):
        return f"{self.h}H{self.f:+d}F"

    def __add__(self, other):
        return DivisorClass._make((self.h + other.h, self.f + other.f))


H = DivisorClass(1, 0)
F = DivisorClass(0, 1)
#: the class of Q, in |2H - 2F| for every (p_g, theta)
CLASS_Q = DivisorClass(2, -2)
#: the canonical class of the surface, K_X = (H - 2F)|_X
CLASS_K_SURFACE = DivisorClass(1, -2)


def class_G(bundle: BundleData) -> DivisorClass:
    return DivisorClass(6, -(6 * bundle.pg + 2 * bundle.theta))


def class_K_relative(bundle: BundleData) -> DivisorClass:
    """Relative canonical class of P over P^1: -sum(w_i)H + (sum a_i + 2)F.

    With weights (1,1,2,3) and the standard relative Euler sequence this is
    (6p_g + 2*theta + 2)F - 7H.
    """
    return DivisorClass(-7, 6 * bundle.pg + 2 * bundle.theta + 2)


def class_fixed_part(bundle: BundleData) -> DivisorClass:
    """Divisor of x1, the fixed part of the canonical system."""
    return DivisorClass(1, -(bundle.pg + 1))


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


def adjunction_check(bundle: BundleData) -> DivisorClass:
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


def invariants_report(pg: int, theta: int) -> dict:
    """CLI-facing JSON report with the divisor classes spelled out."""
    inv = surface_invariants(pg, theta)
    bundle = BundleData(pg, theta)
    return {
        "p_g": pg,
        "theta": theta,
        "K2": inv["K2"],
        "chi": inv["chi"],
        "q": 0,
        "classes": {
            "Q": list(CLASS_Q),
            "G": list(class_G(bundle)),
            "K_rel": list(class_K_relative(bundle)),
            "K": list(CLASS_K_SURFACE),
        },
    }
