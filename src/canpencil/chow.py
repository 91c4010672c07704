"""Intersection numbers on the weighted bundle P and surface invariants.

The ambient is the rank-4 weighted bundle over P^1 with weights (1,1,2,3)
and twists (1, p_g+1, 2p_g+T, 3p_g+T).  On its Chow ring only two primitive
top products matter:

    F^2 = 0,   H^3.F = 1/prod(w) = 1/6,   H^4 = (sum a_i/w_i) / prod(w),

hard-coded for this one family rather than derived from a general toric
engine.  Every weight divides prod(w) = 6, so 36 * H^3.F = 6 and
36 * H^4 = 6a0 + 6a1 + 3a2 + 2a3 are integers: `top_intersection_numerator`
expands a product in ints into 36 times its value, so intersection
numbers stay exact; only the final surface invariants are asserted
integral.

`verify` recomputes the invariants of every (p_g, theta) on every run, with no
cache: the classes of Q and K_X are constants, and `surface_invariants`
checks K^2 on the int numerator (divisible by 36, quotient equal to the
closed form), so it builds no Fraction unless K^2 fails to be integral.
The rest is plain int arithmetic on unpacked classes: the expansion and
`adjunction_check` read each class's two components once, and a class is
built by `tuple.__new__`, without the `NamedTuple` constructor's argument
handling.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .sections import BundleData


class DivisorClass(NamedTuple):
    """alpha*H + beta*F."""

    h: int
    f: int

    def __str__(self):
        return f"{self.h}H{self.f:+d}F"

    def __add__(self, other):
        return _new_class(DivisorClass, (self.h + other.h, self.f + other.f))


#: ``_new_class(DivisorClass, (h, f))`` builds h*H + f*F from two ints
_new_class = tuple.__new__


H = DivisorClass(1, 0)
#: the class of Q, in |2H - 2F| for every (p_g, theta)
CLASS_Q = DivisorClass(2, -2)
#: the canonical class of the surface, K_X = (H - 2F)|_X
CLASS_K_SURFACE = DivisorClass(1, -2)


def class_G(bundle: BundleData) -> DivisorClass:
    return _new_class(DivisorClass, (6, -(6 * bundle.pg + 2 * bundle.theta)))


def class_K_relative(bundle: BundleData) -> DivisorClass:
    """Relative canonical class of P over P^1: -sum(w_i)H + (sum a_i + 2)F.

    With weights (1,1,2,3) and the standard relative Euler sequence this is
    (6p_g + 2*theta + 2)F - 7H.
    """
    return _new_class(DivisorClass, (-7, 6 * bundle.pg + 2 * bundle.theta + 2))


def top_intersection_numerator(bundle: BundleData, c1, c2, c3, c4) -> int:
    """36 times the top intersection number of four divisor classes on `bundle`.

    Multilinear expansion in which every monomial containing F^2 dies, so
    only H^4 and H^3.F survive.  Their coefficients are integers, and so are
    36 * H^4 = 6 * sum a_i/w_i = 6a0 + 6a1 + 3a2 + 2a3, from the bundle's
    twists a_i, and 36 * H^3.F = 6.
    """
    a0, a1, a2, a3 = bundle.twists
    h1, f1 = c1
    h2, f2 = c2
    h3, f3 = c3
    h4, f4 = c4
    h12, h34 = h1 * h2, h3 * h4
    coeff_h4 = h12 * h34
    coeff_h3f = (f1 * h2 + h1 * f2) * h34 + h12 * (f3 * h4 + h3 * f4)
    return coeff_h4 * (6 * a0 + 6 * a1 + 3 * a2 + 2 * a3) + coeff_h3f * 6


def adjunction_check(bundle: BundleData, g: Optional[DivisorClass] = None) -> DivisorClass:
    """K_{P|P^1} + Q + G, asserted to be exactly H; summed componentwise in ints.

    `g` is class_G(bundle), passed by a caller that has already computed it.
    """
    (kh, kf), (qh, qf) = class_K_relative(bundle), CLASS_Q
    gh, gf = class_G(bundle) if g is None else g
    total = _new_class(DivisorClass, (kh + qh + gh, kf + qf + gf))
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
    k, g = CLASS_K_SURFACE, class_G(bundle)
    n = top_intersection_numerator(bundle, k, k, CLASS_Q, g)
    if n % 36:
        raise AssertionError(f"K^2 not integral: {Fraction(n, 36)}")
    k2 = n // 36
    if k2 != bundle.k2:
        raise AssertionError(f"K^2 cross-check failed: {k2} vs {bundle.k2}")
    adjunction_check(bundle, g)
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
