import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import pytest

from canpencil.binform import BinForm, divexact, format_binform, parse_binform, random_binform
from canpencil.fields import QQ, FieldSpec
from canpencil.relalg import (
    EXAMPLE_KEYS,
    DeltaRestriction,
    SigmaError,
    SigmaTwoData,
    SplitType,
    YPoly,
    alpha_feasible,
    delta_on_s6prime,
    example_data,
    example_verify,
    lifting_annihilator,
    mat_is_zero,
    mat_mul,
    q_relation,
    random_sigma_data,
    relation_matrix,
    s6prime_matrix,
    s_algebra_degrees,
    tau_of,
    validate_sigma2,
    xiao_bound,
)
from canpencil.sections import BundleData, FiberMonomial, GradedSection

F10007 = FieldSpec.prime_field(10007)


def qq(text):
    return parse_binform(text, QQ)


def alpha0_data(pg, theta, rng, g0_zero=False):
    field = QQ
    return SigmaTwoData(
        pg=pg,
        theta=theta,
        alpha=0,
        f0=BinForm.one(field),
        f1=random_binform(field, pg + theta - 2, rng),
        g0=BinForm.zero(field) if g0_zero else random_binform(field, pg, rng),
        g1=random_binform(field, 2 * pg + theta - 2, rng),
        g2=random_binform(field, 2 * pg, rng),
    )


# -- feasibility of (p_g, theta, alpha) ---------------------------------------


def test_example_triples_feasible():
    assert alpha_feasible(5, 1, 1)      # boundary: p_g = 2a - T + 4
    assert alpha_feasible(4, 2, 1)
    assert alpha_feasible(6, 2, 2)


def test_alpha_bound_rejects():
    assert not alpha_feasible(7, 2, 1)  # 7 > 2 - 2 + 4
    data = example_data((1, 2, 12, 4))
    bad = SigmaTwoData(7, 2, 1, data.f0, qq("t1^6"), qq("t1^8"), qq("t0^13"), BinForm.zero(QQ))
    with pytest.raises(SigmaError):
        validate_sigma2(bad)


def test_theta0_only_alpha0():
    for pg in range(2, 12):
        assert alpha_feasible(pg, 0, 0)
        for alpha in range(1, 7):
            assert not alpha_feasible(pg, 0, alpha)


def test_validate_checks_degree_slots():
    rng = random.Random(0)
    data = alpha0_data(3, 1, rng)
    assert validate_sigma2(data) == SplitType(5, 7, 8)
    bad = SigmaTwoData(3, 1, 0, data.f0, data.f1, data.g0, qq("t0"), data.g2)
    with pytest.raises(SigmaError):
        validate_sigma2(bad)


def test_validate_requires_coprimality():
    bad = SigmaTwoData(5, 1, 1, qq("t0"), qq("t0^2*t1"), qq("t1^6"), qq("t0^8"),
                       BinForm.zero(QQ))
    with pytest.raises(SigmaError, match="gcd"):
        validate_sigma2(bad)


def test_split_type_sum():
    st = SplitType.from_params(5, 1, 1)
    assert (st.d0, st.d1, st.d2) == (8, 10, 12)
    assert st.d0 + st.d1 + st.d2 == 5 * 5 + 1 + 4


# -- tau -------------------------------------------------------------------------


def test_tau_example_shape():
    data = example_data((1, 1, 15, 5))
    tau = tau_of(data)
    expected = qq("t1^9") - qq("t0^9")
    assert tau == expected or tau == -expected
    assert tau.degree == 9 == 2 * 5 + 1 - 2


def test_tau_alpha0_is_minus_g1():
    rng = random.Random(1)
    data = alpha0_data(4, 2, rng, g0_zero=True)
    assert tau_of(data) == -data.g1


def test_tau_degree_at_pg2():
    rng = random.Random(2)
    data = alpha0_data(2, 0, rng)
    assert tau_of(data).degree == 2  # K^2 - 2 chi + 6 = 2 - 6 + 6


def test_tau_degenerate_rejected():
    data = SigmaTwoData(3, 0, 0, BinForm.one(QQ), qq("t0"), qq("t0^4"), qq("t0^3*t1"),
                        BinForm.zero(QQ))
    # g0 f1 - g1 f0 = t0^4 t0... construct an actual cancellation instead
    data = SigmaTwoData(3, 0, 0, BinForm.one(QQ), qq("t0"), qq("t0^3"), qq("t0^4"),
                        BinForm.zero(QQ))
    with pytest.raises(SigmaError, match="degenerate"):
        tau_of(data)


def test_tau_degree_random_sweep():
    rng = random.Random(3)
    for _ in range(40):
        data = random_sigma_data(F10007, rng)
        k2 = 4 * data.pg - 6 + data.theta
        chi = data.pg + 1
        assert tau_of(data).degree == k2 - 2 * chi + 6



#: SHA-256 over seeds 0..199 of one JSON line per draw of
#: random_sigma_data(field, Random(seed)): [p_g, theta, alpha] and the
#: formatted slots f0, f1, g0, g1, g2.  The ledger's golden output rests on
#: this stream, so a change to the rejection loop must leave it unchanged.
RANDOM_SIGMA_DATA_SHA256 = {
    "F10007": "61d0b93c2eeefea3f33cce26dce945cf9ced54f629f2c3d60b2d3779538f3b55",
    "QQ": "c86a16df380cdec4880ae7910c0f087e32309db92e5c7f900680219e94b93f6b",
}


@pytest.mark.parametrize("field", [F10007, QQ], ids=str)
def test_random_sigma_data_stream_is_pinned(field):
    digest = hashlib.sha256()
    for seed in range(200):
        data = random_sigma_data(field, random.Random(seed))
        slots = [format_binform(getattr(data, name)) for name in ("f0", "f1", "g0", "g1", "g2")]
        digest.update((json.dumps([data.pg, data.theta, data.alpha, *slots]) + "\n").encode())
    assert digest.hexdigest() == RANDOM_SIGMA_DATA_SHA256[str(field)]

# -- the conic relation -----------------------------------------------------------


def test_q_relation_coefficients():
    data = example_data((1, 1, 15, 5))
    Q = q_relation(data)
    assert Q.coefficient((2, 0, 0)) == data.f0 * data.f0
    assert Q.coefficient((1, 0, 1)) == -data.g0
    assert Q.coefficient((1, 1, 0)) == data.f0 * data.f1 + data.f0 * data.f1
    assert Q.coefficient((0, 0, 2)) == -data.g2


def test_q_relation_alpha0_coordinate_change():
    """With f0 = 1, g0 = 0 the conic relation substitutes into the section
    ring as x1^2 times the x0^2-relation, which is the degree-2 equation of
    the classified normal shape."""
    rng = random.Random(4)
    pg, theta = 4, 2
    data = alpha0_data(pg, theta, rng, g0_zero=True)
    rel = q_relation(data)

    bundle = BundleData(pg, theta)
    x0 = GradedSection.variable(bundle, QQ, 0)
    x1 = GradedSection.variable(bundle, QQ, 1)
    y = GradedSection.variable(bundle, QQ, 2)
    img = {
        0: x0 * x1 - y.scale(data.f1),  # f0*y0 + f1*y1 maps to x0*x1
        1: y,
        2: x1 * x1,
    }
    total = None
    for exps, coeff in rel.terms.items():
        piece = None
        for idx, e in enumerate(exps):
            for _ in range(e):
                piece = img[idx] if piece is None else piece * img[idx]
        piece = piece.scale(coeff)
        total = piece if total is None else total + piece
    x0sq_relation = x0 * x0 - y.scale(data.g1) - (x1 * x1).scale(data.g2)
    assert total == (x1 * x1) * x0sq_relation


# -- the rank-2 quotient matrix ------------------------------------------------------


def test_s6prime_degenerate_f1_zero():
    data = SigmaTwoData(4, 2, 0, BinForm.one(QQ), BinForm.zero(QQ), qq("t1^4"),
                        qq("t0^8"), BinForm.zero(QQ))
    s6 = s6prime_matrix(data)
    z = BinForm.zero(QQ)
    assert s6.matrix[0] == (z, z, BinForm.one(QQ), z)
    assert s6.matrix[1] == (z, z, z, BinForm.constant(QQ, 3))


def test_s6prime_example_entries():
    data = example_data((1, 2, 12, 4))
    s6 = s6prime_matrix(data)
    assert s6.matrix[0] == (qq("3*t1^6"), qq("-2*t0*t1^3"), qq("t0^2"), qq("0"))
    assert s6.matrix[1] == (qq("0"), qq("t1^6"), qq("-2*t0*t1^3"), qq("3*t0^2"))


def test_s6prime_summand_degrees():
    data = example_data((1, 1, 15, 5))
    assert s6prime_matrix(data).summand_degrees == (30, 32)


def test_s6prime_kills_relation_image():
    rng = random.Random(5)
    for _ in range(25):
        data = random_sigma_data(F10007, rng)
        prod = mat_mul([list(r) for r in s6prime_matrix(data).matrix],
                       relation_matrix(data.f0, data.f1))
        assert mat_is_zero(prod)


# -- the annihilator certificates ------------------------------------------------------


def test_lifting_certificate_e1():
    data = example_data((1, 1, 15, 5))
    cert = lifting_annihilator(data)
    f0, f1, g0 = data.f0, data.f1, data.g0
    assert cert.solutions[0] == (f0 * f0, (f0 * f1).scale(-2), g0)
    assert cert.solutions[1] == (BinForm.zero(QQ), f0 * f0, BinForm.zero(QQ))
    assert cert.solutions[2] == (BinForm.zero(QQ), BinForm.zero(QQ), f0 * f0)
    assert cert.verify()


def test_lifting_unit_f0():
    rng = random.Random(6)
    data = alpha0_data(3, 1, rng)
    cert = lifting_annihilator(data)
    assert cert.verify()
    # f0 = 1: the combination for e_i is essentially the i-th unit column
    assert cert.solutions[1] == (BinForm.zero(QQ), BinForm.one(QQ), BinForm.zero(QQ))


def test_lifting_random_sweep():
    rng = random.Random(7)
    for _ in range(20):
        data = random_sigma_data(F10007, rng)
        assert lifting_annihilator(data).verify()


def test_lifting_requires_nonzero_f0():
    data = SigmaTwoData(4, 2, 0, BinForm.zero(QQ), BinForm.one(QQ), qq("t1^4"),
                        qq("t0^8"), BinForm.zero(QQ))
    with pytest.raises(SigmaError):
        lifting_annihilator(data)


# -- the induced branch map ---------------------------------------------------------


def test_delta_restriction_classified_regime():
    data = example_data((1, 1, 15, 5))
    h = qq("2*t0 - 3*t1")
    f02 = data.f0 * data.f0
    out = delta_on_s6prime(BinForm.zero(QQ), h * f02, data)
    assert out.entries[0].is_zero
    assert out.entries[1] == h.scale(3)
    assert not out.is_zero_map


def test_delta_restriction_example_degree():
    data = example_data((1, 1, 15, 5))
    from canpencil.relalg import _branch_cubic

    E = _branch_cubic(data)
    out = delta_on_s6prime(E.coefficient((1, 2, 0)), E.coefficient((0, 3, 0)), data)
    assert out.entries[0].is_zero
    assert out.entries[1].degree == data.theta - data.alpha  # 0: a nonzero constant


def test_delta_restriction_zero_map_flag():
    data = example_data((1, 1, 15, 5))
    out = delta_on_s6prime(BinForm.zero(QQ), BinForm.zero(QQ), data)
    assert out.is_zero_map


def test_delta_restriction_divisibility_guard():
    data = example_data((1, 1, 15, 5))
    with pytest.raises(SigmaError):
        delta_on_s6prime(qq("t1^2"), BinForm.zero(QQ), data)


# -- the three exceptional families ----------------------------------------------------


@pytest.mark.parametrize("key", EXAMPLE_KEYS)
def test_example_verify_all_checks(key):
    rep = example_verify(key)
    assert rep.passed, rep.checks
    assert rep.details["restriction_distinct_roots"] == key[1]  # theta


def test_example_f111_is_minus5_f0sq():
    for key in EXAMPLE_KEYS:
        data = example_data(key)
        from canpencil.relalg import _branch_cubic

        E = _branch_cubic(data)
        assert E.coefficient((1, 1, 1)) == (data.f0 * data.f0).scale(-5)


def test_example_unknown_key():
    with pytest.raises(ValueError):
        example_verify((3, 3, 1, 1))


# -- stalk bookkeeping -------------------------------------------------------------------


@dataclass(frozen=True)
class StalkModel:
    """Local model at a point of tau with multiplicity r.

    The degree-2 coefficient functions live in the local parameter t; only
    the x0^2 slot of f2 matters for the torsion computation, but the whole
    weighted-homogeneous shape is kept for clarity.  Coefficient functions
    are tuples of rationals, ascending in t.
    """

    r: int
    f2_coeffs: Dict[Tuple[int, int], tuple]  # (x0 exp, x1 exp) -> t-poly
    f6_coeffs: Dict[Tuple[int, int, int], tuple] = field(default_factory=dict)

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("multiplicity r >= 1 required")
        for (i, j) in self.f2_coeffs:
            if i + j != 2:
                raise ValueError("f2 must be weighted homogeneous of degree 2 in (x0, x1)")


def _t_valuation(poly: tuple) -> Optional[int]:
    for i, c in enumerate(poly):
        if c != 0:
            return i
    return None


@dataclass(frozen=True)
class StalkTauPrime:
    r_torsion: int  # r'' = t-adic torsion depth of the stalk
    r_prime: int
    section_through_fixed_point: bool


def stalk_tau_prime(model: StalkModel) -> StalkTauPrime:
    """Multiplicity bookkeeping of the section sub-divisor at one stalk.

    r'' is the largest power of t dividing t^r * y - f2(x0, 0; t); only the
    x0^2 coefficient a(t) of f2 survives the restriction, so
    r'' = min(r, val_t(a)).  The point lies on the section part exactly
    when r' = r - r'' is positive.
    """
    a = model.f2_coeffs.get((2, 0), ())
    val = _t_valuation(tuple(a))
    r2 = model.r if val is None else min(model.r, val)
    r_prime = model.r - r2
    return StalkTauPrime(r2, r_prime, r_prime > 0)


def test_stalk_unit_part():
    model = StalkModel(r=1, f2_coeffs={(2, 0): (1,), (1, 1): (0, 2)})
    out = stalk_tau_prime(model)
    assert (out.r_torsion, out.r_prime) == (0, 1)
    assert out.section_through_fixed_point


def test_stalk_t_times_x0sq():
    model = StalkModel(r=1, f2_coeffs={(2, 0): (0, 1)})
    out = stalk_tau_prime(model)
    assert (out.r_torsion, out.r_prime) == (1, 0)
    assert not out.section_through_fixed_point


def test_stalk_r2():
    model = StalkModel(r=2, f2_coeffs={(2, 0): (0, 1)})
    out = stalk_tau_prime(model)
    assert (out.r_torsion, out.r_prime) == (1, 1)


def test_stalk_model_guards():
    with pytest.raises(ValueError):
        StalkModel(r=0, f2_coeffs={})
    with pytest.raises(ValueError):
        StalkModel(r=1, f2_coeffs={(3, 0): (1,)})


# -- graded piece degrees -------------------------------------------------------------------


def test_s_algebra_degrees():
    pg, theta = 3, 1
    tau = qq("t0") ** (2 * pg + theta - 2)
    degs = s_algebra_degrees(1, tau, 6)
    assert degs[0] == 1
    assert degs[1] == 2 + (2 * pg + theta - 2) == 2 * pg + theta
    assert degs[5] == 6 + 3 * (2 * pg + theta - 2) == 6 * pg + 3 * theta


def test_s_algebra_degrees_zero_tau():
    assert s_algebra_degrees(1, BinForm.zero(QQ), 4) == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        s_algebra_degrees(1, BinForm.zero(QQ), 0)


def test_z_summand_degree():
    # the rank-1 odd summand generated by z has degree det(rank-2 piece) +
    # deg tau = (1 + (p_g + 1)) + (2 p_g + theta - 2) = 3 p_g + theta
    rng = random.Random(11)
    for _ in range(20):
        data = random_sigma_data(F10007, rng)
        assert 1 + (data.pg + 1) + tau_of(data).degree == 3 * data.pg + data.theta


# -- the slope bound --------------------------------------------------------------------------


def test_xiao_horikawa_equality_case():
    v = xiao_bound(2, 3, 0, 2, 2)
    assert v.satisfied and v.margin == 0 and not v.forced_equality_broken


def test_xiao_forced_equality_clause():
    # K^2 = 4 chi - 8 with tau' < tau: bound may hold numerically but the
    # corollary clause is violated
    chi = 10
    k2 = 4 * chi - 8
    deg_tau = k2 - 2 * chi + 6
    v = xiao_bound(k2, chi, 0, deg_tau, deg_tau - 1)
    assert v.forced_equality_broken


def test_xiao_irregular_equality():
    chi = 5
    k2 = 4 * chi - 4
    v = xiao_bound(k2, chi, 1, k2 - 2 * chi + 6, k2 - 2 * chi + 6)
    assert v.satisfied and v.margin == 0


def test_xiao_consistency_guards():
    with pytest.raises(ValueError):
        xiao_bound(2, 3, 0, 3, 3)  # deg tau must be K^2 - 2 chi + 6
    with pytest.raises(ValueError):
        xiao_bound(2, 3, 0, 2, 5)


# -- YPoly basics ------------------------------------------------------------------------------


def test_ypoly_substitute():
    y0 = YPoly.variable(QQ, 0)
    y1 = YPoly.variable(QQ, 1)
    poly = y0 * y0 - y1.scale(qq("t0"))
    val = poly.substitute(qq("t1^2"), qq("t1^3"), BinForm.zero(QQ))
    assert val == qq("t1^4") - qq("t0*t1^3")


def test_ypoly_twist_offset():
    data = example_data((1, 1, 15, 5))
    rel = q_relation(data)
    st = SplitType.from_params(5, 1, 1)
    assert rel.twist_offset(st.twists) == -(2 * 5 + 4)
