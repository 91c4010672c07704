import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canpencil.binform import (
    BinForm,
    BinFormError,
    divexact,
    format_binform,
    parse_binform,
    random_binform,
)
from canpencil.fields import QQ, FieldSpec
from canpencil.relalg import (
    EXAMPLE_KEYS,
    LiftingCertificate,
    SigmaError,
    SigmaTwoData,
    YPoly,
    _branch_cubic,
    alpha_feasible,
    example_data,
    example_verify,
    lifting_annihilator,
    mat_is_zero,
    mat_mul,
    q_relation,
    random_sigma_data,
    relation_matrix,
    s6prime_matrix,
    s6prime_rows,
    split_type,
    tau_of,
    validate_sigma2,
)

import relalg_reference
from test_census import fiber_variables

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
    assert validate_sigma2(data) == (5, 7, 8)
    bad = SigmaTwoData(3, 1, 0, data.f0, data.f1, data.g0, qq("t0"), data.g2)
    with pytest.raises(SigmaError):
        validate_sigma2(bad)


def test_validate_requires_coprimality():
    bad = SigmaTwoData(5, 1, 1, qq("t0"), qq("t0^2*t1"), qq("t1^6"), qq("t0^8"),
                       BinForm.zero(QQ))
    with pytest.raises(SigmaError, match="gcd"):
        validate_sigma2(bad)


def test_split_type_sum():
    """d0 + d1 + d2 = 5 p_g + theta + 4 at every feasible (p_g, theta, alpha) up to p_g = 60."""
    assert split_type(5, 1, 1) == (8, 10, 12)
    grid = [(pg, theta, alpha) for pg in range(2, 61) for theta in range(7)
            for alpha in range(theta + 1) if alpha_feasible(pg, theta, alpha)]
    assert len(grid) > 59 * 7  # alpha = 0 at every (p_g, theta), and more
    for pg, theta, alpha in grid:
        assert sum(split_type(pg, theta, alpha)) == 5 * pg + theta + 4, (pg, theta, alpha)


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
    """With f0 = 1, g0 = 0 the conic relation substitutes into the
    polynomials in (x0, x1, y, z) as x1^2 times the x0^2-relation, which is
    the degree-2 equation of the classified normal shape."""
    rng = random.Random(4)
    pg, theta = 4, 2
    data = alpha0_data(pg, theta, rng, g0_zero=True)
    rel = q_relation(data)

    x0, x1, y, _ = fiber_variables(QQ)
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
    rows, _ = s6prime_matrix(data)
    z = BinForm.zero(QQ)
    assert rows[0] == (z, z, BinForm.one(QQ), z)
    assert rows[1] == (z, z, z, BinForm.constant(QQ, 3))


def test_s6prime_example_entries():
    data = example_data((1, 2, 12, 4))
    rows, _ = s6prime_matrix(data)
    assert rows[0] == (qq("3*t1^6"), qq("-2*t0*t1^3"), qq("t0^2"), qq("0"))
    assert rows[1] == (qq("0"), qq("t1^6"), qq("-2*t0*t1^3"), qq("3*t0^2"))


def test_s6prime_summand_degrees():
    data = example_data((1, 1, 15, 5))
    assert s6prime_matrix(data)[1] == (30, 32)


def test_s6prime_kills_relation_image():
    rng = random.Random(5)
    for _ in range(25):
        data = random_sigma_data(F10007, rng)
        prod = mat_mul([list(r) for r in s6prime_matrix(data)[0]],
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


@pytest.mark.oracle
@pytest.mark.parametrize("p", [None, 5, 10007, 2**31 - 1])
def test_lifting_annihilator_matches_back_substitution(p):
    fld = QQ if p is None else FieldSpec.prime_field(p)
    rng = random.Random(23 if p is None else p)
    datas = [random_sigma_data(fld, rng) for _ in range(200)]
    if p is None:
        datas += [example_data(key) for key in EXAMPLE_KEYS]
    for data in datas:
        if data.f0.is_zero:
            for solve in (lifting_annihilator, relalg_reference.lifting_annihilator):
                with pytest.raises(SigmaError, match="f0 must be nonzero"):
                    solve(data)
            continue
        got = lifting_annihilator(data)
        assert got.solutions == relalg_reference.lifting_annihilator(data).solutions
        assert got.verify()


# -- the three exceptional families ----------------------------------------------------


@pytest.mark.parametrize("key", EXAMPLE_KEYS)
def test_example_verify_all_checks(key):
    entry = example_verify(key)
    assert entry["passed"], entry["checks"]
    assert entry["details"]["restriction_distinct_roots"] == str(key[1])  # theta
    assert all(type(v) is bool for v in entry["checks"].values())


@pytest.mark.oracle
@pytest.mark.parametrize("key", EXAMPLE_KEYS)
def test_example_verify_matches_the_old_checks(key):
    got, old = example_verify(key), relalg_reference.example_verify(key)
    assert got == old
    # in the order the ledger prints
    assert list(got["checks"].items()) == list(old["checks"].items())
    assert list(got["details"].items()) == list(old["details"].items())
    data = example_data(key)
    assert _branch_cubic(data) == relalg_reference._branch_cubic(data)


def _substituted(substitute, poly, values):
    """The value, or the message of the BinFormError the substitution raises."""
    try:
        return substitute(poly, *values)
    except BinFormError as exc:
        return str(exc)


@pytest.mark.oracle
@pytest.mark.parametrize("fld", [QQ, FieldSpec.prime_field(101)], ids=str)
def test_ypoly_substitute_matches_the_old_one(fld):
    # y_i has degree i + 1 and the coefficient of y^e degree 18 - sum (i + 1) e_i,
    # so every term has degree 18; some coordinates are zero, and in every
    # fifth draw y0 has another degree, so that a sum may raise
    rng = random.Random(7)
    for trial in range(60):
        terms = {e: random_binform(fld, 18 - e[0] - 2 * e[1] - 3 * e[2], rng)
                 for e in itertools.product(range(4), repeat=3) if rng.random() < 0.3}
        poly = YPoly(fld, terms)
        values = [BinForm.zero(fld) if rng.random() < 0.3 else
                  random_binform(fld, i + 1 + (i == 0 and trial % 5 == 0), rng) for i in range(3)]
        got = _substituted(YPoly.substitute, poly, values)
        assert got == _substituted(relalg_reference.substitute, poly, values)


def test_example_f111_is_minus5_f0sq():
    for key in EXAMPLE_KEYS:
        data = example_data(key)
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


def test_z_summand_degree():
    # the rank-1 odd summand generated by z has degree det(rank-2 piece) +
    # deg tau = (1 + (p_g + 1)) + (2 p_g + theta - 2) = 3 p_g + theta
    rng = random.Random(11)
    for _ in range(20):
        data = random_sigma_data(F10007, rng)
        assert 1 + (data.pg + 1) + tau_of(data).degree == 3 * data.pg + data.theta


# -- YPoly basics ------------------------------------------------------------------------------


def test_ypoly_substitute():
    y0 = relalg_reference.variable(QQ, 0)
    y1 = relalg_reference.variable(QQ, 1)
    poly = y0 * y0 - y1.scale(qq("t0"))
    val = poly.substitute(qq("t1^2"), qq("t1^3"), BinForm.zero(QQ))
    assert val == qq("t1^4") - qq("t0*t1^3")


def test_ypoly_twist_offset():
    data = example_data((1, 1, 15, 5))
    rel = q_relation(data)
    assert rel.twist_offset(split_type(5, 1, 1)) == -(2 * 5 + 4)


# -- matrix products and shared quadratics against the code they replaced ----------------------

ORACLE_PRIMES = (5, 10007, 2**31 - 1)


def _outcome(mul, a, b):
    """The product, or the message of the BinFormError it raises."""
    try:
        return mul(a, b)
    except BinFormError as exc:
        return str(exc)


@st.composite
def chained_matrices(draw, fld):
    """A rows x inner and an inner x cols matrix of forms, 1 <= each size <= 4.

    Entry (i, k) of a has degree u_i + v_k and entry (k, j) of b degree
    w_j - v_k, so every product of an output entry has degree u_i + w_j.
    Entries are zero, all top, or random, with top = p - 1 over F_p; over
    QQ they are signed integers up to a top of 9, 2^31 or 2^70, an entry
    may be -top throughout, and in half the pairs an entry may have a
    denominator other than 1.
    A row of a may be all zero.  In a skewed pair some entries take
    another degree, so products of one output entry differ in degree.
    """
    rows, inner, cols = (draw(st.integers(1, 4)) for _ in range(3))
    u = [draw(st.integers(0, 4)) for _ in range(rows)]
    v = [draw(st.integers(0, 3)) for _ in range(inner)]
    w = [draw(st.integers(3, 7)) for _ in range(cols)]
    skewed = draw(st.booleans())
    if fld.p is None:
        top = draw(st.sampled_from([9, 2**31, 2**70]))
        scalars = st.one_of(st.integers(-top, top), st.sampled_from([0, 1, -1, top, -top]))
        kinds = ["zero", "top", "-top", "random", "random", "other"] + ["fraction"] * draw(st.booleans())
    else:
        top = fld.p - 1
        scalars = st.one_of(st.integers(0, top), st.sampled_from([0, 1, top]))
        kinds = ["zero", "top", "random", "random", "other"]

    def entry(degree):
        kind = draw(st.sampled_from(kinds))
        if kind == "other" and skewed:
            degree = draw(st.integers(0, 9))
        if kind == "zero":
            return BinForm.zero(fld)
        if kind in ("top", "-top"):
            return BinForm(fld, [top if kind == "top" else -top] * (degree + 1))
        coeffs = draw(st.lists(scalars, min_size=degree + 1, max_size=degree + 1))
        if kind == "fraction":
            coeffs[0] = Fraction(2 * draw(scalars) + 1, draw(st.sampled_from([2, 3, 7])))
        return BinForm(fld, coeffs)

    a = [[entry(u[i] + v[k]) for k in range(inner)] for i in range(rows)]
    b = [[entry(w[j] - v[k]) for j in range(cols)] for k in range(inner)]
    if draw(st.booleans()):
        a[draw(st.integers(0, rows - 1))] = [BinForm.zero(fld)] * inner
    return a, b


@pytest.mark.oracle
@pytest.mark.parametrize("p", [*ORACLE_PRIMES, None])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mat_mul_matches_the_loop(p, data):
    fld = QQ if p is None else FieldSpec.prime_field(p)
    a, b = data.draw(chained_matrices(fld))
    got = _outcome(mat_mul, a, b)
    assert got == _outcome(relalg_reference.mat_mul, a, b)
    if not isinstance(got, str):
        assert all(type(e.nums) is tuple for row in got for e in row)


@pytest.mark.oracle
@pytest.mark.parametrize("inner, n", [(4, 1), (1, 4), (2, 2), (1, 5), (4, 2), (4, 16)])
def test_mat_mul_of_all_top_entries_at_the_slot_width_boundary(inner, n):
    # a middle coefficient of the product is inner * n * (p - 1)^2, the bound
    # that sizes the slots: one 64-bit word up to inner * n = 4, two from 5 on
    p = 2**31 - 1
    assert 4 * (p - 1) ** 2 < 2**64 <= 5 * (p - 1) ** 2
    fld = FieldSpec.prime_field(p)
    top = BinForm(fld, [p - 1] * n)
    a, b = [[top] * inner] * 2, [[top] * 3] * inner
    assert mat_mul(a, b) == relalg_reference.mat_mul(a, b)
    middle = inner * n * (p - 1) ** 2 % p
    assert mat_mul(a, b)[0][0].nums[n - 1] == middle


@pytest.mark.oracle
@pytest.mark.parametrize("bound", [2**63, 2**127], ids=["2^63", "2^127"])
@pytest.mark.parametrize("side", [-1, 0], ids=["below", "at-or-above"])
@pytest.mark.parametrize("inner, n", [(1, 1), (3, 1), (1, 4), (2, 3), (4, 16)])
def test_mat_mul_of_signed_top_entries_at_the_slot_width_boundary(bound, side, inner, n):
    # over QQ a slot holds a signed numerator below 2^(w-1) in size: the
    # middle coefficients +-inner * n * top^2 lie just below the bound, or at
    # or just above it, where the slots must grow by one 64-bit word
    top = math.isqrt((bound - 1) // (inner * n)) + 1 + side
    middle = inner * n * top**2
    assert (middle < bound) is (side == -1) and (inner * n * (top - 1) ** 2 < bound)
    plus, minus = BinForm(QQ, [top] * n), BinForm(QQ, [-top] * n)
    a = [[plus] * inner, [minus] * inner, [plus, *[minus] * (inner - 1)]]
    b = [[plus, minus]] * inner
    got = mat_mul(a, b)
    assert got == relalg_reference.mat_mul(a, b)
    assert [[e.nums[n - 1] for e in row] for row in got[:2]] == [[middle, -middle], [-middle, middle]]


@pytest.mark.oracle
@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_mat_mul_of_zero_forms_only(p):
    z = BinForm.zero(FieldSpec.prime_field(p))
    a, b = [[z, z], [z, z]], [[z], [z]]
    assert mat_mul(a, b) == relalg_reference.mat_mul(a, b) == [[z], [z]]
    assert mat_mul([], [[]]) == relalg_reference.mat_mul([], [[]]) == []


@pytest.mark.oracle
@pytest.mark.parametrize("p", [*ORACLE_PRIMES, None])
def test_mat_mul_cancelled_partial_sum_takes_a_product_of_another_degree(p):
    fld = QQ if p is None else FieldSpec.prime_field(p)
    f, g = parse_binform("t0^2 + 3*t0*t1", fld), parse_binform("t0 - t1", fld)
    h, h2 = parse_binform("t1^3 + 2*t0^3", fld), parse_binform("t0", fld)
    a = [[f, -f, g], [f, f, BinForm.zero(fld)]]
    b = [[h], [h], [h2]]
    # row 0: f h - f h cancels to zero before g h2, of degree 2 against 5
    assert mat_mul(a, b) == relalg_reference.mat_mul(a, b) == [[g * h2], [(f * h).scale(2)]]


@pytest.mark.oracle
@pytest.mark.parametrize("p", [*ORACLE_PRIMES, None])
def test_mat_mul_degree_mismatch_raises_the_loop_message(p):
    fld = QQ if p is None else FieldSpec.prime_field(p)
    f, g, h = parse_binform("t0^2", fld), parse_binform("t0 + t1", fld), parse_binform("t1", fld)
    a, b = [[f, f], [f, g]], [[h], [h]]
    with pytest.raises(BinFormError) as old:
        relalg_reference.mat_mul(a, b)
    with pytest.raises(BinFormError, match="^degree mismatch in sum: 3 vs 2$") as new:
        mat_mul(a, b)
    assert str(new.value) == str(old.value)


@pytest.mark.oracle
@pytest.mark.parametrize("first", [F10007, QQ], ids=str)
def test_mat_mul_mixed_fields_raise_the_loop_message(first):
    other = QQ if first is F10007 else F10007
    a = [[parse_binform("t0", first), parse_binform("t1", other)]]
    b = [[parse_binform("t0", first)], [parse_binform("t1", first)]]
    with pytest.raises(BinFormError) as old:
        relalg_reference.mat_mul(a, b)
    with pytest.raises(BinFormError, match="^mixed coefficient fields") as new:
        mat_mul(a, b)
    assert str(new.value) == str(old.value)


@pytest.mark.parametrize("field", [F10007, QQ], ids=str)
def test_mat_mul_refuses_a_ragged_right_factor(field):
    x = parse_binform("t0", field)
    for b in ([[x, x], [x]], [[x], [x, x]]):
        with pytest.raises(AssertionError, match="do not chain"):
            mat_mul([[x, x]], b)


def _off_by_one(form: BinForm, index: int) -> BinForm:
    return BinForm(form.field, [c + (i == index) for i, c in enumerate(form.coeffs)])


@pytest.mark.oracle
@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_lifting_verify_rejects_a_coefficient_off_by_one(p):
    rng = random.Random(p)
    fld = FieldSpec.prime_field(p)
    for _ in range(3):
        cert = lifting_annihilator(random_sigma_data(fld, rng))
        assert cert.verify()
        for i, sol in enumerate(cert.solutions):
            for r, form in enumerate(sol):
                for index in range(len(form.coeffs)):
                    changed = list(sol)
                    changed[r] = _off_by_one(form, index)
                    sols = list(cert.solutions)
                    sols[i] = tuple(changed)
                    assert not LiftingCertificate(cert.data, tuple(sols)).verify(), (i, r, index)


@pytest.mark.oracle
@pytest.mark.parametrize("p", [*ORACLE_PRIMES, None])
def test_quadratic_builders_match_the_old_ones(p):
    fld = QQ if p is None else FieldSpec.prime_field(p)
    rng = random.Random(11 if p is None else p)
    datas = [random_sigma_data(fld, rng) for _ in range(40)]
    one, zero = BinForm.one(fld), BinForm.zero(fld)
    f0, f1 = datas[0].f0, datas[0].f1
    datas += [SigmaTwoData(2, 0, 0, f0, f1, g0, g1, zero) for f0, f1, g0, g1 in
              ((zero, f1, f0, f1), (f0, zero, f1, f0), (one, one, zero, zero), (zero, zero, one, one))]
    for data in datas:
        f0, f1 = data.f0, data.f1
        assert s6prime_rows(f0, f1) == relalg_reference.s6prime_rows(f0, f1)
        assert relation_matrix(f0, f1) == relalg_reference.relation_matrix(f0, f1)
        cert = LiftingCertificate(data, ())
        assert cert.columns() == relalg_reference.columns(cert)
