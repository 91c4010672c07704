import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canpencil.binform import BinForm, parse_binform, random_binform
from canpencil.fields import QQ, FieldSpec
import canpencil.sections as sections_mod
from canpencil.relalg import YPoly
from canpencil.sections import (
    _KEYS,
    BundleData,
    FiberMonomial,
    GradedSection,
    SectionDegreeError,
    monomial_from_str,
    monomial_str,
    section_terms_from_dict,
    section_terms_to_dict,
    slot_degree,
)
import relalg_reference
from test_census import evaluate_section

F101 = FieldSpec.prime_field(101)


def make_equations(bundle, field, rng):
    """Random Q and G of the normal shape at the prescribed degrees."""
    pg, th = bundle.pg, bundle.theta
    one = BinForm.one(field)
    Q = GradedSection(
        bundle,
        field,
        (2, -2),
        {
            FiberMonomial(2, 0, 0, 0): one,
            FiberMonomial(0, 2, 0, 0): random_binform(field, 2 * pg, rng),
            FiberMonomial(0, 0, 1, 0): random_binform(field, 2 * pg - 2 + th, rng),
        },
    )
    terms = {FiberMonomial(0, 0, 0, 2): one}
    for k in range(4):
        for i in range(6 - 2 * k + 1):
            j = 6 - 2 * k - i
            deg = -i * pg + (k - 2) * th + (6 - 2 * k)
            if deg >= 0:
                terms[FiberMonomial(i, j, k, 0)] = random_binform(field, deg, rng)
    G = GradedSection(bundle, field, (6, -(6 * pg + 2 * th)), terms)
    return Q.validate(), G.validate()


def random_section(bundle, field, bidegree, rng):
    """Random valid section: every weight-d monomial with admissible twist."""
    d, m = bidegree
    terms = {}
    for i in range(d + 1):
        for j in range(d + 1 - i):
            rem = d - i - j
            for k in range(rem // 2 + 1):
                if (rem - 2 * k) % 3:
                    continue
                l = (rem - 2 * k) // 3
                mono = FiberMonomial(i, j, k, l)
                deg = m + mono.twist_sum(bundle)
                if deg >= 0:
                    terms[mono] = random_binform(field, deg, rng)
    return GradedSection(bundle, field, bidegree, terms).validate()


# -- bundle data --------------------------------------------------------------


def test_bundle_twists():
    b = BundleData(5, 1)
    assert b.twists == (1, 6, 11, 16)
    assert (b.chi, b.k2) == (6, 15)


def test_bundle_range_checks():
    with pytest.raises(ValueError):
        BundleData(1, 0)
    with pytest.raises(ValueError):
        BundleData(3, 7)


def test_monomial_weight_and_twist():
    m = FiberMonomial(1, 1, 1, 1)
    assert m.weight == 7
    assert m.twist_sum(BundleData(2, 0)) == 1 + 3 + 4 + 6


# -- validation: spec examples ---------------------------------------------------


def test_validate_Q_at_pg2():
    b = BundleData(2, 0)
    Q = GradedSection(b, QQ, (2, -2), {FiberMonomial(2, 0, 0, 0): BinForm.one(QQ)})
    assert Q.validate() is Q


def test_qy_slot_degree():
    b = BundleData(2, 0)
    s = GradedSection(
        b, QQ, (2, -2), {FiberMonomial(0, 0, 1, 0): parse_binform("t0^2+t1^2", QQ)}
    )
    assert slot_degree(b, s.bidegree[1], FiberMonomial(0, 0, 1, 0)) == 2
    s.validate()
    bad = GradedSection(b, QQ, (2, -2), {FiberMonomial(0, 0, 1, 0): parse_binform("t0", QQ)})
    with pytest.raises(SectionDegreeError):
        bad.validate()


def test_g600_forced_zero_at_pg2():
    # prescribed degree -i*p_g + (k-2)*theta + (6-2k) = -6 at (i,j,k) = (6,0,0)
    b = BundleData(2, 0)
    s = GradedSection(
        b, QQ, (6, -12), {FiberMonomial(6, 0, 0, 0): BinForm.one(QQ)}
    )
    assert slot_degree(b, s.bidegree[1], FiberMonomial(6, 0, 0, 0)) == -6
    with pytest.raises(SectionDegreeError) as err:
        s.validate()
    assert err.value.monomial == FiberMonomial(6, 0, 0, 0)
    assert err.value.expected == -6


def test_wrong_fiber_weight_rejected():
    b = BundleData(2, 0)
    s = GradedSection(b, QQ, (2, 0), {FiberMonomial(1, 0, 1, 0): BinForm.constant(QQ, 1)})
    with pytest.raises(SectionDegreeError):
        s.validate()


def _ordered_check_term(bundle, bidegree, mono, degree):
    """A reference for `sections._check_term`: the four checks in order, the first with `any`."""
    h, m = bidegree
    if any(e < 0 for e in mono):
        raise SectionDegreeError(mono, 0, None, f"negative exponent in monomial {mono}")
    if mono.weight != h:
        raise SectionDegreeError(
            mono, h, mono.weight,
            f"monomial {mono} has fiber weight {mono.weight}, section has H-degree {h}",
        )
    expected = m + mono.twist_sum(bundle)
    if expected < 0:
        raise SectionDegreeError(
            mono, expected, degree,
            f"monomial {mono} has prescribed degree {expected} < 0 and must carry the zero form",
        )
    if degree != expected:
        raise SectionDegreeError(
            mono, expected, degree, f"coefficient of {mono} has degree {degree}, expected {expected}"
        )


_VERDICTS = ("negative exponent", "fiber weight", "prescribed degree", "expected")  # by check


def _check_outcome(check, *args):
    try:
        check(*args)
    except SectionDegreeError as exc:
        return str(exc), exc.monomial, exc.expected, exc.actual
    return None


def test_check_term_accepts_and_refuses_as_the_ordered_checks_do():
    """Every term, valid or not, meets the same verdict and message as under the ordered checks,
    also where a negative exponent leaves the weight and the slot degree right."""
    verdicts = set()
    for bundle in (BundleData(2, 0), BundleData(5, 3)):
        for exps in itertools.product(range(-1, 3), repeat=4):
            mono = FiberMonomial(*exps)
            for bidegree in ((2, -2 * bundle.pg), (6, -2), (mono.weight, -3)):
                expected = bidegree[1] + mono.twist_sum(bundle)
                for degree in {expected - 1, expected, expected + 1, 0}:
                    args = (bundle, bidegree, mono, degree)
                    outcome = _check_outcome(sections_mod._check_term, *args)
                    assert outcome == _check_outcome(_ordered_check_term, *args), args
                    verdicts.add(outcome and next(k for k in _VERDICTS if k in outcome[0]))
    assert verdicts == {None, *_VERDICTS}


# -- the sparse ring ----------------------------------------------------------------


def lifted(section):
    """`section` as a `YPoly` keyed by its exponents in (x0, x1, y, z), its terms as they are."""
    return YPoly(section.field, section.terms)


@pytest.mark.parametrize("variable", [
    lambda field: YPoly(field, {(1, 0, 0, 0): BinForm.one(field)}),
    lambda field: relalg_reference.variable(field, 0),
], ids=["fiber", "YPoly"])
def test_mul_mismatched_fields_rejected(variable):
    with pytest.raises(ValueError, match="field"):
        variable(QQ) * variable(F101)


def random_ypoly(field, offset, rng):
    """Random quadric in (y0, y1, y2), homogeneous for the twists (2, 3, 4)."""
    terms = {}
    for e in [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]:
        terms[e] = random_binform(field, offset + 2 * e[0] + 3 * e[1] + 4 * e[2], rng)
    return YPoly(field, terms)


@pytest.mark.parametrize("factors", [
    lambda rng: (lifted(random_section(BundleData(2, 1), QQ, (2, -2), rng)),
                 lifted(random_section(BundleData(2, 1), QQ, (2, -3), rng))),
    lambda rng: (random_ypoly(QQ, 0, rng), random_ypoly(QQ, 1, rng)),
], ids=["fiber", "YPoly"])
def test_mul_convolution_oracle(factors):
    # oracle: brute-force convolution over expanded term lists
    s1, s2 = factors(random.Random(2))
    prod = s1 * s2
    expected = {}
    for m1, c1 in s1.terms.items():
        for m2, c2 in s2.terms.items():
            key = tuple(a + b for a, b in zip(m1, m2))
            acc = expected.get(key)
            expected[key] = c1 * c2 if acc is None else acc + c1 * c2
    expected = {m: c for m, c in expected.items() if not c.is_zero}
    assert prod.terms == expected
    assert {type(m) for m in prod.terms} == {tuple}


def assert_built_as_validated(poly):
    # == compares type, field and terms, so no zero coefficient may be kept
    assert poly == type(poly)(poly.field, poly.terms)
    assert all(type(m) is tuple for m in poly.terms)


def ring_results(s1, s2, coeff):
    """Every ring operation on `s1` and `s2`, with sums and products that cancel."""
    half = YPoly(s1.field, {m: -c for m, c in list(s1.terms.items())[::2]})
    return [s1 + s2, s1 - s2, s1 - s1, s1 + (-s1), s1 + half, -s1, s1 * s2,
            (s1 + s2) * (s1 - s2), s1.scale(coeff), s1.scale(BinForm.zero(s1.field))]


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([QQ, F101]))
def test_ring_results_equal_their_validated_terms(seed, field):
    rng = random.Random(seed)
    coeff = random_binform(field, rng.randint(0, 3), rng)
    offset = rng.randint(0, 2)
    y1, y2 = random_ypoly(field, offset, rng), random_ypoly(field, offset, rng)
    for result in ring_results(y1, y2, coeff):
        assert_built_as_validated(result)


def test_cancelling_sums_and_products_drop_their_zero_terms():
    y0, y1 = relalg_reference.variable(QQ, 0), relalg_reference.variable(QQ, 1)
    assert (y0 - y0).terms == {}
    assert set(((y0 + y1) * (y0 - y1)).terms) == {(2, 0, 0), (0, 2, 0)}


# -- evaluation -----------------------------------------------------------------------


def test_evaluate_Q_on_section_locus():
    rng = random.Random(8)
    b = BundleData(2, 0)
    Q, G = make_equations(b, F101, rng)
    qy = Q.coefficient(FiberMonomial(0, 0, 1, 0))
    # x0 = x1 = 0 leaves only the y-term
    for t0, y in [(3, 5), (10, 1)]:
        v = evaluate_section(Q, (t0, 1, 0, 0, y, 0))
        assert v == qy.evaluate(t0, 1) * y % 101


def test_evaluate_zero_fiber_tuple():
    rng = random.Random(9)
    b = BundleData(2, 0)
    Q, G = make_equations(b, F101, rng)
    assert evaluate_section(Q, (4, 1, 0, 0, 0, 0)) == 0
    assert evaluate_section(G, (4, 1, 0, 0, 0, 0)) == 0


def test_evaluate_at_constructed_node():
    from canpencil.binform import roots

    rng = random.Random(10)
    b = BundleData(2, 0)
    while True:
        Q, G = make_equations(b, F101, rng)
        qy = Q.coefficient(FiberMonomial(0, 0, 1, 0))
        found = roots(qy) if not qy.is_zero else {}
        if found:
            break
    (a, bb) = next(iter(found))
    assert evaluate_section(Q, (a, bb, 0, 0, 1, 0)) == 0


def test_evaluate_requires_prime_field():
    rng = random.Random(11)
    b = BundleData(2, 0)
    Q, _ = make_equations(b, QQ, rng)
    with pytest.raises(ValueError):
        evaluate_section(Q, (1, 1, 0, 0, 0, 0))


# -- serialization -----------------------------------------------------------------------


def test_monomial_string_roundtrip():
    for m in (FiberMonomial(2, 0, 0, 0), FiberMonomial(0, 4, 1, 0), FiberMonomial(0, 0, 0, 2),
              FiberMonomial(0, 0, 0, 0)):
        assert monomial_from_str(monomial_str(m)) == m
    assert monomial_str(FiberMonomial(0, 4, 1, 0)) == "x1^4*y"


def test_monomial_unknown_variable():
    with pytest.raises(ValueError):
        monomial_from_str("x2^3")


@pytest.mark.parametrize("key, expo", [("x0^-1", "-1"), ("x0^-1*x1^7", "-1"), ("x0^x", "x"),
                                       ("y^", ""), ("z^ 2", " 2"), ("x1^\u0663", "\u0663")])
def test_monomial_exponents_are_decimal_integers(key, expo):
    with pytest.raises(ValueError) as err:
        monomial_from_str(key)
    assert str(err.value) == (f"monomial {key!r}: exponent {expo!r} is not a non-negative "
                              "decimal integer")


def test_key_table_holds_the_monomials_of_q_and_g_as_the_parser_reads_them():
    weight_6 = {FiberMonomial(i, j, k, 0) for i in range(7) for j in range(7) for k in range(4)
                if i + j + 2 * k == 6}
    q_and_g = {FiberMonomial(2, 0, 0, 0), FiberMonomial(0, 2, 0, 0), FiberMonomial(0, 0, 1, 0),
               FiberMonomial(0, 0, 0, 2), *weight_6}
    assert len(_KEYS) == len(q_and_g) == 20 and set(_KEYS.values()) == q_and_g
    for key, mono in _KEYS.items():
        assert key == monomial_str(mono) and monomial_from_str(key) == mono


def test_monomial_str_shows_negative_exponents():
    assert monomial_str(FiberMonomial(-1, 7, 0, 0)) == "x0^-1*x1^7"


def test_section_literal_degree_checked_before_building():
    b = BundleData(2, 0)
    y = FiberMonomial(0, 0, 1, 0)
    with pytest.raises(SectionDegreeError) as err:
        section_terms_from_dict(b, QQ, (2, -2), {"y": "t0^1000000"})
    assert (err.value.monomial, err.value.expected, err.value.actual) == (y, 2, 1000000)
    # the literal's degree is the form's: terms that cancel leave the zero form
    assert section_terms_from_dict(b, QQ, (2, -2), {"y": "t0^5 - t0^5"}).terms == {}
    with pytest.raises(ValueError, match="coefficient of 'y': inhomogeneous literal"):
        section_terms_from_dict(b, QQ, (2, -2), {"y": "t0^2 + t1^99999999999"})


def test_section_dict_roundtrip():
    rng = random.Random(12)
    b = BundleData(3, 2)
    Q, G = make_equations(b, QQ, rng)
    for s in (Q, G):
        body = section_terms_to_dict(s)
        back = section_terms_from_dict(b, QQ, s.bidegree, body)
        assert back == s
