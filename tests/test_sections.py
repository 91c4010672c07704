import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canpencil.binform import BinForm, parse_binform, random_binform
from canpencil.fields import QQ, FieldSpec
from canpencil.relalg import YPoly
from canpencil.sections import (
    _KEYS,
    BundleData,
    FiberMonomial,
    GradedSection,
    SectionDegreeError,
    monomial_from_str,
    monomial_str,
    normal_form,
    section_terms_from_dict,
    section_terms_to_dict,
)
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
    assert s.expected_coeff_degree(FiberMonomial(0, 0, 1, 0)) == 2
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
    assert s.expected_coeff_degree(FiberMonomial(6, 0, 0, 0)) == -6
    with pytest.raises(SectionDegreeError) as err:
        s.validate()
    assert err.value.monomial == FiberMonomial(6, 0, 0, 0)
    assert err.value.expected == -6


def test_wrong_fiber_weight_rejected():
    b = BundleData(2, 0)
    s = GradedSection(b, QQ, (2, 0), {FiberMonomial(1, 0, 1, 0): BinForm.constant(QQ, 1)})
    with pytest.raises(SectionDegreeError):
        s.validate()


# -- multiplication ---------------------------------------------------------------


def test_mul_x0_x1_bidegree():
    b = BundleData(3, 1)
    x0 = GradedSection.variable(b, QQ, 0)
    x1 = GradedSection.variable(b, QQ, 1)
    assert x0.bidegree == (1, -1)
    assert x1.bidegree == (1, -(b.pg + 1))
    prod = x0 * x1
    assert prod.bidegree == (2, -b.pg - 2)
    assert prod.coefficient(FiberMonomial(1, 1, 0, 0)) == BinForm.one(QQ)
    prod.validate()


def test_mul_mismatched_bundles_rejected():
    x0_a = GradedSection.variable(BundleData(2, 0), QQ, 0)
    x0_b = GradedSection.variable(BundleData(2, 1), QQ, 0)
    with pytest.raises(ValueError, match="bundle"):
        x0_a * x0_b


@pytest.mark.parametrize("variable", [
    lambda field: GradedSection.variable(BundleData(2, 0), field, 0),
    lambda field: YPoly.variable(field, 0),
], ids=["GradedSection", "YPoly"])
def test_mul_mismatched_fields_rejected(variable):
    with pytest.raises(ValueError, match="field"):
        variable(QQ) * variable(F101)


def test_mul_by_unit():
    rng = random.Random(1)
    b = BundleData(2, 0)
    Q, _ = make_equations(b, QQ, rng)
    one = GradedSection(b, QQ, (0, 0), {FiberMonomial(0, 0, 0, 0): BinForm.one(QQ)})
    assert Q * one == Q


def random_ypoly(field, offset, rng):
    """Random quadric in (y0, y1, y2), homogeneous for the twists (2, 3, 4)."""
    terms = {}
    for e in [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]:
        terms[e] = random_binform(field, offset + 2 * e[0] + 3 * e[1] + 4 * e[2], rng)
    return YPoly(field, terms)


@pytest.mark.parametrize("factors", [
    lambda rng: (random_section(BundleData(2, 1), QQ, (2, -2), rng),
                 random_section(BundleData(2, 1), QQ, (2, -3), rng)),
    lambda rng: (random_ypoly(QQ, 0, rng), random_ypoly(QQ, 1, rng)),
], ids=["GradedSection", "YPoly"])
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
    assert {type(m) for m in prod.terms} == {type(next(iter(s1.terms)))}
    if isinstance(prod, GradedSection):
        prod.validate()


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=10**6))
def test_homogeneity_closure_under_mul(seed):
    rng = random.Random(seed)
    b = BundleData(rng.randint(2, 5), rng.randint(0, 6))
    s1 = random_section(b, QQ, (rng.randint(0, 3), rng.randint(-2, 2)), rng)
    s2 = random_section(b, QQ, (rng.randint(0, 3), rng.randint(-2, 2)), rng)
    (s1 * s2).validate()


# -- normal form --------------------------------------------------------------------


def test_normal_form_rewrites_x0_square():
    rng = random.Random(3)
    b = BundleData(2, 0)
    Q, G = make_equations(b, QQ, rng)
    x0sq = GradedSection(b, QQ, (2, -2), {FiberMonomial(2, 0, 0, 0): BinForm.one(QQ)})
    red = normal_form(x0sq, Q, G)
    qx = Q.coefficient(FiberMonomial(0, 2, 0, 0))
    qy = Q.coefficient(FiberMonomial(0, 0, 1, 0))
    assert red.coefficient(FiberMonomial(0, 2, 0, 0)) == -qx
    assert red.coefficient(FiberMonomial(0, 0, 1, 0)) == -qy
    assert len(red.terms) == 2


def test_normal_form_rewrites_z_square():
    rng = random.Random(4)
    b = BundleData(2, 0)
    Q, G = make_equations(b, QQ, rng)
    zsq = GradedSection(
        b, QQ, (6, -(6 * b.pg + 2 * b.theta)), {FiberMonomial(0, 0, 0, 2): BinForm.one(QQ)}
    )
    red = normal_form(zsq, Q, G)
    assert all(m.l <= 1 and m.i <= 1 for m in red.terms)
    # residue must equal -(G - z^2) reduced by Q
    tail = GradedSection(
        b, QQ, zsq.bidegree, {m: c for m, c in G.terms.items() if m != FiberMonomial(0, 0, 0, 2)}
    )
    assert red == normal_form(-tail, Q, G)


def test_normal_form_kills_ideal_members():
    rng = random.Random(5)
    b = BundleData(2, 1)
    Q, G = make_equations(b, QQ, rng)
    for _ in range(5):
        w = random_section(b, QQ, (2, rng.randint(-1, 1)), rng)
        assert normal_form(Q * w, Q, G).is_zero
        v = random_section(b, QQ, (1, rng.randint(-1, 1)), rng)
        assert normal_form(G * v, Q, G).is_zero
    # mixed combination: bidegrees of Q*w and G*v must agree for the sum
    w = random_section(b, QQ, (4, 0), rng)
    v = random_section(b, QQ, (0, 12), rng)
    member = Q * w + G * v
    assert normal_form(member, Q, G).is_zero


def test_normal_form_nonmembers_survive():
    rng = random.Random(6)
    b = BundleData(2, 0)
    Q, G = make_equations(b, QQ, rng)
    # fiber degree 1 sections cannot lie in an ideal generated in degrees 2 and 6
    x0 = GradedSection.variable(b, QQ, 0)
    assert not normal_form(x0, Q, G).is_zero
    one = GradedSection(b, QQ, (0, 0), {FiberMonomial(0, 0, 0, 0): BinForm.one(QQ)})
    assert not normal_form(one, Q, G).is_zero


def _normal_form_random_order(s, Q, G, rng):
    """Reduction picking targets at random; oracle for confluence."""
    work = dict(s.terms)
    lead_Q = FiberMonomial(2, 0, 0, 0)
    lead_G = FiberMonomial(0, 0, 0, 2)
    while True:
        reducible = sorted([m for m in work if m.l >= 2 or m.i >= 2])
        if not reducible:
            break
        target = rng.choice(reducible)
        coeff = work.pop(target)
        rel, lead = (G, lead_G) if target.l >= 2 else (Q, lead_Q)
        stub = FiberMonomial(
            target.i - lead.i, target.j - lead.j, target.k - lead.k, target.l - lead.l
        )
        for mono, relc in rel.terms.items():
            if mono == lead:
                continue
            dest = FiberMonomial(
                stub.i + mono.i, stub.j + mono.j, stub.k + mono.k, stub.l + mono.l
            )
            delta = coeff * relc
            acc = work.get(dest)
            new = -delta if acc is None else acc - delta
            if new.is_zero:
                work.pop(dest, None)
            else:
                work[dest] = new
    return GradedSection(s.bundle, s.field, s.bidegree, work)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_normal_form_confluence(seed):
    rng = random.Random(seed)
    b = BundleData(2, rng.randint(0, 2))
    Q, G = make_equations(b, QQ, rng)
    s = random_section(b, QQ, (rng.randint(2, 7), rng.randint(-2, 1)), rng)
    reference = normal_form(s, Q, G)
    for trial in range(3):
        assert _normal_form_random_order(s, Q, G, random.Random(seed + trial)) == reference


def test_normal_form_requires_monic_relations():
    rng = random.Random(7)
    b = BundleData(2, 0)
    Q, G = make_equations(b, QQ, rng)
    badQ = GradedSection(
        b, QQ, (2, -2), {FiberMonomial(2, 0, 0, 0): BinForm.constant(QQ, 2)}
    )
    s = GradedSection.zero(b, QQ, (2, -2))
    with pytest.raises(ValueError):
        normal_form(s, badQ, G)


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
    assert section_terms_from_dict(b, QQ, (2, -2), {"y": "t0^5 - t0^5"}).is_zero
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
