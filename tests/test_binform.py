import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canpencil.binform import (
    BinForm,
    BinFormError,
    ParseError,
    count_distinct_roots,
    divexact,
    divides,
    format_binform,
    gcd,
    lcm,
    parse_binform,
    random_binform,
    random_split_squarefree,
    roots,
)
from canpencil.fields import QQ, FieldSpec

F5 = FieldSpec.prime_field(5)
F101 = FieldSpec.prime_field(101)


def form(text, field=QQ):
    return parse_binform(text, field)


# -- field spec guards -------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 4, 9, 1, 0, -7, 2**31])
def test_bad_prime_moduli_rejected(p):
    with pytest.raises(ValueError):
        FieldSpec.prime_field(p)


def test_good_primes_accepted():
    for p in (5, 7, 11, 101, 10007, 2**31 - 1):
        assert FieldSpec.prime_field(p).p == p


def test_rational_field_json_roundtrip():
    for fld in (QQ, F101):
        assert FieldSpec.from_json(fld.to_json()) == fld


# -- arithmetic: spec examples ------------------------------------------------


def test_mul_monomials():
    assert form("t0") * form("t1") == form("t0*t1")


def test_mul_zero_absorbs():
    zero = BinForm.zero(QQ)
    assert zero * form("t0^3") == zero
    assert (form("t0^3") * zero).is_zero


def test_mul_difference_of_squares():
    assert form("t0+t1") * form("t0-t1") == form("t0^2-t1^2")


def test_mixed_fields_rejected():
    with pytest.raises(BinFormError):
        form("t0") * form("t1", F5)
    with pytest.raises(BinFormError):
        form("t0") + form("t0", F5)


def test_add_degree_mismatch():
    with pytest.raises(BinFormError):
        form("t0") + form("t0^2")


def test_zero_form_has_no_degree():
    z = BinForm(QQ, (0, 0, 0))
    assert z.is_zero and z.degree is None


# -- gcd: spec examples --------------------------------------------------------


def test_gcd_coprime_coordinates():
    assert gcd(form("t0"), form("t1")) == form("1")


def test_gcd_monomials():
    assert gcd(form("t0^2*t1"), form("t0*t1^3")) == form("t0*t1")


def test_gcd_example_pair():
    # f0 = t0*(t0 - 2*t1), f1 = t1^4: coprime
    f0 = form("t0") * form("t0 - 2*t1")
    f1 = form("t1^4")
    assert gcd(f0, f1) == form("1")


def test_gcd_both_zero_rejected():
    with pytest.raises(BinFormError):
        gcd(BinForm.zero(QQ), BinForm.zero(QQ))


def test_gcd_with_one_zero():
    assert gcd(BinForm.zero(QQ), form("3*t0^2")) == form("t0^2")


# -- roots: spec examples -------------------------------------------------------


def test_roots_coordinate_points():
    assert roots(form("t0*t1", F5)) == {(0, 1): 1, (1, 0): 1}


def test_roots_plus_minus_one():
    assert roots(form("t0^2-t1^2", F5)) == {(1, 1): 1, (4, 1): 1}


def test_roots_irreducible_quadratic():
    # oracle: exhaustive evaluation over the 6 points of P^1(F_5)
    f = form("t0^2+2*t1^2", F5)
    points = [(a, 1) for a in range(5)] + [(1, 0)]
    assert all(f.evaluate(a, b) != 0 for a, b in points)
    assert roots(f) == {}


def test_roots_rejected_over_rationals():
    with pytest.raises(BinFormError):
        roots(form("t0"))


def test_roots_multiplicity():
    f = form("t0^2*t1^3", F5)
    assert roots(f) == {(0, 1): 2, (1, 0): 3}


# -- invariants & properties -----------------------------------------------------


@st.composite
def binforms(draw, field=QQ, max_degree=6, allow_zero=True):
    degree = draw(st.integers(min_value=0, max_value=max_degree))
    if field.is_rational:
        coeffs = draw(
            st.lists(
                st.integers(min_value=-9, max_value=9),
                min_size=degree + 1,
                max_size=degree + 1,
            )
        )
    else:
        coeffs = draw(
            st.lists(
                st.integers(min_value=0, max_value=field.p - 1),
                min_size=degree + 1,
                max_size=degree + 1,
            )
        )
    f = BinForm(field, coeffs)
    if not allow_zero and f.is_zero:
        f = BinForm(field, [1] + coeffs[1:])
    return f


@given(st.data())
def test_distributivity(data):
    degree = data.draw(st.integers(min_value=0, max_value=5))
    coeffs = st.lists(
        st.integers(min_value=-9, max_value=9), min_size=degree + 1, max_size=degree + 1
    )
    a = BinForm(QQ, data.draw(coeffs))
    b = BinForm(QQ, data.draw(coeffs))
    c = data.draw(binforms())
    assert (a + b) * c == a * c + b * c


@given(binforms(allow_zero=False), binforms(allow_zero=False))
def test_gcd_divides_both_and_is_monic(a, b):
    g = gcd(a, b)
    assert g.lead_coeff == 1
    assert divides(g, a) and divides(g, b)
    assert divexact(a, g) * g == a


@given(binforms(allow_zero=False), binforms(allow_zero=False))
def test_gcd_lcm_degree_formula(a, b):
    g, m = gcd(a, b), lcm(a, b)
    assert g.degree + m.degree == a.degree + b.degree


@given(binforms(field=F5, allow_zero=False), binforms(field=F5, allow_zero=False))
def test_gcd_same_contract_over_prime_field(a, b):
    g = gcd(a, b)
    assert g.lead_coeff == 1
    assert divides(g, a) and divides(g, b)


@settings(max_examples=30)
@given(st.data())
def test_split_forms_have_full_root_count(data):
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    degree = data.draw(st.integers(min_value=1, max_value=5))
    f = random_split_squarefree(F101, degree, rng)
    found = roots(f)
    assert sum(found.values()) == degree
    # oracle: exhaustive evaluation over all p+1 points
    vanishing = [
        pt
        for pt in [(a, 1) for a in range(101)] + [(1, 0)]
        if f.evaluate(*pt) == 0
    ]
    assert sorted(vanishing) == sorted(found)


@given(binforms(field=F5, allow_zero=False))
def test_roots_bounded_by_degree(f):
    assert sum(roots(f).values()) <= f.degree


F_MERSENNE = FieldSpec.prime_field(2**31 - 1)


def test_roots_of_split_form_at_largest_prime():
    f = random_split_squarefree(F_MERSENNE, 20, random.Random(31))
    cs = random.Random(31).sample(range(F_MERSENNE.p), 20)
    assert roots(f) == {(c, 1): 1 for c in cs}
    cubed = f * BinForm(F_MERSENNE, (1, -12345)) ** 3
    assert roots(cubed) == {**{(c, 1): 1 for c in cs}, (12345, 1): 3}


def test_roots_zero_form_rejected():
    with pytest.raises(BinFormError):
        roots(BinForm.zero(F5))


def brute_force_roots(f: BinForm) -> dict:
    """Roots by trying every residue: (1:0) first, then ascending a."""
    p, fld = f.field.p, f.field
    out = {}
    if f.t1_multiplicity():
        out[(1, 0)] = f.t1_multiplicity()
    u = f.dehomogenize()
    for a in range(p):
        acc = 0
        for c in reversed(u):
            acc = (acc * a + c) % p
        if acc == 0:
            linear, w, mult = BinForm(fld, (1, -a)), f, 0
            while divides(linear, w):
                w, mult = divexact(w, linear), mult + 1
            out[(a, 1)] = mult
    return out


@st.composite
def root_finding_forms(draw):
    """Nonzero forms over small primes with repeated linear factors, t1
    powers and a random cofactor, of degree >= p for some draws."""
    p = draw(st.sampled_from([5, 7, 11, 13, 101]))
    fld = FieldSpec.prime_field(p)
    f = BinForm.constant(fld, draw(st.integers(min_value=1, max_value=p - 1)))
    linear = st.tuples(st.integers(min_value=0, max_value=p - 1), st.integers(1, 3))
    for c, e in draw(st.lists(linear, max_size=4)):
        f = f * BinForm(fld, (1, -c)) ** e
    f = f * BinForm.t1(fld) ** draw(st.integers(min_value=0, max_value=3))
    if draw(st.booleans()):
        # t0^p t1 - t0 t1^p vanishes at every point of P^1(F_p)
        f = f * (BinForm.monomial(fld, p + 1, 1) - BinForm.monomial(fld, p + 1, p))
    f = f * draw(binforms(field=fld, max_degree=p + 3 if p < 101 else 8, allow_zero=False))
    return f


@pytest.mark.oracle
@settings(max_examples=150, deadline=None)
@given(root_finding_forms())
@example(BinForm.t1(F5) ** 4)
@example(BinForm.constant(F101, 3))
@example(form("t0 - t1", F5) ** 3 * form("t0 + 2*t1", F5) ** 2 * form("t0^2 + 2*t1^2", F5))
@example(form("t0^5*t1 - t0*t1^5", F5) ** 2 * form("t0 - 3*t1", F5))
def test_roots_match_brute_force_residue_loop(f):
    expected = brute_force_roots(f)
    found = roots(f)
    assert found == expected
    assert list(found) == list(expected)


def test_count_distinct_roots():
    assert count_distinct_roots(form("t0*t1")) == 2
    assert count_distinct_roots(form("t0^2*t1^3")) == 2
    assert count_distinct_roots(form("t0") * form("t0-2*t1")) == 2
    assert count_distinct_roots(form("7")) == 0


def test_count_distinct_roots_frobenius_power():
    # (t0 - 2 t1)^5 over F_5 has a vanishing chart derivative; the count
    # must still see the single root
    f = form("t0 - 2*t1", F5) ** 5
    assert count_distinct_roots(f) == 1
    assert count_distinct_roots(form("t1", F5) ** 2 * f) == 2


# -- division ---------------------------------------------------------------------


def test_divexact_inexact_raises():
    with pytest.raises(BinFormError):
        divexact(form("t0^2+t1^2"), form("t0"))


def test_divexact_t1_powers():
    q = divexact(form("t0^2*t1^3"), form("t1^2"))
    assert q == form("t0^2*t1")


@given(binforms(allow_zero=False), binforms(allow_zero=False))
def test_divexact_of_product(a, b):
    assert divexact(a * b, b) == a


# -- parser / printer ---------------------------------------------------------------


def test_parse_example_literal():
    f = form("3*t0^2*t1 - 1/2*t1^3")
    assert f.degree == 3
    assert f.coefficient(1) == Fraction(3)
    assert f.coefficient(3) == Fraction(-1, 2)


def test_parse_zero_literal():
    assert form("0").is_zero
    assert form("t0 - t0").is_zero


def test_parse_collects_like_terms():
    assert form("t0 + t0 + t1") == form("2*t0 + t1")


def test_parse_inhomogeneous_rejected():
    with pytest.raises(ParseError) as err:
        form("t0 + 1")
    assert err.value.offset == 3  # the offending term starts at its sign


def test_parse_unknown_variable_offset():
    with pytest.raises(ParseError) as err:
        form("t2^3")
    assert err.value.offset == 0
    assert "t2" in str(err.value)


def test_parse_unexpected_character():
    with pytest.raises(ParseError) as err:
        form("t0 + t1 @")
    assert err.value.offset == 8


def test_parse_prime_field_reduces():
    f = form("7*t0", F5)
    assert f.coefficient(0) == 2


def test_parse_rational_over_prime_field():
    f = form("1/2*t0", F5)
    assert f.coefficient(0) == 3  # 2^-1 = 3 mod 5


def test_parse_denominator_not_invertible():
    with pytest.raises(ParseError):
        form("1/5*t0", F5)


@given(binforms())
def test_print_parse_roundtrip_qq(f):
    assert parse_binform(format_binform(f), QQ) == f


@given(binforms(field=F5))
def test_print_parse_roundtrip_f5(f):
    assert parse_binform(format_binform(f), F5) == f


# -- misc helpers -------------------------------------------------------------------


def test_random_binform_respects_degree_and_seed():
    rng1, rng2 = random.Random(7), random.Random(7)
    a = random_binform(QQ, 4, rng1)
    b = random_binform(QQ, 4, rng2)
    assert a == b
    assert random_binform(QQ, -3, rng1).is_zero


def test_derivatives():
    f = form("t0^2*t1")
    assert f.deriv_t0() == form("2*t0*t1")
    assert f.deriv_t1() == form("t0^2")


def test_evaluate():
    f = form("3*t0^2*t1 - 1/2*t1^3")
    assert f.evaluate(2, 1) == Fraction(12) - Fraction(1, 2)
    assert f.evaluate(1, 0) == 0
