import math
import operator
import random
import re
import sys
from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canpencil.binform import (
    BinForm,
    BinFormError,
    ParseError,
    _fp_shift_power,
    _fp_split,
    count_distinct_roots,
    divexact,
    divides,
    format_binform,
    gcd,
    least_nonresidue,
    parse_binform,
    random_binform,
    random_split_squarefree,
    roots,
    sqrt_mod,
)
import canpencil.binform as binform_mod
from canpencil.fields import QQ, FieldSpec

import binform_reference

F5 = FieldSpec.prime_field(5)
F101 = FieldSpec.prime_field(101)
F35027 = FieldSpec.prime_field(35027)


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
    with pytest.raises(BinFormError):
        divides(BinForm(F5, (1, 2)), BinForm(FieldSpec.prime_field(7), (1, 2, 1)))
    with pytest.raises(BinFormError):
        divides(form("t0 + 2*t1"), form("t0^2 + 2*t0*t1", F5))


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


def lcm(a, b):
    if a.is_zero or b.is_zero:
        return BinForm.zero(a.field)
    return divexact(a * b, gcd(a, b)).monic()


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


@pytest.mark.oracle
def test_sqrt_mod_matches_table_of_squares():
    """The least root of every residue at every odd prime up to 257, None for non-squares."""
    for p in range(3, 258, 2):
        if any(p % d == 0 for d in range(3, int(p**0.5) + 1, 2)):
            continue
        least = {}
        for r in range(p - 1, -1, -1):
            least[r * r % p] = r
        for a in range(p):
            assert sqrt_mod(a, p) == least.get(a), (a, p)
            assert sqrt_mod(a - p, p) == least.get(a)


def test_least_nonresidue_is_least_non_square():
    for p in range(5, 258, 2):
        if any(p % d == 0 for d in range(3, int(p**0.5) + 1, 2)):
            continue
        squares = {r * r % p for r in range(p)}
        assert least_nonresidue(p) == min(set(range(1, p)) - squares), p


@pytest.mark.parametrize("p, s", [(65537, 16), (2**31 - 1, 1)])
def test_sqrt_mod_at_both_ends_of_the_two_power(p, s):
    # p - 1 = 2^s q with q odd: Tonelli-Shanks takes up to s - 1 steps at
    # 65537 = 2^16 + 1, where 9 = 3^2 has order 2^15, and none at 2^31 - 1
    assert (p - 1) & -(p - 1) == 1 << s
    rng = random.Random(p)
    for a in [0, 1, 2, 3, 9, p - 1] + rng.sample(range(p), 1500):
        r = sqrt_mod(a, p)
        if a and pow(a, (p - 1) // 2, p) != 1:  # Euler's criterion
            assert r is None, a
        else:
            assert r * r % p == a and r <= p - r, a
    for r in rng.sample(range(p), 500):
        assert sqrt_mod(r * r, p) == min(r, p - r)


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


ROOT_TEST_PRIMES = [5, 7, 11, 13, 101]


@st.composite
def root_finding_forms(draw):
    """Nonzero forms over small primes with repeated linear factors, t1
    powers and a random cofactor, of degree >= p for some draws."""
    p = draw(st.sampled_from(ROOT_TEST_PRIMES))
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


@pytest.fixture
def no_powering(monkeypatch):
    """Fails the test if `_fp_shift_power` is called while it runs."""
    calls, real = [], binform_mod._fp_shift_power
    monkeypatch.setattr(binform_mod, "_fp_shift_power", lambda *args: calls.append(args) or real(*args))
    yield
    assert calls == []


def _linear_pairs(p, rng):
    """Every pair r < s of residues when p <= 13, else 40 random pairs."""
    if p <= 13:
        return [(r, s) for r in range(p) for s in range(r + 1, p)]
    return [tuple(sorted(rng.sample(range(p), 2))) for _ in range(40)]


@pytest.mark.parametrize("p", [*ROOT_TEST_PRIMES, 35027, 2**31 - 1])
def test_roots_of_quadratics_by_formula(p, no_powering):
    # zero, nonzero square and non-square discriminant, each with and
    # without a t1 factor and with a scalar in front; no t^p powering
    fld, rng = FieldSpec.prime_field(p), random.Random(p)
    n, t1 = least_nonresidue(p), BinForm.t1(fld)
    lin = lambda r: BinForm(fld, (1, -r))
    cases = []
    for r, s in _linear_pairs(p, rng):
        c = rng.randrange(1, p)
        cases.append((lin(r) ** 2 * BinForm.constant(fld, c), {(r, 1): 2}))
        cases.append((lin(r) * lin(s) * BinForm.constant(fld, c), {(r, 1): 1, (s, 1): 1}))
        # (t - r)^2 - n m^2 with m != 0: the discriminant 4 n m^2 is not a square
        m = rng.randrange(1, p)
        cases.append((lin(r) ** 2 - BinForm.constant(fld, n * m * m) * t1**2, {}))
    cases.append((BinForm(fld, (1, 0, -n)), {}))  # t^2 - n
    for f, expected in cases:
        assert f.degree == 2
        assert roots(f) == expected
        assert roots(f * t1) == {(1, 0): 1, **expected}
        assert list(roots(f * t1)) == [(1, 0), *expected]
        if p <= 13:
            assert roots(f) == brute_force_roots(f)


@pytest.mark.parametrize("p", [*ROOT_TEST_PRIMES, 35027, 2**31 - 1])
def test_split_of_two_linear_factors_by_formula(p, no_powering):
    for r, s in _linear_pairs(p, random.Random(p)):
        found = []
        _fp_split([r * s % p, -(r + s) % p, 1], 1, p, found)
        assert sorted(found) == [r, s]
    for r in (0, 1, p - 1):
        found = []
        _fp_split([-r % p, 1], 1, p, found)
        assert found == [r]


SHIFT_POWER_PRIMES = [5, 7, 17, 23, 101, 35027, 45007, 1_000_003, 2**31 - 1]


@st.composite
def shift_power_cases(draw):
    """(a, e, f, p): a monic f of degree 1..64, a shift in [0, p), and an
    exponent from the root finder's (0, 1, 2, p, (p - 1)/2) or below 2^40."""
    p = draw(st.sampled_from(SHIFT_POWER_PRIMES))
    n = draw(st.integers(min_value=1, max_value=64))
    f = draw(st.lists(st.integers(min_value=0, max_value=p - 1), min_size=n, max_size=n)) + [1]
    a = draw(st.integers(min_value=0, max_value=p - 1))
    e = draw(st.sampled_from([0, 1, 2, p, (p - 1) // 2]) | st.integers(0, 2**40 - 1))
    return a, e, f, p


@pytest.mark.oracle
@settings(max_examples=200, deadline=None)
@given(shift_power_cases())
@example((0, 0, [4, 1], 5))  # e = 0
@example((2, 9, [2, 1], 5))  # f = t + a: the residue becomes zero
@example((3, 2, [2, 6, 1], 7))  # f = (t + a)^2
@example((0, 2**31 - 1, [0] * 64 + [1], 2**31 - 1))  # f = t^64
@example((10**6 + 2, 2**40 - 1, [10**6 + 2] * 5 + [1], 10**6 + 3))  # n(n+1)/2 p^3 below 2^64
@example((10**6 + 2, 2**40 - 1, [10**6 + 2] * 6 + [1], 10**6 + 3))  # and just above
@example((2**31 - 2, 2**40 - 1, [2**31 - 2] * 64 + [1], 2**31 - 1))
def test_shift_power_matches_schoolbook(case):
    assert _fp_shift_power(*case) == binform_reference.shift_power_schoolbook(*case)


@pytest.mark.oracle
@pytest.mark.parametrize(
    "n, p, e",
    [(400, 35027, 35027), (2004, 35027, 3000), (400, 2**31 - 1, 10**6), (2004, 2**31 - 1, 3000)],
)
def test_shift_power_matches_schoolbook_at_large_degree(n, p, e):
    # a slot holds n(n + 1)/2 p^3: one 64-bit word at p = 35027 for n = 400
    # but not for n = 2004, two words at p = 2^31 - 1
    rng = random.Random(n + p)
    f = [rng.randrange(p) for _ in range(n)] + [1]
    a = rng.randrange(p)
    assert _fp_shift_power(a, e, f, p) == binform_reference.shift_power_schoolbook(a, e, f, p)


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
    # roots of multiplicity 5 and 6 next to a simple root
    assert count_distinct_roots(f * form("t0 - t1", F5)) == 2
    assert count_distinct_roots(f * form("t0 - 2*t1", F5)) == 1
    assert count_distinct_roots(f * form("t0 - t1", F5) ** 6) == 2


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



# -- ring arithmetic and division against a per-scalar reference --------------------
#
# The reference works on coefficient tuples and goes through FieldSpec.add,
# sub, mul, neg, inv and normalize once per scalar, so it shares nothing
# with the form-level kernels in binform.py.

ORACLE_FIELDS = [FieldSpec.prime_field(p) for p in (5, 101, 10007, 2**31 - 1)] + [QQ]


def ref_canonical(fld, coeffs) -> tuple:
    coeffs = tuple(fld.normalize(c) for c in coeffs)
    return () if all(c == 0 for c in coeffs) else coeffs


def ref_add(a: BinForm, b: BinForm) -> tuple:
    if a.field != b.field:
        raise BinFormError("mixed fields")
    if a.is_zero or b.is_zero:
        return b.coeffs if a.is_zero else a.coeffs
    if len(a.coeffs) != len(b.coeffs):
        raise BinFormError("degree mismatch")
    return ref_canonical(a.field, [a.field.add(x, y) for x, y in zip(a.coeffs, b.coeffs)])


def ref_neg(a: BinForm) -> tuple:
    return ref_canonical(a.field, [a.field.neg(c) for c in a.coeffs])


def ref_sub(a: BinForm, b: BinForm) -> tuple:
    return ref_add(a, BinForm(b.field, ref_neg(b)))


def ref_mul_coeffs(fld, u: tuple, v: tuple) -> tuple:
    if not u or not v:
        return ()
    out = [fld.zero] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            out[i + j] = fld.add(out[i + j], fld.mul(x, y))
    return ref_canonical(fld, out)


def ref_mul(a: BinForm, b: BinForm) -> tuple:
    if a.field != b.field:
        raise BinFormError("mixed fields")
    return ref_mul_coeffs(a.field, a.coeffs, b.coeffs)


def ref_scale(a: BinForm, c) -> tuple:
    fld = a.field
    c = fld.normalize(c)
    return ref_canonical(fld, [fld.mul(c, x) for x in a.coeffs])


def ref_pow(a: BinForm, n: int) -> tuple:
    out = (a.field.one,)
    for _ in range(n):
        out = ref_mul_coeffs(a.field, out, a.coeffs)
    return out


def ref_trim(u: list) -> list:
    while u and u[-1] == 0:
        u.pop()
    return u


def ref_t1_multiplicity(coeffs: tuple) -> int:
    return next((i for i, c in enumerate(coeffs) if c != 0), 0)


def ref_chart(coeffs: tuple) -> list:
    """f(x, 1), ascending in x."""
    return ref_trim(list(reversed(coeffs)))


def ref_from_chart(fld, u: list, shift: int) -> tuple:
    u = ref_trim(list(u))
    return ref_canonical(fld, [fld.zero] * shift + list(reversed(u))) if u else ()


def ref_divmod(fld, u: list, v: list):
    u, v = ref_trim(list(u)), ref_trim(list(v))
    q = [fld.zero] * max(0, len(u) - len(v) + 1)
    for k in range(len(u) - len(v), -1, -1):
        c = fld.mul(u[k + len(v) - 1], fld.inv(v[-1]))
        q[k] = c
        for j, vj in enumerate(v):
            u[k + j] = fld.sub(u[k + j], fld.mul(c, vj))
    return q, ref_trim(u)


def ref_gcd(a: BinForm, b: BinForm) -> tuple:
    fld = a.field
    if a.is_zero and b.is_zero:
        raise BinFormError("gcd(0, 0)")
    shift = min(ref_t1_multiplicity(a.coeffs), ref_t1_multiplicity(b.coeffs))
    if a.is_zero or b.is_zero:
        shift = ref_t1_multiplicity((b if a.is_zero else a).coeffs)
    return ref_from_chart(fld, ref_chart_gcd(fld, ref_chart(a.coeffs), ref_chart(b.coeffs)), shift)


def ref_chart_gcd(fld, u: list, v: list) -> list:
    while v:
        u, v = v, ref_divmod(fld, u, v)[1]
    inv = fld.inv(u[-1])
    return [fld.mul(inv, c) for c in u]


def ref_divides(d: BinForm, n: BinForm) -> bool:
    if d.is_zero or n.is_zero:
        return n.is_zero
    if ref_t1_multiplicity(d.coeffs) > ref_t1_multiplicity(n.coeffs):
        return False
    return not ref_divmod(n.field, ref_chart(n.coeffs), ref_chart(d.coeffs))[1]


def ref_divexact(a: BinForm, b: BinForm) -> tuple:
    if b.is_zero:
        raise ZeroDivisionError("division by zero")
    if a.is_zero:
        return ()
    shift = ref_t1_multiplicity(a.coeffs) - ref_t1_multiplicity(b.coeffs)
    q, r = ref_divmod(a.field, ref_chart(a.coeffs), ref_chart(b.coeffs))
    if shift < 0 or r:
        raise BinFormError("inexact division")
    return ref_from_chart(a.field, q, shift)


def ref_evaluate(f: BinForm, a, b):
    fld = f.field
    a, b = fld.normalize(a), fld.normalize(b)
    d, acc = len(f.coeffs) - 1, fld.zero
    for i, c in enumerate(f.coeffs):
        for _ in range(d - i):
            c = fld.mul(c, a)
        for _ in range(i):
            c = fld.mul(c, b)
        acc = fld.add(acc, c)
    return acc


def ref_deriv(f: BinForm, t1: bool) -> tuple:
    """d/dt1 when `t1`, else d/dt0, one monomial at a time."""
    fld, d = f.field, len(f.coeffs) - 1
    out = [fld.zero] * max(d, 0)
    for i, c in enumerate(f.coeffs):
        e = i if t1 else d - i
        if e:
            out[i - 1 if t1 else i] = fld.mul(fld.normalize(e), c)
    return ref_canonical(fld, out)


def ref_radical(fld, u: list) -> list:
    """lcm(u/gcd(u, u'), radical of gcd(u, u')): a product of x - r over the distinct roots r of u."""
    if len(u) <= 1:
        return [fld.one]
    du = ref_trim([fld.mul(fld.normalize(i), u[i]) for i in range(1, len(u))])
    if not du:
        # u = v(x^p); Frobenius permutes the roots of v, which are those of u
        return ref_radical(fld, u[::fld.p])
    g = ref_chart_gcd(fld, u, du)
    w = ref_divmod(fld, u, g)[0]  # once each root whose multiplicity p does not divide
    r = ref_radical(fld, g)  # every repeated root
    return ref_divmod(fld, list(ref_mul_coeffs(fld, tuple(w), tuple(r))), ref_chart_gcd(fld, w, r))[0]


def ref_count_distinct_roots(f: BinForm) -> int:
    if f.is_zero:
        raise BinFormError("zero form")
    at_infinity = 1 if ref_t1_multiplicity(f.coeffs) else 0
    return at_infinity + len(ref_radical(f.field, ref_chart(f.coeffs))) - 1


def oracle_scalars(fld):
    if fld.is_rational:
        return st.fractions(min_value=-9, max_value=9, max_denominator=7)
    special = st.sampled_from([0, 1, fld.p - 1, fld.p // 2])
    return st.one_of(special, st.integers(min_value=0, max_value=fld.p - 1))


#: rationals with numerators up to 10^12 and denominators up to 10^6, so
#: that coefficient growth in a remainder sequence over Z shows
wide_rationals = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**6)),
)


@st.composite
def oracle_forms(draw, fld, degree=None, scalars=None):
    """Forms with zero runs at both ends; the zero form when degree is None."""
    if degree is None:
        if draw(st.integers(0, 9)) == 0:
            return BinForm.zero(fld)
        degree = draw(st.integers(min_value=0, max_value=8))
    if scalars is None:
        scalars = oracle_scalars(fld)
    coeffs = draw(st.lists(scalars, min_size=degree + 1, max_size=degree + 1))
    lead_zeros = draw(st.integers(0, degree))
    trail_zeros = draw(st.integers(0, degree - lead_zeros))
    coeffs[:lead_zeros] = [0] * lead_zeros
    coeffs[len(coeffs) - trail_zeros:] = [0] * trail_zeros
    return BinForm(fld, coeffs)


def assert_coeffs(result: BinForm, fld, expected: tuple) -> None:
    assert result.field == fld
    assert result.coeffs == expected
    kind = Fraction if fld.is_rational else int
    assert all(type(c) is kind for c in result.coeffs)
    if not fld.is_rational:
        assert all(0 <= c < fld.p for c in result.coeffs)


def check_against(op, ref, *args) -> None:
    try:
        expected = ref(*args)
    except (BinFormError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            op(*args)
        return
    assert_coeffs(op(*args), args[0].field, expected)


def check_ring_operations(data, fld, scalars) -> None:
    a = data.draw(oracle_forms(fld, scalars=scalars))
    same_degree = not a.is_zero and data.draw(st.booleans())
    b = data.draw(oracle_forms(fld, a.degree if same_degree else None, scalars))
    check_against(operator.add, ref_add, a, b)
    check_against(operator.sub, ref_sub, a, b)
    check_against(operator.mul, ref_mul, a, b)
    check_against(operator.neg, ref_neg, a)
    c = data.draw(st.one_of(scalars, st.integers(-50, 50), st.fractions(-9, 9, max_denominator=4)))
    check_against(BinForm.scale, ref_scale, a, c)
    check_against(operator.pow, ref_pow, a, data.draw(st.integers(0, 4)))


def check_division(data, fld, scalars) -> None:
    a = data.draw(oracle_forms(fld, scalars=scalars))
    b = data.draw(oracle_forms(fld, scalars=scalars))
    product = BinForm(fld, ref_mul(a, b))
    check_against(gcd, ref_gcd, a, b)
    check_against(gcd, ref_gcd, product, b)
    check_against(divexact, ref_divexact, product, b)
    check_against(divexact, ref_divexact, a, b)
    assert divides(b, product) == ref_divides(b, product)
    assert divides(b, a) == ref_divides(b, a)


def check_calculus(data, fld, scalars) -> None:
    f = data.draw(oracle_forms(fld, scalars=scalars))
    if fld == F5 and data.draw(st.booleans()):
        # Frobenius: a p-th power has a vanishing chart derivative, and the
        # cofactor puts roots of multiplicity prime to p next to it
        f = f ** 5 * data.draw(oracle_forms(fld))
    elif fld.is_rational and data.draw(st.booleans()):
        # repeated rational roots, so that gcd(u, u') is not constant
        f = f * data.draw(oracle_forms(fld, scalars=scalars)) ** 2
    points = st.one_of(scalars, st.integers(-50, 50), st.fractions(-9, 9, max_denominator=4))
    a, b = data.draw(points), data.draw(points)
    value = f.evaluate(a, b)
    assert value == ref_evaluate(f, a, b)
    assert type(value) is (Fraction if fld.is_rational else int)
    assert fld.is_rational or 0 <= value < fld.p
    assert_coeffs(f.deriv_t0(), fld, ref_deriv(f, t1=False))
    assert_coeffs(f.deriv_t1(), fld, ref_deriv(f, t1=True))
    if f.is_zero:
        with pytest.raises(BinFormError):
            count_distinct_roots(f)
    else:
        assert count_distinct_roots(f) == ref_count_distinct_roots(f)


@pytest.mark.oracle
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ring_operations_match_per_scalar_reference(data):
    fld = data.draw(st.sampled_from(ORACLE_FIELDS))
    check_ring_operations(data, fld, oracle_scalars(fld))


@pytest.mark.oracle
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_division_matches_per_scalar_reference(data):
    fld = data.draw(st.sampled_from(ORACLE_FIELDS))
    check_division(data, fld, oracle_scalars(fld))


@pytest.mark.oracle
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_evaluation_and_calculus_match_per_scalar_reference(data):
    fld = data.draw(st.sampled_from(ORACLE_FIELDS))
    check_calculus(data, fld, oracle_scalars(fld))


@pytest.mark.oracle
@pytest.mark.parametrize("check", [check_ring_operations, check_division, check_calculus])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_wide_rationals_match_per_scalar_reference(check, data):
    check(data, QQ, wide_rationals)


@pytest.mark.oracle
def test_mixed_fields_rejected_by_every_binary_operation():
    forms = [BinForm(fld, (1, 2, 3)) for fld in ORACLE_FIELDS]
    forms.append(BinForm(FieldSpec.prime_field(7), (1, 2, 3)))
    for a in forms:
        for b in forms:
            if a.field == b.field:
                continue
            for op in (operator.add, operator.sub, operator.mul, gcd, divexact):
                with pytest.raises(BinFormError):
                    op(a, b)
                with pytest.raises(BinFormError):
                    op(BinForm.zero(a.field), b)


def assert_canonical(f: BinForm) -> None:
    """A QQ form's numerators and denominator are the canonical pair."""
    assert f.den > 0 and math.gcd(f.den, *f.nums) == 1
    assert all(type(n) is int for n in f.nums)
    assert all(type(c) is Fraction for c in f.coeffs)
    rebuilt = BinForm(QQ, f.coeffs)
    assert rebuilt == f and hash(rebuilt) == hash(f)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rational_forms_are_canonical_however_built(data):
    a = data.draw(oracle_forms(QQ, scalars=wide_rationals))
    b = data.draw(oracle_forms(QQ, None if a.is_zero else a.degree, wide_rationals))
    c = data.draw(wide_rationals)
    built = [a, b, a * b, a.scale(c), a ** 3, -a, a.deriv_t0(), a.deriv_t1(),
             parse_binform(format_binform(a), QQ)]
    if a.degree == b.degree:
        built += [a + b, a - b]
    if not a.is_zero:
        built += [a.monic(), gcd(a, b), gcd(a * b, a ** 2)]
    if not b.is_zero:
        built += [divexact(a * b, b), divexact(a * b.scale(c), b)]
    for f in built:
        assert_canonical(f)
    # equal forms built different ways compare and hash equal
    for x, y in [(a + a, a.scale(2)), (a * b - b * a, BinForm.zero(QQ)),
                 (BinForm.from_numerators(QQ, [3 * n for n in a.nums], 3 * a.den), a)]:
        assert x == y and hash(x) == hash(y)
    if not b.is_zero:
        assert divexact(a * b, b) == a and hash(divexact(a * b, b)) == hash(a)


def test_from_numerators_over_prime_field_divides_by_den():
    assert BinForm.from_numerators(F5, [1, 3, 10], 2) == BinForm(F5, [Fraction(1, 2), Fraction(3, 2), 5])
    assert BinForm.from_numerators(F5, [5, 10], 3).is_zero
    with pytest.raises(ValueError):
        BinForm.from_numerators(F5, [1, 2], 10)


def test_negative_power_rejected():
    for fld in ORACLE_FIELDS:
        with pytest.raises(BinFormError):
            BinForm.t0(fld) ** -1


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
    with pytest.raises(ParseError) as err:
        form("t0 + 1/5*t1", F5)
    assert err.value.offset == 3  # the term with the denominator, not the first term
    assert str(err.value) == "denominator 5 not invertible mod 5 (at byte 3)"


def test_parse_non_decimal_digit_is_parse_error():
    # "\u00b2" passes str.isdigit but not int(); it is a bad character, not an int
    for text, offset in (("t0^\u00b2", 3), ("12\u00b2*t0", 2)):
        with pytest.raises(ParseError) as err:
            form(text)
        assert err.value.offset == offset
        assert str(err.value) == f"unexpected character '\u00b2' (at byte {offset})"
    assert form("\u0663*t0") == form("3*t0")  # an Arabic-Indic 3 is a decimal digit


@pytest.mark.parametrize("text, digits, offset", [
    ("9" * 5000 + "*t0^2", 5000, 0),
    ("t0^2 + 3/" + "7" * 4301 + "*t1^2", 4301, 9),  # a denominator
    ("t0^" + "1" * 4400, 4400, 3),  # an exponent
])
def test_parse_integer_past_digit_limit_is_parse_error(text, digits, offset):
    """An integer that int() refuses for its length is a ParseError at its first digit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for field in (QQ, F5):
            with pytest.raises(ParseError) as err:
                form(text, field)
            assert err.value.offset == offset
            assert str(err.value) == (f"integer with {digits} digits exceeds the limit of 4300 "
                                      f"digits (at byte {offset})")
    finally:
        sys.set_int_max_str_digits(limit)


@given(binforms())
def test_print_parse_roundtrip_qq(f):
    assert parse_binform(format_binform(f), QQ) == f


@given(binforms(field=F5))
def test_print_parse_roundtrip_f5(f):
    assert parse_binform(format_binform(f), F5) == f


# Random literals for the parser oracle: a soup of grammar pieces, stray
# characters and non-ASCII digits, and near-valid term sums that reach the
# denominator, zero-term and homogeneity checks.
_LITERAL_PIECES = ["t0", "t1", "^", "*", "/", "+", "-", "0", "1", "2", "7", "12", "x", "t2",
                   "@", "_", "\u00e9", "\u0663", "t01", "\u00b2", " ", "\t"]
_FACTOR_PIECES = ["0", "1", "2", "7", "12", "3/2", "1/7", "7/14", "2/10", "1/0",
                  "t0", "t1", "t0^2", "t1^3", "t0^0", "t1^12"]
PARSE_FIELDS = [QQ, F5, FieldSpec.prime_field(7)]


def _short_digit_runs(text):
    """Every run of `str.isdigit` characters has at most 4, so exponents stay below 10^4."""
    return all(len(list(run)) <= 4 for digit, run in groupby(text, str.isdigit) if digit)


literal_soup = st.lists(st.sampled_from(_LITERAL_PIECES), max_size=16).map("".join)
near_valid_literals = st.lists(
    st.tuples(st.sampled_from(["", "+", "-", " - ", "+ "]),
              st.lists(st.sampled_from(_FACTOR_PIECES), min_size=1, max_size=3)),
    min_size=1, max_size=4,
).map(lambda terms: "".join(sign + "*".join(factors) for sign, factors in terms))


def parse_outcome(parse, text, field):
    """What `parse` makes of `text`: a form with its coefficient types, or the error."""
    try:
        f = parse(text, field)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.offset)
    except ValueError as exc:
        return (type(exc).__name__, str(exc))
    return ("form", f.field, f.coeffs, tuple(map(type, f.coeffs)))


def _parse_error(message, offset):
    return ("ParseError", f"{message} (at byte {offset})", offset)


def expected_outcome(text, field):
    """The reference parser's outcome, with its two known faults mapped to the fix.

    A character that `str.isdigit` accepts but `int` rejects (such as
    "\u00b2") escaped the reference as a bare ValueError from `int`; it is an
    "unexpected character" error unless the reference's tokenizer refuses an
    earlier character.  A denominator that is not invertible in the field
    was reported at the first term's offset; it is reported at the offset of
    its own term, the first term that the reference refuses on its own.
    """
    odd = next((i for i, ch in enumerate(text) if ch.isdigit() and not ch.isdecimal()), None)
    if odd is not None:
        try:
            binform_reference._tokenize(text)
        except ParseError as exc:
            if exc.offset < odd:
                return _parse_error(str(exc).rsplit(" (at byte", 1)[0], exc.offset)
        return _parse_error(f"unexpected character {text[odd]!r}", odd)
    outcome = parse_outcome(binform_reference.parse_binform, text, field)
    if outcome[0] == "ParseError" and "not invertible" in outcome[1]:
        tokens = binform_reference._tokenize(text)
        starts = [tokens[0][2]] + [off for kind, _, off in tokens[1:] if kind in ("+", "-")]
        for start, stop in zip(starts, starts[1:] + [len(text)]):
            alone = parse_outcome(binform_reference.parse_binform, text[start:stop], field)
            if alone[0] == "ParseError" and "not invertible" in alone[1]:
                return _parse_error(alone[1].rsplit(" (at byte", 1)[0], start)
    return outcome


@st.composite
def spaced_printer_literals(draw):
    """`format_binform` output over QQ, F_5 or F_35027 at degree 0..40, with random
    whitespace around every operator and at both ends, and a field to parse it over."""
    printed_over = draw(st.sampled_from([QQ, F5, F35027]))
    f = draw(oracle_forms(printed_over, draw(st.integers(0, 40))))
    spaces = st.text(st.sampled_from(" \t\n\u3000"), max_size=3)
    text = re.sub(r"\s*([-+*/^])\s*", lambda m: draw(spaces) + m.group(1) + draw(spaces),
                  format_binform(f))
    return draw(spaces) + text + draw(spaces), draw(st.sampled_from([printed_over, QQ, F5]))


@pytest.mark.oracle
@settings(max_examples=600, deadline=None)
@given(st.one_of(
    st.tuples(st.one_of(literal_soup, near_valid_literals).filter(_short_digit_runs),
              st.sampled_from(PARSE_FIELDS)),
    spaced_printer_literals(),
))
@example(("t0 + 1/5*t1", F5))
@example(("7*t1 - t0 + 2/10", F5))
@example(("t0^\u00b2", QQ))
@example(("x\u00b2 + 1\u00b2@", QQ))
@example(("1\u00b2x", QQ))
@example(("  1/5*t1", F5))  # a term that fails after whitespace: its offset is past it
@example((" t0 +  t1^2", QQ))
@example(("\t- 3 / 10 * t0 ^ 2 -\n1/5*t1^2 ", F5))
# one example per wording of a syntax error, and where it points
@example(("3/", QQ))
@example(("3 / * 4", QQ))
@example(("t0 ^ + t1", QQ))
@example(("3/4/5", QQ))
@example(("t0^2^3", QQ))
@example(("+ *3", QQ))
@example(("*3", QQ))
@example(("   ", QQ))
@example(("t0 t1", QQ))
@example(("1/00", QQ))
@example(("3 + ", QQ))
@example(("3 4 @", QQ))
@example(("1/0 + x", QQ))
@example(("9" * 5000 + " @", QQ))  # past int()'s digit limit: the bad character still wins
def test_parse_matches_reference_parser(case):
    text, field = case
    assert parse_outcome(parse_binform, text, field) == expected_outcome(text, field)


# A literal must scan in time linear in its length, also when it is refused.
# Python 3.10's re has no atomic groups, so two quantifiers side by side over
# one run of whitespace would make these cases quadratic; `time_limit` turns
# that into a failure instead of a hang.
_SPACES = " " * 10**5
_N = len(_SPACES)
LONG_LITERALS = {  # id: (literal, the outcome of parsing it over QQ)
    "leading": (_SPACES + "@", _parse_error("unexpected character '@'", _N)),
    "after-sign": ("-" + _SPACES + "@", _parse_error("unexpected character '@'", _N + 1)),
    "around-star": ("t0" + _SPACES + "*" + _SPACES + "@",
                    _parse_error("unexpected character '@'", 2 * _N + 3)),
    "around-caret": ("t0" + _SPACES + "^" + _SPACES + "@",
                     _parse_error("unexpected character '@'", 2 * _N + 3)),
    "around-slash": ("7" + _SPACES + "/" + _SPACES + "@",
                     _parse_error("unexpected character '@'", 2 * _N + 2)),
    "many-terms": (" + ".join(["3/2*t0^2*t1"] * 10**4) + "@",
                   _parse_error("unexpected character '@'", 10**4 * 14 - 3)),
    "factor-due": ("t0" + _SPACES + "*" + _SPACES,
                   _parse_error("expected coefficient or variable", 2 * _N + 3)),
    "no-operator": (_SPACES + "t0" + _SPACES + "t1",
                    _parse_error("expected '+' or '-' between terms", 2 * _N + 2)),
    "zero-denominator": ("1" + _SPACES + "/" + _SPACES + "0",
                         _parse_error("zero denominator", 2 * _N + 2)),
    "denominator-due": ("7/" + _SPACES, _parse_error("expected denominator after '/'", _N + 2)),
    "exponent-due": ("t0^" + _SPACES,
                     _parse_error("expected integer exponent after '^'", _N + 3)),
    "only-spaces": (_SPACES, _parse_error("empty polynomial literal", 0)),
    "syntax-error-then-late-char": ("3 4" + _SPACES + "@",
                                    _parse_error("unexpected character '@'", _N + 3)),
    "valid": (_SPACES + "t0" + _SPACES + "+" + _SPACES + "t1" + _SPACES,
              parse_outcome(parse_binform, "t0 + t1", QQ)),
}


@pytest.mark.parametrize("text, outcome", LONG_LITERALS.values(), ids=LONG_LITERALS)
def test_long_literal_scans_in_linear_time(text, outcome, time_limit):
    time_limit(10)
    assert parse_outcome(parse_binform, text, QQ) == outcome


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
