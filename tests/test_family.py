import json
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canpencil.chow import surface_invariants
from canpencil.family import (
    BranchData,
    PG_MAX,
    FamilyParams,
    SurfaceEquations,
    bidouble_branch_data,
    bidouble_cross_check,
    bidouble_invariants,
    canonical_structure,
    degree_table,
    family_dimension,
    generate_member,
    genus_feasibility,
    g_slot_degree,
)
import canpencil.sections as sections_mod
from canpencil.binform import BinForm
from canpencil.fields import QQ, FieldSpec
from canpencil.sections import FiberMonomial, GradedSection, SectionDegreeError

import bidouble_reference

F101 = FieldSpec.prime_field(101)


# -- degree tables -------------------------------------------------------------


def test_degree_table_paper_slots():
    for theta in range(7):
        t = degree_table(5, theta)
        assert t.g[(0, 0, 3)] == theta
        assert t.g[(0, 6, 0)] == 6 - 2 * theta
        assert t.q_x == 10
        assert t.q_y == 8 + theta


def test_x0_slots_forced_zero_for_large_pg():
    for pg in (7, 8, 20):
        t = degree_table(pg, 3)
        for (i, j, k) in t.g:
            if i > 0:
                assert t.g[(i, j, k)] < 0
    # and the converse at small p_g: some x0-slot survives
    t = degree_table(2, 2)
    assert any(i > 0 and d >= 0 for (i, j, k), d in t.g.items())


def test_retained_slots_nonnegative_in_main_regime():
    # i = 0, k <= 3 slots are present for theta <= 3; exactly y^0 drops at theta = 4
    for theta in range(4):
        t = degree_table(10, theta)
        assert all(t.g[(0, 6 - 2 * k, k)] >= 0 for k in range(4))
    t4 = degree_table(10, 4)
    dropped = [k for k in range(4) if t4.g[(0, 6 - 2 * k, k)] < 0]
    assert dropped == [0]


def test_degree_table_json():
    doc = degree_table(2, 0).to_json_dict()
    assert doc["G"]["G_060"] == 6
    assert "G_600" in doc["forced_zero"]


# -- member generation ------------------------------------------------------------


def test_generate_member_deterministic():
    params = FamilyParams(2, 0, F101, seed=42)
    a = generate_member(params)
    b = generate_member(params)
    assert a == b or a.to_json_dict() == b.to_json_dict()


def test_generate_member_validates():
    params = FamilyParams(3, 2, QQ, seed=7)
    member = generate_member(params)
    member.validate()
    assert member.q_x.degree == 6
    assert member.q_y.degree == 6


def test_generate_member_theta4_divisible_by_y():
    params = FamilyParams(9, 4, QQ, seed=1)
    member = generate_member(params)
    assert member.g_coefficient(0, 6, 0).is_zero
    for mono in member.branch_terms():
        assert mono.k >= 1  # every branch monomial carries a factor of y


def test_generate_member_warns_above_theta4():
    with pytest.warns(UserWarning):
        generate_member(FamilyParams(3, 5, QQ, seed=1))


def test_generate_member_split_qy():
    from canpencil.binform import roots

    params = FamilyParams(2, 0, F101, seed=3)
    member = generate_member(params, split_qy=True)
    found = roots(member.q_y)
    assert sum(found.values()) == member.q_y.degree == 2
    assert all(m == 1 for m in found.values())



def test_generate_member_redraws_only_a_zero_q_y():
    from canpencil.binform import random_binform

    f5 = FieldSpec.prime_field(5)
    table = degree_table(2, 0)
    first_draw_zero = []
    for seed in range(40):
        member = generate_member(FamilyParams(2, 0, f5, seed))
        assert member.q_y.degree == table.q_y
        rng = random.Random(seed)
        q_y = random_binform(f5, table.q_y, rng)
        if q_y.is_zero:
            first_draw_zero.append(seed)
            continue
        # nothing extra drawn: the member is the one the plain draws give
        assert member.q_y == q_y
        assert member.q_x == random_binform(f5, table.q_x, rng)
    assert first_draw_zero == [2]


def assert_equation_file_roundtrip(member, tmp_path):
    path = tmp_path / "member.json"
    member.save(str(path))
    back = SurfaceEquations.load(str(path))
    assert back == member
    # byte-identical on re-save
    path2 = tmp_path / "member2.json"
    back.save(str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_equation_file_roundtrip(tmp_path):
    assert_equation_file_roundtrip(generate_member(FamilyParams(3, 1, QQ, seed=5)), tmp_path)


def test_equation_file_roundtrip_of_largest_member(tmp_path):
    # the member CI censuses: literals of up to ~2000 terms
    with pytest.warns(UserWarning):
        member = generate_member(FamilyParams(PG_MAX, 6, QQ, seed=1))
    assert max(len(c.nums) for c in member.Q.terms.values()) > 1990
    assert_equation_file_roundtrip(member, tmp_path)


def test_malformed_coefficient_rejected(tmp_path):
    params = FamilyParams(2, 0, QQ, seed=5)
    doc = generate_member(params).to_json_dict()
    doc["Q"]["x1^2"] = "t2^3"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        SurfaceEquations.load(str(path))


def test_wrong_degree_coefficient_rejected(tmp_path):
    params = FamilyParams(2, 0, QQ, seed=5)
    doc = generate_member(params).to_json_dict()
    doc["Q"]["x1^2"] = "t0"  # prescribed degree is 2 p_g = 4
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        SurfaceEquations.load(str(path))


def test_over_degree_literal_refused_before_allocation():
    doc = generate_member(FamilyParams(2, 0, FieldSpec.prime_field(11), seed=1)).to_json_dict()
    doc["Q"]["y"] = "t0^1000000"  # the y slot has degree 2 p_g + theta - 2 = 2
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="'Q' coefficient of y has degree 1000000, expected 2"):
            SurfaceEquations.from_json_dict(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _counting_check_term(monkeypatch):
    calls = []
    real = sections_mod._check_term
    monkeypatch.setattr(sections_mod, "_check_term", lambda *args: calls.append(args) or real(*args))
    return calls


def test_loading_checks_each_nonzero_term_once(monkeypatch):
    doc = generate_member(FamilyParams(3, 1, QQ, seed=5)).to_json_dict()
    doc["G"]["x0^6"] = "0"  # a forced-zero slot may hold a zero literal; it is not checked
    literals = [c for s in ("Q", "G") for c in doc[s].values()]
    calls = _counting_check_term(monkeypatch)
    member = SurfaceEquations.from_json_dict(doc)
    assert len(calls) == sum(c != "0" for c in literals) == len(member.Q.terms) + len(member.G.terms)


def test_validate_of_member_built_in_code_checks_every_term(monkeypatch):
    member = generate_member(FamilyParams(3, 1, QQ, seed=5))
    calls = _counting_check_term(monkeypatch)
    assert member.validate() is member
    assert len(calls) == len(member.Q.terms) + len(member.G.terms)
    terms = {**member.G.terms, FiberMonomial(0, 6, 0, 0): BinForm.t0(QQ)}  # slot degree 4
    G = GradedSection(member.bundle, QQ, member.G.bidegree, terms)
    with pytest.raises(SectionDegreeError, match=r"coefficient of x1\^6 has degree 1, expected 4"):
        SurfaceEquations(member.bundle, QQ, member.Q, G).validate()


def _respelled(key, rng):
    """`key` with its factors shuffled, powers split into repeated factors and spaces added."""
    factors = []
    for piece in key.split("*"):
        name, _, e = piece.partition("^")
        e = int(e or 1)
        while e:
            k = rng.randint(1, e)
            factors.append(name if k == 1 and rng.random() < 0.5 else f"{name}^{k}")
            e -= k
    rng.shuffle(factors)
    return "*".join(" " * rng.randrange(2) + f + " " * rng.randrange(2) for f in factors)


@pytest.mark.parametrize("shape", [(2, 0), (3, 2), (7, 3)])
def test_off_table_key_spellings_load_equal(shape):
    doc = generate_member(FamilyParams(*shape, QQ, seed=4)).to_json_dict()
    canonical = SurfaceEquations.from_json_dict(doc)
    named = {"x0^2": "x0*x0", "x1^2": " x1^2 ", "y": "y ", "x1^4*y": "y*x1^4",
             "x1^2*y^2": "y^2*x1^2"}
    rng = random.Random(str(shape))
    for _ in range(5):
        edited = {**doc, **{s: {named.get(k) or _respelled(k, rng): c for k, c in doc[s].items()}
                            for s in ("Q", "G")}}
        assert not set(edited["Q"]) & set(doc["Q"]) and set(edited["G"]) != set(doc["G"])
        assert SurfaceEquations.from_json_dict(edited) == canonical


@pytest.mark.parametrize("first, second", [("x1^2", " x1^2 "), ("x1 * x1", "x1^2")])
def test_two_spellings_of_one_monomial_are_duplicate(first, second):
    doc = generate_member(FamilyParams(2, 0, QQ, seed=4)).to_json_dict()
    literal = doc["Q"].pop("x1^2")
    doc["Q"] = {first: literal, **doc["Q"], second: literal}
    with pytest.raises(ValueError) as err:
        SurfaceEquations.from_json_dict(doc)
    assert str(err.value) == f"'Q' duplicate monomial {second!r}"


# -- canonical structure ------------------------------------------------------------


def test_canonical_structure_counts():
    member = generate_member(FamilyParams(4, 0, QQ, seed=11))
    out = canonical_structure(member)
    assert out["section_count"] == 4
    assert out["pencil_degree"] == 3
    assert out["fixed_part"]["fiber_degree"] == 2
    assert out["moving_part"]["h_degree"] == 3
    assert "degree 3" in out["canonical_image"]


# -- dimension bookkeeping ------------------------------------------------------------


def test_family_dimension_values():
    out = family_dimension(7, 0)
    assert out["dimension"] == 37
    assert out["parameter_count"] == 44
    assert out["symmetry_delta"] == 7
    assert family_dimension(6, 1)["dimension"] == 31
    assert family_dimension(5, 2)["dimension"] == 25


def test_family_dimension_delta_is_definitional():
    for pg, theta in [(7, 0), (6, 1), (5, 2), (10, 1)]:
        out = family_dimension(pg, theta)
        assert out["symmetry_delta"] == out["parameter_count"] - out["dimension"]


def test_family_dimension_hypotheses():
    with pytest.raises(ValueError):
        family_dimension(5, 3)
    with pytest.raises(ValueError):
        family_dimension(6, 0)  # needs p_g > 6


# -- bidouble covers ---------------------------------------------------------------------


def test_branch_rows_match_table():
    row0 = bidouble_branch_data(0, 5)
    assert (row0.base_name, row0.d1, row0.d2, row0.d3) == ("F2", (1, 10), (3, 6), (1, 0))
    row2 = bidouble_branch_data(2, 5)
    assert (row2.base_name, row2.d1, row2.d2, row2.d3) == ("P1xP1", (1, 10), (3, 2), (1, 0))
    row5 = bidouble_branch_data(5, 5)
    assert (row5.base_name, row5.d1, row5.d2, row5.d3) == ("F1", (1, 12), (3, 2), (1, 2))
    assert bidouble_branch_data(6, 5).source == "external-source row"
    with pytest.raises(ValueError):
        bidouble_branch_data(7, 5)


def test_bidouble_invariants_match_chow():
    for theta in range(7):
        for pg in range(2, 21):
            data = bidouble_branch_data(theta, pg)
            inv = bidouble_invariants(data)
            want = surface_invariants(pg, theta)
            assert inv["K2"] == want["K2"] == 4 * pg - 6 + theta
            assert inv["chi"] == want["chi"] == pg + 1
            bidouble_cross_check(theta, pg)


def test_bidouble_rejects_odd_pair_sum():
    bad = BranchData(2, (1, 3), (3, 6), (1, 0))
    with pytest.raises(ValueError, match="2-divisible"):
        bidouble_invariants(bad)


def test_branch_data_effectivity():
    with pytest.raises(ValueError):
        BranchData(1, (-1, 2), (3, 6), (1, 0))


def _value_or_refusal(fn, *args):
    """fn(*args), or ("ValueError", message) when it refuses its arguments."""
    try:
        return fn(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


@pytest.mark.oracle
def test_bidouble_rows_and_invariants_match_reference():
    for theta in range(7):
        for pg in range(2, 201):
            want = bidouble_reference.bidouble_branch_data(theta, pg)
            got = bidouble_branch_data(theta, pg)
            assert (got, got.source) == (want, want.source)
            assert bidouble_invariants(got) == bidouble_reference.bidouble_invariants(want)


@pytest.mark.oracle
@pytest.mark.parametrize("theta, pg", [(7, 5), (-1, 5), (0, 1), (6, 1), (7, 1)])
def test_bidouble_refusals_match_reference(theta, pg):
    got = _value_or_refusal(bidouble_branch_data, theta, pg)
    assert got[0] == "ValueError"
    assert got == _value_or_refusal(bidouble_reference.bidouble_branch_data, theta, pg)


branch_classes = st.tuples(st.integers(0, 9), st.integers(0, 40))


@pytest.mark.oracle
@settings(max_examples=300, deadline=None)
@given(st.builds(BranchData, st.integers(0, 5), branch_classes, branch_classes, branch_classes))
@example(BranchData(2, (1, 3), (3, 6), (1, 0)))
@example(BranchData(0, (1, 4), (2, 2), (1, 0)))
def test_bidouble_invariants_match_reference_on_any_triple(data):
    # odd pair sums included: both must refuse with the same message
    assert (_value_or_refusal(bidouble_invariants, data)
            == _value_or_refusal(bidouble_reference.bidouble_invariants, data))


# -- genus feasibility ---------------------------------------------------------------------


def test_feasibility_chi30_window():
    for k2 in (110, 111, 112):
        assert genus_feasibility(k2, 30, 0).feasible_genera == {2}
    # no genus >= 3 survives anywhere below the window either
    for k2 in range(1, 113):
        assert genus_feasibility(k2, 30, 0).feasible_genera <= {2}


def test_feasibility_miyaoka_yau_kills_all():
    assert genus_feasibility(9 * 30 + 1, 30, 0).feasible_genera == set()


def test_feasibility_horikawa_case():
    assert 2 in genus_feasibility(2, 3, 0).feasible_genera


def test_feasibility_q_restricted():
    with pytest.raises(ValueError):
        genus_feasibility(10, 5, 2)
    with pytest.raises(ValueError):
        genus_feasibility(0, 5, 0)


def test_feasibility_caveat_flag():
    assert genus_feasibility(112, 30, 0).classification_complete
    assert not genus_feasibility(30, 10, 0).classification_complete


@settings(max_examples=60)
@given(
    st.integers(min_value=3, max_value=60),
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=1),
)
def test_feasibility_monotone_below_my_line(chi, k2, bump, q):
    # monotonicity holds inside the Miyaoka-Yau region; crossing the line
    # K^2 = 9 chi can only shrink the set, by design
    if k2 + bump > 9 * chi:
        k2 = max(1, 9 * chi - bump)
    small = genus_feasibility(k2, chi, q).feasible_genera
    large = genus_feasibility(k2 + bump, chi, q).feasible_genera
    assert small <= large


def test_g_slot_degree_formula():
    # the three displayed forms of the degree formula agree
    for pg in range(2, 9):
        for theta in range(7):
            for k in range(4):
                for i in range(6 - 2 * k + 1):
                    j = 6 - 2 * k - i
                    lhs = g_slot_degree(pg, theta, i, k)
                    middle = (j + 2 * k - 6) * pg + (k - 2) * theta + (i + j)
                    bracket = (i + (pg + 1) * j + (2 * pg + theta) * k) - 2 * (3 * pg + theta)
                    assert lhs == middle == bracket
