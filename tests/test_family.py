import json
import random
import tracemalloc
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canpencil.census import WPSPoint, base_points, quasi_smooth_sweep
from canpencil.chow import surface_invariants
from canpencil.family import (
    BranchData,
    PG_MAX,
    SurfaceEquations,
    bidouble_branch_data,
    bidouble_cross_check,
    bidouble_invariants,
    degree_table,
    generate_member,
    genus_feasibility,
)
import canpencil.binform as binform_mod
import canpencil.family as family_mod
import canpencil.sections as sections_mod
from canpencil.binform import BinForm, parse_binform
from canpencil.fields import QQ, FieldSpec
from canpencil.sections import FiberMonomial, GradedSection, SectionDegreeError, monomial_from_str

import bidouble_reference
from conftest import save_equations

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
    a = generate_member(2, 0, F101, seed=42)
    b = generate_member(2, 0, F101, seed=42)
    assert a == b or a.to_json_dict() == b.to_json_dict()


def test_generate_member_validates():
    member = generate_member(3, 2, QQ, seed=7)
    member.validate()
    assert member.q_x.degree == 6
    assert member.q_y.degree == 6


def test_generate_member_theta4_divisible_by_y():
    member = generate_member(9, 4, QQ, seed=1)
    assert member.g_coefficient(0, 6, 0).is_zero
    for mono in member.branch_terms():
        assert mono.k >= 1  # every branch monomial carries a factor of y


def test_generate_member_warns_above_theta4():
    with pytest.warns(UserWarning, match=r"^theta = 5: every member is singular along the curve"):
        generate_member(3, 5, QQ, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        generate_member(3, 4, QQ, seed=1)


@pytest.mark.parametrize("pg, theta, message", [
    (1, 0, "p_g >= 2 required"),
    (-3, 9, "p_g >= 2 required"),
    (2, -1, "theta must lie in [0, 6]"),
    (2, 7, "theta must lie in [0, 6]"),
    (1001, 0, "p_g must be at most 1000 for a family member, got 1001"),
    (1001, 7, "theta must lie in [0, 6]"),
])
def test_generate_member_refuses_before_any_draw(pg, theta, message, monkeypatch):
    def no_draw(seed):
        raise AssertionError("drew a coefficient")

    monkeypatch.setattr(family_mod, "Random", no_draw)
    for split_qy in (False, True):
        with pytest.raises(ValueError) as info:
            generate_member(pg, theta, QQ, seed=1, split_qy=split_qy)
        assert str(info.value) == message


@pytest.mark.parametrize("theta", range(7))
def test_branch_form_in_y_squared_exactly_at_theta_5_and_6(theta):
    # at theta >= 5 the table leaves only G_003, G_022 and (p_g = 2) G_112
    for pg in range(2, PG_MAX + 1):
        table = degree_table(pg, theta)
        assert table.branch_in_y_squared() == (theta >= 5), pg
        if theta >= 5:
            assert set(table.g_present()) <= {(0, 0, 3), (0, 2, 2), (1, 1, 2)}


@pytest.mark.parametrize("theta", [5, 6])
def test_theta_5_and_6_members_are_singular_along_the_curve(theta):
    # every F_p-point of {y = z = 0, x0^2 + q_x x1^2 = 0}, in canonical form, fails the sweep
    p = 13
    with pytest.warns(UserWarning, match="singular along the curve"):
        member = generate_member(2, theta, FieldSpec.prime_field(p), seed=1)
    fibers = [(1, a, 0, 0) for a in range(p)] + [(0, 1, 0, 0)]
    curve = {
        WPSPoint(base, fiber)
        for base in base_points(p)
        for fiber in fibers
        if (fiber[0] ** 2 + member.q_x.evaluate(*base) * fiber[1] ** 2) % p == 0
    }
    assert len(curve) >= p // 2
    assert curve <= set(quasi_smooth_sweep(member, p))


def test_generate_member_split_qy():
    from canpencil.binform import roots

    member = generate_member(2, 0, F101, seed=3, split_qy=True)
    found = roots(member.q_y)
    assert sum(found.values()) == member.q_y.degree == 2
    assert all(m == 1 for m in found.values())



def test_generate_member_redraws_only_a_zero_q_y():
    from canpencil.binform import random_binform

    f5 = FieldSpec.prime_field(5)
    table = degree_table(2, 0)
    first_draw_zero = []
    for seed in range(40):
        member = generate_member(2, 0, f5, seed)
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
    save_equations(member, path)
    back = SurfaceEquations.load(str(path))
    assert back == member
    # byte-identical on re-save
    path2 = tmp_path / "member2.json"
    save_equations(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_equation_file_roundtrip(tmp_path):
    assert_equation_file_roundtrip(generate_member(3, 1, QQ, seed=5), tmp_path)


def test_equation_file_roundtrip_of_largest_member(tmp_path):
    # the member CI censuses: literals of up to ~2000 terms
    with pytest.warns(UserWarning):
        member = generate_member(PG_MAX, 6, QQ, seed=1)
    assert max(len(c.nums) for c in member.Q.terms.values()) > 1990
    assert_equation_file_roundtrip(member, tmp_path)


def test_malformed_coefficient_rejected(tmp_path):
    doc = generate_member(2, 0, QQ, seed=5).to_json_dict()
    doc["Q"]["x1^2"] = "t2^3"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        SurfaceEquations.load(str(path))


def test_wrong_degree_coefficient_rejected(tmp_path):
    doc = generate_member(2, 0, QQ, seed=5).to_json_dict()
    doc["Q"]["x1^2"] = "t0"  # prescribed degree is 2 p_g = 4
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        SurfaceEquations.load(str(path))


def test_over_degree_literal_refused_before_allocation():
    doc = generate_member(2, 0, FieldSpec.prime_field(11), seed=1).to_json_dict()
    doc["Q"]["y"] = "t0^1000000"  # the y slot has degree 2 p_g + theta - 2 = 2
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="'Q' coefficient of y has degree 1000000, expected 2"):
            SurfaceEquations.from_json_dict(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.filterwarnings("ignore:theta = ")
@pytest.mark.parametrize("field", [QQ, FieldSpec.prime_field(11), FieldSpec.prime_field(35027)],
                         ids=["qq", "fp:11", "fp:35027"])
def test_every_printed_coefficient_takes_the_printed_lane(field, monkeypatch):
    """Loading reads each literal the toolkit writes with `binform._scan_printed`, and its value
    is the one `scan_binform` reads without it."""
    lane = binform_mod._scan_printed
    literals = [(pg, theta, c) for pg in (2, 3, 10, 40) for theta in range(7)
                for s in ("Q", "G")
                for c in generate_member(pg, theta, field, seed=pg + theta)
                .to_json_dict()[s].values()]
    fast = [lane(c, field.p) for _, _, c in literals]
    monkeypatch.setattr(binform_mod, "_scan_printed", lambda text, p: None)
    for (pg, theta, c), value in zip(literals, fast):
        assert value is not None, (pg, theta, c)
        assert value == binform_mod.scan_binform(c, field), (pg, theta, c)


def _counting_check_term(monkeypatch):
    calls = []
    real = sections_mod._check_term
    monkeypatch.setattr(sections_mod, "_check_term", lambda *args: calls.append(args) or real(*args))
    return calls


def test_loading_checks_each_nonzero_term_once(monkeypatch):
    doc = generate_member(3, 1, QQ, seed=5).to_json_dict()
    doc["G"]["x0^6"] = "0"  # a forced-zero slot may hold a zero literal; it is not checked
    literals = [c for s in ("Q", "G") for c in doc[s].values()]
    calls = _counting_check_term(monkeypatch)
    member = SurfaceEquations.from_json_dict(doc)
    assert len(calls) == sum(c != "0" for c in literals) == len(member.Q.terms) + len(member.G.terms)


def test_validate_of_member_built_in_code_checks_every_term(monkeypatch):
    member = generate_member(3, 1, QQ, seed=5)
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
    doc = generate_member(*shape, QQ, seed=4).to_json_dict()
    canonical = SurfaceEquations.from_json_dict(doc)
    named = {"x0^2": "x0*x0", "x1^2": " x1^2 ", "y": "y ", "x1^4*y": "y*x1^4",
             "x1^2*y^2": "y^2*x1^2"}
    rng = random.Random(str(shape))
    for _ in range(5):
        edited = {**doc, **{s: {named.get(k) or _respelled(k, rng): c for k, c in doc[s].items()}
                            for s in ("Q", "G")}}
        assert not set(edited["Q"]) & set(doc["Q"]) and set(edited["G"]) != set(doc["G"])
        assert SurfaceEquations.from_json_dict(edited) == canonical


@pytest.mark.parametrize("field", [QQ, FieldSpec.prime_field(11)], ids=["qq", "fp:11"])
def test_mixed_body_loads_as_its_literals_parse(field):
    """Printed literals next to a zero, a respelled key and literals the printed lane does not take."""
    doc = generate_member(2, 0, field, seed=4).to_json_dict()
    doc["Q"]["y"] = "1/2*t0^2"
    doc["G"]["y^2*x1^2"] = " t0^2 "
    del doc["G"]["x1^2*y^2"]
    doc["G"]["x0^6"] = "0"  # a forced-zero slot
    member = SurfaceEquations.from_json_dict(doc)
    for name, bidegree in (("Q", member.Q.bidegree), ("G", member.G.bidegree)):
        section = getattr(member, name)
        expected = GradedSection(member.bundle, field, bidegree, {
            monomial_from_str(k): parse_binform(c, field) for k, c in doc[name].items()})
        assert section == expected and list(section.terms.items()) == list(expected.terms.items())
        assert section.validate() is section
    assert FiberMonomial(6, 0, 0, 0) not in member.G.terms
    assert member.q_y == parse_binform("1/2*t0^2", field)


@pytest.mark.parametrize("first, second", [("x1^2", " x1^2 "), ("x1 * x1", "x1^2")])
def test_two_spellings_of_one_monomial_are_duplicate(first, second):
    doc = generate_member(2, 0, QQ, seed=4).to_json_dict()
    literal = doc["Q"].pop("x1^2")
    doc["Q"] = {first: literal, **doc["Q"], second: literal}
    with pytest.raises(ValueError) as err:
        SurfaceEquations.from_json_dict(doc)
    assert str(err.value) == f"'Q' duplicate monomial {second!r}"


# -- bidouble covers ---------------------------------------------------------------------


def test_branch_rows_match_table():
    row0 = bidouble_branch_data(5, 0)
    assert (row0.base_name, row0.d1, row0.d2, row0.d3) == ("F2", (1, 10), (3, 6), (1, 0))
    row2 = bidouble_branch_data(5, 2)
    assert (row2.base_name, row2.d1, row2.d2, row2.d3) == ("P1xP1", (1, 10), (3, 2), (1, 0))
    row5 = bidouble_branch_data(5, 5)
    assert (row5.base_name, row5.d1, row5.d2, row5.d3) == ("F1", (1, 12), (3, 2), (1, 2))
    assert bidouble_branch_data(5, 6).source == "external-source row"
    with pytest.raises(ValueError):
        bidouble_branch_data(5, 7)


def test_bidouble_invariants_match_chow():
    for theta in range(7):
        for pg in range(2, 21):
            data = bidouble_branch_data(pg, theta)
            inv = bidouble_invariants(data)
            want = surface_invariants(pg, theta)
            assert inv["K2"] == want["K2"] == 4 * pg - 6 + theta
            assert inv["chi"] == want["chi"] == pg + 1
            bidouble_cross_check(pg, theta)


def test_bidouble_cross_check_takes_pg_then_theta():
    # the order of surface_invariants(pg, theta): (2, 0) is p_g = 2, theta = 0
    row = bidouble_cross_check(2, 0)
    assert (row["p_g"], row["theta"], row["K2"], row["chi"]) == (2, 0, 2, 3)
    assert bidouble_branch_data(2, 0) == bidouble_reference.bidouble_branch_data(0, 2)


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
            got = bidouble_branch_data(pg, theta)
            assert (got, got.source) == (want, want.source)
            assert bidouble_invariants(got) == bidouble_reference.bidouble_invariants(want)


@pytest.mark.oracle
@pytest.mark.parametrize("theta, pg", [(7, 5), (-1, 5), (0, 1), (6, 1), (7, 1)])
def test_bidouble_refusals_match_reference(theta, pg):
    got = _value_or_refusal(bidouble_branch_data, pg, theta)
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
    # the three displayed forms of the degree formula agree with the table
    for pg in range(2, 9):
        for theta in range(7):
            g = degree_table(pg, theta).g
            for k in range(4):
                for i in range(6 - 2 * k + 1):
                    j = 6 - 2 * k - i
                    lhs = -i * pg + (k - 2) * theta + (6 - 2 * k)
                    middle = (j + 2 * k - 6) * pg + (k - 2) * theta + (i + j)
                    bracket = (i + (pg + 1) * j + (2 * pg + theta) * k) - 2 * (3 * pg + theta)
                    assert g[(i, j, k)] == lhs == middle == bracket
