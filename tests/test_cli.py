import hashlib
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import canpencil.cli as cli
from canpencil.binform import BinForm
from canpencil.cli import main, parse_field
from canpencil.family import generate_member
from canpencil.fields import FieldSpec
from canpencil.sections import _KEYS
from conftest import save_equations
from test_family import _respelled


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- field flag ---------------------------------------------------------------


def test_parse_field():
    assert parse_field("qq") == FieldSpec.rationals()
    assert parse_field("fp:101") == FieldSpec.prime_field(101)
    from canpencil.cli import CliError

    with pytest.raises(CliError):
        parse_field("fp:4")
    with pytest.raises(CliError):
        parse_field("gf:9")


# -- invariants ----------------------------------------------------------------


def test_invariants_example(capsys):
    code, doc = run_cli(capsys, "invariants", "--pg", "5", "--theta", "1")
    assert code == 0
    assert doc["K2"] == 15 and doc["chi"] == 6


def test_invariants_horikawa(capsys):
    code, doc = run_cli(capsys, "invariants", "--pg", "2", "--theta", "0")
    assert code == 0
    assert doc["K2"] == 2 and doc["chi"] == 3


def test_invariants_bad_pg(capsys):
    code, doc = run_cli(capsys, "invariants", "--pg", "1", "--theta", "0")
    assert code != 0
    assert "p_g >= 2" in doc["error"]


# -- degrees --------------------------------------------------------------------


def test_degrees(capsys):
    code, doc = run_cli(capsys, "degrees", "--pg", "7", "--theta", "0")
    assert code == 0
    assert doc["q_x"] == 14
    assert all(name.startswith("G_") for name in doc["forced_zero"])


# -- generate / census round trip --------------------------------------------------


def test_generate_roundtrip(tmp_path, capsys):
    out = tmp_path / "member.json"
    code, doc = run_cli(
        capsys, "generate", "--pg", "2", "--theta", "0", "--field", "fp:101",
        "--seed", "9", "--out", str(out),
    )
    assert code == 0
    assert out.exists()
    from canpencil.family import SurfaceEquations

    member = SurfaceEquations.from_json_dict(doc)
    assert member.bundle.pg == 2


def test_generate_bit_reproducible(capsys):
    args = ["generate", "--pg", "3", "--theta", "1", "--field", "qq", "--seed", "123"]
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_generate_requires_seed(capsys):
    with pytest.raises(SystemExit):
        main(["generate", "--pg", "2", "--theta", "0", "--field", "qq"])


def test_census_subcommand(tmp_path, capsys):
    out = tmp_path / "member.json"
    main(["generate", "--pg", "2", "--theta", "0", "--field", "fp:11",
          "--seed", "1", "--out", str(out)])
    capsys.readouterr()
    code, doc = run_cli(capsys, "census", "--in", str(out))
    assert code == 0
    assert doc["prime_nodes"] == 11  # member prime wins
    assert doc["cone_singularities"] == []


def test_census_skip_sweep(tmp_path, capsys):
    out = tmp_path / "member.json"
    main(["generate", "--pg", "2", "--theta", "0", "--field", "fp:101",
          "--seed", "20260808", "--split-qy", "--out", str(out)])
    capsys.readouterr()
    code, doc = run_cli(capsys, "census", "--in", str(out), "--skip-sweep")
    assert code == 0
    assert doc["sweep_skipped"] is True
    assert doc["node_count"] == 2


def test_census_prime_conflict(tmp_path, capsys):
    out = tmp_path / "member.json"
    main(["generate", "--pg", "2", "--theta", "0", "--field", "fp:11",
          "--seed", "1", "--out", str(out)])
    capsys.readouterr()
    code, doc = run_cli(capsys, "census", "--in", str(out), "--prime", "101")
    assert code != 0
    assert "characteristics" in doc["error"]



def test_census_of_member_whose_first_q_y_draw_vanished(tmp_path, capsys):
    # over F_5 the seed-2 member draws q_y = 0 first; the redraw gives it a node census
    out = tmp_path / "member.json"
    main(["generate", "--pg", "2", "--theta", "0", "--field", "fp:5", "--seed", "2",
          "--out", str(out)])
    assert "y" in json.loads(capsys.readouterr().out)["Q"]
    code, doc = run_cli(capsys, "census", "--in", str(out))
    assert code == 0
    assert doc["node_count"] == 1 and doc["prime_sweep"] == 5


def test_census_bad_reduction_is_json_error(tmp_path, capsys, member_over_11):
    out = tmp_path / "member.json"
    save_equations(member_over_11, out)
    assert "/11" in out.read_text()
    code = main(["census", "--in", str(out), "--prime", "11", "--skip-sweep"])
    text = capsys.readouterr().out
    assert code != 0
    doc = json.loads(text)  # exactly one JSON document
    assert list(doc) == ["error"]
    assert doc["error"] == "bad reduction mod 11: denominator 11 not invertible mod 11"


def test_census_bad_reduction_in_a_branch_slot_is_json_error(tmp_path, capsys, branch_over_11):
    out = tmp_path / "member.json"
    save_equations(branch_over_11, out)
    code = main(["census", "--in", str(out), "--prime", "11", "--skip-sweep"])
    doc = json.loads(capsys.readouterr().out)
    assert code != 0
    assert doc == {"error": "bad reduction mod 11: denominator 33 not invertible mod 11"}


def test_census_rational_member_at_largest_prime(tmp_path, capsys):
    out = tmp_path / "member.json"
    main(["generate", "--pg", "3", "--theta", "1", "--field", "qq",
          "--seed", "5", "--out", str(out)])
    capsys.readouterr()
    code = main(["census", "--in", str(out), "--prime", "2147483647", "--skip-sweep"])
    doc = json.loads(capsys.readouterr().out)  # exactly one JSON document
    assert code == 0
    assert doc["prime_nodes"] == 2147483647 and doc["sweep_skipped"] is True


def test_census_refuses_sweep_above_bound(tmp_path, capsys):
    out = tmp_path / "member.json"
    main(["generate", "--pg", "2", "--theta", "0", "--field", "fp:10007",
          "--seed", "3", "--out", str(out)])
    capsys.readouterr()
    code = main(["census", "--in", str(out)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1 and list(doc) == ["error"]
    assert doc["error"].startswith("sweep at p = 10007 would visit 100160064 fiber candidates")
    assert "--skip-sweep" in doc["error"]
    code, doc = run_cli(capsys, "census", "--in", str(out), "--skip-sweep")
    assert code == 0 and doc["prime_nodes"] == 10007


@pytest.mark.parametrize("prime, error", [
    ("1000", "1000 is not prime"),
    (str(10**40), f"prime modulus must satisfy 5 <= p < 2**31, got {10**40}"),
])
def test_census_names_a_bad_prime_above_the_sweep_bound(tmp_path, capsys, prime, error):
    # a bad --prime is the error, not the sweep bound that --skip-sweep would lift
    out = tmp_path / "member.json"
    main(["generate", "--pg", "2", "--theta", "0", "--field", "qq", "--seed", "1",
          "--out", str(out)])
    capsys.readouterr()
    for extra in ((), ("--skip-sweep",)):
        code, doc = run_cli(capsys, "census", "--in", str(out), "--prime", prime, *extra)
        assert code == 1 and doc == {"error": error}


@pytest.mark.parametrize("edit, message", [
    (lambda doc: [], "an equation file holds a JSON object"),
    (lambda doc: {**doc, "field": "fp:11"}, "'field' must be a JSON object"),
    (lambda doc: {**doc, "Q": [1]}, "'Q' must be a JSON object"),
    (lambda doc: {k: v for k, v in doc.items() if k != "theta"}, "missing key 'theta'"),
    (lambda doc: {**doc, "p_g": None}, "'p_g' must be a JSON integer, not NoneType"),
    (lambda doc: {**doc, "p_g": [2]}, "'p_g' must be a JSON integer, not list"),
    (lambda doc: {**doc, "p_g": 2.7}, "'p_g' must be a JSON integer, not float"),
    (lambda doc: {**doc, "p_g": "2"}, "'p_g' must be a JSON integer, not str"),
    (lambda doc: {**doc, "theta": False}, "'theta' must be a JSON integer, not bool"),
    (lambda doc: {**doc, "field": {"kind": "prime_field", "p": None}},
     "field 'p' must be a JSON integer, not NoneType"),
    (lambda doc: {**doc, "field": {"kind": "prime_field", "p": "11"}},
     "field 'p' must be a JSON integer, not str"),
    (lambda doc: {**doc, "field": {"kind": "prime_field"}}, "missing key 'p'"),
    (lambda doc: {**doc, "field": {"kind": "rationals", "p": 11}}, "carries no key 'p'"),
    (lambda doc: {**doc, "Q": {**doc["Q"], "y": 5}},
     "'Q' coefficient of 'y' must be a string, not int"),
    (lambda doc: {**doc, "Q": {**doc["Q"], "y": "t0^99999999999"}},
     "'Q' coefficient of y has degree 99999999999, expected 2"),
    (lambda doc: {**doc, "Q": {**doc["Q"], "x0^-1": "1"}},
     "'Q' monomial 'x0^-1': exponent '-1' is not a non-negative decimal integer"),
    (lambda doc: {**doc, "G": {**doc["G"], "x0^-1*x1^7": "1"}},
     "'G' monomial 'x0^-1*x1^7': exponent '-1' is not a non-negative decimal integer"),
    (lambda doc: {**doc, "Q": {**doc["Q"], "x0^x": "1"}},
     "'Q' monomial 'x0^x': exponent 'x' is not a non-negative decimal integer"),
    (lambda doc: {**doc, "Q": {**doc["Q"], "y": "t0 + t1 @"}},
     "'Q' coefficient of 'y': unexpected character '@' (at byte 8)"),
    # refused in time linear in the literal's length (see time_limit below)
    (lambda doc: {**doc, "Q": {**doc["Q"], "y": " " * 10**5 + "@"}},
     "'Q' coefficient of 'y': unexpected character '@' (at byte 100000)"),
    (lambda doc: {**doc, "Q": {**doc["Q"], "y": " + ".join(["3*t0*t1"] * 10**4) + "@"}},
     "'Q' coefficient of 'y': unexpected character '@' (at byte 99997)"),
    # a key off the table of printed monomials is read by the fallback parser
    (lambda doc: {**doc, "G": {**doc["G"], "x0" + " " * 10**5 + "@": "1"}},
     "'G' monomial 'x0" + " " * 10**5 + "@': unknown fiber variable 'x0"),
], ids=["list", "field-string", "Q-list", "no-theta", "p_g-null", "p_g-list", "p_g-float",
        "p_g-string", "theta-bool", "p-null", "p-string", "no-p", "rationals-p",
        "coefficient-int", "over-degree-literal", "negative-exponent",
        "negative-exponent-G", "exponent-not-integer", "parse-error", "long-spaces-literal",
        "long-terms-literal", "long-spaces-key"])
def test_census_malformed_equation_file_is_one_json_error(tmp_path, capsys, time_limit, edit,
                                                          message):
    time_limit(20)
    path = tmp_path / "member.json"
    main(["generate", "--pg", "2", "--theta", "0", "--field", "fp:11",
          "--seed", "1", "--out", str(path)])
    capsys.readouterr()
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    code = main(["census", "--in", str(path)])
    doc = json.loads(capsys.readouterr().out)  # exactly one JSON document
    assert code == 1 and list(doc) == ["error"]
    assert message in doc["error"]


def test_census_coefficient_past_int_digit_limit_is_one_json_error(tmp_path, capsys):
    # int() refuses more than sys.get_int_max_str_digits() digits; the error
    # names the monomial and the offset instead of that Python setting
    path = tmp_path / "big.json"
    main(["generate", "--pg", "2", "--theta", "0", "--field", "fp:11",
          "--seed", "1", "--out", str(path)])
    capsys.readouterr()
    doc = json.loads(path.read_text())
    doc["Q"]["y"] = "t0^2 + " + "9" * 5000 + "*t1^2"
    path.write_text(json.dumps(doc))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code = main(["census", "--in", str(path)])
    finally:
        sys.set_int_max_str_digits(limit)
    doc = json.loads(capsys.readouterr().out)  # exactly one JSON document
    assert code == 1 and list(doc) == ["error"]
    assert doc["error"].endswith("'Q' coefficient of 'y': integer with 5000 digits exceeds "
                                 "the limit of 4300 digits (at byte 7)")


def test_census_key_exponent_past_int_digit_limit_is_one_json_error(tmp_path, capsys):
    path = tmp_path / "big.json"
    main(["generate", "--pg", "2", "--theta", "0", "--field", "fp:11",
          "--seed", "1", "--out", str(path)])
    capsys.readouterr()
    doc = json.loads(path.read_text())
    doc["G"]["x0^" + "9" * 5000] = "1"
    path.write_text(json.dumps(doc))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code = main(["census", "--in", str(path)])
    finally:
        sys.set_int_max_str_digits(limit)
    doc = json.loads(capsys.readouterr().out)  # exactly one JSON document
    assert code == 1 and list(doc) == ["error"]
    assert doc["error"].endswith("'G' monomial exponent of 'x0': integer with 5000 digits "
                                 "exceeds the limit of 4300 digits")


def respaced_reordered(literal, rng):
    """`literal` with the factors of each term shuffled and random spaces around every operator."""
    spaces = lambda: " " * rng.randrange(3)
    out = []
    for sign, term in re.findall(r"([-+]?) ?([^ +-]+)", literal):
        factors = term.split("*")
        rng.shuffle(factors)
        factors = [re.sub(r"[/^]", lambda m: spaces() + m.group() + spaces(), f) for f in factors]
        out.append(spaces() + sign + spaces() + (spaces() + "*" + spaces()).join(factors))
    return "".join(out) + spaces()


@pytest.mark.parametrize("member, extra", [
    (("--pg", "2", "--theta", "0", "--field", "fp:101", "--seed", "9"), ()),
    (("--pg", "7", "--theta", "3", "--field", "qq", "--seed", "5"), ("--prime", "35027", "--skip-sweep")),
], ids=["fp101", "qq"])
def test_census_of_respaced_reordered_member_is_unchanged(tmp_path, capsys, member, extra):
    path = tmp_path / "member.json"
    assert main(["generate", *member, "--out", str(path)]) == 0
    original = json.loads(capsys.readouterr().out)
    rng = random.Random(1)
    edited = {**original, **{s: {mono: respaced_reordered(lit, rng) for mono, lit in original[s].items()}
                             for s in ("Q", "G")}}
    assert edited != original and "t1^" in json.dumps(original)
    docs = []
    for doc in (original, edited):
        path.write_text(json.dumps(doc))
        code, census = run_cli(capsys, "census", "--in", str(path), *extra)
        assert code == 0
        del census["timings"]
        docs.append(census)
    assert docs[0] == docs[1]


_MEMBER = generate_member(2, 0, FieldSpec.prime_field(11), seed=1).to_json_dict()
_TABLE_KEYS = sorted(_KEYS)

#: a key from the table of printed monomials, one spelled off it, garbage,
#: or the key grammar's characters mixed with characters it never uses
_keys = st.one_of(
    st.sampled_from(_TABLE_KEYS),
    st.builds(_respelled, st.sampled_from(_TABLE_KEYS), st.randoms(use_true_random=False)),
    st.text(max_size=12),
    st.text(alphabet="x01yz^* 9-@\u0663.", max_size=12),
)
#: a literal of the member, garbage, or the literal grammar's characters with others
_literals = st.one_of(
    st.sampled_from(sorted({c for s in ("Q", "G") for c in _MEMBER[s].values()})),
    st.text(max_size=16),
    st.text(alphabet="t01^*+-/ 0123456789@x\u0663", max_size=24),
)


@st.composite
def mutated_members(draw):
    """The fp:11 member with a few of its keys respelled, replaced, added or dropped, or
    its literals replaced."""
    doc = {**_MEMBER, "Q": dict(_MEMBER["Q"]), "G": dict(_MEMBER["G"])}
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        body = doc[draw(st.sampled_from(["Q", "G"]))]
        action = draw(st.sampled_from(["respell"] * 3 + ["rekey", "relit", "add", "drop"]))
        old = draw(st.sampled_from(sorted(body))) if body else None
        if action == "add" or old is None:
            body[draw(_keys)] = draw(_literals)
        elif action == "respell" and old in _KEYS:  # the same monomial, which still loads
            body[_respelled(old, draw(st.randoms(use_true_random=False)))] = body.pop(old)
        elif action == "rekey":
            body[draw(_keys)] = body.pop(old)
        elif action == "relit":
            body[old] = draw(_literals)
        else:
            del body[old]
    return doc


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_members())
def test_census_of_mutated_member_is_one_json_document(tmp_path, capsys, time_limit, doc):
    time_limit(20)
    path = tmp_path / "member.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "census", "--in", str(path))  # one JSON document, no traceback
    assert (code == 0 and "error" not in out) or (code != 0 and list(out) == ["error"])


def test_pg_above_bound_is_refused_before_any_work(tmp_path, capsys):
    from canpencil.family import PG_MAX, _member_bundle

    _member_bundle(PG_MAX, 0)
    refusal = {"error": f"p_g must be at most {PG_MAX} for a family member, got 100000000"}
    path = tmp_path / "member.json"
    main(["generate", "--pg", "2", "--theta", "0", "--field", "fp:11",
          "--seed", "1", "--out", str(path)])
    capsys.readouterr()
    path.write_text(json.dumps({**json.loads(path.read_text()), "p_g": 100000000}))
    start = time.perf_counter()
    code, doc = run_cli(capsys, "generate", "--pg", "100000000", "--theta", "0",
                        "--field", "fp:11", "--seed", "1")
    assert code == 1 and doc == refusal
    code, doc = run_cli(capsys, "census", "--in", str(path))
    assert code == 1 and doc["error"].endswith(refusal["error"])
    assert time.perf_counter() - start < 1
    code, doc = run_cli(capsys, "generate", "--pg", str(PG_MAX + 1), "--theta", "0",
                        "--field", "qq", "--seed", "1")
    assert code == 1 and doc["error"].startswith(f"p_g must be at most {PG_MAX}")


def test_census_missing_file(capsys):
    code, doc = run_cli(capsys, "census", "--in", "/nonexistent/member.json")
    assert code != 0
    assert "error" in doc


def test_unreadable_input_and_unwritable_out_are_one_json_error(tmp_path, capsys):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 10**5)
    missing_dir = tmp_path / "missing" / "x.json"
    for argv, message in [
        (("census", "--in", str(tmp_path)), f"cannot read equation file {tmp_path}: "),
        (("census", "--in", str(nested)), f"bad equation file {nested}: "),
        (("invariants", "--pg", "2", "--theta", "0", "--out", str(missing_dir)),
         f"cannot write {missing_dir}: "),
    ]:
        code, doc = run_cli(capsys, *argv)  # one JSON document, no traceback
        assert code == 1 and list(doc) == ["error"] and doc["error"].startswith(message)
    assert not missing_dir.parent.exists()


# -- verify ---------------------------------------------------------------------------


def test_verify_ledger(capsys):
    code, doc = run_cli(capsys, "verify", "--seed", "5", "--trials", "3")
    assert code == 0
    assert doc["all_passed"]
    names = [c["name"] for c in doc["checks"]]
    assert "eq.S3S2->S6/kernel" in names
    assert len(names) >= 10
    assert names == sorted(names)


def test_verify_single_target(capsys):
    code, doc = run_cli(capsys, "verify", "examples", "--seed", "5")
    assert code == 0
    assert all(c["name"].startswith("examples/") for c in doc["checks"])


def test_verify_zero_trials_is_config_error(capsys):
    code, doc = run_cli(capsys, "verify", "--seed", "5", "--trials", "0")
    assert code == 2
    assert "trials" in doc["error"]


def test_verify_trials_above_cap_is_config_error(capsys):
    from canpencil.cli import TRIALS_MAX

    code, doc = run_cli(capsys, "verify", "--seed", "5", "--trials", "1000000000000")
    assert code == 2
    assert doc == {"error": f"--trials must lie in 1..{TRIALS_MAX}"}


def test_verify_bit_reproducible(capsys):
    args = ["verify", "sigma2", "--seed", "7", "--trials", "4"]
    main(args)
    out1 = capsys.readouterr().out
    main(args)
    out2 = capsys.readouterr().out
    assert out1 == out2



def test_verify_s6_fails_on_shifted_summand_degrees(capsys, monkeypatch):
    from canpencil import relalg

    exact = relalg.s6prime_matrix

    def shifted(data):
        rows, (first, second) = exact(data)
        return rows, (first + 1, second)

    monkeypatch.setattr(relalg, "s6prime_matrix", shifted)
    code, doc = run_cli(capsys, "verify", "s6", "--seed", "5", "--trials", "3")
    assert code == 1
    assert doc["all_passed"] is False
    # both names are reported: the kernel check ran over every draw and held
    passed = {c["name"]: c["passed"] for c in doc["checks"]}
    assert passed == {"eq.S3S2->S6/kernel": True, "eq.S3S2->S6/summands": False}


def test_verify_and_bidouble_report_a_planted_bidouble_fault(capsys, monkeypatch):
    from canpencil import family

    exact, planted = family.bidouble_invariants, family.bidouble_branch_data(9, 4)

    def faulty(data):  # K^2 off by one at (p_g, theta) = (9, 4) alone
        inv = exact(data)
        return dict(inv, K2=inv["K2"] + 1) if data == planted else inv

    monkeypatch.setattr(family, "bidouble_invariants", faulty)
    code, doc = run_cli(capsys, "verify", "all", "--seed", "1", "--trials", "3")
    assert code == 1 and doc["all_passed"] is False
    checks = {c["name"]: c for c in doc["checks"]}
    assert [name for name, c in checks.items() if not c["passed"]] == ["bidouble/cross-check"]
    assert checks["bidouble/cross-check"]["details"] == {"failures": [[4, 9]]}
    # every other check is still reported
    monkeypatch.undo()
    code, clean = run_cli(capsys, "verify", "all", "--seed", "1", "--trials", "3")
    assert code == 0 and sorted(checks) == [c["name"] for c in clean["checks"]]
    monkeypatch.setattr(family, "bidouble_invariants", faulty)
    code, row = run_cli(capsys, "bidouble", "--pg", "9", "--theta", "4")
    assert code == 0 and row["matches_intersection_theory"] is False and row["K2"] == 35
    code, row = run_cli(capsys, "bidouble", "--pg", "8", "--theta", "4")
    assert row["matches_intersection_theory"] is True


def _k2_off_by_one_at_pg7(monkeypatch):
    from canpencil import chow

    exact = chow.top_intersection_numerator

    def faulty(bundle, *classes):
        return exact(bundle, *classes) + 36 * (bundle.pg == 7)

    monkeypatch.setattr(chow, "top_intersection_numerator", faulty)
    # the bidouble cross-check recomputes K^2 too, and names the same fault
    return {"invariants": "K^2 cross-check failed", "bidouble": "K^2 cross-check failed"}


def _certificate_never_verifies(monkeypatch):
    from canpencil import relalg

    monkeypatch.setattr(relalg.LiftingCertificate, "verify", lambda self: False)
    return {"lifting": "certificate failed to verify"}


def _bidouble_k2_off_by_one(monkeypatch):
    from canpencil import family

    exact = family.bidouble_invariants

    def faulty(data):
        inv = exact(data)
        return {**inv, "K2": inv["K2"] + 1}

    monkeypatch.setattr(family, "bidouble_invariants", faulty)
    # a mismatch is the check's result, not a raise: every pair, in loop order
    return {"bidouble/cross-check": {"failures": [[theta, pg] for theta in range(7)
                                                  for pg in range(2, 21)]}}


def _annihilator_raises_a_form_error(monkeypatch):
    from canpencil import relalg
    from canpencil.binform import BinFormError

    def faulty(data):
        raise BinFormError("inexact division")

    monkeypatch.setattr(relalg, "lifting_annihilator", faulty)
    return {"lifting": "inexact division"}


@pytest.mark.parametrize("fault", [_k2_off_by_one_at_pg7, _certificate_never_verifies,
                                   _bidouble_k2_off_by_one, _annihilator_raises_a_form_error],
                         ids=lambda f: f.__name__.strip("_"))
def test_verify_library_fault_is_a_failed_check(capsys, monkeypatch, fault):
    messages = fault(monkeypatch)
    code = main(["verify", "all", "--seed", "1", "--trials", "3"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)  # one JSON document, no traceback
    assert (code, captured.err) == (1, "")
    assert doc["all_passed"] is False
    failed = {c["name"]: c["details"] for c in doc["checks"] if not c["passed"]}
    assert sorted(failed) == sorted(messages)
    for name, expected in messages.items():  # the failed details, or the error message in them
        if isinstance(expected, dict):
            assert failed[name] == expected
        else:
            assert expected in failed[name]["error"]
    # every other ledger still reports its checks
    ledgers = {c["name"].partition("/")[0] for c in doc["checks"]}
    assert ledgers == {"sigma2", "lifting", "eq.S3S2->S6", "examples", "bidouble", "invariants"}


def _one_indented_document(printed):
    doc = json.loads(printed)
    assert printed == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return doc


def test_failing_verify_writes_to_out_the_document_it_prints(tmp_path, capsys, monkeypatch):
    out = tmp_path / "ledger.json"
    _certificate_never_verifies(monkeypatch)
    code = main(["verify", "lifting", "--seed", "1", "--trials", "3", "--out", str(out)])
    printed = capsys.readouterr().out
    assert code == 1 and _one_indented_document(printed)["all_passed"] is False
    assert out.read_text() == printed


def test_failing_example_prints_one_indented_document(capsys, monkeypatch):
    from canpencil import relalg

    exact = relalg.example_verify

    def failing(key):
        rep = exact(key)
        return relalg.ExampleReport(rep.key, {**rep.checks, "tau-shape": False}, rep.details)

    monkeypatch.setattr(relalg, "example_verify", failing)
    code = main(["example"])
    doc = _one_indented_document(capsys.readouterr().out)
    assert code == 1 and doc["all_passed"] is False
    assert [e["checks"]["tau-shape"] for e in doc["examples"]] == [False] * 3


#: the checks of one family that need F030's cofactor by f0^2
_COFACTOR_CHECKS = ("F030-divisible-by-f0^2", "F030-cofactor-degree", "congruence-mod-f0^4")


@pytest.mark.parametrize("argv", [["example"], ["verify", "examples", "--seed", "1"]],
                         ids=lambda argv: argv[0])
def test_f030_not_divisible_by_f0_squared_fails_the_named_checks(capsys, monkeypatch, argv):
    from canpencil import relalg

    exact = relalg._branch_cubic

    def faulty(data):  # F030 + t1^deg(F030): homogeneous, and prime to f0 where F030 was not
        E = exact(data)
        bump = BinForm.t1(data.field) ** E.coefficient((0, 3, 0)).degree
        return E + relalg.YPoly(data.field, {(0, 3, 0): bump})

    monkeypatch.setattr(relalg, "_branch_cubic", faulty)
    code = main(argv)
    doc = _one_indented_document(capsys.readouterr().out)
    assert code == 1 and doc["all_passed"] is False
    if argv[0] == "example":
        checks = [e["checks"] for e in doc["examples"]]
        assert [e["passed"] for e in doc["examples"]] == [False] * 3
    else:
        checks = [c["details"] for c in doc["checks"]]
        assert [c["passed"] for c in doc["checks"]] == [False] * 3
    assert len(checks) == 3
    for family_checks in checks:
        assert [family_checks[name] for name in _COFACTOR_CHECKS] == [False] * 3
        # (b), (c) and the tau checks still ran
        assert {"F111-is-minus-5-f0^2", "restriction-divisible-by-f0^4", "tau-shape",
                "tau-degree"} <= set(family_checks)
        assert family_checks["F111-is-minus-5-f0^2"] and family_checks["tau-shape"]


def test_verify_recomputes_every_closed_form_on_every_run(capsys, monkeypatch):
    from canpencil import chow, family

    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    # family imports surface_invariants by name for bidouble_cross_check
    surface = counted("surface_invariants", chow.surface_invariants)
    monkeypatch.setattr(chow, "surface_invariants", surface)
    monkeypatch.setattr(family, "surface_invariants", surface)
    monkeypatch.setattr(family, "bidouble_cross_check",
                        counted("bidouble_cross_check", family.bidouble_cross_check))
    for _ in range(2):  # a cache would make the second run a lookup
        calls.update(surface_invariants=0, bidouble_cross_check=0)
        assert main(["verify", "all", "--seed", "1", "--trials", "3"]) == 0
        capsys.readouterr()
        # 49 p_g x 7 theta invariants, plus 19 p_g x 7 theta bidouble rows
        assert calls == {"surface_invariants": 343 + 133, "bidouble_cross_check": 133}

# -- bidouble / feasibility / example ---------------------------------------------------


def test_bidouble_subcommand(capsys):
    code, doc = run_cli(capsys, "bidouble", "--pg", "5", "--theta", "0")
    assert code == 0
    assert doc["base"] == "F2"
    assert doc["K2"] == 14 and doc["chi"] == 6
    assert doc["matches_intersection_theory"]


def test_feasibility_subcommand(capsys):
    code, doc = run_cli(capsys, "feasibility", "--k2", "112", "--chi", "30", "--q", "0")
    assert code == 0
    assert doc["feasible_genera"] == [2]


def test_example_subcommand(capsys):
    code, doc = run_cli(capsys, "example")
    assert code == 0
    assert doc["all_passed"] and len(doc["examples"]) == 3


def test_example_single(capsys):
    code, doc = run_cli(capsys, "example", "--which", "1", "2", "12", "4")
    assert code == 0
    assert doc["examples"][0]["p_g"] == 4


def test_example_unknown(capsys):
    code, doc = run_cli(capsys, "example", "--which", "9", "9", "9", "9")
    assert code != 0


# -- module entry point -------------------------------------------------------------------


SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_python_dash_m_entry():
    # the subprocess sees `src` without PYTHONPATH set by the caller, as conftest.py does
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "canpencil", "invariants", "--pg", "2", "--theta", "0"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["K2"] == 2



@pytest.mark.parametrize("argv", [
    ("generate", "--pg", "1000", "--theta", "0", "--field", "qq", "--seed", "7"),
    ("feasibility", "--k2", "112", "--chi", "30"),
], ids=" ".join)
def test_a_closed_pipe_exits_1_with_nothing_on_stderr(argv):
    # the read end is closed before the child starts, so its first write meets EPIPE
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "canpencil", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=SRC),
                              timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


def run_in_fresh_process(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "canpencil", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_one_parser_serves_every_call_in_a_process(capsys):
    import canpencil.cli as cli

    # the second verify and generate lean on defaults the first ones override
    argvs = [
        ["verify", "sigma2", "--field", "fp:101", "--seed", "3", "--trials", "2"],
        ["generate", "--pg", "2", "--theta", "0", "--field", "fp:11", "--seed", "4", "--split-qy"],
        ["verify", "sigma2", "--seed", "3", "--trials", "2"],
        ["generate", "--pg", "2", "--theta", "0", "--field", "fp:11", "--seed", "4"],
        ["invariants", "--pg", "5", "--theta", "1"],
    ]
    main(["degrees", "--pg", "3", "--theta", "0"])
    capsys.readouterr()
    parser = cli._parser
    for argv in argvs:
        code = main(argv)
        out = capsys.readouterr().out
        assert (code, out) == run_in_fresh_process(argv)[:2]
    assert cli._parser is parser


def test_usage_errors_and_help_unchanged_with_a_reused_parser(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help is wrapped to the terminal width
    main(["invariants", "--pg", "2", "--theta", "0"])
    capsys.readouterr()
    for argv in (["verify", "--trials", "3"], ["nosuch"], ["census", "--help"], ["--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out, captured.err) == run_in_fresh_process(argv)


#: SHA-256 of json.dumps([exit code, stdout, stderr]) under COLUMNS=80 for every
#: line that ends in argparse's help or usage text.  argparse words some of them
#: differently across CPython releases, so each digest is the text of one or more
#: of 3.10.13, 3.11.7, 3.12.1, 3.13.0 and 3.13.13; on a release with yet another
#: wording, check that the new text comes from argparse before adding its digest.
HELP_AND_USAGE_SHA256 = {
    ("--help",): (
        "78a84e397241c76c24e55775aef95230087f045053726fda2b64622a745f83b1",  # 3.10-3.12
        "bb0f432858071710695ff237baa846b203a2f43f46c1b9c267e41384fc1d0250"),  # 3.13
    ("invariants", "--help"): ("1a37ce1fbbba8469ed10870bd3692e07b88da283e07dde05d80ea07bfcee21f9",),
    ("degrees", "--help"): ("4a900512a5f4d70326b16a531b878028b6e6da18d2093712b919ca9ecdfb6e57",),
    ("generate", "--help"): ("912885642ee21eca97faeacf4cd6c5030d25039a907f0c55c68b15f309655aa3",),
    ("census", "--help"): ("5a43319f00ea603fca7457fa002642a98db280a66b4e305990e79258ddcb0dec",),
    ("verify", "--help"): ("c2e886e228529695664b9fb8d45d0c1e514116bcb80a6fc87ed967ffa5882cb0",),
    ("bidouble", "--help"): ("7dbf6a26d9a457648b649740c9c27f11e016dfa169db4b727d1fdccb2e1fc7b3",),
    ("feasibility", "--help"): ("24e485f2b7947ac9f564f37cde0eb1f66227fdc8f205255f21c3f7f06d71cb0e",),
    ("example", "--help"): ("ff4222f9eb9f6c934515862ab04048e30b4acd00eb7ad18572c98d31d0819bda",),
    ("verify", "--trials", "3"): ("89f2efcad1cd8276179dae656e98cc8b6b87c8ae987c18c3bc07767dbd89e094",),
    ("nosuch",): (
        "d178eee83235a94bbad965ddf6aeb7ce5548be855f34ec0943ae34a249ccf223",  # 3.10-3.12
        "acc052909fffc00afe21be0f44419416b9f955101e7ab5d284a5e98e47cadb9c",  # 3.13.0
        "b8df39c05076954dfea9c96ed2237e029a516c63ab5583e91d6aba1168e3695e"),  # 3.13.13
    ("census",): ("69eac89e19a3583b9b6c38e3495799e0f1f99c0171b5b5a624999b49c5ca61a3",),
    ("verify", "--seed", "x"): ("3a2d7c5599cd926a4f0305c62c80cad31af7e638493f555262e6aa2cb9a3da34",),
    ("example", "--which", "1", "2"): ("1c4bce3cac7cd74aaf9683213d91a5a7ebf46591111aae563613bcc9ea65d5ba",),
}


@pytest.mark.parametrize("argv", list(HELP_AND_USAGE_SHA256), ids=" ".join)
def test_help_and_usage_text_is_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # help is wrapped to the terminal width
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    text = json.dumps([exc.value.code, captured.out, captured.err])
    assert hashlib.sha256(text.encode()).hexdigest() in HELP_AND_USAGE_SHA256[argv]


@pytest.mark.parametrize("argv, plain", [
    (["verify", "sigma2", "--tri", "2", "--seed", "3"], ["verify", "sigma2", "--trials", "2", "--seed", "3"]),
    (["verify", "sigma2", "--trials=2", "--seed", "3"], ["verify", "sigma2", "--trials", "2", "--seed", "3"]),
    (["verify", "sigma2", "--seed", "-3", "--trials", "2"], None),
])
def test_other_spellings_argparse_accepts_print_the_plain_document(capsys, argv, plain):
    code = main(argv)
    out = capsys.readouterr().out
    if plain is None:  # a negative value: against the same line in a fresh process
        assert (code, out) == run_in_fresh_process(argv)[:2]
    else:
        assert (code, out) == (main(plain), capsys.readouterr().out)
    assert code == 0 and json.loads(out)["all_passed"] is True


# -- the exact-option reader ---------------------------------------------------------

PARSER = cli.build_parser()
COMMANDS = PARSER.commands
README = Path(__file__).resolve().parent.parent / "README.md"

#: value tokens: ints argparse and int() read, ints they refuse, paths, choices and dashes
_VALUES = ["0", "7", "35027", "-3", "-0", "+5", " 4", "1_000", "\u0663", "9" * 5000, "3.5", "x", "",
           "-", "--", "-h", "qq", "fp:101", "member.json", "dir/a b.json", "all", "sigma2", "census"]
_values = st.one_of(*[st.integers(0, 10**6).map(str)] * 4, st.sampled_from(_VALUES))


@st.composite
def command_lines(draw):
    """A command, maybe its positional, and some of its options, each spelled exactly,
    abbreviated or as --opt=value with random values, plus a few stray tokens."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    options, positional = COMMANDS[name]
    line = [name]
    if positional is not None and draw(st.booleans()):
        line.append(draw(st.sampled_from([*positional.choices, "nosuch"])))
    flags = draw(st.permutations(sorted(options)))
    for flag in flags[:draw(st.sampled_from([len(flags)] * 4 + list(range(len(flags)))))]:
        nargs = options[flag].nargs
        values = draw(st.lists(_values, min_size=1 if nargs is None else nargs,
                               max_size=1 if nargs is None else nargs))
        spelling = draw(st.sampled_from(["exact"] * 12 + ["prefix", "equals"]))
        if spelling == "equals" and values:
            line += [f"{flag}={values[0]}", *values[1:]]
        else:
            line += [flag[:draw(st.integers(2, len(flag)))] if spelling == "prefix" else flag, *values]
    everywhere = sorted({f for opts, _ in COMMANDS.values() for f in opts} | {"--", "-h", "--help"})
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        line.insert(draw(st.integers(0, len(line))), draw(st.sampled_from(everywhere + _VALUES)))
    return line


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_reader_returns_only_what_argparse_returns(line):
    args = cli.read_exact(line, COMMANDS)
    if args is not None:
        assert PARSER.parse_args(line) == args


def _few_trials(line):
    """`line` with every --trials value in 51..TRIALS_MAX, in any spelling argparse takes,
    mapped onto 1..50: at most 50 trials run, and values above TRIALS_MAX stay refused."""
    def small(value):
        try:
            n = int(value)
        except ValueError:
            return value
        return str(n % 50 + 1) if 50 < n <= cli.TRIALS_MAX else value

    if "verify" not in line:
        return line
    out = list(line)
    for i, token in enumerate(line):
        flag, equals, value = token.partition("=")
        if len(flag) > 2 and "--trials".startswith(flag):
            if equals:
                out[i] = f"{flag}={small(value)}"
            elif i + 1 < len(out):
                out[i + 1] = small(out[i + 1])
    return out


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command_lines())
def test_every_command_line_prints_one_document_or_a_usage_error(tmp_path, capsys, monkeypatch,
                                                                  time_limit, line):
    """Exit 0 with one JSON document, a nonzero exit with {"error": ...}, or argparse's own
    exit: 2 with nothing on stdout, or 0 with the help text; never a traceback."""
    time_limit(20)
    line = _few_trials(line)
    with tempfile.TemporaryDirectory(dir=tmp_path) as cwd:  # --out writes here, census reads here
        monkeypatch.chdir(cwd)
        try:
            code = main(line)
        except SystemExit as exc:
            out = capsys.readouterr().out
            usage_error, help_text = exc.code == 2 and out == "", exc.code == 0
            assert usage_error or (help_text and out.startswith("usage:")), line
            return
    doc = json.loads(capsys.readouterr().out)
    assert (code == 0 and "error" not in doc) or (code != 0 and list(doc) == ["error"]), (line, doc)


@pytest.mark.parametrize("line, read", [
    ([], False), (["-h"], False), (["--help"], False), (["nosuch"], False),
    (["verify", "-h"], False), (["verify", "--seed", "1", "--help"], False),
    (["verify", "--tri", "2", "--seed", "3"], False), (["verify", "--trials=2", "--seed", "3"], False),
    (["verify", "--seed", "-3"], False), (["verify", "--", "--seed", "3"], False),
    (["verify", "--seed", "3", "--"], False), (["verify", "--seed", "x"], False),
    (["verify", "--seed", "1", "--seed", "2"], False), (["verify", "--seed", "1", "sigma2"], False),
    (["verify", "nosuch", "--seed", "1"], False), (["verify", "--field", "-", "--seed", "1"], False),
    (["census"], False), (["census", "--in"], False), (["census", "--skip-sweep"], False),
    (["census", "--in", "m.json", "--prime", "9" * 5000], False),
    (["example", "--which", "1", "2"], False), (["example", "--which", "1", "2", "3", "4", "5"], False),
    (["invariants", "--pg", "2", "--theta", "0", "--k2", "3"], False),
    (["invariants", "--pg", "", "--theta", "0"], False),
    (["generate", "--pg", "2", "--theta", "0", "--field", "qq", "--seed", "1", "--split-qy", "x"], False),
    (["verify", "--field", "", "--seed", "1"], True),
    (["verify", "sigma2", "--seed", "0", "--trials", "2"], True),
    (["invariants", "--theta", "1_0", "--pg", " 7"], True),
    (["invariants", "--pg", "\u0663", "--theta", "0"], True),
    (["census", "--skip-sweep", "--in", "dir/a b.json"], True),
    (["example", "--which", "1", "2", "12", "4"], True),
    (["generate", "--seed", "1", "--split-qy", "--field", "qq", "--pg", "2", "--theta", "0"], True),
], ids=repr)
def test_reader_edge_lines(line, read):
    args = cli.read_exact(line, COMMANDS)
    assert (args is not None) == read
    if read:
        assert PARSER.parse_args(line) == args


def readme_lines():
    """The README's command-line block, once with the [...] parts dropped and once with
    each taken, its first alternative chosen and the placeholder P made 101."""
    block = README.read_text().split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        dropped = re.sub(r" \[[^]]*\]", "", line)
        taken = re.sub(r"\[([^]|]*)[^]]*\]", r"\1", line).replace(" P", " 101")
        for text in (dropped, taken):
            yield text.split()[1:]  # after `canpencil`


def perfbench_lines():
    """Every op and every member `generate` of each perfbench workload at its default
    seed, with a stand-in for the CLI that answers every `generate` with a member."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(workloads)
    lines = []

    def run_cli(argv):
        lines.append(list(argv))
        return 0, json.dumps({"Q": {"y": "t0"}})

    for workload in workloads.WORKLOADS.values():
        lines += [list(op.argv) for op in workload.ops(workloads.DEFAULT_SEED, "work", run_cli)]
    return lines


def test_reader_takes_every_readme_line_and_perfbench_op():
    lines = [*readme_lines(), *perfbench_lines()]
    assert {line[0] for line in lines} == set(COMMANDS)
    for line in lines:
        args = cli.read_exact(line, COMMANDS)
        assert args is not None, line
        assert PARSER.parse_args(line) == args


def test_main_reads_sys_argv_when_given_no_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["canpencil", "invariants", "--pg", "2", "--theta", "0"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["K2"] == 2


# -- the indented writer ----------------------------------------------------------------

_leaves = st.one_of(
    st.none(), st.booleans(), st.text(), st.text(alphabet='"\\\x00\x1f\x7f\xe9\u2028\U0001f600 /'),
    st.integers(), st.integers(-2**200, 2**200), st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e16, 1e-7, 1.5, -2.0, 10**400]),
)
_documents = st.recursive(
    _leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(_documents)
@example([float("nan"), float("inf"), -float("inf"), -0.0, 1e16, 1e-7, -10**30, True, None])
@example({"\xe9\n\"": ({"": []}, (), {}), "\x00": "\U0001f600\x7f"})
def test_writer_prints_json_indented_bytes(doc):
    assert cli._dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)


# the repr of a bare object carries its address, so that case gets a fixed id
@pytest.mark.parametrize("doc", [pytest.param({"a": object()}, id="{'a': object()}"),
                                 {"a": {1, 2}}, {"a": b"x"}, {(1,): 2}, [{1: 2}]], ids=repr)
def test_writer_refuses_other_types(doc):
    # json refuses these too, except the int key, which it would print as "1"
    with pytest.raises(TypeError):
        cli._dumps(doc)


def test_writer_prints_every_subcommand_document_as_json_does(tmp_path):
    member = str(tmp_path / "member.json")
    lines = [
        ["invariants", "--pg", "5", "--theta", "1"], ["degrees", "--pg", "7", "--theta", "4"],
        ["generate", "--pg", "2", "--theta", "0", "--field", "fp:101", "--seed", "9", "--out", member],
        ["census", "--in", member], ["verify", "--seed", "1", "--trials", "2"],
        ["bidouble", "--pg", "4", "--theta", "5"], ["feasibility", "--k2", "112", "--chi", "30"],
        ["example", "--which", "1", "2", "12", "4"],
    ]
    assert {line[0] for line in lines} == set(COMMANDS)
    for line in lines:
        args = cli.read_exact(line, COMMANDS)
        doc = cli._DISPATCH[args.command](args)
        assert cli._dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)
        if args.out:
            cli.emit(doc, args.out)


# -- golden outputs -------------------------------------------------------------------

#: SHA-256 of the full stdout; the ledgers must stay byte-identical across
#: changes to the arithmetic underneath them
GOLDEN_STDOUT_SHA256 = {
    ("verify", "all", "--seed", "1", "--trials", "15"):
        "6fd8ad3692950f7654139963b856f7f48f171e2999a1c1d53295fe244ddebc30",
    ("verify", "--field", "qq", "--seed", "1", "--trials", "6"):
        "d9d6dd20ae086b6eb277748581a1ca9478b66ba0d7a970a557e61828cf61d994",
    ("example",):
        "66d349d9437a4e0bbfbe51521272df36726ca01d6bad61d23d42df89ec75cce4",
    ("degrees", "--pg", "2", "--theta", "0"):
        "64e1826c1ce1bac88cdc31ce9c57a3e36b92f88e67980d34d38bb149dc81cd27",
    ("degrees", "--pg", "7", "--theta", "4"):  # forced-zero slots
        "f00e3fb9038c68f66104ad1fd877ce2ffb92196fc1fa9eda48f470a582906c10",
    ("invariants", "--pg", "5", "--theta", "1"):
        "7350aeeebc879a32eb0903fc59891fa775f7dfe99f2408dc429435bdc2370ff9",
    ("bidouble", "--pg", "4", "--theta", "5"):
        "a9a69e0ab8a52422802a1601dc861afb4415b89123c3a85135c9728949e92a5e",
    ("generate", "--pg", "3", "--theta", "2", "--field", "qq", "--seed", "4"):
        "96c4eea8422a9ba69ece9dbc5f253e17d633ad5127a2a5f7cccd02c30201f29a",
    ("generate", "--pg", "5", "--theta", "1", "--field", "fp:10007", "--seed", "1"):
        "28bdd1b0a6d01c880d96c0f902d5d932cdc67e228d29ef06e5ac2e370830ccd4",
    ("generate", "--pg", "5", "--theta", "1", "--field", "fp:2147483647", "--seed", "1"):
        "7bf7197f0d9ded260c07da28cd6d295bd1e6d8f1e08dcdc4c7def8bd90735fae",
    ("feasibility", "--k2", "112", "--chi", "30", "--q", "0"):  # the README line
        "81598d05dfea073c88ec9f558edabfe0a768f6af779bf7f17d0e8cc926631b57",
    ("feasibility", "--k2", "30", "--chi", "10", "--q", "1"):  # q = 1, classification incomplete
        "9245b62b643823e5e0c6163e743fcb9037abe60faabe7bff2b19f031292be8a5",
    ("feasibility", "--k2", "271", "--chi", "30"):  # no genus feasible
        "e0ab7b19226b322673d4556f6b0f5ebfe2df2482d4eafa3d7d8f0c0f688df72d",
    ("bidouble", "--pg", "2", "--theta", "6"):  # the external-source row
        "8574dd673065616590349d8105004cf66d7d7cd098c9fd23c80b6c8a28f59432",
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT_SHA256), ids=" ".join)
def test_golden_stdout(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT_SHA256[argv]


#: SHA-256 of `census` stdout with `timings` removed, re-dumped with
#: sort_keys=True, indent=2; keyed by the `generate` arguments of the member
#: and the extra `census` arguments
GOLDEN_CENSUS_SHA256 = {
    (("--pg", "2", "--theta", "0", "--field", "fp:101", "--seed", "9"), ()):
        "ccf0ac5cb1aeb1e67bcdad8024d33cc7054fb53a1406c65248bcceb007a7ce66",
    (("--pg", "7", "--theta", "3", "--field", "qq", "--seed", "5"), ("--prime", "35027", "--skip-sweep")):
        "20637ca6f91f7621c5e0dee4e70cb6b2caad83b951f243501f617eca0891f065",
    # a whole rational member reduced for the sweep: at the default primes
    # (nodes 101, sweep 11), and at 101 for both
    (("--pg", "2", "--theta", "0", "--field", "qq", "--seed", "1"), ()):
        "4c576f2ccb9612cd100fdccbc1766f0c19508ff7890d640592850c4e2b90c988",
    (("--pg", "2", "--theta", "0", "--field", "qq", "--seed", "1"), ("--prime", "101")):
        "ccf0ac5cb1aeb1e67bcdad8024d33cc7054fb53a1406c65248bcceb007a7ce66",
    # 2 branch hits and 4 cone singularities
    (("--pg", "2", "--theta", "0", "--field", "fp:17", "--seed", "17"), ()):
        "f6955cc3f443b70e8245344fded8af802e540eda70f8825e2cc6f472b61fb2b7",
}


@pytest.mark.parametrize("member, extra", list(GOLDEN_CENSUS_SHA256),
                         ids=lambda args: " ".join(args) or "full-sweep")
def test_golden_census_stdout(tmp_path, capsys, member, extra):
    path = tmp_path / "member.json"
    assert main(["generate", *member, "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["census", "--in", str(path), *extra]) == 0
    doc = json.loads(capsys.readouterr().out)
    del doc["timings"]
    text = json.dumps(doc, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_CENSUS_SHA256[member, extra]
