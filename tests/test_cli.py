import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from canpencil.cli import main, parse_field
from canpencil.family import FamilyParams, generate_member
from canpencil.fields import FieldSpec
from canpencil.sections import _KEYS
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
    member_over_11.save(str(out))
    assert "/11" in out.read_text()
    code = main(["census", "--in", str(out), "--prime", "11", "--skip-sweep"])
    text = capsys.readouterr().out
    assert code != 0
    doc = json.loads(text)  # exactly one JSON document
    assert list(doc) == ["error"]
    assert doc["error"] == "bad reduction mod 11: denominator 11 not invertible mod 11"


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


_MEMBER = generate_member(FamilyParams(2, 0, FieldSpec.prime_field(11), seed=1)).to_json_dict()
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
    from canpencil.family import PG_MAX, FamilyParams

    FamilyParams(PG_MAX, 0, FieldSpec.prime_field(11), 1)
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
        s6 = exact(data)
        return relalg.S6Prime(s6.matrix, (s6.summand_degrees[0] + 1, s6.summand_degrees[1]))

    monkeypatch.setattr(relalg, "s6prime_matrix", shifted)
    code, doc = run_cli(capsys, "verify", "s6", "--seed", "5", "--trials", "3")
    assert code == 1
    assert doc["all_passed"] is False
    assert [c["name"] for c in doc["checks"] if not c["passed"]] == ["eq.S3S2->S6/summands"]


def _k2_off_by_one_at_pg7(monkeypatch):
    from canpencil import chow

    exact = chow.top_intersection

    def faulty(ctx, *classes):
        return exact(ctx, *classes) + (ctx.bundle.pg == 7)

    monkeypatch.setattr(chow, "top_intersection", faulty)
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
    return {"bidouble": "theta=0, p_g=2"}


@pytest.mark.parametrize("fault", [_k2_off_by_one_at_pg7, _certificate_never_verifies,
                                   _bidouble_k2_off_by_one],
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
    for ledger, message in messages.items():
        assert message in failed[ledger]["error"]


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


def test_python_dash_m_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "canpencil", "invariants", "--pg", "2", "--theta", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["K2"] == 2



SRC = str(Path(__file__).resolve().parent.parent / "src")


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
