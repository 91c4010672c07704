"""Command-line front end.

Every subcommand emits one JSON document on stdout (optionally duplicated
to --out).  Randomized subcommands require an explicit --seed and are
bit-reproducible: identical inputs give byte-identical output.  The exit
status is 0 exactly when the run produced no failures; errors are
machine-readable JSON on stdout with a nonzero status.
"""

from __future__ import annotations

import argparse
import json
import sys
from random import Random
from typing import List, Optional

from . import census as census_mod
from . import chow, family, relalg
from .binform import format_binform
from .fields import FieldSpec


class CliError(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def parse_field(text: str) -> FieldSpec:
    if text == "qq":
        return FieldSpec.rationals()
    if text.startswith("fp:"):
        try:
            return FieldSpec.prime_field(int(text[3:]))
        except ValueError as exc:
            raise CliError(f"bad field spec {text!r}: {exc}")
    raise CliError(f"field must be 'qq' or 'fp:P', got {text!r}")


def emit(doc: dict, out: Optional[str]) -> None:
    """Write `doc` to `out` first, so an --out that cannot be written prints only the error."""
    text = json.dumps(doc, sort_keys=True, indent=2)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise CliError(f"cannot write {out}: {exc.strerror}")
    print(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_invariants(args) -> dict:
    return chow.invariants_report(args.pg, args.theta)


def cmd_degrees(args) -> dict:
    return family.degree_table(args.pg, args.theta).to_json_dict()


def cmd_generate(args) -> dict:
    params = family.FamilyParams(args.pg, args.theta, parse_field(args.field), args.seed)
    member = family.generate_member(params, split_qy=args.split_qy)
    doc = member.to_json_dict()
    doc["seed"] = args.seed
    return doc


def cmd_census(args) -> dict:
    eqs = load_equations(args.infile)
    report = census_mod.run_census(eqs, args.prime, args.prime, args.skip_sweep)
    return report.to_json_dict()


def cmd_bidouble(args) -> dict:
    data = family.bidouble_branch_data(args.theta, args.pg)
    inv = family.bidouble_invariants(data)
    reference = chow.surface_invariants(args.pg, args.theta)
    return {
        "theta": args.theta,
        "p_g": args.pg,
        "base": data.base_name,
        "source": data.source,
        "D1": list(data.d1),
        "D2": list(data.d2),
        "D3": list(data.d3),
        "K2": inv["K2"],
        "chi": inv["chi"],
        "matches_intersection_theory": inv == {"K2": reference["K2"], "chi": reference["chi"]},
    }


def cmd_feasibility(args) -> dict:
    return family.genus_feasibility(args.k2, args.chi, args.q).to_json_dict()


def cmd_example(args) -> dict:
    keys = relalg.EXAMPLE_KEYS if args.which is None else [tuple(args.which)]
    out = {"examples": [], "all_passed": True}
    for key in keys:
        rep = relalg.example_verify(key)
        out["examples"].append(
            {
                "alpha": key[0],
                "theta": key[1],
                "K2": key[2],
                "p_g": key[3],
                "checks": rep.checks,
                "details": {k: str(v) for k, v in rep.details.items()},
                "passed": rep.passed,
            }
        )
        out["all_passed"] = out["all_passed"] and rep.passed
    if not out["all_passed"]:
        raise CliError(json.dumps(out, sort_keys=True))
    return out


def load_equations(path: str) -> family.SurfaceEquations:
    try:
        return family.SurfaceEquations.load(path)
    except FileNotFoundError:
        raise CliError(f"no such equation file: {path}")
    except OSError as exc:  # a directory, an unreadable file
        raise CliError(f"cannot read equation file {path}: {exc.strerror}")
    except (ValueError, KeyError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise CliError(f"bad equation file {path}: {exc}")


# ---------------------------------------------------------------------------
# the verification ledger
# ---------------------------------------------------------------------------


def _random_data(rng, field, trials):
    """`trials` random sigma-2 data, each drawn from a generator seeded by rng."""
    for _ in range(trials):
        yield relalg.random_sigma_data(field, Random(rng.randrange(2**63)))


def _ledger_sigma2(rng, field, trials):
    # random_sigma_data returns only data that validate_sigma2 and tau_of
    # accept; they raise on a wrong degree sum d0 + d1 + d2 or deg tau
    for _ in _random_data(rng, field, trials):
        pass
    return [("sigma2/degree-slots", True, {"trials": trials}),
            ("sigma2/tau-degree", True, {"trials": trials})]


def _ledger_lifting(rng, field, trials):
    sample = None
    for data in _random_data(rng, field, trials):
        if data.f0.is_zero:
            continue
        # raises unless its certificate re-expands to f0^4 times the identity
        cert = relalg.lifting_annihilator(data)
        if sample is None:
            sample = [[format_binform(c) for c in sol] for sol in cert.solutions]
    return [("lifting/f0^4-annihilator", True, {"trials": trials, "certificate": sample})]


def _ledger_s6(rng, field, trials):
    for data in _random_data(rng, field, trials):
        s6 = relalg.s6prime_matrix(data)
        rel = relalg.relation_matrix(data.f0, data.f1)
        prod = relalg.mat_mul([list(r) for r in s6.matrix], rel)
        if not relalg.mat_is_zero(prod):
            return [("eq.S3S2->S6/kernel", False, {})]
        # entry (r, j) maps y0^(3-j) y1^j, of twist (3-j) d0 + j d1, into summand r
        split = relalg.SplitType.from_params(data.pg, data.theta, data.alpha)
        if any(e.degree + (3 - j) * split.d0 + j * split.d1 != s6.summand_degrees[r]
               for r, row in enumerate(s6.matrix) for j, e in enumerate(row) if not e.is_zero):
            return [("eq.S3S2->S6/summands", False, {})]
    return [("eq.S3S2->S6/kernel", True, {"trials": trials}),
            ("eq.S3S2->S6/summands", True, {"trials": trials})]


def _ledger_examples(rng, field, trials):
    checks = []
    for key in relalg.EXAMPLE_KEYS:
        rep = relalg.example_verify(key)
        checks.append((f"examples/alpha{key[0]}-theta{key[1]}-K2-{key[2]}", rep.passed,
                       {k: bool(v) for k, v in rep.checks.items()}))
    return checks


def _ledger_bidouble(rng, field, trials):
    # bidouble_cross_check raises on a mismatch, naming theta and p_g, and
    # surface_invariants inside it raises on a fault in intersection theory
    for theta in range(7):
        for pg in range(2, 21):
            family.bidouble_cross_check(theta, pg)
    return [("bidouble/cross-check", True, {"failures": []})]


def _ledger_invariants(rng, field, trials):
    # surface_invariants raises unless K^2 and adjunction meet their closed forms
    for pg in range(2, 51):
        for theta in range(7):
            chow.surface_invariants(pg, theta)
    return [("invariants/closed-forms", True, {"failures": []}),
            ("invariants/adjunction", True, {})]


#: verify target -> its ledgers, run in this order.  Each ledger takes
#: (rng, field, trials) and returns (name, passed, details) triples; the
#: random-data ledgers report only the check that failed first, and the
#: last three draw no random data.  An identity that the library checks
#: itself is not checked again here: when it fails, the library raises, and
#: cmd_verify reports the whole ledger as one failed check named after it
#: ("sigma2", ..., "invariants") with the message in its details.
LEDGERS = {
    "all": (_ledger_sigma2, _ledger_lifting, _ledger_s6, _ledger_examples,
            _ledger_bidouble, _ledger_invariants),
    "sigma2": (_ledger_sigma2,),
    "lifting": (_ledger_lifting,),
    "s6": (_ledger_s6,),
    "examples": (_ledger_examples,),
}


#: largest --trials that verify runs: `verify all` costs about 1.5 ms per
#: trial over F_10007 and 1.3 ms over QQ (1000 trials, median of 5
#: in-process runs, CPython 3.11 on a 2-core host) and grows linearly in
#: the trials, so a run at the limit takes about 15 s over F_10007 and 13 s
#: over QQ.
TRIALS_MAX = 10_000


def cmd_verify(args) -> dict:
    if args.trials is not None and not 1 <= args.trials <= TRIALS_MAX:
        raise CliError(f"--trials must lie in 1..{TRIALS_MAX}", code=2)
    trials = args.trials or 25
    field = parse_field(args.field)
    rng = Random(args.seed)
    checks = []
    for ledger in LEDGERS[args.what]:
        try:
            found = ledger(rng, field, trials)
        except (AssertionError, relalg.SigmaError) as exc:
            found = [(ledger.__name__.removeprefix("_ledger_"), False, {"error": str(exc)})]
        checks += [{"name": name, "passed": passed, "details": details}
                   for name, passed, details in found]
    checks.sort(key=lambda c: c["name"])
    doc = {
        "field": str(field),
        "seed": args.seed,
        "trials": trials,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
    if not doc["all_passed"]:
        raise CliError(json.dumps(doc, sort_keys=True, indent=2))
    return doc


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canpencil",
        description="exact-arithmetic toolkit for surfaces with a canonical genus-2 pencil",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, pg=False, theta=False, out=True):
        if pg:
            p.add_argument("--pg", type=int, required=True)
        if theta:
            p.add_argument("--theta", type=int, required=True)
        if out:
            p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("invariants", help="K^2, chi and the divisor classes")
    add_common(p, pg=True, theta=True)

    p = sub.add_parser("degrees", help="prescribed coefficient degrees")
    add_common(p, pg=True, theta=True)

    p = sub.add_parser("generate", help="seeded random family member")
    add_common(p, pg=True, theta=True)
    p.add_argument("--field", type=str, required=True, help="qq or fp:P")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--split-qy", action="store_true", dest="split_qy",
                   help="force q_y to split with distinct rational roots")

    p = sub.add_parser("census", help="finite-field singularity census")
    p.add_argument("--in", dest="infile", type=str, required=True)
    p.add_argument("--prime", type=int, default=None)
    p.add_argument("--skip-sweep", action="store_true", dest="skip_sweep")
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("verify", help="run the identity ledger")
    p.add_argument("what", nargs="?", default="all", choices=list(LEDGERS))
    p.add_argument("--field", type=str, default="fp:10007")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("bidouble", help="branch data on the Hirzebruch base")
    add_common(p, pg=True, theta=True)

    p = sub.add_parser("feasibility", help="genus feasibility filter")
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--q", type=int, default=0)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("example", help="verify the exceptional families")
    p.add_argument("--which", type=int, nargs=4, default=None,
                   metavar=("ALPHA", "THETA", "K2", "PG"))
    p.add_argument("--out", type=str, default=None)

    return parser


_DISPATCH = {
    "invariants": cmd_invariants,
    "degrees": cmd_degrees,
    "generate": cmd_generate,
    "census": cmd_census,
    "verify": cmd_verify,
    "bidouble": cmd_bidouble,
    "feasibility": cmd_feasibility,
    "example": cmd_example,
}


#: built on the first call to main and reused: argparse keeps no state
#: between parse_args calls, and building it costs more than a small op
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[List[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        emit(_DISPATCH[args.command](args), getattr(args, "out", None))
    except CliError as exc:
        msg = str(exc)
        # ledger failures already carry a JSON document; wrap plain messages
        if msg.startswith("{"):
            print(msg)
        else:
            print(json.dumps({"error": msg}, sort_keys=True))
        return exc.code
    except ValueError as exc:  # SigmaError included
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
