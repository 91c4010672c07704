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
import os
import sys
from json.encoder import encode_basestring_ascii
from math import isfinite
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


#: how json writes each leaf type (json.dumps for NaN and the infinities);
#: bool comes before its base class int
_LEAVES = {str: encode_basestring_ascii, type(None): lambda _: "null",
           bool: ("false", "true").__getitem__, int: int.__repr__,
           float: lambda x: float.__repr__(x) if isfinite(x) else json.dumps(x)}


def _dumps(obj, newline: str = "\n") -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)`, without json's pure-Python encoder.

    Takes str-keyed dicts, lists, tuples, str, int, float, bool and None, and
    writes them as json does; anything else raises TypeError.  `newline` is
    the line break and indentation of the enclosing level.
    """
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        # encode_basestring_ascii raises TypeError on a key that is not a str
        for key, value in sorted(obj.items()):
            leaf = _LEAVES.get(type(value))
            text = leaf(value) if leaf else _dumps(value, inner)
            parts.append(encode_basestring_ascii(key) + ": " + text)
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = []
        for value in obj:
            leaf = _LEAVES.get(type(value))
            parts.append(leaf(value) if leaf else _dumps(value, inner))
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    for kind, leaf in _LEAVES.items():  # a leaf at the top, or of a subclass such as IntEnum
        if isinstance(obj, kind):
            return leaf(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def emit(doc: dict, out: Optional[str]) -> None:
    """Write `doc` to `out` first, so an --out that cannot be written prints only the error."""
    text = _dumps(doc)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise CliError(f"cannot write {out}: {exc.strerror}")
    print(text, flush=True)  # a reader that closed the pipe raises BrokenPipeError here


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_invariants(args) -> dict:
    return chow.invariants_report(args.pg, args.theta)


def cmd_degrees(args) -> dict:
    return family.degree_table(args.pg, args.theta).to_json_dict()


def cmd_generate(args) -> dict:
    field = parse_field(args.field)
    member = family.generate_member(args.pg, args.theta, field, args.seed, split_qy=args.split_qy)
    doc = member.to_json_dict()
    doc["seed"] = args.seed
    return doc


def cmd_census(args) -> dict:
    eqs = load_equations(args.infile)
    return census_mod.run_census(eqs, args.prime, args.skip_sweep)


def cmd_bidouble(args) -> dict:
    data, inv, matches = family.bidouble_cross_check(args.pg, args.theta)
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
        "matches_intersection_theory": matches,
    }


def cmd_feasibility(args) -> dict:
    return family.genus_feasibility(args.k2, args.chi, args.q)


def cmd_example(args) -> dict:
    keys = relalg.EXAMPLE_KEYS if args.which is None else [tuple(args.which)]
    examples = [relalg.example_verify(key) for key in keys]
    return {"examples": examples, "all_passed": all(e["passed"] for e in examples)}


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
    # accept: every slot at its prescribed degree, and tau_of raises on a wrong deg tau
    for _ in _random_data(rng, field, trials):
        pass
    return [("sigma2/degree-slots", True, {"trials": trials}),
            ("sigma2/tau-degree", True, {"trials": trials})]


def _ledger_lifting(rng, field, trials):
    verified, sample = True, None
    for data in _random_data(rng, field, trials):
        if data.f0.is_zero:
            continue
        # each certificate must re-expand to f0^4 times the identity
        cert = relalg.lifting_annihilator(data)
        verified &= cert.verify()
        if sample is None:
            sample = [[format_binform(c) for c in sol] for sol in cert.solutions]
    return [("lifting/f0^4-annihilator", verified, {"trials": trials, "certificate": sample})]


def _ledger_s6(rng, field, trials):
    kernel = summands = True
    for data in _random_data(rng, field, trials):
        rows, summand_degrees = relalg.s6prime_matrix(data)
        rel = relalg.relation_matrix(data.f0, data.f1)
        kernel &= relalg.mat_is_zero(relalg.mat_mul([list(r) for r in rows], rel))
        # entry (r, j) maps y0^(3-j) y1^j, of twist (3-j) d0 + j d1, into summand r
        d0, d1, _ = relalg.split_type(data.pg, data.theta, data.alpha)
        summands &= all(e.degree + (3 - j) * d0 + j * d1 == summand_degrees[r]
                        for r, row in enumerate(rows) for j, e in enumerate(row) if not e.is_zero)
    return [("eq.S3S2->S6/kernel", kernel, {"trials": trials}),
            ("eq.S3S2->S6/summands", summands, {"trials": trials})]


def _ledger_examples(rng, field, trials):
    return [(f"examples/alpha{e['alpha']}-theta{e['theta']}-K2-{e['K2']}", e["passed"], e["checks"])
            for e in map(relalg.example_verify, relalg.EXAMPLE_KEYS)]


def _ledger_bidouble(rng, field, trials):
    # surface_invariants inside bidouble_cross_check raises on a fault in intersection theory
    failures = [[theta, pg] for theta in range(7) for pg in range(2, 21)
                if not family.bidouble_cross_check(pg, theta)[2]]
    return [("bidouble/cross-check", not failures, {"failures": failures})]


def _ledger_invariants(rng, field, trials):
    # surface_invariants raises unless K^2 and adjunction meet their closed forms
    for pg in range(2, 51):
        for theta in range(7):
            chow.surface_invariants(pg, theta)
    return [("invariants/closed-forms", True, {"failures": []}),
            ("invariants/adjunction", True, {})]


#: verify target -> its ledgers, run in this order.  Each ledger takes
#: (rng, field, trials) and returns (name, passed, details) triples under
#: fixed names; the last three draw no random data.  `lifting`, `s6`,
#: `examples` and `bidouble` compute their checks: lifting re-expands the
#: certificate of every draw with f0 != 0, s6 reports both of its names on
#: every run, each over all the draws, and bidouble lists each mismatching
#: [theta, p_g] in its failures.  An identity that the library checks itself
#: is not checked again here: when it fails, the library raises, and
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


#: largest --trials that verify runs: `verify all` costs about 0.37 ms
#: per trial over F_10007, 0.36 ms over QQ and 0.49 ms over F_(2^31 - 1)
#: (1000 trials, fastest of 7 in-process runs, CPython 3.11.7 on a shared
#: 2-core host in a slow spell, where the previous code took 0.42, 0.41
#: and 0.54 ms; 200 trials take 70, 74 and 85 ms) and grows linearly in
#: the trials, so a run at the limit took 3.8-5.1 s over F_10007, 3.9-4.9 s
#: over QQ and 5.3-5.6 s over F_(2^31 - 1), three fresh processes each.
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
        except (AssertionError, ValueError) as exc:  # SigmaError and BinFormError included
            found = [(ledger.__name__.removeprefix("_ledger_"), False, {"error": str(exc)})]
        checks += [{"name": name, "passed": passed, "details": details}
                   for name, passed, details in found]
    checks.sort(key=lambda c: c["name"])
    return {
        "field": str(field),
        "seed": args.seed,
        "trials": trials,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The `canpencil` parser.  For `read_exact`, `parser.commands` maps each
    command to {option string: action} and its positional action or None,
    from the actions that its add_argument calls returned."""
    parser = argparse.ArgumentParser(
        prog="canpencil",
        description="exact-arithmetic toolkit for surfaces with a canonical genus-2 pencil",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    actions = {}

    def command(name, help):
        p = sub.add_parser(name, help=help)
        return lambda *flags, **kw: actions.setdefault(name, []).append(p.add_argument(*flags, **kw))

    def add_common(add):
        add("--pg", type=int, required=True)
        add("--theta", type=int, required=True)
        add("--out", type=str, default=None)

    add = command("invariants", help="K^2, chi and the divisor classes")
    add_common(add)

    add = command("degrees", help="prescribed coefficient degrees")
    add_common(add)

    add = command("generate", help="seeded random family member")
    add_common(add)
    add("--field", type=str, required=True, help="qq or fp:P")
    add("--seed", type=int, required=True)
    add("--split-qy", action="store_true", dest="split_qy",
        help="force q_y to split with distinct rational roots")

    add = command("census", help="finite-field singularity census")
    add("--in", dest="infile", type=str, required=True)
    add("--prime", type=int, default=None)
    add("--skip-sweep", action="store_true", dest="skip_sweep")
    add("--out", type=str, default=None)

    add = command("verify", help="run the identity ledger")
    add("what", nargs="?", default="all", choices=list(LEDGERS))
    add("--field", type=str, default="fp:10007")
    add("--seed", type=int, required=True)
    add("--trials", type=int, default=None)
    add("--out", type=str, default=None)

    add = command("bidouble", help="branch data on the Hirzebruch base")
    add_common(add)

    add = command("feasibility", help="genus feasibility filter")
    add("--k2", type=int, required=True)
    add("--chi", type=int, required=True)
    add("--q", type=int, default=0)
    add("--out", type=str, default=None)

    add = command("example", help="verify the exceptional families")
    add("--which", type=int, nargs=4, default=None, metavar=("ALPHA", "THETA", "K2", "PG"))
    add("--out", type=str, default=None)

    parser.commands = {name: ({s: a for a in acts for s in a.option_strings},
                              next((a for a in acts if not a.option_strings), None))
                       for name, acts in actions.items()}
    return parser


def read_exact(argv: List[str], commands) -> Optional[argparse.Namespace]:
    """The Namespace that `parse_args(argv)` returns, for a line in exact options.

    argv[0] must be a command, verify's `what` may follow from its choices,
    and every later token must be one of the command's option strings, given
    at most once, with its nargs values, none starting with '-' or failing its
    type; every required option must be there.  Any other line gives None for
    argparse to read: help, abbreviations, --opt=value, '--', negative
    numbers and every usage error.
    """
    if not argv or argv[0] not in commands:
        return None
    options, positional = commands[argv[0]]
    values, i, n = {}, 1, len(argv)
    if positional is not None:
        given = n > 1 and argv[1] in positional.choices
        values[positional.dest] = argv[1] if given else positional.default
        i += given
    while i < n:
        action = options.get(argv[i])
        if action is None or action.dest in values:
            return None
        end = i + 1 + (1 if action.nargs is None else action.nargs)
        tokens = argv[i + 1:end]
        if end > n or any(t[:1] == "-" for t in tokens):
            return None
        try:
            got = [action.type(t) for t in tokens]
        except (TypeError, ValueError):
            return None
        if action.nargs == 0:  # store_true
            values[action.dest] = action.const
        else:
            values[action.dest] = got if action.nargs else got[0]
        i = end
    for action in options.values():
        if action.dest not in values:
            if action.required:
                return None
            values[action.dest] = action.default
    return argparse.Namespace(command=argv[0], **values)


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
    if argv is None:
        argv = sys.argv[1:]
    args = read_exact(argv, _parser.commands)
    if args is None:
        args = _parser.parse_args(argv)
    try:
        try:
            doc = _DISPATCH[args.command](args)
            emit(doc, getattr(args, "out", None))
        except (CliError, ValueError) as exc:  # SigmaError included
            print(json.dumps({"error": str(exc)}, sort_keys=True), flush=True)
            return getattr(exc, "code", 1)
    except BrokenPipeError:
        # the reader closed stdout: as the `signal` docs' note on SIGPIPE does,
        # point it at devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    # verify and example report a failed check in their document
    return 0 if doc.get("all_passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
