"""The benchmark's workloads: op lists generated from a seed, and output checks.

An op is one `canpencil` command line.  Each workload's op list is a fixed
function of the workload seed: a short *cycle* of op shapes (prime, p_g,
theta, trials) repeated for a number of rounds, with fresh member seeds or
ledger seeds in every round.  Timed runs stop only at a cycle boundary, so
every run sees the same mix of shapes and only the coefficients change with
the seed.  Why each workload exists is written down in README.md.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Dict, List, Optional, Tuple

#: seed whose per-op output digests are committed in digests.json
DEFAULT_SEED = 1

#: run_cli(argv) -> (exit status, captured stdout)
RunCli = Callable[[List[str]], Tuple[int, str]]


class SetupError(RuntimeError):
    """Input generation failed; the benchmark cannot run on this tree."""


@dataclass(frozen=True)
class Op:
    index: int
    argv: Tuple[str, ...]
    kind: str  # "census", "verify" or "example"
    expect: Dict[str, object] = field(default_factory=dict)  # top-level keys of the output

    @property
    def trials(self) -> int:
        return int(self.expect.get("trials", 0))


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: int  # ops per cycle of shapes; runs stop only at cycle boundaries
    rounds: int  # cycles in the op list; runs that go further wrap around
    nominal_op_s: float  # untraced seconds per op at the seed code, sizes the traced run
    build: Callable[[int, str, RunCli], List[Op]]

    def ops(self, seed: int, workdir: str, run_cli: RunCli) -> List[Op]:
        ops = self.build(seed, workdir, run_cli)
        if len(ops) != self.cycle * self.rounds:
            raise SetupError(f"{self.name}: built {len(ops)} ops, expected {self.cycle * self.rounds}")
        return ops


# ---------------------------------------------------------------------------
# census workloads: members are written with `canpencil generate --out`
# ---------------------------------------------------------------------------


def _member(run_cli: RunCli, path: str, pg: int, theta: int, fld: str, rng: Random) -> None:
    # A member whose q_y vanishes identically has no node census (the CLI
    # reports that as an error by design), so such a draw is redrawn.
    for _ in range(100):
        argv = ["generate", "--pg", str(pg), "--theta", str(theta), "--field", fld,
                "--seed", str(rng.randrange(2**31)), "--out", path]
        rc, out = run_cli(argv)
        if rc != 0:
            raise SetupError(f"{' '.join(argv)} exited {rc}: {out.strip()[:200]}")
        if "y" in json.loads(out)["Q"]:
            return
    raise SetupError(f"no member with nonzero q_y for p_g={pg} theta={theta} over {fld}")


def _next_prime(n: int) -> int:
    def is_prime(m: int) -> bool:
        return m > 1 and all(m % d for d in range(2, int(m**0.5) + 1))

    while not is_prime(n):
        n += 1
    return n


SWEEP_PRIMES = (17, 19, 23)
SWEEP_SHAPES = ((2, 0), (2, 2), (3, 1), (4, 4), (6, 0))  # 10, 7, 6, 3 and 5 branch monomials


def _sweep_ops(seed: int, workdir: str, run_cli: RunCli) -> List[Op]:
    rng = Random(f"sweep:{seed}")
    ops: List[Op] = []
    for _ in range(SWEEP.rounds):
        for p in SWEEP_PRIMES:
            for pg, theta in SWEEP_SHAPES:
                path = os.path.join(workdir, f"sweep-{len(ops):03d}.json")
                _member(run_cli, path, pg, theta, f"fp:{p}", rng)
                ops.append(Op(len(ops), ("census", "--in", path), "census",
                              {"prime_nodes": p, "prime_sweep": p, "sweep_skipped": False}))
    return ops


NODE_BANDS = (25_000, 35_000, 45_000)  # P = next prime after band + U[0, NODE_JITTER)
NODE_JITTER = 2_000
NODE_SHAPES = ((2, 0), (3, 2), (5, 1), (7, 3), (10, 0))  # deg q_y = 2, 6, 9, 15, 18


def _node_ops(seed: int, workdir: str, run_cli: RunCli) -> List[Op]:
    rng = Random(f"nodes:{seed}")
    ops: List[Op] = []
    for _ in range(NODES.rounds):
        for band in NODE_BANDS:
            for pg, theta in NODE_SHAPES:
                prime = _next_prime(band + rng.randrange(NODE_JITTER))
                path = os.path.join(workdir, f"nodes-{len(ops):03d}.json")
                _member(run_cli, path, pg, theta, "qq", rng)
                ops.append(Op(len(ops),
                              ("census", "--in", path, "--prime", str(prime), "--skip-sweep"),
                              "census",
                              {"prime_nodes": prime, "prime_sweep": None, "sweep_skipped": True}))
    return ops


# ---------------------------------------------------------------------------
# ledger workloads
# ---------------------------------------------------------------------------

LEDGER_FP_TRIALS = 15
LEDGER_QQ_TRIALS = 6
LEDGER_QQ_VERIFIES = 3  # verify ops per `example` op in a ledger-qq cycle


def _ledger_fp_ops(seed: int, workdir: str, run_cli: RunCli) -> List[Op]:
    rng = Random(f"ledger-fp:{seed}")
    ops: List[Op] = []
    for _ in range(LEDGER_FP.rounds):
        s = rng.randrange(2**31)
        ops.append(Op(len(ops), ("verify", "all", "--seed", str(s), "--trials", str(LEDGER_FP_TRIALS)),
                      "verify",
                      {"field": "F10007", "seed": s, "trials": LEDGER_FP_TRIALS, "all_passed": True}))
    return ops


def _ledger_qq_ops(seed: int, workdir: str, run_cli: RunCli) -> List[Op]:
    rng = Random(f"ledger-qq:{seed}")
    ops: List[Op] = []
    for _ in range(LEDGER_QQ.rounds):
        for _ in range(LEDGER_QQ_VERIFIES):
            s = rng.randrange(2**31)
            ops.append(Op(len(ops),
                          ("verify", "--field", "qq", "--seed", str(s), "--trials", str(LEDGER_QQ_TRIALS)),
                          "verify",
                          {"field": "QQ", "seed": s, "trials": LEDGER_QQ_TRIALS, "all_passed": True}))
        ops.append(Op(len(ops), ("example",), "example", {"all_passed": True}))
    return ops


SWEEP = Workload("sweep", cycle=15, rounds=12, nominal_op_s=0.06, build=_sweep_ops)
NODES = Workload("nodes", cycle=15, rounds=12, nominal_op_s=0.08, build=_node_ops)
LEDGER_FP = Workload("ledger-fp", cycle=1, rounds=180, nominal_op_s=0.08, build=_ledger_fp_ops)
LEDGER_QQ = Workload("ledger-qq", cycle=LEDGER_QQ_VERIFIES + 1, rounds=45, nominal_op_s=0.08,
                     build=_ledger_qq_ops)
WORKLOADS = {w.name: w for w in (SWEEP, NODES, LEDGER_FP, LEDGER_QQ)}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def deterministic_text(op: Op, out: str) -> str:
    """The part of an op's output that must repeat byte for byte.

    Census documents carry wall-clock `timings`, which are dropped and the
    rest re-serialized the way the CLI prints it; verify and example
    documents are taken as printed.
    """
    if op.kind != "census":
        return out
    try:
        doc = json.loads(out)
    except ValueError:
        return out
    doc.pop("timings", None)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def output_digest(op: Op, out: str) -> str:
    return hashlib.sha256(deterministic_text(op, out).encode()).hexdigest()[:16]


def check_output(op: Op, rc: int, out: str, digest: Optional[str]) -> Optional[str]:
    """Why the op's output is wrong, or None when it passes.

    Structural checks run on every seed; `digest` is the committed digest
    for this op at DEFAULT_SEED, or None on other seeds.
    """
    if rc != 0:
        return f"exit status {rc}: {out.strip()[:200]}"
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return f"output is not one JSON document: {exc}"
    if not isinstance(doc, dict):
        return "output is not a JSON object"
    for key, want in op.expect.items():
        if doc.get(key) != want:
            return f"{key} = {doc.get(key)!r}, expected {want!r}"
    if op.kind == "census":
        try:
            total = sum(n["multiplicity"] for n in doc["nodes"])
            bound = doc["node_bound"]
        except (KeyError, TypeError) as exc:
            return f"census document without node data: {exc!r}"
        if total > bound:
            return f"node multiplicity total {total} exceeds node_bound {bound}"
    if digest is not None and output_digest(op, out) != digest:
        return "output digest differs from the committed one"
    return None


DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def committed_digests(workload: str, seed: int) -> Optional[List[str]]:
    if seed != DEFAULT_SEED:
        return None
    with open(DIGESTS_PATH) as fh:
        doc = json.load(fh)
    if doc["seed"] != DEFAULT_SEED:
        raise SetupError(f"{DIGESTS_PATH} holds seed {doc['seed']}, expected {DEFAULT_SEED}")
    return doc["workloads"][workload]
