"""canpencil benchmark: closed-loop runs of the `canpencil` command line.

One process, one thread: each op is a call of `canpencil.cli.main(argv)`
with stdout captured, exactly what `canpencil ARGS` does, and the next op
starts when the previous one has returned.  Inputs come from the workload
seed (see workloads.py and README.md).

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
prints the per-layer metrics of a traced run (spans.py).  The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.
Run from the root of a source tree: the package is imported from ./src.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import traceback
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from time import perf_counter
from typing import List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
WORK_DIR = HERE / "work"

sys.path[:0] = [str(HERE), str(SRC)]
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from reference import time_reference  # noqa: E402

SETUPS = 5  # set-ups per timed run; setup_s is their median
REF_WINDOW = 7  # an op's unit is the median of this many reference timings around it
MIN_OPS = 100  # a timed run goes on past its time until 10 ops lie beyond p90 ...
MAX_STRETCH = 3  # ... but not past MAX_STRETCH times its time
OP_CAP_S = 10.0  # an op running longer than this is stopped and counts as failed

#: per-layer values computed from call arguments, results or argv, not timed
COMPUTED = spans.COMPUTED_COUNTS + ("census.sweep.s_per_base_point", "binform.roots.s_per_residue",
                                    "relalg.trials_per_op")


class OpTimeout(BaseException):
    """Raised inside an op that exceeds OP_CAP_S; not an Exception, so the CLI cannot catch it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def fresh_cli():
    """Import canpencil.cli from ./src anew, as a starting process would."""
    for name in [n for n in sys.modules if n == "canpencil" or n.startswith("canpencil.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("canpencil.cli")
    if Path(cli.__file__).resolve().parent != SRC / "canpencil":
        raise wl.SetupError(f"imported {cli.__file__}, not the tree under {SRC}")
    return cli


def call_cli(cli, argv) -> Tuple[int, str]:
    """Exit status and stdout of `canpencil argv`; -1 when the call raised or ran too long."""
    buf = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
    except OpTimeout:
        return -1, f"stopped after {OP_CAP_S} s"
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:
        return -1, traceback.format_exc()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return rc, buf.getvalue()


@dataclass
class OpResult:
    n: int  # position in the run
    op: wl.Op
    seconds: float
    error: Optional[str]
    output_bytes: int
    ref_seconds: Optional[float]  # reference() timed just before the op, in timed runs


def run_ops(cli, ops, digests, count=None, seconds=None, cycle=1, tracer=None, reference=False,
            first=0, min_ops=MIN_OPS):
    """Run ops in list order from position `first`, wrapping around, closed loop.

    With `count`, exactly that many ops; otherwise whole cycles until
    `seconds` have passed and `first` + ops run reaches `min_ops` (or
    MAX_STRETCH times `seconds` have passed).  With `reference`, the
    reference loop is timed before each op.  Returns the results and the
    wall time.
    """
    results: List[OpResult] = []
    gc.collect()
    start = perf_counter()
    n = first
    while True:
        op = ops[n % len(ops)]
        if tracer is not None:
            tracer.op = n
        ref = time_reference() if reference else None
        t0 = perf_counter()
        rc, out = call_cli(cli, op.argv)
        dt = perf_counter() - t0
        error = wl.check_output(op, rc, out, digests[op.index] if digests else None)
        results.append(OpResult(n, op, dt, error, len(wl.deterministic_text(op, out).encode()), ref))
        n += 1
        if count is not None:
            if n - first >= count:
                break
        elif (n - first) % cycle == 0:
            elapsed = perf_counter() - start
            if elapsed >= seconds and (n >= min_ops or elapsed >= MAX_STRETCH * seconds):
                break
    return results, perf_counter() - start


def setup(workload: wl.Workload, seed: int, digests):
    """Import, generate and save the inputs, run op 0 once; returns (cli, ops, seconds, warm-up error)."""
    workdir = WORK_DIR / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = perf_counter()
    cli = fresh_cli()
    ops = workload.ops(seed, str(workdir), lambda argv: call_cli(cli, argv))
    rc, out = call_cli(cli, ops[0].argv)
    seconds = perf_counter() - t0
    return cli, ops, seconds, wl.check_output(ops[0], rc, out, digests[0] if digests else None)


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def local_references(refs: List[float]) -> List[float]:
    """For each op, the median of the REF_WINDOW reference timings centred on it."""
    half = REF_WINDOW // 2
    out = []
    for i in range(len(refs)):
        lo = min(max(0, i - half), max(0, len(refs) - REF_WINDOW))
        out.append(statistics.median(refs[lo:lo + REF_WINDOW]))
    return out


def timed_run(workload: wl.Workload, seed: int, seconds: float):
    """SETUPS rounds of a set-up and whole cycles of ops for `seconds` / SETUPS.

    Each op runs after a reference timing, and its cost is its wall time
    in reference units: divided by the median of the reference-loop
    timings taken around it (reference.py).  The host slows a process by
    up to 1.9x in bursts of seconds to tens of seconds, which moved raw
    wall times of whole runs by 10-40 %; the reference slows in step, and
    costs moved by a few per cent.  The set-ups are spread over the run
    so that their median samples the host's speed across it.  The raw
    wall-clock figures are kept in the record under "wall".
    """
    digests = wl.committed_digests(workload.name, seed)
    setup_times, errors, results = [], [], []
    for k in range(SETUPS):
        cli, ops, t, warm_error = setup(workload, seed, digests)
        setup_times.append(t)
        if warm_error:
            errors.append(f"warm-up op 0: {warm_error}")
        results += run_ops(cli, ops, digests, seconds=seconds / SETUPS, cycle=workload.cycle, reference=True,
                           first=len(results), min_ops=MIN_OPS if k == SETUPS - 1 else 0)[0]
    refs = [r.ref_seconds for r in results]
    units = local_references(refs)
    cost = [r.seconds / u for r, u in zip(results, units)]
    wall = [r.seconds for r in results]
    completed = sum(r.error is None for r in results)
    metrics = {
        "ops_per_kref": (1000 * completed / sum(cost), "1/kref"),
        "op_p50_ref": (statistics.median(cost), "ref"),
        "op_p90_ref": (p90(cost), "ref"),
        "ok_frac": (completed / len(results), "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "setup_times_s": setup_times,
        "reference_seconds": refs,
        "wall": {"ops_per_s": (completed / sum(wall), "1/s"), "op_p50_s": (statistics.median(wall), "s"),
                 "op_p90_s": (p90(wall), "s"), "reference_p50_s": (statistics.median(refs), "s")},
    }
    return results, errors, metrics, extra


def p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def traced_ops_count(workload: wl.Workload, seconds: float) -> int:
    """Ops in a traced run: a fixed function of --seconds, so its counts repeat exactly."""
    cycles = int(seconds / (2 * workload.nominal_op_s * workload.cycle))
    return workload.cycle * max(1, cycles)


def traced_run(workload: wl.Workload, seed: int, n_ops: int, spans_path: Optional[Path] = None):
    """Untraced then traced pass over the same first `n_ops` ops."""
    digests = wl.committed_digests(workload.name, seed)
    cli, ops, _, warm_error = setup(workload, seed, digests)
    errors = [f"warm-up op 0: {warm_error}"] if warm_error else []
    _, untraced_wall = run_ops(cli, ops, digests, count=n_ops)

    cli = fresh_cli()
    tracer = spans.Tracer()
    tracer.install()
    try:
        workload.ops(seed, str(WORK_DIR / workload.name), lambda argv: call_cli(cli, argv))
        gen_calls = tracer.calls["family.generate_member"]
        gen_self = tracer.self_s["family.generate_member"]
        tracer.reset()
        results, traced_wall = run_ops(cli, ops, digests, count=n_ops, tracer=tracer)
    finally:
        tracer.uninstall()

    n = len(results)
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.calls"] = (tracer.calls[name] / n, "count/op")
        metrics[f"{name}.self_s"] = (tracer.self_s[name] / n, "s/op")
    # generate_member runs only while inputs are made: per set-up, not per op
    metrics["family.generate_member.calls"] = (gen_calls, "count/setup")
    metrics["family.generate_member.self_s"] = (gen_self, "s/setup")
    counts = tracer.counts
    for name in spans.COMPUTED_COUNTS:
        metrics[name] = (counts[name] / n, "count/op")
    sweep_self = tracer.self_s["census.quasi_smooth_sweep"]
    roots_self = tracer.self_s["binform.roots"]
    bases, residues = counts["census.sweep.base_points"], counts["binform.roots.residues"]
    metrics["census.sweep.s_per_base_point"] = (sweep_self / bases if bases else 0.0, "s")
    metrics["binform.roots.s_per_residue"] = (roots_self / residues if residues else 0.0, "s")
    metrics["fields.scalar_ops.fp"] = (tracer.field_ops["fp"] / n, "count/op")
    metrics["fields.scalar_ops.qq"] = (tracer.field_ops["qq"] / n, "count/op")
    metrics["relalg.trials_per_op"] = (sum(r.op.trials for r in results) / n, "count/op")
    metrics["cli.output_bytes"] = (sum(r.output_bytes for r in results) / n, "B/op")
    metrics["trace.untraced_ops_per_s"] = (n / untraced_wall, "1/s")
    metrics["trace.traced_ops_per_s"] = (n / traced_wall, "1/s")
    metrics["trace.op_s"] = (sum(r.seconds for r in results) / n, "s/op")

    extra = {"missing_targets": tracer.missing, "spans_dropped": tracer.dropped}
    if spans_path is not None:
        extra["spans"] = tracer.write_spans(str(spans_path), {"workload": workload.name, "seed": seed})
    return results, errors, metrics, extra


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def git_commit() -> Optional[str]:
    """HEAD of the tree's git repository, read from .git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int, ops: int) -> dict:
    src = sha256()
    for path in sorted((SRC / "canpencil").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "workload": workload,
        "seed": seed,
        "ops": ops,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    workload = wl.WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    if trace:
        results, errors, metrics, extra = traced_run(
            workload, seed, traced_ops_count(workload, seconds), OUT_DIR / f"spans-{name}.jsonl")
    else:
        results, errors, metrics, extra = timed_run(workload, seed, seconds)
    failed = [r for r in results if r.error is not None]
    errors += [f"op {r.n} ({' '.join(r.op.argv)}): {r.error}" for r in failed]
    env = environment(name, seed, len(results))
    record = {
        "env": env, "trace": trace, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "computed": [k for k in COMPUTED if k in metrics], "errors": errors, **extra,
        "op_seconds": [r.seconds for r in results],
    }
    (OUT_DIR / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))

    for key, (value, unit) in metrics.items():
        label = "  (computed)" if key in COMPUTED else ""
        print(f"{name:10s} {key:44s} {value:>16.6g} {unit}{label}")
    for key, (value, unit) in extra.get("wall", {}).items():
        print(f"{name:10s} {'wall.' + key:44s} {value:>16.6g} {unit}  (raw wall clock, not a metric)")
    for line in errors[:20]:
        print(f"{name:10s} FAILED {line[:300]}")
    print(f"{name:10s} env {json.dumps(env, sort_keys=True)}")
    return len(results), len(failed), not errors, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "canpencil" / "cli.py").is_file():
        print(f"error: no canpencil sources under {SRC}; run from the root of a source tree",
              file=sys.stderr)
        return 2

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    correct = True
    metrics = {}
    try:
        for name in names:
            n, bad, ok, m = run_workload(name, args.seed, args.seconds, bool(args.trace))
            attempted, failed, correct = attempted + n, failed + bad, correct and ok
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
    except wl.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
