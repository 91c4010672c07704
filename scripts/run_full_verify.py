#!/usr/bin/env python3
"""Run the complete identity ledger plus an end-to-end member workflow.

The member is generated over F_101, so `run_census` takes both its node
census and its quasi-smoothness sweep at its own prime, p = 101.  Exit
status 0 only when every check passes.  This is the one-shot "everything
the package claims, recomputed" script.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from canpencil.cli import emit, main as cli_main  # noqa: E402
from canpencil.census import run_census  # noqa: E402
from canpencil.family import generate_member  # noqa: E402
from canpencil.fields import FieldSpec  # noqa: E402


def run():
    print("== identity ledger (seed 1, 50 trials over F_10007) ==")
    code = cli_main(["verify", "--seed", "1", "--trials", "50"])
    if code != 0:
        print("ledger failed", file=sys.stderr)
        return code

    print("\n== end-to-end member: generate at (2,0)/F_101, census and sweep at F_101 ==")
    member = generate_member(2, 0, FieldSpec.prime_field(101), seed=20260808, split_qy=True)
    report = run_census(member, skip_sweep=False)
    emit(report, None)
    if not report["clean"]:
        print("census found singularities; regenerate with another seed", file=sys.stderr)
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(run())
