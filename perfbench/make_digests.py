"""Write digests.json: the output digest of every op at the default seed.

    python3 perfbench/make_digests.py

Run it on a tree whose outputs are known to be right; every op must pass
the structural checks first.  Regenerating the digests is a change to the
benchmark, not to the program.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as wl


def main() -> int:
    digests = {}
    for name, workload in wl.WORKLOADS.items():
        workdir = run.WORK_DIR / name
        workdir.mkdir(parents=True, exist_ok=True)
        cli = run.fresh_cli()
        ops = workload.ops(wl.DEFAULT_SEED, str(workdir), lambda argv: run.call_cli(cli, argv))
        digests[name] = []
        for op in ops:
            rc, out = run.call_cli(cli, op.argv)
            error = wl.check_output(op, rc, out, None)
            if error:
                print(f"{name} op {op.index} ({' '.join(op.argv)}): {error}", file=sys.stderr)
                return 1
            digests[name].append(wl.output_digest(op, out))
        print(f"{name}: {len(ops)} ops")
    with open(wl.DIGESTS_PATH, "w") as fh:
        json.dump({"seed": wl.DEFAULT_SEED, "workloads": digests}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
