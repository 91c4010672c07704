#!/usr/bin/env python3
"""Seed survey for the char-p smoothness sweep.

Generates many members at (p_g, theta) = (2, 0) and (2, 2) over F_11 and
reports how often the quasi-smoothness sweep comes back clean.  The sweep
is sanity evidence, not proof: a singular draw means "regenerate", and
only a persistent failure across seeds would flag the family logic.

Usage: python scripts/census_experiment.py [N_SEEDS]

The survey goes to stdout and is the same on every run; the wall times go
to stderr.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from canpencil.census import quasi_smooth_sweep  # noqa: E402
from canpencil.family import generate_member  # noqa: E402
from canpencil.fields import FieldSpec  # noqa: E402

n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 20
F11 = FieldSpec.prime_field(11)

for theta in (0, 2):
    clean = 0
    singular_seeds = []
    start = time.perf_counter()
    for seed in range(1, n_seeds + 1):
        member = generate_member(2, theta, F11, seed=seed)
        failures = quasi_smooth_sweep(member, 11)
        if failures:
            singular_seeds.append((seed, len(failures)))
        else:
            clean += 1
    elapsed = time.perf_counter() - start
    print(f"theta = {theta}: {clean}/{n_seeds} clean members; singular draws: {singular_seeds}")
    print(f"theta = {theta}: {elapsed:.2f}s total", file=sys.stderr)
