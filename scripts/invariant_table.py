#!/usr/bin/env python3
"""Print the invariant grid and the bidouble branch rows.

Usage: python scripts/invariant_table.py [PG_MAX]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from canpencil.family import bidouble_branch_data, bidouble_cross_check  # noqa: E402

pg_max = int(sys.argv[1]) if len(sys.argv) > 1 else 8

print(f"{'p_g':>4} {'theta':>6} {'K^2':>5} {'chi':>4} {'base':>7}  branch classes")
for pg in range(2, pg_max + 1):
    for theta in range(7):
        # raises unless the bidouble formulas give the intersection-theory (K^2, chi)
        inv = bidouble_cross_check(theta, pg)
        row = bidouble_branch_data(theta, pg)
        print(
            f"{pg:>4} {theta:>6} {inv['K2']:>5} {inv['chi']:>4} {row.base_name:>7}  "
            f"D1={row.d1} D2={row.d2} D3={row.d3}"
        )
print("\nevery row cross-checked: bidouble formulas == intersection theory")
