#!/usr/bin/env python3
"""Print the three reference tables and write the full sweep CSV.

Usage: python scripts/reproduce_tables.py [output.csv]
"""

import sys

from blochcomplexity.cli import main

out = sys.argv[1] if len(sys.argv) > 1 else "sweep.csv"

status = 0
for which in ("I", "II", "III"):
    print(f"--- table {which} ---")
    status |= main(["tables", which])
    print()

status |= main(["sweep", "--out", out])
print(f"sweep written to {out}")
sys.exit(status)
