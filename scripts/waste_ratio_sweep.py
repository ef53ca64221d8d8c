#!/usr/bin/env python3
"""Latency-waste comparison across cost elasticities.

Tabulates the shared and separate equilibrium expenditure for a range of
cost elasticities and trade values, together with the interior-regime ratio
2^(1/(beta-1)). Shared sequencing wastes more on latency whenever both modes
are interior; this script emits the CSV to eyeball exactly where that holds
and where participation fails instead.

Usage:
    python scripts/waste_ratio_sweep.py --sigma 1.0 --out waste_ratio.csv
"""

import argparse
import csv
import sys

import numpy as np

from seqlab import CostModel, NoiseModel, ParameterError, sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sigma", type=float, default=1.0, help="normal noise sigma")
    parser.add_argument("--out", default="waste_ratio.csv", help="output CSV path")
    args = parser.parse_args()

    axes = {
        "beta": np.round(np.arange(1.25, 8.01, 0.25), 2).tolist(),
        "v": [0.1, 0.5, 1.0, 2.0],
    }
    try:
        rows = sweep(axes, cost=CostModel.power(2.0), noise=NoiseModel("normal", args.sigma))
    except ParameterError as exc:
        parser.error(str(exc))
    for row in rows:
        beta = row["beta"]
        row["interior_ratio_formula"] = 2.0 ** (1.0 / (beta - 1.0))

    with open(args.out, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
