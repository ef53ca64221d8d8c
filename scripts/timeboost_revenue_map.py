#!/usr/bin/env python3
"""Boost-fee revenue comparison over the (c/g, v/sigma) plane.

For normally distributed noise, the paper's line says separate sequencing
out-earns a shared sequencer exactly when c / g < 0.0684477 * v / sigma. This
script takes both revenues per bidder from one solver sweep over a log grid,
so a cell where nobody invests reads 0, and marks where separate sequencing
earns strictly more. Its ``threshold_v`` column is the value on the paper's
line at each c/g, which plots into the classic threshold-line picture.

Usage:
    python scripts/timeboost_revenue_map.py --out revenue_map.csv
"""

import argparse
import csv
import itertools
import math
import sys

import numpy as np

from seqlab.analysis import sweep
from seqlab.cost import CostModel
from seqlab.errors import ParameterError
from seqlab.noise import NoiseModel

#: The paper's line for normal noise, c/g = LINE * v / sigma: (3 - 2*sqrt(2)) times the peak density at sigma = 1.
LINE = (3.0 - 2.0 * math.sqrt(2.0)) / math.sqrt(2.0 * math.pi)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sigma", type=float, default=1.0, help="normal noise sigma")
    parser.add_argument("--g", type=float, default=1.0, help="boost bound g")
    parser.add_argument("--out", default="revenue_map.csv", help="output CSV path")
    args = parser.parse_args()

    values = np.geomspace(0.05, 20.0, 40).tolist()
    ratios = np.geomspace(1e-3, 1.0, 40).tolist()
    try:  # the c axis replaces the baseline's c, a positive one so that a bad g gets its own message
        table = sweep({"v": values, "c": [c_over_g * args.g for c_over_g in ratios]},
                      cost=CostModel.timeboost(ratios[0], args.g), noise=NoiseModel("normal", args.sigma))
    except ParameterError as exc:
        parser.error(str(exc))
    rows = [{
        "c_over_g": c_over_g,
        "v": v,
        "shared_revenue": row["shared_total_cost"],
        "separate_revenue": row["separate_total_cost"],
        "separate_beats": row["separate_total_cost"] > row["shared_total_cost"],
        "threshold_v": c_over_g * args.sigma / LINE,
    } for (v, c_over_g), row in zip(itertools.product(values, ratios), table)]

    with open(args.out, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
