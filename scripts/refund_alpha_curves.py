#!/usr/bin/env python3
"""Equilibrium signal as a function of the loser's cost share.

Sweeps the refund fraction alpha from 0 (losers pay nothing) to 1 (sunk
cost) for a few cost elasticities, as one sweep over the beta x alpha grid,
and writes both sequencing modes' signals and expected profits. The signal should fall as alpha rises: the cheaper it
is to lose, the harder both traders bid.

Usage:
    python scripts/refund_alpha_curves.py --v 1.0 --out refund_curves.csv
"""

import argparse
import csv
import math
import sys

from seqlab import ConfigError, CostModel, NoiseModel, ParameterError, sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--v", type=float, default=1.0, help="trade value")
    parser.add_argument("--betas", default="2,3,5", help="comma-separated cost elasticities")
    parser.add_argument("--steps", type=int, default=21, help="alpha grid points on [0, 1]")
    parser.add_argument("--out", default="refund_curves.csv", help="output CSV path")
    args = parser.parse_args()
    if args.steps < 2:
        parser.error(f"--steps needs at least 2 alpha grid points, got {args.steps}")
    try:
        betas = [float(b) for b in args.betas.split(",")]
    except ValueError:
        parser.error(f"--betas needs comma-separated numbers, got {args.betas!r}")

    noise = NoiseModel("normal", 1.0 / math.sqrt(2.0 * math.pi))  # peak density 1
    alphas = [k / (args.steps - 1) for k in range(args.steps)]
    try:
        grid = sweep({"beta": betas, "alpha": alphas}, v=args.v, cost=CostModel.power(betas[0]), noise=noise)
    except (ConfigError, ParameterError) as exc:
        parser.error(str(exc))
    rows = [
        {
            "beta": row["beta"],
            "alpha": round(row["alpha"], 6),
            "shared_signal": row["shared_signal"],
            "shared_profit": row["shared_expected_profit"],
            "separate_signal": row["separate_signal"],
            "separate_profit": row["separate_expected_profit"],
        }
        for row in grid
    ]

    with open(args.out, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
