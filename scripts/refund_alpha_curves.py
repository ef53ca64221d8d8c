#!/usr/bin/env python3
"""Equilibrium signal as a function of the loser's cost share.

Sweeps the refund fraction alpha from 0 (losers pay nothing) to 1 (sunk
cost) for a few cost elasticities and writes both sequencing modes' signals
and expected profits. The signal should fall as alpha rises: the cheaper it
is to lose, the harder both traders bid.

Usage:
    python scripts/refund_alpha_curves.py --v 1.0 --out refund_curves.csv
"""

import argparse
import csv
import math
import sys

from seqlab import CostModel, MarketConfig, NoiseModel, solve_equilibrium


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--v", type=float, default=1.0, help="trade value")
    parser.add_argument("--betas", default="2,3,5", help="comma-separated cost elasticities")
    parser.add_argument("--steps", type=int, default=21, help="alpha grid points on [0, 1]")
    parser.add_argument("--out", default="refund_curves.csv", help="output CSV path")
    args = parser.parse_args()

    noise = NoiseModel("normal", 1.0 / math.sqrt(2.0 * math.pi))  # peak density 1
    betas = [float(b) for b in args.betas.split(",")]
    rows = []
    for beta in betas:
        cost = CostModel.power(beta)
        for k in range(args.steps):
            alpha = k / (args.steps - 1)
            shared = solve_equilibrium(MarketConfig(args.v, 1, alpha), cost, noise)
            separate = solve_equilibrium(MarketConfig(args.v, 2, alpha), cost, noise)
            rows.append({
                "beta": beta,
                "alpha": round(alpha, 6),
                "shared_signal": shared.signal,
                "shared_profit": shared.expected_profit,
                "separate_signal": separate.signal,
                "separate_profit": separate.expected_profit,
            })

    with open(args.out, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
