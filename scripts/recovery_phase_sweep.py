#!/usr/bin/env python3
"""Empirical recovery phase sweep: OMP success rate versus sparsity.

Draws a Gaussian measurement matrix, certifies it, then measures the
Monte-Carlo exact-recovery rate for every sparsity from 1 to M. The certified
coherence limit typically sits far below where OMP actually starts failing:
the certificates are worst-case guarantees, the sweep is average-case.
"""

import argparse
from pathlib import Path

from cscert import build_gaussian, certify, monte_carlo, normalize_columns


def run(args: argparse.Namespace) -> None:
    matrix = normalize_columns(build_gaussian(args.rows, args.cols, seed=args.seed))
    report = certify(matrix, k_max=min(args.rows, 4), budget=2_000_000)
    print(f"matrix: {matrix.describe()}")
    print(f"coherence {report.coherence:.4f}, certified coherence limit "
          f"K <= {report.coherence_limit}, spark limit K <= {report.spark_limit} "
          f"({'exact' if report.spark_exact else 'lower bound'})")

    sweep = monte_carlo(matrix, range(1, args.rows + 1), trials=args.trials, seed=args.seed)
    for k in sorted(sweep.success_rate):
        rate = sweep.success_rate[k]
        bar = "#" * round(40 * rate)
        print(f"K={k:2d}  {rate:6.1%}  {bar}")
    if args.out is not None:
        args.out.write_text(sweep.to_csv())
        print(f"wrote {args.out}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, default=10)
    ap.add_argument("--cols", type=int, default=24)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, default=None, help="write K,success_rate CSV here")
    run(ap.parse_args())


if __name__ == "__main__":
    main()
