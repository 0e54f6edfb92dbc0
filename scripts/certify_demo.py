#!/usr/bin/env python3
"""Certify the bundled 5x8 demo matrix and evaluate missing-sample limits.

Reproduces the full certification chain on the demo fixture: spark, coherence
with its tie set, Welch bound, the RIP profile with per-order condition-number
bounds, and the derived sparsity limits. Then it evaluates the DFT uniqueness
limit for a 32-sample signal with 9 missing samples, where the decimation
lower bound meets the paper's closed form. Last, it cross-checks the proven
limit against the exhaustive rank oracle on N=16 with missing {3, 5, 11, 13},
where the closed form says 3 but the limit is 2.
"""

from pathlib import Path

from cscert import (
    MissingSamplePattern,
    certify,
    dft_sparsity_limit,
    dft_uniqueness_oracle,
    load_matrix_csv,
)

REPO = Path(__file__).resolve().parents[1]


def main():
    matrix = load_matrix_csv(REPO / "data" / "demo_matrix_5x8.csv")
    report = certify(matrix, k_max=5)
    print(report.to_text())

    pattern = MissingSamplePattern.of(32, [2, 3, 8, 13, 19, 22, 23, 28, 30])
    print(dft_sparsity_limit(pattern).to_text())

    pattern = MissingSamplePattern.of(16, [3, 5, 11, 13])
    result = dft_sparsity_limit(pattern)
    print(result.to_text())
    for k in (result.k_max, result.k_max + 1):
        unique = dft_uniqueness_oracle(pattern, k)
        verdict = "every K-sparse spectrum is unique" if unique else "two K-sparse spectra collide"
        print(f"exhaustive rank oracle at K={k}: {verdict}")


if __name__ == "__main__":
    main()
