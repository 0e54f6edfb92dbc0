"""Sparse-signal generation, measurement, and greedy recovery experiments.

This harness corroborates certified limits empirically: plant a K-sparse
vector, measure it through the matrix, reconstruct with orthogonal matching
pursuit, and count exact recoveries. Measurement vectors are plain complex
numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._codec import JsonReport
from ._linalg import dependent_mask
from .matrix_core import MeasurementMatrix, SupportSet

# Relative l2 error at or below this counts as exact recovery.
DEFAULT_RECOVERY_TOL = 1e-6


class DegenerateSupportError(ValueError):
    """The selected columns are rank deficient; least squares is ill posed."""


@dataclass(frozen=True, eq=False)
class SparseVector:
    """Length-N coefficient vector stored as (support, values on the support)."""

    length: int
    support: SupportSet
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.complex128)
        if vals.ndim != 1 or vals.size != len(self.support):
            raise ValueError(
                f"need one value per support index, got {vals.size} values "
                f"for support of size {len(self.support)}"
            )
        if len(self.support) and self.support.indices[-1] >= self.length:
            raise ValueError("support index out of range")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def nnz(self) -> int:
        return len(self.support)

    def to_dense(self) -> np.ndarray:
        x = np.zeros(self.length, dtype=np.complex128)
        if self.nnz:
            x[self.support.as_array()] = self.values
        return x


def generate_sparse_signal(n: int, k: int, seed) -> SparseVector:
    """K-sparse vector with uniformly random support, deterministic per seed.

    The values have unit modulus and uniform random phase.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= K <= N, got K={k}, N={n}")
    rng = np.random.default_rng(seed)
    support = np.sort(rng.choice(n, size=k, replace=False))
    values = np.exp(2j * np.pi * rng.random(k))
    return SparseVector(n, SupportSet(tuple(int(i) for i in support)), values)


def measure(a: MeasurementMatrix, x: SparseVector) -> np.ndarray:
    """Measurement vector y = A x."""
    if a.cols != x.length:
        raise ValueError(f"matrix has {a.cols} columns but signal has length {x.length}")
    return a.entries @ x.to_dense()


def ls_on_support(
    a: MeasurementMatrix, y: np.ndarray, s: SupportSet
) -> tuple[SparseVector, float]:
    """Least-squares fit restricted to the given support; returns (solution, residual).

    The selection must be overdetermined (at most M columns) and full rank.
    """
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != (a.rows,):
        raise ValueError(f"measurement vector must have length {a.rows}")
    if len(s) == 0:
        return SparseVector(a.cols, s, np.zeros(0)), float(np.linalg.norm(y))
    if len(s) > a.rows:
        raise ValueError(f"support size {len(s)} exceeds {a.rows} measurements")
    cols = a.entries[:, s.as_array()]
    if dependent_mask(cols[None])[0]:
        raise DegenerateSupportError(f"columns {s.indices} are rank deficient")
    coeffs, *_ = np.linalg.lstsq(cols, y, rcond=None)
    residual = float(np.linalg.norm(y - cols @ coeffs))
    return SparseVector(a.cols, s, coeffs), residual


def omp(
    a: MeasurementMatrix, y: np.ndarray, k_target: int, residual_tol: float = 1e-12
) -> tuple[SparseVector, float]:
    """Orthogonal matching pursuit: greedy column selection with LS refit.

    Each round picks the column with maximal absolute correlation against the
    current residual (ties resolve to the smallest index), then re-solves
    least squares on the accumulated support. Stops after ``k_target`` atoms
    or once the residual norm drops to ``residual_tol``. Unit-norm columns are
    recommended, otherwise correlations are biased toward heavy columns.
    """
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != (a.rows,):
        raise ValueError(f"measurement vector must have length {a.rows}")
    if k_target > a.rows:
        raise ValueError(f"k_target {k_target} exceeds {a.rows} measurements")
    picked: list[int] = []
    residual = y
    solution = SparseVector(a.cols, SupportSet(()), np.zeros(0))
    res_norm = float(np.linalg.norm(residual))
    for _ in range(k_target):
        if res_norm <= residual_tol:
            break
        corr = np.abs(a.entries.conj().T @ residual)
        corr[picked] = -1.0  # never reselect an atom
        picked.append(int(np.argmax(corr)))
        support = SupportSet(tuple(sorted(picked)))
        cols = a.entries[:, support.as_array()]
        coeffs, *_ = np.linalg.lstsq(cols, y, rcond=None)
        residual = y - cols @ coeffs
        res_norm = float(np.linalg.norm(residual))
        solution = SparseVector(a.cols, support, coeffs)
    return solution, res_norm


@dataclass(frozen=True)
class ExperimentReport(JsonReport):
    """Per-sparsity exact-recovery rates from a Monte-Carlo sweep."""

    matrix: str
    trials: int
    seed: int
    recovery_tol: float
    success_rate: dict[int, float]

    def to_csv(self) -> str:
        lines = ["K,success_rate"]
        lines += [f"{k},{v!r}" for k, v in sorted(self.success_rate.items())]
        return "\n".join(lines) + "\n"


def monte_carlo(
    a: MeasurementMatrix,
    k_range,
    trials: int,
    seed: int,
    recovery_tol: float = DEFAULT_RECOVERY_TOL,
) -> ExperimentReport:
    """Plant, measure, and recover ``trials`` signals per sparsity in ``k_range``.

    Per-trial randomness derives from (seed, K, trial index), so the report is
    independent of trial execution order.
    """
    ks = [int(k) for k in k_range]
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if any(k < 1 or k > a.rows for k in ks):
        raise ValueError(f"sparsities must lie in [1, {a.rows}], got {ks}")
    rates: dict[int, float] = {}
    for k in ks:
        successes = 0
        for t in range(trials):
            x = generate_sparse_signal(a.cols, k, seed=[seed, k, t])
            y = measure(a, x)
            x_hat, _ = omp(a, y, k_target=k)
            err = np.linalg.norm(x_hat.to_dense() - x.to_dense()) / np.linalg.norm(x.to_dense())
            if err <= recovery_tol:
                successes += 1
        rates[k] = successes / trials
    return ExperimentReport(
        matrix=a.describe(),
        trials=trials,
        seed=seed,
        recovery_tol=recovery_tol,
        success_rate=rates,
    )
