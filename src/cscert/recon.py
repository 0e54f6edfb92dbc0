"""Sparse-signal generation, measurement, and greedy recovery experiments.

This harness corroborates certified limits empirically: plant a K-sparse
vector, measure it through the matrix, reconstruct with orthogonal matching
pursuit (OMP), and count exact recoveries. Measurement vectors are plain
complex numpy arrays.

OMP's output is defined by the *reference arithmetic*: after every pick, a
``np.linalg.lstsq`` refit on the sorted support, the residual
``r = y - A_S c``, its norm against ``residual_tol``, and the next pick as
the largest ``|A^H r|`` computed by gemv. ``_select`` gets the same picks
for a whole stack of measurement vectors in lockstep (``omp`` passes one
vector, ``monte_carlo`` every trial of one sparsity). Each step takes one
matrix product for all correlations, an argmax per row, and one
Gram-Schmidt update: the new column is orthogonalized twice against the
row's orthonormal basis Q (CGS2), and the residual loses its component along
the new basis vector. Final coefficients and residual come from ``lstsq`` on
the final sorted support, as in the reference loop's last refit.

The screen. The engine's residual r_g and correlations differ from the
reference ones in the last digits, and exact ties are real: on a real matrix
with unit-modulus signal values, the two true atoms of a K=2 signal tie at
step 1, since ``|x_i + g x_j| = |x_j + g x_i|`` for real ``g = a_i^H a_j``.
So an engine decision stands only when it cannot differ from the
reference's: a pick when the two largest unpicked correlations are more
than ``2 * amax * dev`` apart (``amax`` the largest column norm), a stop or
continue when ``||r_g||`` is more than ``dev`` from ``residual_tol``. A row
with any other step leaves the engine for good, and after the lockstep loop
``_reference_select``, the reference arithmetic itself, selects it again from
the start. So the engine holds only decisions it made itself, and every
support is the reference's.

Why ``dev`` bounds the difference. Let ``u = 2^-53``, S the support after k
picks, ``kappa = kappa_2(A_S)`` and ``r* = (I - P_S) y`` the exact residual.

* Reference residual. LAPACK's least-squares drivers are normwise backward
  stable (LAPACK Users' Guide, section 4.5): the computed c solves the
  problem for ``(A_S + E, y + f)`` exactly, with ``||E|| <= e ||A_S||`` and
  ``||f|| <= e ||y||``, where ``e = p u`` for a modest p; take
  ``e = M (k+1) u``. That problem's residual lies within
  ``(1 + 2 kappa) e ||y||`` of r* (Higham, *Accuracy and Stability of
  Numerical Algorithms*, Thm. 20.1). Going back to ``(A_S, y)`` costs
  ``||f|| + ||E c|| <= e (1 + kappa) ||y||``, since
  ``||c|| <= ||y|| / sigma_min``. Forming ``y - A_S c`` rounds by at most
  ``sqrt(2) gamma_(k+2) (||y|| + sqrt(k) ||A_S|| ||c||)``, below
  ``3 M (k+1) u (1 + kappa) ||y||``. In all,
  ``||r_ref - r*|| <= M (k+1) u (5 + 6 kappa) ||y||``.
* Engine residual. CGS2 gives ``A_S + D = Q R`` with ``||D|| <= e ||A_S||``
  and ``||I - Q^H Q|| <= eta`` (Giraud, Langou, Rozloznik and van den
  Eshof, Numer. Math. 101, 2005), both of order ``M k u`` while ``kappa u``
  is small; take ``e = eta = M (k+1) u``. Apart from rounding, r_g is y
  minus a combination of Q's columns, so its component orthogonal to
  range(Q) is exactly that of y, and its component in range(Q) is at most
  ``k eta ||y||``. The k updates round by at most ``3 M u ||y||`` each.
  range(Q) lies within ``e kappa`` of range(A_S) in projector norm
  (Wedin). In all, ``||r_g - r*|| <= M (k+1) u (3 + k + kappa) ||y||``.
* Correlations and norms. Each ``|a_j^H r|``, by gemv or by the batched
  product, rounds by at most ``5 M u ||a_j|| ||y||``; each norm by less.

So ``| |a_j^H r_ref| - |a_j^H r_g| | <= ||a_j|| ||y|| M (k+1) u
(18 + k + 7 kappa)``, and ``| ||r_ref|| - ||r_g|| |`` obeys the same bound
without ``||a_j||``. ``dev`` is that bound times ``_SAFETY``, which covers the
unspecified constants p of the cited backward errors. The engine bounds
kappa from the R factor it already holds: ``||A_S||_2 <= ||A_S||_F`` and
``1 / sigma_min(A_S)`` is ``||R^-1||_2 <= ||R^-1||_F`` up to a relative
``O(M k u kappa)``, so ``kappa <= 2 ||A_S||_F ||R^-1||_F``, both norms
accumulated as columns join (column k of ``R^-1`` is
``-R_(k-1)^-1 h / rho`` beside ``1 / rho``, with h and rho the new column's
projections and orthogonalized norm). On a normalized 10x24 Gaussian at k=5
kappa is about 3 and its bound about 14, so ``dev`` is about 6e-12 ``||y||``;
the largest difference measured on 219,074 (row, step) pairs of Gaussian and
partial inverse-DFT matrices was 3% of the bound before ``_SAFETY``.

The first-order terms above need ``kappa M k u`` small, so the screen also
sends off a row whose bound has passed ``_KAPPA_MAX``. A duplicate column, or
one in the span of those picked (``residual_tol=0`` can pick one), leaves an
orthogonalized norm rho near 0; rho is floored at ``||a_p|| / _KAPPA_MAX``, so
nothing divides by a vanishing norm and ``||R^-1||_F >= 1 / rho`` lifts the
bound to at least ``2 * _KAPPA_MAX``: the row leaves at the next screen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._codec import JsonReport
from .matrix_core import MeasurementMatrix, as_index

# Relative l2 error at or below this counts as exact recovery.
DEFAULT_RECOVERY_TOL = 1e-6

# OMP stops once the residual norm is at or below this.
DEFAULT_RESIDUAL_TOL = 1e-12

# Unit roundoff of IEEE double precision.
_U = np.finfo(np.float64).eps / 2

# Factor on the derived deviation bound, for the unspecified constants of
# the backward errors it rests on (module docstring).
_SAFETY = 8.0

# Past this bound on kappa(A_S) a row leaves the engine for the reference arithmetic.
_KAPPA_MAX = 1e8

# monte_carlo selects at most about this many state entries (signal, basis,
# R^-1) per batch of trials, so memory stays bounded for any trial count.
_BATCH_ENTRIES = 1 << 20


@dataclass(frozen=True, eq=False)
class SparseVector:
    """Length-N coefficient vector stored as (support, values on the support).

    The support is a strictly increasing tuple of indices in [0, length).
    """

    length: int
    support: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        length = as_index(self.length, "vector length")
        if length < 0:
            raise ValueError(f"vector length must be non-negative, got {length}")
        idx = tuple(as_index(i, "support index") for i in self.support)
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"support indices must be strictly increasing: {idx}")
        if idx and (idx[0] < 0 or idx[-1] >= length):
            raise ValueError(f"support indices must lie in [0, {length}): {idx}")
        vals = np.array(self.values, dtype=np.complex128)
        if vals.ndim != 1 or vals.size != len(idx):
            raise ValueError(
                f"need one value per support index, got {vals.size} values "
                f"for support of size {len(idx)}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "support", idx)
        object.__setattr__(self, "values", vals)

    @property
    def nnz(self) -> int:
        return len(self.support)

    def to_dense(self) -> np.ndarray:
        x = np.zeros(self.length, dtype=np.complex128)
        x[list(self.support)] = self.values
        return x


def _draw(n: int, k: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Sorted support and unit-modulus values of one K-sparse draw."""
    rng = np.random.default_rng(seed)
    support = np.sort(rng.choice(n, size=k, replace=False))
    return support, np.exp(2j * np.pi * rng.random(k))


def generate_sparse_signal(n: int, k: int, seed) -> SparseVector:
    """K-sparse vector with uniformly random support, deterministic per seed.

    The values have unit modulus and uniform random phase.
    """
    n, k = as_index(n, "vector length"), as_index(k, "sparsity")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= K <= N, got K={k}, N={n}")
    support, values = _draw(n, k, seed)
    return SparseVector(n, tuple(support.tolist()), values)


def _refit(a: np.ndarray, y: np.ndarray, support: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients on the sorted support, and the residual vector."""
    cols = a[:, support]
    coeffs, *_ = np.linalg.lstsq(cols, y, rcond=None)
    return coeffs, y - cols @ coeffs


def _reference_select(a, y, k_target: int, residual_tol: float) -> np.ndarray:
    """The sorted support that the reference arithmetic (module docstring) selects for ``y``."""
    a_h = a.conj().T
    picked = []
    for _ in range(k_target):
        residual = _refit(a, y, np.sort(picked))[1] if picked else y
        if np.linalg.norm(residual) <= residual_tol:
            break
        corr = np.abs(a_h @ residual)
        corr[picked] = -1.0
        picked.append(int(np.argmax(corr)))
    return np.sort(np.array(picked, dtype=np.intp))


def _select(a: np.ndarray, ys: np.ndarray, k_target: int, residual_tol: float) -> list[np.ndarray]:
    """OMP supports, as sorted index arrays, of every row of ``ys`` in lockstep.

    A row leaves the engine at the first step whose pick or stop the screen
    cannot clear, and ``_reference_select`` selects it again (module docstring).
    """
    rows, m = ys.shape
    a_conj = a.conj()
    col_norm = np.linalg.norm(a, axis=0)
    amax = col_norm.max()
    y_norm = np.linalg.norm(ys, axis=1)
    picks = np.full((rows, k_target), -1, dtype=np.intp)  # -1: not picked
    basis = np.zeros((rows, k_target, m), dtype=np.complex128)  # rows of Q
    r_inv = np.zeros((rows, k_target, k_target), dtype=np.complex128)
    r_inv_sq = np.zeros(rows)  # ||R^-1||_F^2
    cols_sq = np.zeros(rows)  # ||A_S||_F^2
    departed = np.zeros(rows, dtype=bool)  # rows the screen sent to _reference_select
    res = ys.astype(np.complex128)
    live = np.arange(rows)
    for i in range(k_target):
        r = res[live]
        kappa = 2.0 * np.sqrt(cols_sq[live] * r_inv_sq[live])
        dev = _SAFETY * m * (i + 1) * _U * (18 + i + 7 * kappa) * y_norm[live]
        res_norm = np.linalg.norm(r, axis=1)
        corr = np.abs(r @ a_conj)
        corr[np.arange(live.size)[:, None], picks[live, :i]] = -1.0
        pick = corr.argmax(axis=1)
        top = corr[np.arange(live.size), pick]
        rival = np.partition(corr, -2, axis=1)[:, -2] if a.shape[1] > 1 else -1.0
        stop = res_norm + dev <= residual_tol
        sure = (res_norm - dev > residual_tol) & (top - rival > 2 * amax * dev)
        cleared = (kappa <= _KAPPA_MAX) & (stop | sure)
        departed[live[~cleared]] = True
        live, pick = live[cleared & ~stop], pick[cleared & ~stop]
        picks[live, i] = pick
        if i == k_target - 1 or not live.size:
            break
        # CGS2: orthogonalize the new columns twice against each row's basis
        q = basis[live, :i]
        v = a.T[pick]
        h = np.zeros((live.size, i), dtype=np.complex128)
        for _ in range(2):
            c = np.einsum("gim,gm->gi", q.conj(), v)
            v = v - np.einsum("gi,gim->gm", c, q)
            h += c
        # the floor keeps the update finite and lifts kappa's bound past _KAPPA_MAX
        rho = np.maximum(np.linalg.norm(v, axis=1), col_norm[pick] / _KAPPA_MAX)
        q_new = v / rho[:, None]
        basis[live, i] = q_new
        res[live] -= q_new * np.einsum("gm,gm->g", q_new.conj(), res[live])[:, None]
        col = -np.einsum("gij,gj->gi", r_inv[live, :i, :i], h) / rho[:, None]
        r_inv[live, :i, i] = col
        r_inv[live, i, i] = 1.0 / rho
        r_inv_sq[live] += np.sum(col.real**2 + col.imag**2, axis=1) + rho**-2.0
        cols_sq[live] += col_norm[pick] ** 2
    return [_reference_select(a, y, k_target, residual_tol) if gone
            else np.sort(row[row >= 0]) for y, row, gone in zip(ys, picks, departed)]


def _recover(a: np.ndarray, ys: np.ndarray, k_target: int, residual_tol: float):
    """Yield (support, coefficients, residual vector) per row of ``ys``.

    Supports come from ``_select``; coefficients and residual from the
    reference refit on the final sorted support.
    """
    for y, support in zip(ys, _select(a, ys, k_target, residual_tol)):
        yield support, *_refit(a, y, support)


def check_tol(tol: float, name: str) -> None:
    """Raise ``ValueError`` unless ``tol`` is a finite non-negative number."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"{name} must be a finite non-negative number, got {tol}")


def omp(
    a: MeasurementMatrix, y: np.ndarray, k_target: int, residual_tol: float = DEFAULT_RESIDUAL_TOL
) -> tuple[SparseVector, float]:
    """Orthogonal matching pursuit: greedy column selection with LS refit.

    Each round picks the column with maximal absolute correlation against the
    current residual, then re-solves least squares on the accumulated
    support. Correlations that are bit-equal resolve to the smallest index;
    correlations equal in exact arithmetic but not in their bits resolve as
    the rounding of the reference arithmetic (module docstring) orders them.
    Stops after ``k_target`` atoms (none when it is 0) or once the residual
    norm drops to ``residual_tol``. Unit-norm columns are recommended,
    otherwise correlations are biased toward heavy columns.

    The screened selection engine, or the plain loop where its screen cannot
    clear a step, gives the reference loop's result bit for bit.
    """
    check_tol(residual_tol, "residual_tol")
    k_target = as_index(k_target, "k_target")
    if k_target < 0:
        raise ValueError(f"k_target must be non-negative, got {k_target}")
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != (a.rows,):
        raise ValueError(f"measurement vector must have shape {(a.rows,)}, got {y.shape}")
    if k_target > min(a.rows, a.cols):
        raise ValueError(
            f"k_target {k_target} exceeds min(M, N) = {min(a.rows, a.cols)} "
            f"for a {a.rows}x{a.cols} matrix"
        )
    support, coeffs, residual = next(_recover(a.entries, y[None], k_target, residual_tol))
    solution = SparseVector(a.cols, tuple(support.tolist()), coeffs)
    return solution, float(np.linalg.norm(residual))


def _recoveries(a: MeasurementMatrix, k: int, seeds, recovery_tol: float) -> int:
    """Exact recoveries among the K-sparse trials drawn from ``seeds``, selected in one batch."""
    signals = np.zeros((len(seeds), a.cols), dtype=np.complex128)
    for x, seed in zip(signals, seeds):
        support, values = _draw(a.cols, k, seed)
        x[support] = values
    ys = np.array([a.entries @ x for x in signals])
    hits = 0
    for x, (support, coeffs, _) in zip(signals, _recover(a.entries, ys, k, DEFAULT_RESIDUAL_TOL)):
        x_hat = np.zeros(a.cols, dtype=np.complex128)
        x_hat[support] = coeffs
        hits += bool(np.linalg.norm(x_hat - x) / np.linalg.norm(x) <= recovery_tol)
    return hits


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
    independent of trial execution order. Each trial is drawn and measured on
    its own; the selection engine then recovers the trials of one sparsity
    in lockstep, in batches of bounded memory, with ``omp``'s default
    residual tolerance.
    """
    ks = [as_index(k, "sparsity") for k in k_range]
    check_tol(recovery_tol, "recovery_tol")
    trials = as_index(trials, "trials")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    limit = min(a.rows, a.cols)
    if any(k < 1 or k > limit for k in ks):
        raise ValueError(f"sparsities must lie in [1, min(M, N)] = [1, {limit}], got {ks}")
    rates: dict[int, float] = {}
    for k in ks:
        batch = max(1, _BATCH_ENTRIES // (a.cols + k * (a.rows + k)))
        seeds = [[seed, k, t] for t in range(trials)]
        hits = sum(_recoveries(a, k, seeds[s:s + batch], recovery_tol)
                   for s in range(0, trials, batch))
        rates[k] = hits / trials
    return ExperimentReport(
        matrix=a.describe(),
        trials=trials,
        seed=seed,
        recovery_tol=recovery_tol,
        success_rate=rates,
    )
