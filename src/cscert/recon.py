"""Sparse-signal generation, measurement, and greedy recovery experiments.

This harness corroborates certified limits empirically: plant a K-sparse
vector, measure it through the matrix, reconstruct with orthogonal matching
pursuit (OMP), and count exact recoveries. Measurement vectors are plain
complex numpy arrays.

OMP's output is defined by the *reference arithmetic*: after every pick, a
``np.linalg.lstsq`` refit on the sorted support, the residual
``r = y - A_S c``, its norm against ``residual_tol``, and the next pick as
the largest ``|A^H r|`` computed by gemv. ``omp`` runs that loop itself
(``_reference_select``, then one refit on the final sorted support).
``monte_carlo`` gets the same picks from ``_select``, for every trial of one
sparsity in lockstep. Each step takes one matrix product for all
correlations, an argmax per row, and one Gram-Schmidt update: the new column
is orthogonalized twice against the row's orthonormal basis Q (CGS2), and
the residual loses its component along the new basis vector.

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
bound to at least ``2 * _KAPPA_MAX``: the row leaves at the next screen. The
update also runs after the last pick, so a row's final bound covers its whole
support. A pick whose correlation is 0 leaves the engine: only the last
unpicked column can win so, and a zero column's floor would be 0.

Scoring. ``monte_carlo`` counts a trial as a hit when the reference refit on
the selected support S gives ``||x_hat - x|| / ||x|| <= recovery_tol``, both
norms as computed. S and the true support T (``|T| = K``, ``|x_i| = 1`` on
T) fix that outcome for most trials, so only the others are refit:

* Sure miss. If T is not within S (so ``S != T``, as ``|S| <= K``), x_hat is
  exactly 0 at some i in T but not in S, where ``|x_i| = 1``: the computed
  ratio is at least ``(1 - O(N u)) / sqrt(K)``, whatever the refit returns, NaN
  included. The trial is a miss whenever ``recovery_tol * sqrt(K) < 1/2``.
* Sure hit. Let ``S = T`` with the row still in the engine, ``F =
  ||A_T||_F`` and ``sigma = sigma_min(A_T)``. The N - K zeros of x add exact
  zeros to the gemv, so ``y = A_T x_T + dy`` with ``|dy| <= sqrt(2)
  gamma_(K+1) |A_T| |x_T|``, hence ``||dy|| <= 2 (K+1) u F ||x||``. By the
  backward stability of LAPACK's ``gelsd`` (above), the coefficients c solve
  the problem for ``(A_T + E, y + f)`` exactly, ``||E|| <= e F`` and ``||f||
  <= e ||y||`` with ``e = M (K+1) u``. The unperturbed problem ``(A_T, A_T
  x_T)`` has residual 0, where Higham's Thm. 20.1 loses its ``kappa^2`` term
  and is the identity ``c - x_T = (A_T + E)^+ (dy + f - E x_T)``. So
  ``||c - x_T|| <= 2 (M+2) (K+1) u F ||x|| / (sigma - e F)``. The engine's
  final bound has ``F / sigma <= kappa``, and with ``e kappa <= 1/2`` the
  relative error is at most ``beta = 4 (M+2) (K+1) u kappa``. x_hat - x
  vanishes off T and rounds by u per entry on it; the two norms and the
  quotient round by a relative ``gamma_(2N+2)``, so the computed ratio is at
  most ``2 beta``. A trial scores a hit when ``kappa <= _KAPPA_MAX`` and
  ``_SAFETY * beta <= recovery_tol / 2`` (then ``e kappa < 1/128``).
* Everything else is refit: rows the screen sent off, ``recovery_tol = 0``,
  and ``recovery_tol * sqrt(K) >= 1/2``, where neither argument is used.

On 50 normalized 10x24 Gaussians at K=1..10 with 20 trials each, 7,149 of
10,000 trials select a wrong support and 2,001 settle as hits. The 850 refit
(8.5%) are the rows that left the engine with the right support.
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


def _select(a: np.ndarray, ys: np.ndarray, k_target: int,
            residual_tol: float) -> tuple[list[np.ndarray], np.ndarray]:
    """OMP supports, as sorted index arrays, of every row of ``ys`` in lockstep.

    A row leaves the engine at the first step whose pick or stop the screen
    cannot clear, and ``_reference_select`` selects it again (module docstring).
    Also returns each row's bound on ``kappa_2`` of its whole support, inf for
    the rows that left.
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
        sure = (res_norm - dev > residual_tol) & (top - rival > 2 * amax * dev) & (top > 0)
        cleared = (kappa <= _KAPPA_MAX) & (stop | sure)
        departed[live[~cleared]] = True
        live, pick = live[cleared & ~stop], pick[cleared & ~stop]
        if not live.size:
            break
        picks[live, i] = pick
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
    supports = [_reference_select(a, y, k_target, residual_tol) if gone
                else np.sort(row[row >= 0]) for y, row, gone in zip(ys, picks, departed)]
    return supports, np.where(departed, np.inf, 2.0 * np.sqrt(cols_sq * r_inv_sq))


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

    This is the reference arithmetic (module docstring) itself: on one
    vector the plain loop is two to three times faster than the lockstep
    engine, which gives the same support.
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
    support = _reference_select(a.entries, y, k_target, residual_tol)
    coeffs, residual = _refit(a.entries, y, support)
    solution = SparseVector(a.cols, tuple(support.tolist()), coeffs)
    return solution, float(np.linalg.norm(residual))


def _recoveries(a: MeasurementMatrix, k: int, seeds, recovery_tol: float) -> int:
    """Exact recoveries among the K-sparse trials drawn from ``seeds``, selected in one batch.

    A trial is refit only when its selected support cannot settle it (module
    docstring, "Scoring").
    """
    signals = np.zeros((len(seeds), a.cols), dtype=np.complex128)
    truth = np.empty((len(seeds), k), dtype=np.intp)
    for x, t, seed in zip(signals, truth, seeds):
        t[:], values = _draw(a.cols, k, seed)
        x[t] = values
    ys = np.array([a.entries @ x for x in signals])
    supports, kappa = _select(a.entries, ys, k, DEFAULT_RESIDUAL_TOL)
    # a support missing a true atom misses by about 1 / sqrt(K)
    settles = recovery_tol * math.sqrt(k) < 0.5
    # bound on the refit's relative error on the true support
    beta = 4 * (a.rows + 2) * (k + 1) * _U * kappa
    sure_hit = settles & (kappa <= _KAPPA_MAX) & (_SAFETY * beta <= recovery_tol / 2)
    hits = 0
    for x, y, t, support, sure in zip(signals, ys, truth, supports, sure_hit):
        right = np.array_equal(support, t)
        if sure and right:
            hits += 1
        elif right or not settles:
            x_hat = np.zeros(a.cols, dtype=np.complex128)
            x_hat[support] = _refit(a.entries, y, support)[0]
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
    independent of trial execution order. A repeated sparsity is swept once.
    Each trial is drawn and measured on its own; the selection engine then
    recovers the trials of one sparsity in lockstep, in batches of bounded
    memory, with ``omp``'s default residual tolerance. A trial is scored from
    its selected and true supports where they settle it, and otherwise by the
    reference refit (module docstring, "Scoring"); the rates are those of
    refitting every trial.
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
    for k in dict.fromkeys(ks):
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
