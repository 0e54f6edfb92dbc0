"""Spark, mutual coherence, Welch bound, and restricted-isometry certification.

The guaranteed-unique sparsity limits derived here follow three routes:

* spark: a K-sparse solution is unique whenever ``K < spark/2``;
* coherence: unique whenever ``K < (1 + 1/mu) / 2`` (Gershgorin disc argument
  on the Gram matrix), which also yields ``spark >= 1 + 1/mu``;
* restricted isometry: unique whenever ``delta_{2K} < 1``, with the tighter
  thresholds ``sqrt(2) - 1`` and ``0.493`` guaranteeing that l1 minimization
  finds the same solution as l0 minimization.

Spark and the isometry constants are combinatorial: every K-column subset is
enumerated, so both operations take an evaluation budget and flag their result
as approximate (a lower bound) when the budget runs out before the sweep ends.
``spark`` spends one budget across all subset sizes and ``rip_profile`` one
across all orders, but ``certify`` gives each of the two the full budget, so a
certification may evaluate up to twice its budget. Spark's ``evaluations`` is
the logical sequential-scan count: subsets up to and including the first
dependent one, whatever order the search actually takes.

Spark first sweeps the largest size, min(M, N), when the sequential count of
every size up to it fits the budget: deleting a column never lowers
``sigma_min / sigma_max`` (singular-value interlacing), so if no subset of
that size is dependent even under twice the rank tolerance, no smaller subset
is dependent under the tolerance itself. On a partial Fourier matrix that
sweep tests one subset per cyclic-shift orbit (``_linalg.any_dependent``):
shifted columns have the same singular values, up to a rounding that the
doubled tolerance absorbs. On any flag it scans sizes upward in lexicographic
order as before. So the rank tests actually run can reach C(N, min(M, N))
plus the budget. Every rank test is screened by a Cholesky certificate on the
subset's Gram submatrix and falls back to the SVD rule only where the screen
cannot clear the subset (see ``_linalg``); verdicts are the SVD rule's.

RIP constants count every subset, but only subsets whose deviation
``||G_S - I||_2`` can exceed the largest one seen so far, d, get
``eigvalsh``. The others are excluded by proving ``lambda_max(G_S) < 1 + d``,
cheapest test first (Gershgorin row sums of ``|G_S|``, one power step on
them, then the Cholesky kernel on a shifted Gram), and ``lambda_min(G_S) >
1 - d`` by the Cholesky kernel alone. Each bound keeps a margin of
``8 K^3 eps`` times the largest Gram diagonal, above the rounding of the
tests and of ``eigvalsh``. Once d is past 1 by that margin plus the furthest
a computed Gram eigenvalue can land below 0, no lower side can raise d, and
it is skipped (see ``rip_constant``). So delta, and every reported digit, is
that of a plain ``eigvalsh`` scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ._codec import JsonReport
from ._linalg import (
    DEFAULT_BUDGET,
    RANK_RTOL,
    any_dependent,
    check_budget,
    iter_combination_chunks,
    positive_definite,
    rank_test,
    sweep,
)
from .matrix_core import MeasurementMatrix, as_index, gram, normalize_columns

# Two published thresholds on delta_{2K} for l0/l1 equivalence.
L1_THRESHOLD_SQRT2 = math.sqrt(2.0) - 1.0
L1_THRESHOLD_0493 = 0.493

# Normalized Gram magnitudes within this relative band of the maximum count as
# joint coherence maximizers; keeps the reported pair stable under BLAS noise.
_TIE_RTOL = 1e-12


class NormalizationError(ValueError):
    """The operation requires unit-norm columns."""


def _require_unit_columns(a: MeasurementMatrix) -> None:
    if not a.normalized:
        raise NormalizationError(
            "isometry constants assume unit-norm columns; apply normalize_columns first"
        )


class SparkResult(NamedTuple):
    value: int | None  # None: no dependent column subset exists (full column rank)
    exact: bool
    evaluations: int


class CoherenceResult(NamedTuple):
    mu: float
    pair: tuple[int, int]
    ties: tuple[tuple[int, int], ...]


class RipResult(NamedTuple):
    delta: float
    exact: bool
    evaluations: int


def spark(a: MeasurementMatrix, budget: int = DEFAULT_BUDGET) -> SparkResult:
    """Smallest number of linearly dependent columns, by exhaustive enumeration.

    The result is that of scanning subset sizes k = 1, 2, ... and returning
    the first k admitting a rank-deficient M x k submatrix. If every subset up
    to size min(M, N) is full rank, the spark is M+1 for a wide matrix (any
    M+1 columns of an M-row matrix are dependent); for N <= M no dependent
    subset exists at all and ``value`` is None. ``evaluations`` counts subsets
    as that sequential scan would, up to and including the first dependent
    one; one ``budget`` caps it across all sizes. On budget exhaustion the
    best-known lower bound is returned with ``exact=False``.

    When the whole scan fits the budget, size min(M, N) is swept first under
    twice the rank tolerance (``_linalg.any_dependent``). If it flags nothing,
    every smaller subset is independent too (interlacing), and the scan's
    result follows without it.
    When the columns have cyclic shift structure (``_linalg.shift_invariant``)
    that sweep tests one subset per shift orbit, about C(N, min(M, N)) / N
    rank tests. If it flags anything, the upward scan runs, so the rank tests
    actually run can reach C(N, min(M, N)) plus the budget. Each rank test is
    screened with a Cholesky certificate on the subset's Gram submatrix
    (``_linalg.rank_test``), and only subsets the screen cannot clear get an
    SVD.
    """
    budget = check_budget(budget)
    m, n = a.shape
    top = min(m, n)
    total = sum(math.comb(n, k) for k in range(1, top + 1))
    full_rank = SparkResult(m + 1 if n > m else None, True, total)
    if total <= budget and not any_dependent(a.entries, top, 2 * RANK_RTOL):
        return full_rank
    evaluate = rank_test(a.entries)
    used = 0
    for k in range(1, top + 1):
        run = sweep(iter_combination_chunks(n, k), evaluate, budget - used)
        used += run.covered
        if run.hit or not run.exact:
            # a cut sweep verified sizes < k fully, size k only partially
            return SparkResult(k, run.exact, used)
    return full_rank


def coherence(a: MeasurementMatrix) -> CoherenceResult:
    """Maximal normalized absolute inner product between distinct columns.

    Returns the maximum ``mu``, one maximizing pair (the lexicographically
    smallest), and every pair attaining the maximum within a relative 1e-12
    band. Ties are genuinely common: equiangular frames tie on all pairs.
    """
    m, n = a.shape
    if n < 2:
        raise ValueError("coherence needs at least two columns")
    # normalize first: a Gram of columns near 1e-170 or 1e160 under- or overflows
    x = normalize_columns(a).entries
    g = np.abs(x.conj().T @ x)
    iu, ju = np.triu_indices(n, k=1)
    vals = g[iu, ju]
    mu = float(vals.max())
    tied = vals >= mu * (1.0 - _TIE_RTOL)
    ties = tuple(zip(iu[tied].tolist(), ju[tied].tolist()))
    return CoherenceResult(mu, ties[0], ties)


def welch_bound(m: int, n: int) -> float:
    """Lower bound sqrt((N-M)/(M(N-1))) on the coherence of an M x N matrix."""
    if n < 2:
        raise ValueError(f"need at least two columns, got n={n}")
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    return math.sqrt((n - m) / (m * (n - 1)))


def rip_constant(a: MeasurementMatrix, k: int, budget: int = DEFAULT_BUDGET) -> RipResult:
    """Isometry constant delta_K, the largest ``||G_S - I||_2`` over K-column subsets S.

    G_S is the Gram matrix of subset S, a principal K x K submatrix of the
    full Gram, and ``dev(S) = ||G_S - I||_2 = max(1 - lambda_min(G_S),
    lambda_max(G_S) - 1)``. Requires unit-norm columns; with an exhausted
    budget the result is the lower bound seen so far, flagged ``exact=False``.

    Only subsets whose deviation can exceed the running maximum d get
    ``eigvalsh``; every subset of the first chunk does, while d is -inf. A
    later subset is excluded when both of its sides pass, each side trying
    its cheapest test first, on the real Gram when the matrix is real:

    * upper: the largest Gershgorin row sum ``r_i = sum_(j in S) |g_ij|``,
      from one gather of ``|G|``, is below ``1 + d - m``; or else the
      largest ``(|G_S| r)_i / r_i``, one power step that can only lower that
      bound (Collatz-Wielandt: ``lambda_max(G_S) <= rho(|G_S|) <=
      max_i (|G_S| x)_i / x_i`` for any positive x); or else
      ``(1 + d - m) I - G_S`` passes ``_linalg.positive_definite``;
    * lower: ``1 - d + m <= -slack``; or else ``G_S - (1 - d + m) I`` passes
      ``positive_definite``.

    Each test proves ``lambda_max(G_S) < 1 + d - m`` or
    ``lambda_min(G_S) > 1 - d + m`` up to its own rounding. The margin
    ``m = 8 K^3 eps max(diag G)`` covers that rounding and ``eigvalsh``'s,
    so an excluded subset's computed deviation is at most d:

    * the Cholesky certificate's backward error is at most about
      ``K (K + 1) eps ||A||`` for the shifted matrix A, and
      ``||A|| <= 2 K max(diag G)``;
    * a row sum or power step errs by about ``K^2 eps max(diag G)``;
    * ``eigvalsh`` errs by at most about ``K^2 eps ||G_S||`` (LAPACK bounds
      it by ``p(K) eps ||G_S||`` for a modest ``p``).

    For unit columns m is 6e-13 at K = 7 and 1.4e-11 at K = 20, so a fixed
    margin such as 1e-12 would not cover larger orders.

    Skipping the lower side is exact. ``slack = 8 (M + K^2) K eps
    max(diag G)`` is the furthest a computed Gram eigenvalue can land below
    0. The exact Gram of any subset is positive semidefinite. Each computed
    entry is off by at most about ``M eps ||a_i|| ||a_j|| <= M eps
    max(diag G)``, twice that for complex entries, so the computed G_S is off
    by at most ``2 K M eps max(diag G)`` in norm. ``eigvalsh`` adds at most
    about ``K^2 eps ||G_S|| <= K^3 eps max(diag G)``. Once
    ``1 - d + m <= -slack``, every computed ``1 - lambda_min`` is at most
    ``1 + slack <= d - m``, so no lower side can raise d. On normalized 7x16
    and 8x16 Gaussians the first chunk alone puts d past 1 in 80% of cases
    at order 3, 96% at order 4 and all from order 5 on.

    Every subset not excluded gets ``eigvalsh`` on the same complex Gram as
    without the certificate. ``fl(1 - x)`` and ``fl(x - 1)`` are monotone, so
    delta is the float a plain ``eigvalsh`` scan gives,
    ``max(1 - min lambda_min, max lambda_max - 1)``.
    """
    m, n = a.shape
    k = as_index(k, "order")
    if not 1 <= k <= min(m, n):
        raise ValueError(f"order must satisfy 1 <= K <= min(M, N) = {min(m, n)}, got {k}")
    budget = check_budget(budget)
    _require_unit_columns(a)
    g = gram(a)
    scale = np.finfo(float).eps * float(g.diagonal().real.max())
    margin = 8 * k**3 * scale
    slack = 8 * (m + k**2) * k * scale
    screen = g.real if not g.imag.any() else g
    magnitude = np.abs(screen)
    d = -math.inf

    def definite(c, shift, upper):
        # whether shift * I - G_S (upper) or G_S - shift * I is positive definite
        stack = screen[c[:, None, :], c[None, :, :]]
        np.einsum("iib->ib", stack)[...] -= shift
        if upper:
            np.negative(stack, out=stack)
        return positive_definite(stack)

    def deviation(combs):
        nonlocal d
        unsure = np.ones(len(combs), dtype=bool)
        if d > -math.inf:
            c = combs.T
            moduli = magnitude[c[:, None, :], c[None, :, :]]
            rows = moduli.sum(axis=1)
            top, bottom = 1.0 + d - margin, 1.0 - d + margin
            inside = rows.max(axis=0) < top
            rest = np.flatnonzero(~inside)
            if len(rest):
                # one power step on |G_S| from its row sums (Collatz-Wielandt)
                r = rows[:, rest]
                step = np.einsum("ijb,jb->ib", moduli[:, :, rest], r) / r
                inside[rest] = step.max(axis=0) < top
                rest = rest[~inside[rest]]
                if len(rest):
                    inside[rest] = definite(c[:, rest], top, upper=True)
            if bottom > -slack and inside.any():
                inside[inside] = definite(c[:, inside], bottom, upper=False)
            unsure = ~inside
        if unsure.any():
            c = combs[unsure]
            w = np.linalg.eigvalsh(g[c[:, :, None], c[:, None, :]])
            d = max(d, float((1.0 - w[:, 0]).max()), float((w[:, -1] - 1.0).max()))

    run = sweep(iter_combination_chunks(n, k), deviation, budget)
    return RipResult(d, run.exact, run.covered)


@dataclass(frozen=True)
class RipProfile:
    """Isometry constants per order with exactness flags and budget accounting."""

    deltas: dict[int, float]
    exact: dict[int, bool]
    budget_used: int


def rip_profile(a: MeasurementMatrix, k_max: int, budget: int = DEFAULT_BUDGET) -> RipProfile:
    """Isometry constants for orders 1..k_max on one budget; orders past it read 0.0, inexact."""
    budget = check_budget(budget)
    k_max = as_index(k_max, "order")
    if k_max < 0:
        raise ValueError(f"order must be non-negative, got {k_max}")
    if k_max > min(a.shape):
        raise ValueError(f"order must satisfy 1 <= K <= min(M, N) = {min(a.shape)}, got {k_max}")
    deltas = dict.fromkeys(range(1, k_max + 1), 0.0)
    exact = dict.fromkeys(deltas, False)
    used = 0
    for k in deltas:
        if used < budget:
            res = rip_constant(a, k, budget - used)
            deltas[k], exact[k] = res.delta, res.exact
            used += res.evaluations
    return RipProfile(deltas, exact, used)


def condition_number_bound(delta: float) -> float:
    """Upper bound (1+delta)/(1-delta) on the Gram condition number under RIP."""
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"bound requires 0 <= delta < 1, got {delta}")
    return (1.0 + delta) / (1.0 - delta)


def _q12(x: float) -> float:
    """Round to 12 significant digits, the precision carried by JSON reports."""
    return float(f"{x:.12g}")


def _largest_k_below(threshold: float) -> int:
    """Largest integer K with K < threshold, robust to 1-ulp threshold noise."""
    return max(0, math.ceil(threshold - 1e-9) - 1)


def _bound(threshold: float | None, prefix: str = "") -> str:
    """A threshold for the text report; None, where mu or the Welch bound is 0, bounds nothing."""
    return "no bound" if threshold is None else f"{prefix}{threshold}"


@dataclass(frozen=True)
class CertificationReport(JsonReport):
    """Spark, coherence, Welch, and RIP summary with per-criterion sparsity limits.

    Real-valued fields are stored rounded to 12 significant digits so a report
    round-trips exactly through its JSON form. Integer limits are the largest
    K satisfying each criterion's strict inequality; ``*_threshold`` fields
    keep the raw real bounds for traceability.
    """

    rows: int
    cols: int
    kind: str
    spark: int | None
    spark_exact: bool
    spark_limit: int
    coherence: float
    coherence_pair: tuple[int, int]
    coherence_ties: tuple[tuple[int, int], ...]
    coherence_k_threshold: float | None
    coherence_limit: int
    spark_lower_bound_from_mu: float | None
    welch: float
    welch_k_bound: float | None
    rip: RipProfile
    rip_unique_limit: int
    l1_equiv_limit_sqrt2: int
    l1_equiv_limit_0493: int
    cond_bounds: dict[int, float]

    @property
    def all_exact(self) -> bool:
        return self.spark_exact and all(self.rip.exact.values())

    def to_text(self) -> str:
        lines = [
            f"matrix: {self.kind} {self.rows}x{self.cols}",
            f"spark: {self.spark if self.spark is not None else 'not applicable (full column rank)'}"
            f" ({'exact' if self.spark_exact else 'lower bound, budget exhausted'})",
            f"  unique for K <= {self.spark_limit}  (K < spark/2)",
            f"coherence: {self.coherence}  worst pair {self.coherence_pair}"
            + (f"  ({len(self.coherence_ties)} pairs tie)" if len(self.coherence_ties) > 1 else ""),
            f"  unique for K <= {self.coherence_limit}"
            f"  ({_bound(self.coherence_k_threshold, 'K < ')})",
            f"  spark >= 1 + 1/mu = {_bound(self.spark_lower_bound_from_mu)}",
            f"welch bound: {self.welch}"
            f"  (best possible coherence; {_bound(self.welch_k_bound, 'K < ')})",
            "rip deltas: "
            + "  ".join(
                f"{k}:{v}{'' if self.rip.exact[k] else '(approx)'}"
                for k, v in sorted(self.rip.deltas.items())
            ),
            f"  unique for K <= {self.rip_unique_limit}  (delta_2K < 1)",
            f"  l1-equivalent for K <= {self.l1_equiv_limit_sqrt2}  (delta_2K < sqrt(2)-1)",
            f"  l1-equivalent for K <= {self.l1_equiv_limit_0493}  (delta_2K < 0.493)",
            "condition-number bounds: "
            + (
                "  ".join(f"{k}:{v}" for k, v in sorted(self.cond_bounds.items()))
                or "none (no exact order has delta < 1)"
            ),
        ]
        return "\n".join(lines) + "\n"


def certify(
    a: MeasurementMatrix,
    *,
    k_max: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> CertificationReport:
    """Full certification: spark, coherence, Welch bound, RIP profile, limits.

    ``k_max`` defaults to min(M, 5). Spark and the RIP profile each receive
    ``budget`` submatrix evaluations. Limits derived from RIP constants use
    exactly-computed orders only, since a budget-truncated delta is a lower
    bound and cannot certify an upper-bound criterion. A matrix with fewer
    than two columns, which coherence and the Welch bound need, raises
    ``ValueError`` first. Then, when ``k_max >= 1``, columns that are not
    unit-norm raise ``NormalizationError`` before any other work.
    """
    m, n = a.shape
    if n < 2:
        raise ValueError(f"certify needs at least two columns, got a {m}x{n} matrix")
    k_max = min(m, 5) if k_max is None else as_index(k_max, "k_max")
    if k_max < 0:
        raise ValueError(f"k_max must be non-negative, got {k_max}")
    k_max = min(k_max, m, n)

    if k_max >= 1:
        _require_unit_columns(a)
    mu_res = coherence(a)
    welch = welch_bound(min(m, n), n)  # M >= N admits orthonormal columns: 0
    spark_res = spark(a, budget)
    profile = rip_profile(a, k_max, budget)

    if spark_res.value is None:
        spark_limit = n  # full column rank: every support is identifiable
    else:
        spark_limit = _largest_k_below(spark_res.value / 2.0)

    mu = mu_res.mu
    if mu > 0.0:
        coh_threshold = 0.5 * (1.0 + 1.0 / mu)
        coh_limit = _largest_k_below(coh_threshold)
        spark_lb = 1.0 + 1.0 / mu
    else:
        coh_threshold = None
        coh_limit = n
        spark_lb = None

    def limit_from_deltas(threshold: float) -> int:
        ks = [
            k
            for k in range(1, k_max // 2 + 1)
            if profile.exact.get(2 * k, False) and profile.deltas[2 * k] < threshold
        ]
        return max(ks, default=0)

    rip_unique_limit = limit_from_deltas(1.0)
    l1_sqrt2 = limit_from_deltas(L1_THRESHOLD_SQRT2)
    l1_0493 = limit_from_deltas(L1_THRESHOLD_0493)

    cond_bounds = {
        k: _q12(condition_number_bound(d))
        for k, d in sorted(profile.deltas.items())
        if profile.exact[k] and d < 1.0
    }

    return CertificationReport(
        rows=m,
        cols=n,
        kind=a.kind,
        spark=spark_res.value,
        spark_exact=spark_res.exact,
        spark_limit=spark_limit,
        coherence=_q12(mu),
        coherence_pair=mu_res.pair,
        coherence_ties=mu_res.ties,
        coherence_k_threshold=None if coh_threshold is None else _q12(coh_threshold),
        coherence_limit=coh_limit,
        spark_lower_bound_from_mu=None if spark_lb is None else _q12(spark_lb),
        welch=_q12(welch),
        welch_k_bound=_q12(0.5 * (1.0 + 1.0 / welch)) if welch > 0.0 else None,
        rip=replace(profile, deltas={k: _q12(v) for k, v in profile.deltas.items()}),
        rip_unique_limit=rip_unique_limit,
        l1_equiv_limit_sqrt2=l1_sqrt2,
        l1_equiv_limit_0493=l1_0493,
        cond_bounds=cond_bounds,
    )
