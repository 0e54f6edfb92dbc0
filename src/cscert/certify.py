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
is dependent under the tolerance itself. On a flag it scans sizes upward in
lexicographic order, and the same argument settles part of that scan. Every
subset of that size before the first flagged one, F, was clean under the
doubled tolerance, so a subset whose lexicographically first superset of
that size comes before F needs no rank test (``_settled``). With j the
smallest value missing from F, that holds for every subset of a size below
min(M, N) - j, so those sizes are counted without being generated. At size
min(M, N) itself every subset before F is settled, so one rank test of F
under the tolerance settles that size: if F is dependent, it is the scan's
first hit, counted by its lexicographic rank (``_lex_rank``), and the size
is not generated. Only an F dependent under the doubled tolerance alone
sends the scan through that size's subsets from F on. When the columns have
cyclic shift structure (``_linalg.shift_invariant``), as a partial Fourier
matrix's do, the top sweep tests one subset per shift orbit instead
(``_linalg.iter_orbit_chunks``): shifted columns have the same singular
values, up to a rounding that the doubled tolerance absorbs. The
representatives come in lexicographic order, each the smallest of its
orbit, so every subset before the first flagged one is a shift of a clean
one, and that flag settles the scan the same way. The rank tests actually
run can reach C(N, min(M, N)) plus the budget. Every rank test is screened
by a Cholesky certificate on the subset's Gram submatrix and falls back to
the SVD rule only where the screen cannot clear the subset (see
``_linalg``); verdicts are the SVD rule's.

RIP constants count every subset, but only subsets whose deviation
``||G_S - I||_2`` can exceed the largest one seen so far, d, get
``eigvalsh``. The others are excluded by proving ``lambda_max(G_S) < 1 + d``
and ``lambda_min(G_S) > 1 - d``, cheaper test first. One power step on the
row sums r of ``|G_S|``, ``p_i = (|G_S| r)_i / r_i``, puts every eigenvalue
of G_S in ``[min_i (2 g_ii - p_i), max_i p_i]`` (weighted Gershgorin: each
lies within ``p_i - g_ii`` of some ``g_ii``), at every order; a side that
interval leaves open goes to the Cholesky kernel on a shifted Gram. Each
bound keeps a margin of ``8 K^3 eps`` times the largest Gram diagonal, above
the rounding of the tests and of ``eigvalsh``. Once d is past 1 by that
margin plus the furthest a computed Gram eigenvalue can land below 0, no
lower side can raise d, and it is skipped (see ``rip_constant``). So delta,
and every reported digit, is that of a plain ``eigvalsh`` scan.

``rip_profile`` starts d near its final value. Before it sweeps an order
K >= 2 whose whole sweep fits the budget left, it runs ``eigvalsh`` on the
N - K + 1 extensions of order K - 1's witness S, a subset whose computed
deviation is delta_(K-1) (``RipResult.witness``). G_S is a principal
submatrix of each extension's Gram, so by Cauchy interlacing each extension
deviates from the identity by at least delta_(K-1). That seed is exact: d
is always the largest of some deviations that the plain scan computes from
the same Gram submatrices (``eigvalsh`` gives a matrix the same result in
any stack), so every subset it excludes still lies at or below the final
d, and every delta, flag and count stays the scan's. A seeded order needs
no first chunk sent whole to ``eigvalsh``, so it is swept at full chunk
width from its first subset. An order the budget may cut is not seeded,
since a seed outside the scanned prefix could raise the lower bound that
prefix reports; nor is a standalone ``rip_constant`` call. On normalized
7x16 Gaussians to order 7, ``eigvalsh`` then receives about 0.4% of the
subsets, against about 2% with d from each order's first chunk.
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
    check_budget,
    combination_tables,
    iter_combination_chunks,
    iter_orbit_chunks,
    rank_test,
    shift_invariant,
    shifted_definite,
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
            "isometry constants assume unit-norm columns; "
            "apply normalize_columns first, or pass --normalize on the command line"
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
    witness: tuple[int, ...]  # the first subset met whose computed deviation is delta


def spark(a: MeasurementMatrix, budget: int = DEFAULT_BUDGET, *, _tables=None) -> SparkResult:
    """Smallest number of linearly dependent columns, by exhaustive enumeration.

    The result is that of scanning subset sizes k = 1, 2, ... and returning
    the first k admitting a rank-deficient M x k submatrix. If every subset up
    to size min(M, N) is full rank, the spark is M+1 for a wide matrix (any
    M+1 columns of an M-row matrix are dependent); for N <= M no dependent
    subset exists at all and ``value`` is None. ``evaluations`` counts subsets
    as that sequential scan would, up to and including the first dependent
    one; one ``budget`` caps it across all sizes. On budget exhaustion the
    best-known lower bound is returned with ``exact=False``.

    The search reaches that result by a shorter path, on one ``rank_test``:
    a sweep of size min(M, N) under twice the rank tolerance (one subset per
    shift orbit on columns with cyclic shift structure), the sizes and
    subsets its first flag settles, and one rank test of that flag at the
    top size. The module docstring has why each step is exact and how many
    rank tests run. All sizes share one set of
    ``_linalg.combination_tables``, built once per call unless ``_tables``
    passes in those of size up to at least min(M, N), as ``certify`` does.
    """
    budget = check_budget(budget)
    m, n = a.shape
    top = min(m, n)
    total = sum(math.comb(n, k) for k in range(1, top + 1))
    full_rank = SparkResult(m + 1 if n > m else None, True, total)
    tables = combination_tables(n, top) if _tables is None else _tables
    evaluate = test = rank_test(a.entries)
    first, clean = None, 0  # sizes below clean are settled whole
    if total <= budget:
        if shift_invariant(a.entries):
            chunks = iter_orbit_chunks(n, top)
        else:
            chunks = iter_combination_chunks(n, top, tables=tables)
        first = sweep(chunks, lambda combs: test(combs, 2 * RANK_RTOL)).witness
        if first is None:
            return full_rank
        # j, the smallest value missing from first: a k-subset misses at most
        # j < top - k of 0 .. j-1, so _settled holds for all of them
        j = next((i for i, v in enumerate(first) if v != i), top)
        clean = top - j

        def evaluate(combs):
            rest = np.flatnonzero(~_settled(combs, first, top, j))
            # in the generator's layout, a C-ordered (k, B), in which Grams gather fast
            i = test(np.take(combs.T, rest, axis=1).T) if len(rest) else None
            return None if i is None else int(rest[i])

    used = sum(math.comb(n, k) for k in range(1, clean))
    for k in range(max(clean, 1), top + 1):
        if k == top and first is not None and test(np.array([first])) is not None:
            # every top-subset before first is settled, so the scan's first hit is first itself
            return SparkResult(top, True, used + _lex_rank(first, n) + 1)
        run = sweep(iter_combination_chunks(n, k, tables=tables), evaluate, budget - used)
        used += run.covered
        if run.witness is not None or not run.exact:
            # a cut sweep verified sizes < k fully, size k only partially
            return SparkResult(k, run.exact, used)
    return full_rank


def _lex_rank(subset, n):
    """0-based position of a sorted subset among the same-size combinations of range(n)."""
    t = len(subset)
    # C(N - 1 - v, t - i) subsets follow it with the same first i elements and a larger i-th
    return math.comb(n, t) - 1 - sum(math.comb(n - 1 - v, t - i) for i, v in enumerate(subset))


def _settled(combs, first, top, j):
    """Mask over a (B, k) chunk of subsets T: True where T's first top-superset precedes ``first``.

    Both are sorted and compared lexicographically; j is the smallest value
    missing from ``first``. That superset, T plus the smallest
    ``g = top - k`` columns outside T, precedes ``first`` only if it holds
    ``0 .. j-1``: that takes at most g of them missing from T. It does precede
    it when it also holds j, that is when j is in T or fewer than g are
    missing, since ``first[j] > j``. When exactly g are missing and j is not
    in T, the superset is ``0 .. j-1`` followed by T's last ``top - j``
    elements, which decide against ``first[j:]``.
    """
    k = combs.shape[1]
    g = top - k
    missing = j - (combs < j).sum(axis=1)
    has_j = (combs == j).any(axis=1)
    settled = (missing <= g) & (has_j | (missing < g))
    tie = np.flatnonzero((missing == g) & ~has_j)
    if len(tie) and j < top:
        tail = combs[tie, k - (top - j):]
        ref = np.array(first[j:])
        # the first differing position; an equal tail gives 0 and reads False
        at = (tail != ref).argmax(axis=1)
        settled[tie] = tail[np.arange(len(tie)), at] < ref[at]
    return settled


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


def rip_constant(
    a: MeasurementMatrix, k: int, budget: int = DEFAULT_BUDGET, *, _tables=None, _seed=None
) -> RipResult:
    """Isometry constant delta_K, the largest ``||G_S - I||_2`` over K-column subsets S.

    G_S is the Gram matrix of subset S, a principal K x K submatrix of the
    full Gram, and ``dev(S) = ||G_S - I||_2 = max(1 - lambda_min(G_S),
    lambda_max(G_S) - 1)``. Requires unit-norm columns; with an exhausted
    budget the result is the lower bound seen so far, flagged ``exact=False``.
    ``witness`` is the first subset the sweep met whose computed deviation
    is delta; unseeded, the lexicographically first of the subsets covered.

    Only subsets whose deviation can exceed the running maximum d get
    ``eigvalsh``; without a seed, every subset of the first chunk does, while
    d is -inf. A later subset is excluded when both of its sides pass, each
    side trying its cheapest test first, on the real Gram when the matrix is
    real. The cheapest is one power step on ``|G_S|`` from its row sums
    ``r_i = sum_(j in S) |g_ij|``: ``p_i = (|G_S| r)_i / r_i``. By Gershgorin's
    theorem on ``R^-1 G_S R``, R = diag(r), each eigenvalue of G_S lies within
    ``p_i - g_ii`` of some ``g_ii`` (Varga, *Gersgorin and His Circles*,
    2004), so all lie in ``[min_i (2 g_ii - p_i), max_i p_i]``. The upper end
    is never above the plain Gershgorin bound ``max_i r_i``, as
    ``(|G_S| r)_i <= max(r) r_i``. At K = 1 the interval is ``g_11``; for a
    pair with a unit diagonal it is ``[1 - |g_12|, 1 + |g_12|]``, the pair's
    spectrum.

    * upper: ``max_i p_i < 1 + d - m``; or else ``(1 + d - m) I - G_S``
      passes ``_linalg.shifted_definite``;
    * lower: ``1 - d + m <= -slack``; or else
      ``min_i (2 g_ii - p_i) > 1 - d + m``; or else ``G_S - (1 - d + m) I``
      passes ``shifted_definite``.

    Each test proves ``lambda_max(G_S) < 1 + d - m`` or
    ``lambda_min(G_S) > 1 - d + m`` up to its own rounding. The margin
    ``m = 8 K^3 eps max(diag G)`` covers that rounding and ``eigvalsh``'s,
    so an excluded subset's computed deviation is at most d:

    * the Cholesky certificate's backward error is at most about
      ``K (K + 1) eps ||A||`` for the shifted matrix A, and
      ``||A|| <= 2 K max(diag G)``;
    * the power step errs by about ``K^2 eps max(diag G)``, and the lower
      end's one subtraction by one rounding more;
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
    ``1 + slack <= d - m``, so no lower side can raise d. On normalized
    7x16 and 8x16 Gaussians (seeds 0-99 of each), the first 64-subset chunk
    of an unseeded order alone puts d that far past 1 in 167 of 200 cases
    at order 3, a seeded order's seed alone in 199, and either in all from
    order 4 on.

    Every subset not excluded gets ``eigvalsh`` on the same complex Gram as
    without the certificate. ``fl(1 - x)`` and ``fl(x - 1)`` are monotone, so
    delta is the float a plain ``eigvalsh`` scan gives,
    ``max(1 - min lambda_min, max lambda_max - 1)``.

    ``_tables`` passes in ``_linalg.combination_tables(N, k_max)``, so that
    ``rip_profile`` builds them once for all its orders. ``_seed`` is order
    K - 1's witness, which ``rip_profile`` passes only to an order the
    budget cannot cut: the N - K + 1 sorted extensions of that subset get
    ``eigvalsh`` in one stack of their own and set d, outside the
    evaluation count, and the sweep takes full-width chunks from its first
    subset (the module docstring has why this is exact).
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
    # (-G)_S + top * I is top * I - G_S exactly: negation rounds nothing
    negated, magnitude = -screen, np.abs(screen)
    d, witness = -math.inf, None

    def raise_d(c):
        # eigvalsh on the Gram submatrices of the (B, K) subsets c
        nonlocal d, witness
        w = np.linalg.eigvalsh(g[c[:, :, None], c[:, None, :]])
        dev = np.maximum(1.0 - w[:, 0], w[:, -1] - 1.0)
        i = int(dev.argmax())
        if dev[i] > d:
            d, witness = float(dev[i]), c[i]

    def deviation(combs):
        unsure = np.ones(len(combs), dtype=bool)
        if d > -math.inf:
            c = combs.T
            moduli = magnitude[c[:, None, :], c[None, :, :]]
            rows = moduli.sum(axis=1)
            top, bottom = 1.0 + d - margin, 1.0 - d + margin
            # one power step on |G_S| from its row sums: p_i = (|G_S| r)_i / r_i
            p = np.einsum("ijb,jb->ib", moduli, rows) / rows
            inside = p.max(axis=0) < top
            rest = np.flatnonzero(~inside)
            if len(rest):
                inside[rest] = shifted_definite(negated, c[:, rest], -top)
            if bottom > -slack:
                # weighted Gershgorin: every eigenvalue lies within p_i - g_ii of some g_ii
                lower = inside & ((2.0 * np.einsum("iib->ib", moduli) - p).min(axis=0) <= bottom)
                if lower.any():
                    inside[lower] = shifted_definite(screen, c[:, lower], bottom)
            unsure = ~inside
        if unsure.any():
            raise_d(combs[unsure])

    if _seed is not None:
        # the N - K + 1 extensions of order K - 1's witness, each sorted
        rest = np.delete(np.arange(n), _seed)
        raise_d(np.sort(np.column_stack((np.broadcast_to(_seed, (len(rest), k - 1)), rest))))
    # a seeded sweep sends no first chunk whole to eigvalsh, so it starts at full width
    chunks = iter_combination_chunks(n, k, tables=_tables, ramp=_seed is None)
    run = sweep(chunks, deviation, budget)
    return RipResult(d, run.exact, run.covered, tuple(witness.tolist()))


@dataclass(frozen=True)
class RipProfile:
    """Isometry constants per order with exactness flags and budget accounting."""

    deltas: dict[int, float]
    exact: dict[int, bool]
    budget_used: int


def rip_profile(
    a: MeasurementMatrix, k_max: int, budget: int = DEFAULT_BUDGET, *, _tables=None
) -> RipProfile:
    """Isometry constants for orders 1..k_max on one budget; orders past it read 0.0, inexact.

    Every order shares one set of ``_linalg.combination_tables``, built once
    per call unless ``_tables`` passes in those of size up to at least k_max.
    Each order K >= 2 whose C(N, K) subsets all fit the budget left is seeded
    from order K - 1's ``witness``, as the module docstring sets out; its
    N - K + 1 seed Grams are outside ``budget_used``. Every delta, flag and
    count is that of plain scans sharing the budget.
    """
    budget = check_budget(budget)
    k_max = as_index(k_max, "order")
    if k_max < 0:
        raise ValueError(f"order must be non-negative, got {k_max}")
    if k_max > min(a.shape):
        raise ValueError(f"order must satisfy 1 <= K <= min(M, N) = {min(a.shape)}, got {k_max}")
    deltas = dict.fromkeys(range(1, k_max + 1), 0.0)
    exact = dict.fromkeys(deltas, False)
    if _tables is None and k_max:
        _tables = combination_tables(a.shape[1], k_max)
    used, witness = 0, None
    for k in deltas:
        if used < budget:
            seed = witness if math.comb(a.shape[1], k) <= budget - used else None
            res = rip_constant(a, k, budget - used, _tables=_tables, _seed=seed)
            deltas[k], exact[k], witness = res.delta, res.exact, res.witness
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
    """A text-report threshold; None, where 1/mu is infinite or the Welch bound 0, bounds nothing."""
    return "no bound" if threshold is None else f"{prefix}{threshold}"


@dataclass(frozen=True)
class CertificationReport(JsonReport):
    """Spark, coherence, Welch, and RIP summary with per-criterion sparsity limits.

    Real-valued fields are stored rounded to 12 significant digits so a report
    round-trips exactly through its JSON form. Integer limits are the largest
    K, at most N, satisfying each criterion's strict inequality; ``*_threshold``
    fields keep the raw real bounds for traceability.
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
    # one set of subset tables serves both sweeps
    tables = combination_tables(n, min(m, n))
    spark_res = spark(a, budget, _tables=tables)
    profile = rip_profile(a, k_max, budget, _tables=tables)

    if spark_res.value is None:
        spark_limit = n  # full column rank: every support is identifiable
    else:
        spark_limit = _largest_k_below(spark_res.value / 2.0)

    mu = mu_res.mu
    # a subnormal mu bounds nothing either: 1/mu overflows
    if mu > 0.0 and 1.0 / mu < math.inf:
        coh_threshold = 0.5 * (1.0 + 1.0 / mu)
        coh_limit = min(_largest_k_below(coh_threshold), n)
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
