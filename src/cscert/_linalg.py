"""Shared dense linear algebra: the subset rank test and the subset-sweep engine.

The rank rule is ``dependent_mask``: k columns are dependent iff
``sigma_min <= RANK_RTOL * sigma_max`` of their M x k submatrix. Subset
sweeps apply it through ``rank_test``, which first screens each subset with
the eigenvalues of its k x k principal Gram submatrix. A subset whose
``lambda_min > SCREEN * lambda_max`` has ``sigma_min / sigma_max`` above about
``sqrt(SCREEN) = 1e-4``, six orders above the rule and far beyond the Gram's
rounding (about ``k * M * eps`` relative to ``lambda_max``), so the rule would
call it independent too. Every other subset, including those with zero or
negative computed eigenvalues, is decided by ``dependent_mask`` itself, so
every verdict is the rule's own.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

# One notion of numerical rank across the whole package: a column set is
# dependent iff sigma_min <= RANK_RTOL * sigma_max of the submatrix.
RANK_RTOL = 1e-10

# Largest number of subsets per batched linear-algebra call in any sweep.
CHUNK = 2048

# A subset whose Gram eigenvalues satisfy lambda_min > SCREEN * lambda_max is
# independent without an SVD.
SCREEN = 1e-8

# Screened eigenvalues must also exceed this: Gram entries rounded in the
# subnormal range carry an absolute error (about k * M * 5e-324), not a relative one.
_SCREEN_FLOOR = 1e-200

# Default cap on subsets evaluated per spark, RIP-profile or DFT-limit call.
DEFAULT_BUDGET = 20_000_000


def growing_chunks(items, width: int, cap: int = CHUNK):
    """Yield (B, width) int arrays of the tuples in ``items``, B doubling from 64 up to ``cap``.

    Small first chunks keep a sweep that stops at its first few subsets from
    paying for a full batch.
    """
    size = min(64, cap)
    while block := list(itertools.islice(items, size)):
        size = min(2 * size, cap)
        yield np.array(block, dtype=np.intp).reshape(len(block), width)


def iter_combination_chunks(n: int, k: int, chunk: int = CHUNK):
    """Yield (B, k) int arrays of k-combinations of range(n) in lexicographic order.

    B grows from 64 up to ``chunk``.
    """
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
    yield from growing_chunks(itertools.combinations(range(n), k), k, chunk)


def dependent_mask(stack: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Boolean mask over a (B, M, k) stack: True where the k columns are dependent.

    A zero submatrix (sigma_max = 0) counts as dependent.
    """
    s = np.linalg.svd(stack, compute_uv=False)
    # fewer singular values than columns means rank < k regardless of values
    if s.shape[-1] < stack.shape[-1]:
        return np.ones(stack.shape[0], dtype=bool)
    return s[:, -1] <= rtol * s[:, 0]


def rank_test(entries: np.ndarray, rtol: float = RANK_RTOL):
    """The rank rule for column subsets of one matrix, screened by Gram eigenvalues.

    Returns ``evaluate(combs)``: for a (B, k) index chunk, the mask that
    ``dependent_mask(stack, rtol)`` gives on the (B, M, k) stack of those
    columns. The Gram is formed once, here, on real dtype when every imaginary
    part is zero and after scaling the largest entry to 1, so that it cannot
    overflow; subsets the screen cannot clear go to ``dependent_mask`` on the
    unscaled columns.
    """
    peak = np.abs(entries).max()
    x = entries / peak if peak > 0 else entries
    if not x.imag.any():
        x = x.real
    g = x.conj().T @ x

    def evaluate(combs):
        w = np.linalg.eigvalsh(g[combs[:, :, None], combs[:, None, :]])
        unsure = ~(w[:, 0] > np.maximum(SCREEN * w[:, -1], _SCREEN_FLOOR))
        mask = np.zeros(len(combs), dtype=bool)
        if unsure.any():
            mask[unsure] = dependent_mask(entries[:, combs[unsure]].transpose(1, 0, 2), rtol)
        return mask

    return evaluate


class Sweep(NamedTuple):
    covered: int  # subsets a sequential scan evaluates, up to and including a hit
    hit: bool  # some subset was flagged, which ended the sweep
    exact: bool  # False only when the budget cut the sweep short of a hit or the end


def sweep(chunks, evaluate, budget: float = math.inf) -> Sweep:
    """Evaluate subset chunks in order until the first hit or the budget runs out.

    ``evaluate`` receives each (B, k) chunk, cut so that no more than
    ``budget`` subsets are evaluated in total, and returns a boolean mask that
    flags hits, or None when it never ends the sweep early.
    """
    covered = 0
    for combs in chunks:
        cut = len(combs) > budget - covered
        if cut:
            combs = combs[: max(0, budget - covered)]
        if len(combs):
            mask = evaluate(combs)
            if mask is not None and mask.any():
                return Sweep(covered + int(np.argmax(mask)) + 1, True, True)
            covered += len(combs)
        if cut:
            return Sweep(covered, False, False)
    return Sweep(covered, False, True)
