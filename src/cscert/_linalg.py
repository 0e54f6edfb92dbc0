"""Shared dense linear algebra: the batched rank test and the subset-sweep engine."""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

# One notion of numerical rank across the whole package: a column set is
# dependent iff sigma_min <= RANK_RTOL * sigma_max of the submatrix.
RANK_RTOL = 1e-10

# Subsets per batched linear-algebra call in every sweep.
CHUNK = 2048


def iter_combination_chunks(n: int, k: int, chunk: int = CHUNK):
    """Yield (B, k) int arrays of k-combinations of range(n) in lexicographic order."""
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
    it = itertools.combinations(range(n), k)
    while True:
        block = list(itertools.islice(it, chunk))
        if not block:
            return
        yield np.array(block, dtype=np.intp)


def dependent_mask(stack: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Boolean mask over a (B, M, k) stack: True where the k columns are dependent.

    A zero submatrix (sigma_max = 0) counts as dependent.
    """
    s = np.linalg.svd(stack, compute_uv=False)
    # fewer singular values than columns means rank < k regardless of values
    if s.shape[-1] < stack.shape[-1]:
        return np.ones(stack.shape[0], dtype=bool)
    return s[:, -1] <= rtol * s[:, 0]


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
