"""Shared dense linear algebra: the subset rank test and the subset-sweep engine.

The rank rule is ``dependent_mask``: k columns are dependent iff
``sigma_min <= RANK_RTOL * sigma_max`` of their M x k submatrix. Subset
sweeps apply it through ``rank_test``, which first screens each subset with a
Cholesky certificate on its k x k principal Gram submatrix G_S. A subset is
cleared when ``G_S - max(2 * SCREEN * trace(G_S), _SCREEN_FLOOR) * I`` is
positive definite, as decided by ``positive_definite``. Then
``lambda_min > SCREEN * lambda_max``, so ``sigma_min / sigma_max`` is above
about ``sqrt(SCREEN) = 1e-4``: six orders above the rule and far beyond the
Gram's rounding (about ``k * M * eps`` relative to ``lambda_max``), so the
rule would call it independent too. Every other subset is decided by
``dependent_mask`` itself, so every verdict is the rule's own.

Why the factor 2 on the trace is sound. ``positive_definite`` runs the
outer-product Cholesky (LDL^H) elimination on the lower triangle. When every
pivot of a k x k Hermitian A is positive, the computed factors are an exact
factorization of some Hermitian A + E with positive pivots, so A + E is
positive definite, and ``||E|| <= k * gamma_(k+1) * ||A + E||``, about
``k (k + 1) eps ||A||`` (Higham, *Accuracy and Stability of Numerical
Algorithms*, Thm. 10.3 and the bound ``|| |R^H| |R| || <= k ||A + E||``). So
``lambda_min(A) > -k (k + 1) eps ||A|| (1 + o(1))``. With
``A = G_S - s I``, ``s = 2 * SCREEN * trace(G_S)`` and
``||A|| <= trace(G_S) + s``, that gives
``lambda_min(G_S) > (2 * SCREEN - 1.01 k (k + 1) eps (1 + 2 * SCREEN)) trace(G_S)``,
which is at least ``SCREEN * trace(G_S) >= SCREEN * lambda_max`` for every
k up to about 6,000. The trace bounds ``lambda_max`` because every other
eigenvalue is then positive. Below the floor the shift is ``_SCREEN_FLOOR``
itself, and a Gram whose eigenvalues are that small goes to the SVD.

A sweep that asks only whether *any* k-subset is dependent draws its subsets
from ``verdict_chunks``. On a matrix with cyclic shift structure (partial
Fourier matrices on an integer grid) it yields one subset per orbit of the
shifts S -> S + c (mod N), from ``iter_orbit_chunks``: about C(N, k) / N
subsets instead of C(N, k). ``shift_invariant`` detects the structure
numerically, from the entries rather than a label: column j must equal
``D^j`` times column 0 for one diagonal D of N-th roots of unity, so that
columns S + c are D^c times columns S and have the same singular values.
It allows a deviation of ``16 * N * eps`` of the peak entry per entry: the
phase ``2 pi p k / N`` of a computed Fourier entry is rounded at the size of
N, and the largest deviation measured on partial inverse-DFT matrices is
about ``5 * N * eps`` at every N from 8 to 4096. Within that tolerance a
shift moves each singular value of a k-column subset by at most
``2 * sqrt(M * k) * 16 * N * eps`` of the peak entry, so on a Fourier matrix
(every column norm ``sqrt(M)`` times the peak) ``sigma_min / sigma_max`` moves
by at most ``2 * sqrt(k) * 16 * N * eps``, 3e-13 at N=16 and k=8. Only a
subset that close to the 1e-10 rule could get a different verdict from its
shift. A check on the Gram would not do: a Gram entry off by 1e-12 of
``lambda_max`` moves ``lambda_min`` as much (Weyl), which moves
``sigma_min / sigma_max`` by up to 1e-6. Sweeps that need the
lexicographically first hit or the logical subset count (spark's upward scan
and RIP constants) keep ``iter_combination_chunks``.
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

# A chunk of k-subsets holds at most about this many k x k matrix entries.
_CHUNK_ENTRIES = 1 << 20

# A subset whose Gram eigenvalues satisfy lambda_min > SCREEN * lambda_max is
# independent without an SVD; the screen certifies it with a Cholesky test.
SCREEN = 1e-8

# The screen's shift is at least this: Gram entries rounded in the subnormal
# range carry an absolute error (about k * M * 5e-324), not a relative one.
_SCREEN_FLOOR = 1e-200

# Default cap on subsets evaluated per spark, RIP-profile or DFT-limit call.
DEFAULT_BUDGET = 20_000_000


def growing_chunks(items, width: int, cap: int = CHUNK):
    """Yield (B, width) int arrays of the tuples in ``items``, B doubling from 64 up to ``cap``.

    Small first chunks keep a sweep that stops at its first few subsets from
    paying for a full batch. Memory rule: a chunk's arrays hold about 2^20
    entries at most, so the cap is also at most ``2^20 / width^2`` (one width
    x width matrix per tuple, below ``CHUNK`` only from width 23 on).
    """
    cap = max(1, min(cap, _CHUNK_ENTRIES // max(1, width) ** 2))
    size = min(64, cap)
    while block := list(itertools.islice(items, size)):
        size = min(2 * size, cap)
        yield np.array(block, dtype=np.intp).reshape(len(block), width)


def iter_combination_chunks(n: int, k: int, chunk: int = CHUNK):
    """Yield (B, k) int arrays of k-combinations of range(n) in lexicographic order.

    B grows from 64 up to ``chunk``, as capped by ``growing_chunks``.
    """
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
    yield from growing_chunks(itertools.combinations(range(n), k), k, chunk)


def lex_leq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``a`` that are lexicographically no larger than the rows of ``b``."""
    diff = b - a
    return diff[np.arange(len(a)), np.argmax(diff != 0, axis=1)] >= 0


def iter_orbit_chunks(n: int, k: int):
    """Yield (B, k) int arrays of one k-subset of range(n) per cyclic-shift orbit.

    Each subset holds 0 and is the lexicographically smallest of its shifts
    S + c (mod n), and subsets come in lexicographic order. The candidates
    {0} | T come in chunks from ``growing_chunks`` and are filtered in numpy,
    so no chunk exceeds its cap, ``min(CHUNK, 2^20 / n)`` rows by the memory
    rule: a DFT sweep holds a length-n spectrum per subset.
    """
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
    cap = min(CHUNK, _CHUNK_ENTRIES // n)
    for t in growing_chunks(itertools.combinations(range(1, n), k - 1), k - 1, cap):
        s = np.hstack([np.zeros((len(t), 1), dtype=np.intp), t])
        # the shifts of S that hold 0 are S - s_j; the smallest of S's shifts holds 0
        for j in range(1, k):
            s = s[lex_leq(s, np.sort((s - s[:, j : j + 1]) % n, axis=1))]
        if len(s):
            yield s


def shift_invariant(entries: np.ndarray) -> bool:
    """True when shifting a column subset cyclically cannot change its singular values.

    That is, column j equals ``D^j`` times column 0, within ``16 * N * eps`` of
    the peak entry, for one diagonal D of N-th roots of unity (every column is
    the previous one times D, cyclically). Column 0 must have no zero entry.
    """
    n = entries.shape[1]
    peak = np.abs(entries).max()
    if n < 2 or peak == 0:
        return False
    x = entries / peak
    tol = 16 * n * np.finfo(float).eps
    if not x[:, 0].all() or np.abs(np.abs(x[:, 1]) - np.abs(x[:, 0])).max() > tol:
        return False
    # the N-th roots of unity nearest to D; their powers are exact up to one rounding
    r = np.rint(np.angle(x[:, 1] * x[:, 0].conj()) * n / (2 * np.pi)).astype(np.int64) % n
    phase = np.exp(2j * np.pi * ((r[:, None] * np.arange(n)) % n) / n)
    return bool(np.abs(x - phase * x[:, :1]).max() <= tol)


def verdict_chunks(entries: np.ndarray, k: int):
    """Chunks of k-column subsets that decide whether any k columns of ``entries`` are dependent.

    One subset per cyclic-shift orbit when ``shift_invariant(entries)``, every
    k-combination otherwise. Hits and counts are not those of a lexicographic
    scan, only whether there is a hit.
    """
    n = entries.shape[1]
    if shift_invariant(entries):
        return iter_orbit_chunks(n, k)
    return iter_combination_chunks(n, k)


def dependent_mask(stack: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Boolean mask over a (B, M, k) stack: True where the k columns are dependent.

    A zero submatrix (sigma_max = 0) counts as dependent.
    """
    s = np.linalg.svd(stack, compute_uv=False)
    # fewer singular values than columns means rank < k regardless of values
    if s.shape[-1] < stack.shape[-1]:
        return np.ones(stack.shape[0], dtype=bool)
    return s[:, -1] <= rtol * s[:, 0]


def positive_definite(stack: np.ndarray) -> np.ndarray:
    """Mask over a (B, k, k) Hermitian stack: True where every Cholesky pivot is positive.

    Runs the outer-product (Schur complement) form of Cholesky elimination,
    ``A[i, l] -= A[i, j] * conj(A[l, j]) / A[j, j]``, on every matrix at once
    and overwrites the stack. Only the lower triangle is read, as
    ``numpy.linalg.eigvalsh`` reads it. True certifies that the Hermitian
    matrix within about ``k^2 * eps * ||A||`` of the input is positive
    definite (see the module docstring).
    """
    k = stack.shape[-1]
    ok = np.ones(len(stack), dtype=bool)
    # a failed pivot may leave inf or nan in its own matrix, which stays False
    with np.errstate(all="ignore"):
        for j in range(k):
            pivot = stack[:, j, j].real
            ok &= pivot > 0
            if j + 1 < k:
                col = stack[:, j + 1 :, j]
                row = col.conj() / pivot[:, None]
                stack[:, j + 1 :, j + 1 :] -= col[:, :, None] * row[:, None, :]
    return ok


def rank_test(entries: np.ndarray, rtol: float = RANK_RTOL):
    """The rank rule for column subsets of one matrix, screened by a Cholesky certificate.

    Returns ``evaluate(combs)``: for a (B, k) index chunk, the mask that
    ``dependent_mask(stack, rtol)`` gives on the (B, M, k) stack of those
    columns. The Gram is formed once, here, on real dtype when every imaginary
    part is zero and after scaling the largest entry to 1, so that it cannot
    overflow. A subset is cleared when ``G_S - max(2 * SCREEN * trace(G_S),
    _SCREEN_FLOOR) * I`` is positive definite: since ``lambda_max <= trace``,
    that proves ``lambda_min > SCREEN * lambda_max`` with room for the
    elimination's rounding. Subsets the screen cannot clear go to
    ``dependent_mask`` on the unscaled columns.
    """
    peak = np.abs(entries).max()
    x = entries / peak if peak > 0 else entries
    if not x.imag.any():
        x = x.real
    g = x.conj().T @ x

    def evaluate(combs):
        stack = g[combs[:, :, None], combs[:, None, :]]
        diag = np.einsum("bii->bi", stack)
        shift = np.maximum(2 * SCREEN * diag.real.sum(axis=1), _SCREEN_FLOOR)
        diag -= shift[:, None]
        unsure = ~positive_definite(stack)
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
