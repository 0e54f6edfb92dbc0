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
left-looking Cholesky (LDL^H) elimination on the lower triangle: column j is
formed from the finished columns to its left. When every pivot of a k x k
Hermitian A is positive, the computed factors are an exact factorization of
some Hermitian A + E with positive pivots, so A + E is positive definite,
and ``||E|| <= k * gamma_(k+1) * ||A + E||``, about ``k (k + 1) eps ||A||``
(Higham, *Accuracy and Stability of Numerical Algorithms*, Thm. 10.3 and the
bound ``|| |R^H| |R| || <= k ||A + E||``). So
``lambda_min(A) > -k (k + 1) eps ||A|| (1 + o(1))``. With
``A = G_S - s I``, ``s = 2 * SCREEN * trace(G_S)`` and
``||A|| <= trace(G_S) + s``, that gives
``lambda_min(G_S) > (2 * SCREEN - 1.01 k (k + 1) eps (1 + 2 * SCREEN)) trace(G_S)``,
which is at least ``SCREEN * trace(G_S) >= SCREEN * lambda_max`` for every
k up to about 6,000. The trace bounds ``lambda_max`` because every other
eigenvalue is then positive. Below the floor the shift is ``_SCREEN_FLOOR``
itself, and a Gram whose eigenvalues are that small goes to the SVD. The
theorem holds for every order of the inner sums, so the left-looking order
keeps the bound and this factor 2. ``certify.rip_constant`` runs the same
kernel on shifted Grams, and its ``8 K^3 eps`` margin covers this backward
error as well as the rounding of its other bounds and of ``eigvalsh``.

Whether *any* k-subset is dependent is asked through ``any_dependent``,
which returns a bool, no hit position and no count. On a matrix with cyclic
shift structure (partial Fourier matrices on an integer grid) it tests one
subset per orbit of the shifts S -> S + c (mod N), from
``iter_orbit_chunks``: about C(N, k) / N subsets instead of C(N, k). The
representatives are generated directly, not drawn and filtered: a subset
holding 0 is one orbit's representative iff its gap sequence is a necklace,
and gap prefixes grow by the Fredricksen-Kessler-Maiorana rule (a prefix of
period p extends only by gaps ``b >= a_(t+1-p)``), as Ruskey and Sawada
generate fixed-density necklaces (SIAM J. Comput. 29, 1999).
``shift_invariant`` detects the structure numerically, from the entries
rather than a label: column j must equal ``D^j`` times column 0 for one
diagonal D of N-th roots of unity, so that columns S + c are D^c times
columns S and have the same singular values.
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

Sweeps act on chunks of subsets only to batch the linear algebra: every
evaluator gives what a scan of one subset at a time gives, so no result,
count or budget depends on where chunks end.
"""

from __future__ import annotations

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


def iter_combination_chunks(n: int, k: int, chunk: int = CHUNK):
    """Yield (B, k) int arrays of k-combinations of range(n) in lexicographic order.

    Each chunk is grown in numpy from its first combination ``first``, one
    element position at a time. Level 0 holds ``first[0], first[0] + 1, ...``
    up to ``n - k``. At level j each j-prefix takes the values from its last
    element plus one up to ``n - k + j``, except the first prefix,
    ``first[:j]``, which starts at ``first[j]``. Each level keeps only its
    first B children and the index of each one's parent, and the rows are
    rebuilt by following those indices back, one gather per level. This is
    exact: every kept prefix has a completion, so the next B combinations
    have at most B distinct j-prefixes, all among the first B. The next
    ``first`` is the successor of the chunk's last combination, and the
    stream ends at ``n - k, ..., n - 1``. No binomial coefficient is needed.

    Each chunk is the transpose of a C-ordered (k, B) array, the layout in
    which sweeps gather (k, k, B) Gram stacks. B doubles from 64 up to the
    cap, so that a sweep that stops at its first few subsets does not pay
    for a full batch. Memory rule: a chunk holds at most about 2^20 entries
    of its k x k matrices, so the cap is ``chunk`` and at most ``2^20 / k^2``
    (below ``CHUNK`` only from k = 23 on).
    """
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
    cap = max(1, min(chunk, _CHUNK_ENTRIES // k**2))
    size = min(64, cap)
    first = list(range(k))
    while True:
        values = [np.arange(first[0], min(first[0] + size, n - k + 1))]
        parents = []
        for j in range(1, k):
            # prefix i has count[i] children, from its last element + 1 (the first
            # prefix's from first[j]) up to top, numbered from ends[i] - count[i]
            top = n - k + j
            count = top - values[-1]
            count[0] = top + 1 - first[j]
            ends = np.cumsum(count)
            m = int(ends.searchsorted(size))
            if m < len(ends):  # keep the first size children
                count = count[: m + 1]
                count[m] -= ends[m] - size
            parent = np.repeat(np.arange(len(count)), count)
            values.append(np.arange(top + 1, top + 1 + len(parent)) - ends[parent])
            parents.append(parent)
        out = np.empty((k, len(values[-1])), dtype=np.intp)
        out[-1] = values[-1]
        up = slice(None)
        for j in range(k - 2, -1, -1):
            up = parents[j][up]
            out[j] = values[j][up]
        c = out[:, -1].tolist()
        yield out.T
        # the successor raises the rightmost element that can rise
        i = next((i for i in range(k - 1, -1, -1) if c[i] < n - k + i), None)
        if i is None:
            return
        first = c[:i] + list(range(c[i] + 1, c[i] + 1 + k - i))
        size = min(2 * size, cap)


def iter_orbit_chunks(n: int, k: int):
    """Yield (B, k) int arrays of one k-subset of range(n) per cyclic-shift orbit.

    Each subset holds 0 and is the lexicographically smallest of its shifts
    S + c (mod n), and subsets come in lexicographic order. A subset holding
    0 is fixed by its gap sequence ``s_1 - s_0, ..., n - s_(k-1)``, in the
    same order, and its shifts that hold 0 have the k rotations of that
    sequence as gaps. So the representatives are the subsets whose gaps form
    a necklace, the smallest of its rotations. They are generated directly,
    with the Fredricksen-Kessler-Maiorana rule as Ruskey and Sawada apply it
    to fixed-density necklaces ("An efficient algorithm for generating
    necklaces with fixed density", SIAM J. Comput. 29, 1999): a prefix
    ``a_1 .. a_t`` of period p extends only by ``b >= a_(t+1-p)``; an equal b
    keeps p and a larger one sets p = t + 1; a full sequence is a necklace iff
    p divides k. Every gap is at least ``a_1``, so a prefix needs
    ``s_t + (k - t) * a_1 <= n``, and the last gap is ``n - s_(k-1)``.

    A frame holds gap prefixes ``a_1 .. a_t`` as the columns of a (t, B)
    array, with their sums s, periods p and the gap ``a_(t+1-p)`` that bounds
    their next one from below, and the range [first, last] of next gaps not
    yet taken. Each step takes at most ``cap`` children of the top frame,
    slicing one prefix's range when it alone has more, and pushes the rest of
    the frame back below them: depth first, so children come out in
    lexicographic order. Each chunk is one step's necklaces, so B is at most
    cap. By the memory rule a chunk holds at most about 2^20 entries of its
    length-n spectra (a DFT sweep holds one per subset) and of its k x k
    Grams, so cap is at most ``2^20 / n`` and ``2^20 / k^2``. Gaps are below
    n, and every caller holds n columns, far fewer than 2^31, so int32 holds
    them, which halves the frames.
    """
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
    if k == 1:
        yield np.zeros((1, 1), dtype=np.intp)
        return
    cap = max(1, min(CHUNK, _CHUNK_ENTRIES // n, _CHUNK_ENTRIES // k**2))
    one = np.ones(1, dtype=np.intp)
    stack = [(np.zeros((0, 1), dtype=np.int32), 0 * one, one, 0 * one, one, n // k * one)]
    while stack:
        a, s, p, ref, first, last = stack.pop()
        t = len(a)
        count = np.maximum(last - first + 1, 0)
        m = int(np.searchsorted(np.cumsum(count), cap, side="right"))
        if m == 0:
            m, count, rest = 1, np.array([cap]), first.copy()
            rest[0] += cap
            stack.append((a, s, p, ref, rest, last))
        elif m < len(count):
            stack.append((a[:, m:], s[m:], p[m:], ref[m:], first[m:], last[m:]))
        count = count[:m]
        parent = np.repeat(np.arange(m), count)
        # the children of each prefix take the next gaps first, first + 1, ...
        b = np.arange(len(parent)) + np.repeat(first[:m] + count - np.cumsum(count), count)
        child = np.empty((t + 1, len(b)), dtype=np.int32)
        np.take(a, parent, axis=1, out=child[:t])
        child[t] = b
        s2 = s[parent] + b
        p2 = np.where(b == ref[parent], p[parent], t + 1)
        ref2 = child[t + 1 - p2, np.arange(len(b))]
        if t + 2 < k:
            if len(b):
                stack.append((child, s2, p2, ref2, ref2, n - s2 - (k - t - 2) * child[0]))
            continue
        # the last gap is forced; the sequence is a necklace iff its period divides k
        end = n - s2
        keep = (end >= ref2) & (k % np.where(end == ref2, p2, k) == 0)
        if keep.any():
            out = np.zeros((k, int(keep.sum())), dtype=np.intp)
            np.cumsum(child[:, keep], axis=0, out=out[1:])
            yield out.T


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
    """Mask over a (k, k, B) Hermitian stack: True where every Cholesky pivot is positive.

    Matrix b of the stack is ``stack[:, :, b]``, so every operation below
    runs over B contiguous entries. Runs the left-looking LDL^H elimination
    on every matrix at once and overwrites the stack's lower triangle with
    the factor C = L D: column j becomes
    ``A[j:, j] - sum_(l<j) C[j:, l] * conj(C[j, l]) / d[l]`` with
    ``d[j] = C[j, j]``, one vectorized statement per column over the lower
    triangle only. Only the lower triangle is read, as
    ``numpy.linalg.eigvalsh`` reads it. True certifies that the Hermitian
    matrix within about ``k^2 * eps * ||A||`` of the input is positive
    definite (see the module docstring).
    """
    pivots = np.einsum("iib->ib", stack).real
    ok = np.ones(stack.shape[-1], dtype=bool)
    # a failed pivot may leave inf or nan in its own matrix, which stays False
    with np.errstate(all="ignore"):
        for j in range(len(stack)):
            if j:
                row = stack[j, :j].conj() / pivots[:j]
                stack[j:, j] -= (stack[j:, :j] * row).sum(axis=1)
            ok &= pivots[j] > 0
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
    elimination's rounding. The Grams are gathered straight into the
    (k, k, B) layout of ``positive_definite``. Subsets the screen cannot
    clear go to ``dependent_mask`` on the unscaled columns.
    """
    peak = np.abs(entries).max()
    x = entries / peak if peak > 0 else entries
    if not x.imag.any():
        x = x.real
    g = x.conj().T @ x

    def evaluate(combs):
        c = combs.T
        stack = g[c[:, None, :], c[None, :, :]]
        diag = np.einsum("iib->ib", stack)
        diag -= np.maximum(2 * SCREEN * diag.real.sum(axis=0), _SCREEN_FLOOR)
        unsure = ~positive_definite(stack)
        mask = np.zeros(len(combs), dtype=bool)
        if unsure.any():
            mask[unsure] = dependent_mask(entries[:, combs[unsure]].transpose(1, 0, 2), rtol)
        return mask

    return evaluate


def check_budget(budget):
    """The whole evaluations ``budget`` allows: its floor, or ``inf``; ``ValueError`` below 1."""
    if not budget >= 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    return budget if budget == math.inf else math.floor(budget)


class Sweep(NamedTuple):
    covered: int  # subsets a sequential scan evaluates, up to and including a hit
    hit: bool  # some subset was flagged, which ended the sweep
    exact: bool  # False only when the budget cut the sweep short of a hit or the end


def sweep(chunks, evaluate, budget: float = math.inf) -> Sweep:
    """Evaluate subset chunks in order until the first hit or the budget runs out.

    ``evaluate`` receives each (B, k) chunk, cut so that no more than
    ``budget`` subsets are evaluated in total, and returns a boolean mask that
    flags hits, or None when it never ends the sweep early. It must act as a
    scan of one subset at a time, flagging no subset that such a scan would
    not reach, so that no result depends on where chunks end.
    """
    covered = 0
    for combs in chunks:
        cut = len(combs) > budget - covered
        if cut:
            combs = combs[: budget - covered]
        if len(combs):
            mask = evaluate(combs)
            if mask is not None and mask.any():
                return Sweep(covered + int(np.argmax(mask)) + 1, True, True)
            covered += len(combs)
        if cut:
            return Sweep(covered, False, False)
    return Sweep(covered, False, True)


def any_dependent(entries: np.ndarray, k: int, rtol: float = RANK_RTOL) -> bool:
    """Whether any k columns of ``entries`` are dependent under ``rank_test(entries, rtol)``.

    Sweeps one subset per cyclic-shift orbit when ``shift_invariant(entries)``,
    every k-combination otherwise.
    """
    n = entries.shape[1]
    chunks = iter_orbit_chunks(n, k) if shift_invariant(entries) else iter_combination_chunks(n, k)
    return sweep(chunks, rank_test(entries, rtol)).hit
