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
kernel, ``shifted_definite``, on its own shifts, and its ``8 K^3 eps``
margin covers this backward error as well as the rounding of its other
bounds and of ``eigvalsh``.

A wide matrix has a second screen, on its null side, which costs q x q
work per subset however large k is, q = n - m. It is sound as follows, x
being the m x n scaled matrix and ``x^H = Q R`` the complete Householder QR
(Q is n x n, Q1 its first m columns, y = Q2 its last q, and R1 the top of
R). ``W_S``, the q x q sum of ``y_c^H y_c`` over the rows c of y outside
S, has ``lambda_min(W_S) = sigma_min(Q1[S])^2`` when Q is unitary, and
``x_S^H = Q1[S] R1``, so ``sigma_min(x_S) >= sigma_min(R1) *
sqrt(lambda_min(W_S))`` while ``sigma_max(x_S) <= ||x||_F``. The computed
Q and R are not exact, so ``_null_screen`` measures three residuals in
place of the a priori bounds on Householder QR's backward error and on
its Q's loss of orthogonality (Higham, ch. 19): e on ``Q^H Q - I``, d on
``x^H - Q1 R1`` and eta on ``Z R1 - I``, Z the computed inverse of R1.
Each is ``_residual_bound``: the computed Frobenius norm of the computed
difference, times ``1 + (size + 3) eps`` for the rounding of the
difference and the norm, plus ``2 (p + 3) eps ||a||_F ||b||_F``, four
times the ``gamma_(p+2)`` bound on the rounding of a complex product of
inner dimension p (Higham, Sec. 3.6). Then ``s = (1 - eta) / ||Z||_F``
is at most ``sigma_min(R1)``. Q is square, so ``Q Q^H`` has the
eigenvalues of ``Q^H Q``; so ``(Q Q^H)[S, S]`` and ``Q2^H Q2`` are within
e of I, and ``sigma_min(Q1[S])^2 >= lambda_min(W_S) - 2 e``. With
``x^H[S] = Q1[S] R1 + D[S]``, that gives ``sigma_min(x_S) >=
s * sqrt(lambda_min(W_S) - 2 e) - d``, so ``lambda_min(W_S) > 2 e +
((sqrt(SCREEN) ||x||_F + d) / s)^2``, about ``SCREEN * cond(R1)^2``,
proves ``sigma_min / sigma_max > sqrt(SCREEN)``, the Gram screen's own
claim. The threshold t is that bound times 1.01, for the rounding of
``||x||_F``, s and the bound itself, plus ``4 q (n + q + 4) eps``: the
computed W_S is within ``gamma_(n+2) ||Q2||_F^2``, about
``(n + 2) q eps / 2``, of W_S; subtracting t rounds each diagonal entry
by at most ``3 eps / 2``; and positive pivots on ``A = W_S - t I``, with
``||A|| < 3``, prove ``lambda_min(A) > -3 q (q + 1) eps`` by the bound
above. A subset is cleared when
``positive_definite`` passes ``W_S - t I``, as ``_null_clears`` builds
it. When ``eta >= 1`` or ``t >= 1``, R1 is too ill-conditioned for these
margins and no subset takes the null side. The proof is about the scaled
x; as on the Gram side, the rounding of the scaling and of the SVD is far
below the six orders between ``sqrt(SCREEN)`` and the rule. A subset the
null side cannot clear goes on to the Gram screen and then the SVD, so
the null side, like the Gram screen, never changes a verdict. It pays
where q is much smaller than k; ``_null_side_pays`` counts the costs.

Two sweeps that read only their first flagged subset, and no count, test
one subset per orbit of the shifts S -> S + c (mod N), from
``iter_orbit_chunks``: ``orbits(N, k)``, about C(N, k) / N, instead of
C(N, k). The DFT column test (``dft_uniqueness``) may, since it builds its
rows as Fourier rows; spark's top sweep (``certify``) may on the matrices
in which ``shift_invariant`` finds that structure. The representatives are
generated directly, not filtered: a subset holding 0 is one orbit's
representative iff its gap sequence is a necklace, and gap prefixes grow by
the Fredricksen-Kessler-Maiorana rule (a prefix of period p extends only by
gaps ``b >= a_(t+1-p)``), as Ruskey and Sawada generate fixed-density
necklaces (SIAM J. Comput. 29, 1999). ``shift_invariant`` detects the
structure numerically, from the entries rather than a label: column j must
equal ``D^j`` times column 0 for one diagonal D of N-th roots of unity, so
that columns S + c are D^c times columns S and have the same singular
values. It allows a deviation of ``16 * N * eps`` of the peak entry per
entry: the phase ``2 pi p k / N`` of a computed Fourier entry is rounded at
the size of N, and the largest deviation measured on partial inverse-DFT
matrices is about ``5 * N * eps`` at every N from 8 to 4096. Within that
tolerance a shift moves each singular value of a k-column subset by at most
``2 * sqrt(M * k) * 16 * N * eps`` of the peak entry, so on a Fourier matrix
(every column norm ``sqrt(M)`` times the peak) ``sigma_min / sigma_max`` moves
by at most ``2 * sqrt(k) * 16 * N * eps``, 3e-13 at N=16 and k=8. Only a
subset that close to the 1e-10 rule could get a different verdict from its
shift. A check on the Gram would not do: a Gram entry off by 1e-12 of
``lambda_max`` moves ``lambda_min`` as much (Weyl), which moves
``sigma_min / sigma_max`` by up to 1e-6. The representatives come in
lexicographic order, each the smallest of its orbit, so every subset S
before the first flagged representative F has its representative at or
before S, swept clean: up to that shift rounding, F is the lexicographically
first flagged subset, as a combination sweep's would be. Sweeps that need
the logical subset count (spark's upward scan and RIP constants) keep
``iter_combination_chunks``.

The DFT column test reads only whether some subset is flagged, so it
halves its sweep again with ``reflect=True``: one subset per orbit of the
shifts and the reflection S -> -S (mod N), a bracelet (Sawada, "Generating
bracelets in constant amortized time", SIAM J. Comput. 31, 2001), about
``C(N, k) / (2 N)`` of them (440 of the 810 necklaces at N = 16 and k = 8).
Column -s of a Fourier matrix is the conjugate of column s, so columns -S
are the conjugates of columns S and have the same singular values. The
rounding is the shift argument's: each computed entry of the rows
``dft_uniqueness`` builds lies within about ``5 * N * eps`` of its exact
root of unity (measured at every N from 8 to 4096, and the same measured
bound for column -s against the conjugate of column s), inside the
``16 * N * eps`` tolerance above, so a reflection moves ``sigma_min /
sigma_max`` by no more than a shift does. Reflection reverses the gap
sequence, so the bracelets are the necklaces whose gaps are at most every
rotation of their reverse; ``_bracelets`` filters the necklace chunks by
that test rather than generating bracelets directly. Spark's top sweep keeps
plain necklaces, since it needs the lexicographically first flagged subset
and the matrices it sees need not have conjugate columns, and so does the
zero-set sweep over row sets, whose budget counts row sets.

``iter_combination_chunks`` slices its k-subsets from
``combination_tables``: for each size r, the r-combinations of range(n) as
the columns of one read-only array, in lexicographic order, in the smallest
unsigned dtype that holds n - 1 (one byte up to n = 256). The combinations
that begin with f are f followed by a suffix of the table one size down, so
each table is built from the last one in one pass. Above the largest
table size R, a row is a prefix from the recursive stream of
(k - R)-combinations followed by a column of the R-table, laid out one
block of prefixes at a time.

Both subset streams keep their sets by one rule: a set of at most 2^17
entries (``_TABLE_ENTRIES``) is built once per process and kept, read-only,
since a process that certifies many matrices or asks the oracle of many
patterns asks for the same sets again and again, and every caller reads the
same arrays. The orbit sets are kept in ``_ORBIT_SETS`` by (n, k): every
size at n = 16 (32,928 entries, 263 KB, together) and sizes 1-5 and 28-32
at n = 32. Generating one costs as much as the rank tests it feeds, or more
(0.13-0.33 ms at n = 16 and k = 4, 6, 8, on one core). The bracelet sets
follow the same rule, by the count of their necklace sets, under
(n, k, True): every size at n = 16 holds 18,000 entries (144 KB) together.
Each is filtered once from its kept necklace set, so the filter runs
once per process (0.14 ms at n = 16 and k = 8, against 0.39 ms to
generate the necklaces, on one core); a filter run on every call, on top
of the necklace chunks, cost more than the rank tests it saved. A streamed
set is filtered chunk by chunk, at about half the cost of generating it
(0.37 s against 0.75 s for the 2,016,144 necklaces at n = 32 and k = 10),
less than the rank tests it saves. The combination
tables are kept in ``_TABLES``: every size at n = 16 (524,288 one-byte
entries, 512 KB, together) and sizes 1 and 2 at n = 256. They are keyed on
(n, r), so that two threads that build one size at once only do the work
twice. A larger orbit set streams lazily, one generator
step per chunk, as a sweep that stops early takes only its first few
chunks; a size-1 table above the limit is built for its call alone.

Sweeps act on chunks of subsets only to batch the linear algebra: every
evaluator answers with the position of the first subset a scan of one subset
at a time would flag, or None, so no result, count or budget depends on where
chunks end. Chunk widths ramp up, chunk i at most ``min(64 * 2^i, cap)``,
only where a small first chunk pays: in a sweep that may stop early or that
spends more on its first chunk than on the rest. Every other sweep takes
chunks of up to the cap, where the numpy call overhead per subset is lowest. A sweep that
ends on a hit returns that subset as its ``witness``; ``certify`` sets out
how spark and the RIP constants use what earlier sweeps found.
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

# A kept combination table or orbit set holds at most this many entries:
# every size at n = 16.
_TABLE_ENTRIES = 1 << 17

# The combination tables ``combination_tables`` has built, by (n, r): a
# read-only (table, start) pair, kept for the life of the process.
_TABLES: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

# The orbit sets ``iter_orbit_chunks`` has generated whole, by (n, k): tuples
# of read-only chunks, kept for the life of the process.
_ORBIT_SETS: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}

# A subset whose Gram eigenvalues satisfy lambda_min > SCREEN * lambda_max is
# independent without an SVD; the screen certifies it with a Cholesky test.
SCREEN = 1e-8

# The screen's shift is at least this: Gram entries rounded in the subnormal
# range carry an absolute error (about k * M * 5e-324), not a relative one.
_SCREEN_FLOOR = 1e-200

_EPS = np.finfo(float).eps

# Default cap on subsets evaluated per spark, RIP-profile or DFT-limit call.
DEFAULT_BUDGET = 20_000_000


def combination_tables(n: int, k: int) -> list:
    """Lexicographic tables of the r-combinations of range(n), for r = 1, 2, ... up to k.

    Entry r - 1 is ``(table, start)``: ``table`` is an (r, C(n, r)) array
    whose columns are the r-combinations in lexicographic order, in
    the smallest unsigned dtype that holds n - 1, and ``start[f]``, for
    f = 0 .. n, is its first column whose first element is at least f; both
    are read-only. The list stops before the first size above 1 whose table
    would hold more than ``_TABLE_ENTRIES`` entries: every size at n = 16,
    sizes 1 and 2 at n = 256. Each size within that limit is read from
    ``_TABLES``, or built from the size below it and kept there; a size-1
    table above it, which the stream always needs, is built for this call
    alone.
    """
    tables = []
    for r in range(1, k + 1):
        kept = r * math.comb(n, r) <= _TABLE_ENTRIES
        if r > 1 and not kept:
            break
        pair = _TABLES.get((n, r)) if kept else None
        if pair is None:
            if r == 1:
                pair = np.arange(n, dtype=np.min_scalar_type(n - 1))[None], np.arange(n + 1)
            else:
                pair = _extend_table(*tables[-1])
            for a in pair:
                a.flags.writeable = False
            if kept:
                _TABLES[n, r] = pair
        tables.append(pair)
    return tables


def _extend_table(table, start):
    """The (r + 1)-table and its ``start`` from the r-table and its own.

    The (r + 1)-combinations that begin with f are f followed by each
    r-combination whose first element is above f: the columns from
    ``start[f + 1]`` on, a suffix of the r-table. So the new table is those
    suffixes side by side, one ``concatenate`` of views, under a first row
    of f repeated, and its ``start`` is the running count of their columns.
    """
    count = table.shape[1] - start[1:]
    out = np.empty((len(table) + 1, count.sum()), dtype=table.dtype)
    out[0] = np.repeat(np.arange(len(count), dtype=table.dtype), count)
    np.concatenate([table[:, f:] for f in start[1:].tolist()], axis=1, out=out[1:])
    return out, np.concatenate(([0], np.cumsum(count)))


def iter_combination_chunks(n: int, k: int, chunk: int = CHUNK, *, ramp=True):
    """Yield (B, k) int arrays of k-combinations of range(n) in lexicographic order.

    Rows come from ``combination_tables(n, k)``. When the k-table exists, each
    chunk is a slice of it. Otherwise, with R the largest table size, each
    row is a (k - R)-prefix, drawn in order from the same generator's
    (k - R)-combinations of range(n - R), followed by an R-combination whose
    first element is above the prefix's last one: a column from
    ``start[last + 1]`` on of the R-table. The prefix stream is recursive in
    turn: the combinations of range(n - R) are those of ``R .. n-1`` shifted
    down by R, a suffix of each table, so one set of tables serves every
    level. Each block of prefixes lays out its own rows, and only table
    columns and one block's rows are counted, so a stream of more than 2^63
    combinations is no special case.

    Each chunk is the transpose of a C-ordered (k, B) array, the layout in
    which sweeps gather (k, k, B) Gram stacks. With ``ramp``, chunk i holds
    at most ``min(64 * 2^i, cap)`` subsets (exactly, but for the last, when
    the k-table exists), so that a sweep that may stop at its first few
    subsets, or that spends more on its first chunk than on the rest, does
    not pay for a full batch; with ``ramp=False`` the bound is the cap.
    Memory rule: a chunk holds at most about 2^20 entries of its k x k
    matrices, so the cap is ``chunk`` and at most ``2^20 / k^2`` (below
    ``CHUNK`` only from k = 23 on).
    """
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
    tables = combination_tables(n, k)
    cap = max(1, min(chunk, _CHUNK_ENTRIES // k**2))
    for rows in _combination_rows(tables, k, 0, cap, min(64, cap) if ramp else cap):
        yield rows.T


def _combination_rows(tables, k, lo, cap, size):
    """(k, B) intp arrays of the k-combinations of ``lo .. n-1``, B <= size, doubling to cap."""
    r = min(k, len(tables))
    table, start = tables[r - 1]
    end = table.shape[1]
    if r == k:
        a = start[lo]
        while a < end:
            yield table[:, a : a + size].astype(np.intp)
            a += size
            size = min(2 * size, cap)
        return
    for block in _combination_rows(tables, k - r, lo + r, cap, size):
        # prefixes of lo + r .. n-1, shifted down to lo .. n-1-r; the block's row t is prefix p,
        # the one with ends[p - 1] <= t < ends[p], then column t - ends[p] + end of the r-table,
        # since every prefix's columns run to the end
        block -= r
        ends = np.cumsum(end - start[block[-1] + 1])
        done, total = 0, int(ends[-1])
        while done < total:
            stop = min(done + size, total)
            # prefixes i .. j own rows done .. stop-1, count[p] of them each
            i, j = ends.searchsorted((done, stop - 1), side="right")
            count = np.diff(np.minimum(ends[i : j + 1], stop), prepend=done)
            out = np.empty((k, stop - done), dtype=np.intp)
            out[: k - r] = np.repeat(block[:, i : j + 1], count, axis=1)
            cols = np.arange(done + end, stop + end) - np.repeat(ends[i : j + 1], count)
            out[k - r :] = np.take(table, cols, axis=1)
            yield out
            done = stop
            size = min(2 * size, cap)


def iter_orbit_chunks(n: int, k: int, *, reflect: bool = False):
    """An iterator of (B, k) int arrays of one k-subset of range(n) per cyclic-shift orbit.

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

    For k >= n - 1 there is one orbit, ``range(k)``, whose gaps are all 1
    but for a last 2 at k = n - 1, and it is built at once as one chunk.

    With ``reflect``, one subset per orbit of the shifts and the reflection
    S -> -S (mod n) instead: the necklace chunks, each filtered by
    ``_bracelets`` to the subsets that are also the smallest of their
    reflections' shifts, in the same order and layout.

    A set of at most ``_TABLE_ENTRIES`` entries (``_kept``), the tables'
    rule, is generated whole on its first call and kept in ``_ORBIT_SETS``
    for the rest of the process, under (n, k), or (n, k, True) with
    ``reflect``; later calls iterate over the kept chunks. A kept reflected
    set is filtered from the kept necklace set, so each set is generated
    once. Chunks are read-only, so no caller can change what the next one
    reads. A larger set streams lazily, one step per chunk (filtered chunk by
    chunk with ``reflect``), and is never kept.
    """
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= n, got k={k}, n={n}")
    if not _kept(n, k):
        return _orbit_stream(n, k, reflect)
    key = (n, k, True) if reflect else (n, k)
    chunks = _ORBIT_SETS.get(key)
    if chunks is None:
        chunks = _ORBIT_SETS[key] = tuple(_orbit_stream(n, k, reflect))
    return iter(chunks)


def _orbit_stream(n: int, k: int, reflect: bool):
    """The chunks of ``iter_orbit_chunks(n, k, reflect=reflect)`` built anew; bracelets filter the kept necklaces."""
    if k >= n - 1:
        out = np.arange(k).reshape(k, 1)
        out.flags.writeable = False
        return iter((out.T,))
    if reflect:
        return _bracelets(iter_orbit_chunks(n, k), n)
    return _necklaces(n, k)


def _bracelets(chunks, n: int):
    """The subsets of the necklace ``chunks`` whose gaps are at most every rotation of their reverse.

    Reflecting S reverses its gap sequence g, so a necklace S is the smallest
    of its orbit under shifts and reflection iff g is lexicographically at
    most each rotation of reversed g. A necklace's first gap is its smallest,
    so only the rotations that start with a gap equal to it can be smaller;
    those (rotation, subset) pairs are compared one position at a time, and
    each drops out at its first difference, the subset too when that
    difference is negative. So a chunk costs about k entries per subset, not
    k^2. A chunk that keeps nothing is dropped; the others stay read-only
    (B, k) transposes of C-ordered (k, B) arrays.
    """
    for s in chunks:
        c = s.T
        k, b = c.shape
        gaps = np.empty_like(c)
        np.subtract(c[1:], c[:-1], out=gaps[:-1])
        gaps[-1] = n - c[-1]
        # the reverse twice over, flat: rotation j's entry i is at (j + i) * b + its subset
        twice = np.concatenate((gaps[::-1], gaps[::-1])).ravel()
        at = np.flatnonzero(twice[: k * b].reshape(k, b) == gaps[0])
        which = at % b
        keep = np.ones(b, dtype=bool)
        # the gaps of each sequence sum to n, so pairs equal up to the last gap are equal
        for i in range(1, k - 1):
            if not len(at):
                break
            at += b
            d = twice[at] - gaps[i][which]
            keep[which[d < 0]] = False
            same = d == 0
            at, which = at[same], which[same]
        if keep.any():
            out = np.ascontiguousarray(c[:, keep])
            out.flags.writeable = False
            yield out.T


def _kept(n: int, k: int) -> bool:
    """Whether the k-subset orbit set of range(n), ``k * orbits(n, k)`` entries, fits ``_TABLE_ENTRIES``.

    It holds at least k entries, and at least ``C(n, k) / n >= 2^j / n``
    for ``j = min(k, n - k)``, since ``C(n, j) >= 2^j`` for ``j <= n / 2``.
    Those bounds turn a large set away before ``orbits`` counts it, whose
    binomials could run to millions of bits: the count it does run has
    ``min(k, n - k)`` below the bit length of n plus 17.
    """
    if k > _TABLE_ENTRIES or min(k, n - k) >= (n * _TABLE_ENTRIES).bit_length():
        return False
    return k * orbits(n, k) <= _TABLE_ENTRIES


def _necklaces(n: int, k: int):
    """The chunks of ``iter_orbit_chunks(n, k)``, generated one step at a time and read-only."""
    if k == 1:
        out = np.zeros((1, 1), dtype=np.intp)
        out.flags.writeable = False
        yield out
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
            out.flags.writeable = False
            yield out.T


def orbits(n: int, k: int) -> int:
    """The k-subsets of range(n) up to shifts, as many as ``iter_orbit_chunks`` yields.

    By Burnside's lemma, the sum of ``phi(d) * C(n / d, k / d)`` over the
    divisors d of gcd(n, k), divided by n. Each divisor and its totient
    come from the prime factors of the gcd, p^i contributing
    ``p^i - p^(i-1)``, so a gcd of 2^17 takes 18 terms, not 2^17 gcds.
    """
    terms = [(1, 1)]  # (d, phi(d)) over the divisors d of the prime factors found so far
    g, p = math.gcd(n, k), 2
    while g > 1:
        if p * p > g:
            p = g  # what is left is prime
        if g % p == 0:
            powers = [1]
            while g % p == 0:
                g //= p
                powers.append(powers[-1] * p)
            terms = [(d * q, f * (q - q // p)) for d, f in terms for q in powers]
        p += 1
    return sum(f * math.comb(n // d, k // d) for d, f in terms) // n


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
    if not x[:, 0].all():
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


def shifted_definite(g: np.ndarray, c: np.ndarray, shift) -> np.ndarray:
    """``positive_definite`` of each ``G_S - shift * I``, S a column of the (k, B) indices c."""
    stack = g[c[:, None, :], c[None, :, :]]
    np.einsum("iib->ib", stack)[...] -= shift
    return positive_definite(stack)


def rank_test(entries: np.ndarray):
    """The rank rule for column subsets of one matrix, screened by Cholesky certificates.

    Returns ``evaluate(combs, rtol=RANK_RTOL)``: for a (B, k) index chunk, the
    position of the first subset that ``dependent_mask(stack, rtol)`` flags on
    the (B, M, k) stack of those columns, or None. A call may pass a larger
    ``rtol``, as spark's top sweep passes twice the rule's. The Gram is formed
    once, here, on real dtype when every imaginary part is zero and after
    scaling the largest entry to 1, so that it cannot overflow. A subset is
    cleared when ``G_S - max(2 * SCREEN * trace(G_S), _SCREEN_FLOOR) * I``
    is positive definite: since ``lambda_max <= trace``, that proves
    ``lambda_min > SCREEN * lambda_max`` with room for the elimination's
    rounding (``shifted_definite``). On a wide matrix, a chunk that
    ``_null_side_pays`` for first goes through the null side's q x q
    certificate (module docstring), built on the first such chunk, and only
    the subsets it leaves go on to the Gram's. Subsets no screen clears go
    to ``dependent_mask`` on the unscaled columns.
    """
    peak = np.abs(entries).max()
    x = entries / peak if peak > 0 else entries
    if not x.imag.any():
        x = x.real
    g = x.conj().T @ x
    diag = g.diagonal().real
    null = []  # [(z, t)] once built, [None] when R1 is too ill-conditioned for it

    def evaluate(combs, rtol=RANK_RTOL):
        kept = None
        if _null_side_pays(*x.shape, *combs.shape, built=bool(null)):
            if not null:
                null.append(_null_screen(x))
            if null[0] is not None:
                kept = np.flatnonzero(~_null_clears(*null[0], combs.T))
                if not len(kept):
                    return None
                # in the caller's layout, a C-ordered (k, B), in which Grams gather fast
                combs = np.take(combs.T, kept, axis=1).T
        c = combs.T
        shift = np.maximum(2 * SCREEN * diag[c].sum(axis=0), _SCREEN_FLOOR)
        unsure = ~shifted_definite(g, c, shift)
        if unsure.any():
            dependent = dependent_mask(entries[:, combs[unsure]].transpose(1, 0, 2), rtol)
            if dependent.any():
                i = int(np.flatnonzero(unsure)[dependent.argmax()])
                return i if kept is None else int(kept[i])
        return None

    return evaluate


def _null_side_pays(m: int, n: int, b: int, k: int, built: bool) -> bool:
    """Whether b k-subsets of an m x n matrix cost less on the null side than on their Grams.

    Per subset, the Gram side gathers and eliminates k x k entries, and the
    null side writes an n-long 0/1 mask that one product folds into q x q
    entries, q = n - m: counted as k^2 against q n, plus 2 n^3 once for the
    null side's QR and residual products until it is ``built``.
    """
    q = n - m
    return q > 0 and b * (k * k - q * n) > (0 if built else 2 * n**3)


def _null_screen(x: np.ndarray):
    """``(z, t)`` for the null-side certificate of a wide x, or None when R1 is too ill-conditioned.

    Row ``i q + j`` of z holds ``conj(y[c, i]) * y[c, j]`` for every column c,
    y the computed null rows (the last q columns of Q), and t is the
    threshold of the module docstring, from the measured residuals of the QR.
    """
    m, n = x.shape
    q = n - m
    with np.errstate(all="ignore"):
        basis, r = np.linalg.qr(x.conj().T, mode="complete")
        r1 = r[:m]
        try:
            inv = np.linalg.inv(r1)
        except np.linalg.LinAlgError:
            return None
        e = _residual_bound(np.eye(n), basis.conj().T, basis)
        d = _residual_bound(x.conj().T, basis[:, :m], r1)
        eta = _residual_bound(np.eye(m), inv, r1)
        s = (1 - eta) / _frobenius(inv)
        t = 2 * e + 1.01 * ((math.sqrt(SCREEN) * _frobenius(x) + d) / s) ** 2 + 4 * q * (n + q + 4) * _EPS
    if not (eta < 1 and t < 1):
        return None
    y = basis[:, m:]
    return np.ascontiguousarray((y.conj()[:, :, None] * y[:, None, :]).reshape(n, q * q).T), t


def _null_clears(z: np.ndarray, t: float, c: np.ndarray) -> np.ndarray:
    """Mask over the columns S of the (k, B) indices c: True where ``W_S - t I`` is positive definite.

    ``W_S``, the sum of ``_null_screen``'s rows z over the columns outside S,
    is one product with a 0/1 mask.
    """
    n, b = z.shape[1], c.shape[1]
    keep = np.ones((n, b), dtype=z.dtype)
    keep[c, np.arange(b)] = 0
    w = (z @ keep).reshape(math.isqrt(len(z)), -1, b)
    np.einsum("iib->ib", w)[...] -= t
    return positive_definite(w)


def _frobenius(a: np.ndarray) -> np.float64:
    """``||a||_F``, a numpy scalar, so that a norm out of range gives inf under ``np.errstate``."""
    return np.sqrt(np.vdot(a, a).real)


def _residual_bound(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """An upper bound on ``||c - a b||_F`` from its computed value (module docstring)."""
    p = a.shape[1]
    return (1 + (c.size + 3) * _EPS) * _frobenius(c - a @ b) + 2 * (p + 3) * _EPS * _frobenius(a) * _frobenius(b)


def check_budget(budget):
    """The whole evaluations ``budget`` allows: its floor, or ``inf``; ``ValueError`` below 1."""
    if not budget >= 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    return budget if budget == math.inf else math.floor(budget)


class Sweep(NamedTuple):
    covered: int  # subsets a sequential scan evaluates, up to and including a hit
    exact: bool  # False only when the budget cut the sweep short of a hit or the end
    witness: tuple[int, ...] | None = None  # the flagged subset that ended the sweep, if any


def sweep(chunks, evaluate, budget: float = math.inf) -> Sweep:
    """Evaluate subset chunks in order until the first hit or the budget runs out.

    ``evaluate`` receives each (B, k) chunk, cut so that no more than
    ``budget`` subsets are evaluated in total, and returns the position in
    the chunk of the first subset that a scan of one subset at a time would
    flag, or None when that scan flags none of them (an evaluator that never
    ends the sweep early always returns None). So no result depends on where
    chunks end. The flagged subset is returned as ``witness``.
    """
    covered = 0
    for combs in chunks:
        cut = len(combs) > budget - covered
        if cut:
            combs = combs[: budget - covered]
        if len(combs):
            i = evaluate(combs)
            if i is not None:
                return Sweep(covered + i + 1, True, tuple(combs[i].tolist()))
            covered += len(combs)
        if cut:
            return Sweep(covered, False)
    return Sweep(covered, True)

