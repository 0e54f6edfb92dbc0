"""Uniqueness limit for DFT-sparse signals with missing samples.

For a length ``N = 2^r`` signal with missing-sample set Q, a reconstruction of
DFT sparsity K is unique exactly when ``2K < S(Q)``, where ``S(Q)`` is the
smallest DFT support of a nonzero signal supported on Q: two K-sparse spectra
that agree on every available sample differ by such a signal. So the true
limit is ``k_max = floor((S - 1) / 2)``, and it is found between two bounds.

* Upper: the paper's closed form. A signal on c positions of one residue class
  modulo ``2^h`` can cancel ``2^h (c - 1)`` frequencies, so ``S <= N - penalty``
  with ``penalty = max over h in 0..r-1 of 2^h (Q_{2^h} - 1)``, where
  ``Q_{2^h}`` is the largest residue class of missing positions modulo ``2^h``.
  This is only an upper bound: N=16 with missing {3, 5, 11, 13} has penalty 8,
  so the closed form says K <= 3, yet a signal on those positions has a DFT
  with six nonzeros and the true limit is 2.
* Lower: the larger of two bounds. The BCH bound of cyclic codes gives
  ``S_N >= L + 1`` for the longest run of L available positions in a
  progression whose step is odd. A burst of missing samples leaves
  ``L = N - q``, which meets the closed form's ``S <= N - q + 1``, so nothing
  else runs. Otherwise a decimation recursion: splitting the spectrum into
  even and odd frequencies, or the signal into even and odd positions, bounds
  ``S_N`` by the smallest supports of four half-length patterns, each settled
  by the routine that settles the top, ``_MinSupport.settle``, one level down.

When the two bounds give different K, an exact sweep settles it from either
side of one duality: the rows of ``F[k, n] = w^{-kn}``, n in Q, outside a set
T are dependent exactly when the available rows' inverse-DFT columns T are.

* Rows: the largest zero set of a nonzero spectrum is that of the null
  vector of some ``q - 1`` rows of F, read off the Householder reflectors of
  one raw QR per row set, and confirmed by the rank rule on the rows outside
  it. Modulating a signal on Q by ``w^{cn}`` shifts its spectrum by c, so
  one row set per cyclic-shift orbit is enough, ``orbits(N, q - 1)`` of them.
* Columns: scanning K down, the first K whose 2K columns are all independent
  (``dft_uniqueness_oracle``'s test, on the rank test that lives with the
  pattern object and serves its every K and call) is the limit. The rows
  are built as Fourier rows, so shifting a column subset keeps its singular
  values, and one subset per cyclic-shift orbit is enough, with no check of
  that structure; for ``N/2 < 2K < N`` they are the complements of the
  orbits of ``N - 2K`` columns, which take fewer necklace levels to generate.

The top level takes the columns when their worst case, ``orbits(N, 2K)``
summed over the open K, is at most the rows' and the rows fit the budget
left. Reports cannot differ: such a row sweep would run to its end, the top
level is the budget's last consumer, and both sides decide S's granule by the
same 1e-10 rank rule. A row sweep that runs out of budget leaves the lower
bound, flagged as such.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from pathlib import Path

import numpy as np

from ._codec import JsonReport
from ._linalg import (
    _CHUNK_ENTRIES,
    DEFAULT_BUDGET,
    RANK_RTOL,
    check_budget,
    dependent_mask,
    iter_orbit_chunks,
    orbits,
    rank_test,
    sweep,
)
from .matrix_core import _fourier_rows, as_index, parse_list


@dataclass(frozen=True)
class MissingSamplePattern:
    """A power-of-two signal length and its distinct missing positions in [0, n), kept sorted."""

    n: int
    missing: tuple[int, ...]

    def __post_init__(self):
        n = as_index(self.n, "signal length")
        if n < 2 or n & (n - 1):
            raise ValueError(f"signal length must be a power of two >= 2, got {n}")
        pos = sorted(as_index(q, "missing position") for q in self.missing)
        if len(set(pos)) != len(pos):
            raise ValueError(f"duplicate missing positions: {pos}")
        if any(q < 0 or q >= n for q in pos):
            raise ValueError(f"missing positions must lie in [0, {n})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "missing", tuple(pos))

    @classmethod
    def of(cls, n: int, positions) -> "MissingSamplePattern":
        """The pattern of length ``n`` missing any iterable of ``positions``."""
        return cls(n, tuple(positions))

    @property
    def q(self) -> int:
        return len(self.missing)

    @property
    def r(self) -> int:
        return self.n.bit_length() - 1

    def available(self) -> tuple[int, ...]:
        gone = set(self.missing)
        return tuple(p for p in range(self.n) if p not in gone)

    @cached_property
    def _column_test(self):
        """``rank_test`` of the inverse DFT's rows ``available()``, built on first use and kept here.

        Every column sweep on this pattern shares its Gram and null side. It is
        no part of the value: equality, hash and repr read the fields alone,
        and copies and pickles are rebuilt from them (``__reduce__``).
        """
        avail = np.array(self.available(), dtype=np.float64)
        return rank_test(_fourier_rows(avail, self.n, self.n, 1.0 / self.n))

    def __reduce__(self):
        return type(self), (self.n, self.missing)


def load_pattern(path) -> MissingSamplePattern:
    """Read a pattern file: line 1 N, line 2 positions as ``--missing`` takes them, then blanks.

    Line 2 goes through ``matrix_core.parse_list``. Errors name the file and the line.
    """
    lines = Path(path).read_text("utf-8-sig").splitlines() + ["", ""]
    line = 1
    try:
        n = int(lines[0])
        MissingSamplePattern(n, ())  # N alone, so its errors name line 1
        line = 2
        pattern = MissingSamplePattern.of(n, parse_list(lines[1], "positions"))
    except ValueError as exc:
        raise ValueError(f"{path}:{line}: {exc}") from None
    for line, text in enumerate(lines[2:], 3):
        if text.strip():
            raise ValueError(f"{path}:{line}: nothing may follow the positions line")
    return pattern


def stride_count(p: MissingSamplePattern, h: int) -> int:
    """Largest number of missing positions sharing a residue modulo 2^h."""
    h = as_index(h, "h")
    if not 0 <= h <= p.r - 1:
        raise ValueError(f"h must lie in [0, {p.r - 1}], got {h}")
    return _stride_rows(p.n, p.missing)[h].count


@dataclass(frozen=True)
class StrideRow:
    """One derivation row: the largest residue class of the missing positions modulo 2^h."""

    h: int
    modulus: int
    argmax_residue: int  # the smallest residue among the largest classes
    count: int
    term: int


def _stride_rows(n: int, missing) -> tuple[StrideRow, ...]:
    """The closed form's rows, one per modulus 2^h below n, in O(q) per modulus."""
    rows = []
    for h in range(n.bit_length() - 1):
        modulus = 1 << h
        classes = Counter(m % modulus for m in missing)
        count = max(classes.values(), default=0)
        argmax = min((r for r, c in classes.items() if c == count), default=0)
        rows.append(StrideRow(h, modulus, argmax, count, modulus * (count - 1)))
    return tuple(rows)


@dataclass(frozen=True)
class DftUniquenessResult(JsonReport):
    """The uniqueness limit with its closed-form derivation.

    ``k_max`` is the exact limit when ``exact`` is set, and otherwise a proven
    lower bound (the sweep ran out of budget). ``closed_form_k_max`` is the
    paper's stride-count value, an upper bound on the true limit, so the two
    always bracket it. ``derivation`` holds its rows, one per modulus 2^h < N.
    """

    n: int
    missing: tuple[int, ...]
    stride_counts: dict[int, int]
    penalty: int | None  # None when there are no missing samples
    k_max: int
    exact: bool
    closed_form_k_max: int
    derivation: tuple[StrideRow, ...]

    def to_text(self) -> str:
        lines = [f"N = {self.n}, missing {len(self.missing)} samples: {list(self.missing)}"]
        for row in self.derivation:
            lines.append(
                f"  h={row.h} modulus={row.modulus:3d}  max residue class size "
                f"{row.count} (residue {row.argmax_residue})  term {row.term}"
            )
        if self.penalty is None:
            lines.append("no missing samples: full DFT is invertible")
        else:
            lines.append(f"penalty = {self.penalty}")
            lines.append(f"closed form (an upper bound): K <= {self.closed_form_k_max}")
        if self.exact:
            lines.append(f"unique reconstruction guaranteed for K <= {self.k_max}")
        else:
            lines.append(
                f"limit is at least {self.k_max} and at most {self.closed_form_k_max} "
                "(lower bound, budget exhausted)"
            )
        return "\n".join(lines) + "\n"


def _bch_lower(n: int, q, stop) -> int:
    """The BCH bound on S_n(q): L + 1, for L the longest run a, a + d, ... of available positions.

    The spectra of signals on q form a cyclic code whose zeros are the
    available positions, so a run of L of them with step d a unit mod n bounds
    its weight from below by L + 1 (Bose & Ray-Chaudhuri; van Lint & Wilson,
    IEEE TIT 1986). Multiplying by a unit u maps such a run with step u^-1 to
    consecutive positions, so L is the largest cyclic gap of u q, less one,
    over the units u; u and -u give the same gaps, so odd u <= n / 2 cover
    every unit mod 2^r. Blocks of units, each built apart, map to at most ``_CHUNK_ENTRIES`` entries.
    The scan stops after the first block whose bound reaches ``stop``, so it
    returns the full scan's bound when that is below ``stop``, and otherwise
    a bound of at least ``stop`` and at most the full scan's.
    """
    missing = np.array(sorted(q), dtype=np.int64)
    block = max(1, _CHUNK_ENTRIES // len(missing))
    longest = 0
    for start in range(1, n // 2 + 1, 2 * block):
        units = np.arange(start, min(start + 2 * block, n // 2 + 1), 2)
        mapped = np.sort(units[:, None] * missing % n, axis=1)
        gaps = np.diff(mapped, axis=1, append=mapped[:, :1] + n)
        longest = max(longest, int(gaps.max()) - 1)
        if longest + 1 >= stop:
            break
    return longest + 1


def _null_vectors(a: np.ndarray) -> np.ndarray:
    """A unit null vector of each (q - 1) x q matrix of the stack ``a``, as rows.

    It is the last column of Q in ``a^H = QR``. ``np.linalg.qr``'s raw mode
    keeps Q as q - 1 Householder reflectors ``I - tau_j v_j v_j^H``, with v_j
    1 at j followed by ``h[:, j, j+1:]``; applying them to e_q, right to
    left, gives that column without building a q x q Q.
    """
    h, tau = np.linalg.qr(a.conj().transpose(0, 2, 1), mode="raw")
    x = np.zeros((a.shape[0], a.shape[2]), dtype=complex)
    x[:, -1] = 1
    for j in range(a.shape[1] - 1, -1, -1):
        v = h[:, j, j + 1:]
        w = tau[:, j] * (x[:, j] + np.einsum("bi,bi->b", v.conj(), x[:, j + 1:]))
        x[:, j] -= w
        x[:, j + 1:] -= w[:, None] * v
    return x


class _MinSupport:
    """Smallest DFT support S_n(Q) of a nonzero signal on Q, for a pattern and its decimations.

    Every row sweep draws on one evaluation budget; ``settle`` caches per (n, Q, step).
    """

    def __init__(self, budget: float, pattern: MissingSamplePattern):
        self.left = budget
        self.pattern = pattern
        self.memo: dict[tuple[int, frozenset[int], int], tuple[float, bool]] = {}

    def settle(self, n: int, q: frozenset[int], step: int = 1) -> tuple[float, bool]:
        """S_n(q), or its lower bound when a sweep was cut, and whether exact; inf for empty q.

        The upper bound ``hi`` is q's own closed form, ``n - penalty``. The
        caller reads a support S only as ``(S - 1) // step`` (``step=2``
        gives K). The BCH bound comes first, its scan cut once it reaches
        ``hi``'s granule: when ``hi`` lies inside its granule, neither the
        decimation recursion nor any sweep below it runs. Otherwise the
        larger of the two bounds is taken, and a sweep runs only when ``hi``
        lies past its granule (at ``step=2`` from the cheaper side), stopping
        at the first support confirmed inside it. A sweep cut by the budget
        or by a refused support leaves the bound, flagged inexact.
        """
        if not q:
            return math.inf, True
        if n == 1:
            return 1, True
        if (n, q, step) in self.memo:
            return self.memo[n, q, step]

        def granule_end(s):
            return s - 1 - (s - 1) % step + step

        hi = n - max(row.term for row in _stride_rows(n, q))
        lo = _bch_lower(n, q, hi - (hi - 1) % step)
        if granule_end(lo) < hi:
            lo = max(lo, self.lower(n, q))
        result = lo, True
        if granule_end(lo) < hi:
            columns = self.column_scan(n, q, lo, hi) if step == 2 else None
            best, exact = columns or self.zero_set_sweep(n, q, hi, granule_end(lo))
            result = (best, True) if exact else (lo, False)
        self.memo[n, q, step] = result
        return result

    def lower(self, n: int, q: frozenset[int]) -> float:
        """Decimation lower bound on S_n(q), for n >= 2, from four half-length patterns."""
        h = n // 2
        # even frequencies see x(m) + x(m+h), odd ones the twisted x(m) - x(m+h);
        # when one half vanishes, x lives on the half-period pairs P
        pairs = frozenset(m for m in q if m < h and m + h in q)
        folded = frozenset(m % h for m in q)
        by_frequency = min(self.settle(h, pairs)[0], 2 * self.settle(h, folded)[0])
        # X(k) and X(k+h) are X0(k) +/- w^-k X1(k) for the even and odd samples:
        # both are nonzero where just one of X0(k), X1(k) is, one is where both are
        even = frozenset(m // 2 for m in q if m % 2 == 0)
        odd = frozenset(m // 2 for m in q if m % 2)
        s0, s1 = self.settle(h, even)[0], self.settle(h, odd)[0]
        # an empty half has value inf, which leaves twice the other half
        by_time = min(2 * s0, 2 * s1, max(s0, s1))
        return max(by_frequency, by_time)

    def column_scan(self, n: int, q: frozenset[int], lo: int, hi: int):
        """``(2K + 1, True)`` for the K of S_n(q) in ``[lo, hi]``, or None for the row side.

        The count rule is the module docstring's; no K passing gives ``lo``'s.
        Only the top level (``step=2``) calls it, so (n, q) is ``self.pattern``'s,
        whose column test it sweeps.
        """
        k_lo, k_hi = (lo - 1) // 2, (hi - 1) // 2
        rows = orbits(n, len(q) - 1)
        costs = accumulate(orbits(n, 2 * k) for k in range(k_hi, k_lo, -1))
        if rows > self.left or any(cost > rows for cost in costs):
            return None
        size = _first_independent(self.pattern, range(2 * k_hi, 2 * k_lo, -2))
        return (size or 2 * k_lo) + 1, True

    def zero_set_sweep(self, n: int, q: frozenset[int], hi: int, stop: float) -> tuple[int, bool]:
        """Smallest confirmed support below ``hi`` and whether the sweep was complete.

        Each row set's null vector comes from ``_null_vectors``, a raw QR and
        its q - 1 reflectors. Scans the row sets in order, one at a time as
        far as any result shows:
        each support T below the smallest confirmed so far is confirmed once
        the rows of ``f`` outside T are found dependent, and a refused one
        makes the result inexact. The first confirmed support of at most
        ``stop`` is the hit that ends the sweep. A spent budget covers no row
        set, so neither ``f`` nor a chunk is built.
        """
        if self.left < 1:
            return hi, False
        cols = np.array(sorted(q))
        f = np.exp(-2j * np.pi * (np.outer(np.arange(n), cols) % n) / n)
        best, confirmed = hi, True

        def evaluate(rows):
            nonlocal best, confirmed
            # the null vector has unit norm, so its spectrum has norm sqrt(n)
            nonzero = np.abs(_null_vectors(f[rows]) @ f.T) > RANK_RTOL * math.sqrt(n)
            support = nonzero.sum(axis=1)
            for i in np.flatnonzero(support < best):
                if support[i] >= best:
                    continue
                if not dependent_mask(f[~nonzero[i]][None])[0]:
                    confirmed = False
                    continue
                best = int(support[i])
                if best <= stop:
                    return int(i)
            return None

        run = sweep(iter_orbit_chunks(n, len(q) - 1), evaluate, self.left)
        self.left -= run.covered
        return best, run.exact and confirmed


def dft_sparsity_limit(
    p: MissingSamplePattern, budget: int = DEFAULT_BUDGET
) -> DftUniquenessResult:
    """The largest K for which every K-sparse spectrum is unique given the samples.

    The closed form ``floor((N - penalty - 1) / 2)`` is reported as
    ``closed_form_k_max``, an upper bound. The lower bound (decimation and
    BCH) settles ``k_max`` when it gives the same K; otherwise an exact
    sweep does, over row sets or over column subsets, whichever side has
    fewer. The row sweeps of all decimation levels together evaluate at
    most ``budget`` row sets; once it runs out, ``k_max`` is the lower bound
    with ``exact=False``. With no missing samples ``k_max = N``:
    the complete DFT is invertible, so every spectrum is recoverable.
    """
    budget = check_budget(budget)
    if p.q == 0:
        return DftUniquenessResult(p.n, p.missing, {}, None, p.n, True, p.n, ())
    rows = _stride_rows(p.n, p.missing)
    penalty = max(row.term for row in rows)
    closed_form = max(0, (p.n - penalty - 1) // 2)
    support, exact = _MinSupport(budget, p).settle(p.n, frozenset(p.missing), step=2)
    k_max = (support - 1) // 2
    counts = {row.h: row.count for row in rows}
    return DftUniquenessResult(p.n, p.missing, counts, penalty, k_max, exact, closed_form, rows)


def dft_uniqueness_oracle(p: MissingSamplePattern, k: int) -> bool:
    """Brute-force check that no two distinct K-sparse spectra share all samples.

    Builds the partial inverse-DFT block on the available positions, the
    entries of ``build_partial_idft`` without its validation, and tests
    every 2K-column submatrix for full column rank, one subset per
    cyclic-shift orbit: shifting a column subset multiplies its columns by
    a unit-modulus diagonal, which keeps its singular values, so C(16, 8) =
    12,870 subsets become 810. For ``N/2 < 2K < N`` the representatives are
    the complements of those of ``N - 2K`` columns: complement commutes with
    shifts. The test is ``_first_independent`` at the one size 2K, the
    column side of ``dft_sparsity_limit``, on the rank test that lives with
    ``p``: asking K = 1, 2, ... of one pattern object forms its Gram once.
    """
    k = as_index(k, "sparsity")
    if k < 1:
        raise ValueError(f"sparsity must be >= 1, got {k}")
    if 2 * k > p.n - p.q:
        return False
    return _first_independent(p, [2 * k]) is not None


def _first_independent(p: MissingSamplePattern, sizes):
    """The first of ``sizes`` whose column subsets of ``p``'s partial inverse DFT are independent.

    None when no size passes. Every size, and every call on the same ``p``,
    uses the rank test that lives with ``p`` (``p._column_test``). Each size
    is swept one subset per cyclic-shift orbit from the side with fewer gaps:
    ``iter_orbit_chunks(n, size)``, or for ``n / 2 < size < n`` the
    complements of ``iter_orbit_chunks(n, n - size)``, one per orbit too since
    complement commutes with shifts. The caller reads only whether a subset
    is flagged, so which subset of an orbit stands for it does not matter.
    """
    n = p.n
    for size in sizes:
        if n < 2 * size < 2 * n:
            chunks = _complements(iter_orbit_chunks(n, n - size), n)
        else:
            chunks = iter_orbit_chunks(n, size)
        if sweep(chunks, p._column_test).witness is None:
            return size
    return None


def _complements(chunks, n: int):
    """Each (B, t) chunk's subsets' complements in range(n), sorted, as (B, n - t) chunks.

    Each is the transpose of a C-ordered (n - t, B) array, the layout in
    which ``rank_test`` gathers Grams fast.
    """
    for t in chunks:
        keep = np.ones((len(t), n), dtype=bool)
        np.put_along_axis(keep, t, False, axis=1)
        yield np.ascontiguousarray(np.nonzero(keep)[1].reshape(len(t), -1).T).T
