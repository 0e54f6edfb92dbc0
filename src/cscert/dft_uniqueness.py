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
* Lower: a decimation recursion. Splitting the spectrum into even and odd
  frequencies, or the signal into even and odd positions, bounds ``S_N`` by
  the smallest supports of four half-length patterns, each found by the same
  routine one level down.

When the two bounds give different K, an exact sweep settles it: the largest
zero set of a nonzero spectrum is the zero set of the null vector of some
``q - 1`` rows of ``F[k, n] = w^{-kn}``, n in Q. Modulating a signal on Q by
``w^{cn}`` keeps it on Q and shifts its spectrum by c, so the null space of
rows R + c (mod N) is that of rows R, modulated, with the same supports. One
row set per cyclic-shift orbit is therefore enough
(``_linalg.iter_orbit_chunks``), about C(N, q - 1) / N of them. Each support
T found is confirmed with the package's rank rule on the rows of ``F`` outside
T, which are dependent exactly when the oracle's inverse-DFT columns T are
(duality). The sweep has a budget; when it runs out the reported
limit is the lower bound and is flagged as such. The brute-force
``dft_uniqueness_oracle`` is independent of all this and cross-checks it at
desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._codec import JsonReport
from ._linalg import (
    DEFAULT_BUDGET,
    RANK_RTOL,
    any_dependent,
    check_budget,
    dependent_mask,
    iter_orbit_chunks,
    sweep,
)
from .matrix_core import as_index, build_partial_idft, parse_list


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


def load_pattern(path) -> MissingSamplePattern:
    """Read a pattern file: line 1 N, line 2 positions as ``--missing`` takes them, then blanks.

    Line 2 goes through ``matrix_core.parse_list``. Errors name the file and the line.
    """
    lines = Path(path).read_text().splitlines() + ["", ""]
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
    """One derivation row: residue histogram for a single modulus."""

    h: int
    modulus: int
    residue_counts: tuple[int, ...]
    argmax_residue: int
    count: int
    term: int


def _stride_rows(n: int, missing) -> tuple[StrideRow, ...]:
    """The closed form's rows, one per modulus 2^h below n."""
    missing = np.array(missing, dtype=np.intp)
    rows = []
    for h in range(n.bit_length() - 1):
        modulus = 1 << h
        hist = np.bincount(missing % modulus, minlength=modulus)
        argmax = int(hist.argmax())
        count = int(hist[argmax])
        term = modulus * (count - 1)
        rows.append(StrideRow(h, modulus, tuple(hist.tolist()), argmax, count, term))
    return tuple(rows)


@dataclass(frozen=True)
class DftUniquenessResult(JsonReport):
    """The uniqueness limit with its closed-form derivation.

    ``k_max`` is the exact limit when ``exact`` is set, and otherwise a proven
    lower bound (the sweep ran out of budget). ``closed_form_k_max`` is the
    paper's stride-count value, an upper bound on the true limit, so the two
    always bracket it.
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


class _MinSupport:
    """Smallest DFT support S_n(Q) of a nonzero signal on Q, for a pattern and its decimations.

    Every sweep draws on one evaluation budget; values are cached per (n, Q).
    """

    def __init__(self, budget: float):
        self.left = budget
        self.memo: dict[tuple[int, frozenset[int]], float] = {}

    def value(self, n: int, q: frozenset[int]) -> float:
        """S_n(q) exactly, or its lower bound when a sweep was cut; inf when q is empty."""
        if not q:
            return math.inf
        if n == 1:
            return 1
        key = (n, q)
        if key not in self.memo:
            hi = n - max(row.term for row in _stride_rows(n, sorted(q)))
            self.memo[key] = self.settle(n, q, hi)[0]
        return self.memo[key]

    def settle(self, n: int, q: frozenset[int], hi: int, step: int = 1) -> tuple[int, bool]:
        """S_n(q), n >= 2, from the decimation bound and the upper bound ``hi``; and whether exact.

        The caller reads a support S only as ``(S - 1) // step`` (``step=2``
        gives K). So the zero-set sweep runs only when ``hi`` lies past the
        decimation bound's granule, and stops at the first support confirmed
        inside it. A sweep cut by the budget or by a refused support leaves the
        bound, flagged inexact.
        """
        lo = self.lower(n, q)
        stop = lo - 1 - (lo - 1) % step + step
        if stop >= hi:
            return lo, True
        best, exact = self.zero_set_sweep(n, q, hi, stop)
        return (best, True) if exact else (lo, False)

    def lower(self, n: int, q: frozenset[int]) -> float:
        """Decimation lower bound on S_n(q), for n >= 2, from four half-length patterns."""
        h = n // 2
        # even frequencies see x(m) + x(m+h), odd ones the twisted x(m) - x(m+h);
        # when one half vanishes, x lives on the half-period pairs P
        pairs = frozenset(m for m in q if m < h and m + h in q)
        folded = frozenset(m % h for m in q)
        by_frequency = min(self.value(h, pairs), 2 * self.value(h, folded))
        # X(k) and X(k+h) are X0(k) +/- w^-k X1(k) for the even and odd samples:
        # both are nonzero where just one of X0(k), X1(k) is, one is where both are
        even = frozenset(m // 2 for m in q if m % 2 == 0)
        odd = frozenset(m // 2 for m in q if m % 2)
        s0, s1 = self.value(h, even), self.value(h, odd)
        # an empty half has value inf, which leaves twice the other half
        by_time = min(2 * s0, 2 * s1, max(s0, s1))
        return max(by_frequency, by_time)

    def zero_set_sweep(self, n: int, q: frozenset[int], hi: int, stop: float) -> tuple[int, bool]:
        """Smallest confirmed support below ``hi`` and whether the sweep was complete.

        Scans the row sets in order, one at a time as far as any result shows:
        each support T below the smallest confirmed so far is confirmed once
        the rows of ``f`` outside T are found dependent, and a refused one
        makes the result inexact. The first confirmed support of at most
        ``stop`` is the hit that ends the sweep.
        """
        cols = np.array(sorted(q))
        f = np.exp(-2j * np.pi * (np.outer(np.arange(n), cols) % n) / n)
        best, confirmed = hi, True

        def evaluate(rows):
            nonlocal best, confirmed
            basis, _ = np.linalg.qr(f[rows].conj().transpose(0, 2, 1), mode="complete")
            # the null vector has unit norm, so its spectrum has norm sqrt(n)
            nonzero = np.abs(basis[:, :, -1] @ f.T) > RANK_RTOL * math.sqrt(n)
            support = nonzero.sum(axis=1)
            for i in np.flatnonzero(support < best):
                if support[i] >= best:
                    continue
                if not dependent_mask(f[~nonzero[i]][None])[0]:
                    confirmed = False
                    continue
                best = int(support[i])
                if best <= stop:
                    return np.arange(len(rows)) == i
            return None

        run = sweep(iter_orbit_chunks(n, len(q) - 1), evaluate, self.left)
        self.left -= run.covered
        return best, run.exact and confirmed


def dft_sparsity_limit(
    p: MissingSamplePattern, budget: int = DEFAULT_BUDGET
) -> DftUniquenessResult:
    """The largest K for which every K-sparse spectrum is unique given the samples.

    The closed form ``floor((N - penalty - 1) / 2)`` is reported as
    ``closed_form_k_max``, an upper bound. The decimation lower bound settles
    ``k_max`` when it gives the same K; otherwise an exact zero-set sweep does.
    The sweeps of all decimation levels together evaluate at most ``budget``
    row sets; once it runs out, ``k_max`` is the lower bound with
    ``exact=False``. With no missing samples ``k_max = N``:
    the complete DFT is invertible, so every spectrum is recoverable.
    """
    budget = check_budget(budget)
    if p.q == 0:
        return DftUniquenessResult(p.n, p.missing, {}, None, p.n, True, p.n, ())
    rows = _stride_rows(p.n, p.missing)
    penalty = max(row.term for row in rows)
    closed_form = max(0, (p.n - penalty - 1) // 2)
    support, exact = _MinSupport(budget).settle(p.n, frozenset(p.missing), p.n - penalty, step=2)
    k_max = (support - 1) // 2
    counts = {row.h: row.count for row in rows}
    return DftUniquenessResult(p.n, p.missing, counts, penalty, k_max, exact, closed_form, rows)


def dft_uniqueness_oracle(p: MissingSamplePattern, k: int) -> bool:
    """Brute-force check that no two distinct K-sparse spectra share all samples.

    Builds the partial inverse-DFT matrix on the available positions and tests
    every 2K-column submatrix for full column rank, one subset per
    cyclic-shift orbit (``_linalg.any_dependent``): shifting a column subset
    multiplies its columns by a unit-modulus diagonal, which keeps its
    singular values, so C(16, 8) = 12,870 subsets become 810.
    """
    k = as_index(k, "sparsity")
    if k < 1:
        raise ValueError(f"sparsity must be >= 1, got {k}")
    avail = p.available()
    if 2 * k > len(avail):
        return False
    entries = build_partial_idft(p.n, avail, normalize=False).entries
    return not any_dependent(entries, 2 * k)
