"""Closed-form uniqueness limit for DFT-sparse signals with missing samples.

For a length ``N = 2^r`` signal with missing-sample set Q, a reconstruction of
DFT sparsity K is guaranteed unique whenever ``2K < N - penalty`` where

    penalty = max over h in 0..r-1 of  2^h * (Q_{2^h} - 1)

and ``Q_{2^h}`` counts the largest group of missing positions that share a
residue modulo ``2^h``. A brute-force oracle on the partial inverse-DFT matrix
validates the limit at desk scale.

Known limitation: the closed-form penalty looks at one residue level at a
time, so it can overestimate ``k_max`` for patterns whose missing positions
nest half-period pairs across several levels. The smallest example is N=16
with missing {3, 5, 11, 13}: the formula reports k_max 3, but a signal
supported on those four positions has a DFT with only six nonzeros, so two
distinct 3-sparse spectra agree on every available sample (the true limit is
2, which ``dft_uniqueness_oracle`` confirms). This cannot happen for N = 8,
where the bound is exhaustively verified sound. For N >= 16, treat the
closed form as a screening estimate and the oracle as ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._codec import JsonReport
from ._linalg import CHUNK, dependent_mask, iter_combination_chunks, sweep
from .matrix_core import build_partial_idft


@dataclass(frozen=True)
class MissingSamplePattern:
    """Signal length (a power of two) plus the missing-sample positions."""

    n: int
    missing: tuple[int, ...]

    def __post_init__(self):
        n = int(self.n)
        if n < 2 or n & (n - 1):
            raise ValueError(f"signal length must be a power of two >= 2, got {n}")
        pos = tuple(int(q) for q in self.missing)
        if any(q < 0 or q >= n for q in pos):
            raise ValueError(f"missing positions must lie in [0, {n})")
        if any(a >= b for a, b in zip(pos, pos[1:])):
            raise ValueError(f"missing positions must be strictly increasing: {pos}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "missing", pos)

    @classmethod
    def of(cls, n: int, positions) -> "MissingSamplePattern":
        pos = sorted(int(q) for q in positions)
        if len(set(pos)) != len(pos):
            raise ValueError(f"duplicate missing positions: {pos}")
        return cls(n, tuple(pos))

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
    """Read a pattern file: first line N, second line comma-separated positions."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty pattern file")
    n = int(lines[0].strip())
    second = lines[1].strip() if len(lines) > 1 else ""
    positions = [int(tok) for tok in second.split(",") if tok.strip()] if second else []
    return MissingSamplePattern.of(n, positions)


def stride_count(p: MissingSamplePattern, h: int) -> int:
    """Largest number of missing positions sharing a residue modulo 2^h."""
    if not 0 <= h <= p.r - 1:
        raise ValueError(f"h must lie in [0, {p.r - 1}], got {h}")
    return dft_sparsity_limit(p).stride_counts.get(h, 0)


@dataclass(frozen=True)
class StrideRow:
    """One derivation row: residue histogram for a single modulus."""

    h: int
    modulus: int
    residue_counts: tuple[int, ...]
    argmax_residue: int
    count: int
    term: int


@dataclass(frozen=True)
class DftUniquenessResult(JsonReport):
    """Stride counts, penalty, and the guaranteed-unique sparsity limit."""

    n: int
    missing: tuple[int, ...]
    stride_counts: dict[int, int]
    penalty: int | None  # None when there are no missing samples
    k_max: int
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
        lines.append(f"unique reconstruction guaranteed for K <= {self.k_max}")
        return "\n".join(lines) + "\n"


def dft_sparsity_limit(p: MissingSamplePattern) -> DftUniquenessResult:
    """Largest K with 2K < N - penalty, via integer arithmetic only.

    With no missing samples the penalty formula is bypassed and ``k_max = N``:
    the complete DFT is invertible, so every spectrum is recoverable.
    """
    if p.q == 0:
        return DftUniquenessResult(p.n, p.missing, {}, None, p.n, ())
    counts: dict[int, int] = {}
    rows = []
    for h in range(p.r):
        modulus = 1 << h
        hist = np.bincount(np.array(p.missing) % modulus, minlength=modulus)
        argmax = int(hist.argmax())
        count = int(hist[argmax])
        counts[h] = count
        rows.append(
            StrideRow(
                h=h,
                modulus=modulus,
                residue_counts=tuple(int(c) for c in hist),
                argmax_residue=argmax,
                count=count,
                term=modulus * (count - 1),
            )
        )
    penalty = max(row.term for row in rows)
    k_max = max(0, (p.n - penalty - 1) // 2)
    return DftUniquenessResult(p.n, p.missing, counts, penalty, k_max, tuple(rows))


def dft_uniqueness_oracle(
    p: MissingSamplePattern, k: int, *, sample: int | None = None, seed: int = 0
) -> bool:
    """Brute-force check that no two distinct K-sparse spectra share all samples.

    Builds the partial inverse-DFT matrix on the available positions and tests
    every 2K-column submatrix for full column rank. ``sample`` switches to
    randomized subset sampling for sizes where exhaustive enumeration is
    infeasible; a sampled "True" is then only evidence, not proof.
    """
    if k < 1:
        raise ValueError(f"sparsity must be >= 1, got {k}")
    avail = p.available()
    if 2 * k > len(avail):
        return False
    entries = build_partial_idft(p.n, avail, normalize=False).entries
    if sample is None:
        chunks = iter_combination_chunks(p.n, 2 * k)
    else:
        rng = np.random.default_rng(seed)
        drawn = np.array(
            [np.sort(rng.choice(p.n, size=2 * k, replace=False)) for _ in range(sample)],
            dtype=np.intp,
        )
        chunks = (drawn[start : start + CHUNK] for start in range(0, len(drawn), CHUNK))
    return not sweep(chunks, lambda combs: dependent_mask(entries[:, combs].transpose(1, 0, 2))).hit
