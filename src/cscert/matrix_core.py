"""Measurement-matrix construction, CSV loading, normalization, and the Gram.

Matrices are dense complex arrays; real matrices are stored as complex with
zero imaginary parts so that partial Fourier constructions and loaded real
fixtures share one code path.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

MATRIX_KINDS = ("loaded", "gaussian", "partial_idft", "random_partial_fourier")

# Column norms within this distance of one count as normalized.
NORMALIZED_ATOL = 1e-9

# Below this plain column norm the squared entries may have lost digits to underflow.
_UNDERFLOW_NORM = 1e-150


def _lift(arr: np.ndarray, cols) -> np.ndarray:
    """A copy of ``arr`` with the columns ``cols`` times 2^600: exact, and normal if subnormal."""
    arr = arr.copy()
    for part in (arr.real, arr.imag):  # apart: a complex product would turn -0.0 into +0.0
        part[:, cols] *= 2.0**600
    return arr


def _column_norms(arr: np.ndarray) -> np.ndarray:
    """Euclidean column norms, finite and accurate wherever the entries' moduli are.

    The plain norm squares the entries, so it overflows above about 1e154 and
    underflows below about 1e-154. Only columns whose plain norm is infinite,
    or below ``_UNDERFLOW_NORM`` with a nonzero entry, are recomputed, scaled
    by their peak entry first, so every other norm is bit-identical to the
    plain one.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(arr, axis=0)
    redo = np.flatnonzero(np.isinf(norms) | (norms < _UNDERFLOW_NORM))
    peak = np.abs(arr[:, redo]).max(axis=0)
    redo, peak = redo[peak > 0], peak[peak > 0]
    # numpy divides complex by real through the reciprocal, which overflows for a subnormal peak
    cols = _lift(arr[:, redo], peak < np.finfo(float).tiny)
    norms[redo] = peak * np.linalg.norm(cols / np.abs(cols).max(axis=0), axis=0)
    return norms


def as_index(value, name: str) -> int:
    """``value`` as an int; a float or other non-integer raises ``ValueError`` naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


class CsvParseError(ValueError):
    """A CSV cell could not be parsed as a real or complex number."""


class CsvShapeError(ValueError):
    """Rows of a matrix CSV file have inconsistent lengths."""


class DegenerateColumnError(ValueError):
    """An operation hit a zero column it cannot handle."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"column {index} has zero norm")


@dataclass(frozen=True, eq=False)
class MeasurementMatrix:
    """Dense M x N measurement matrix with provenance metadata.

    ``normalized`` is measured at construction, never supplied: it is true
    iff every column norm lies within ``NORMALIZED_ATOL`` of one.
    """

    entries: np.ndarray
    kind: str = "loaded"
    normalized: bool = field(init=False)

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.complex128, order="C")
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"matrix must be 2-D and nonempty, got shape {arr.shape}")
        bad = np.argwhere(~np.isfinite(arr))
        if bad.size:
            r, c = bad[0]
            raise ValueError(f"row {r}, column {c}: non-finite entry {arr[r, c]}")
        if self.kind not in MATRIX_KINDS:
            raise ValueError(f"unknown matrix kind {self.kind!r}")
        if self.kind == "partial_idft":
            mods = np.abs(arr)
            scale = float(mods.flat[0])
            if scale == 0.0 or not np.allclose(mods, scale, rtol=1e-12, atol=0.0):
                raise ValueError("partial_idft entries must all share one modulus")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        norms = _column_norms(arr)
        object.__setattr__(
            self, "normalized", bool(np.all(np.abs(norms - 1.0) <= NORMALIZED_ATOL))
        )

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    @cached_property
    def _gram(self) -> np.ndarray:
        g = self.entries.conj().T @ self.entries
        g = (g + g.conj().T) / 2.0
        g.setflags(write=False)
        return g

    def describe(self) -> str:
        return f"{self.kind} {self.rows}x{self.cols}"


def _parse_cell(text: str, row: int, col: int) -> complex:
    s = text.strip().replace(" ", "")
    if not s:
        raise CsvParseError(f"row {row}, column {col}: empty cell")
    try:
        return complex(s.replace("i", "j"))
    except ValueError:
        raise CsvParseError(f"row {row}, column {col}: cannot parse {text!r}") from None


def _parse_row(cells: list, row: int) -> list:
    """A row's values: one ``float`` per cell when all are finite reals, else ``_parse_cell``'s.

    ``float`` takes inf and nan, which ``_parse_cell`` parses otherwise, so
    only an all-finite row keeps the fast path; every diagnostic is
    ``_parse_cell``'s.
    """
    try:
        values = [float(c) for c in cells]
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    return [_parse_cell(c, row, i) for i, c in enumerate(cells)]


def parse_list(raw: str, what: str, kind: type = int) -> list:
    """Comma-separated ``kind`` values: a blank string is no values, an empty entry an error."""
    if not raw.strip():
        return []
    try:
        return [kind(tok) for tok in raw.split(",")]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ValueError(f"{what} must be a comma-separated list of {noun}, got {raw!r}") from None


def load_matrix_csv(path) -> MeasurementMatrix:
    """Load a matrix from CSV, one row per line, cells real or ``a+bi``; errors name the file."""
    lines = [ln for ln in Path(path).read_text("utf-8-sig").splitlines() if ln.strip()]
    try:
        if not lines:
            raise CsvShapeError("no rows")
        width = len(lines[0].split(","))
        rows = []
        for r, line in enumerate(lines):
            cells = line.split(",")
            if len(cells) != width:
                raise CsvShapeError(f"row {r} has {len(cells)} fields, expected {width}")
            rows.append(_parse_row(cells, r))
        return MeasurementMatrix(np.array(rows, dtype=np.complex128), kind="loaded")
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _format_cell(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    if im == 0.0:
        return repr(re)
    sign = "+" if im >= 0 else "-"
    return f"{re!r}{sign}{abs(im)!r}i"


def save_matrix_csv(a: MeasurementMatrix, path) -> None:
    """Write a matrix in the CSV dialect accepted by :func:`load_matrix_csv`."""
    lines = [",".join(_format_cell(z) for z in row) for row in a.entries]
    Path(path).write_text("\n".join(lines) + "\n")


def _fourier_rows(times: np.ndarray, n: int, period: float, scale: float) -> np.ndarray:
    """Entries ``exp(2j*pi*t_m*k/period) * scale`` for instants t_m and harmonics k < n."""
    return np.exp(2j * np.pi * times[:, None] * np.arange(n, dtype=np.float64) / period) * scale


def build_partial_idft(
    n: int, sample_positions, normalize: bool = False
) -> MeasurementMatrix:
    """Rows of the inverse DFT matrix kept at the given sample positions.

    Entry (m, k) is ``exp(2j*pi*n_m*k/n) * s`` with ``s = 1/n`` by default, or
    ``s = 1/sqrt(M)`` when ``normalize`` is set so each column has unit energy.
    """
    n = as_index(n, "signal length")
    positions = [as_index(p, "sample position") for p in sample_positions]
    if not positions:
        raise ValueError("at least one sample position is required")
    if len(set(positions)) != len(positions):
        raise ValueError(f"duplicate sample positions: {positions}")
    if any(p < 0 or p >= n for p in positions):
        raise ValueError(f"sample positions must lie in [0, {n})")
    scale = 1.0 / math.sqrt(len(positions)) if normalize else 1.0 / n
    entries = _fourier_rows(np.array(positions, dtype=np.float64), n, n, scale)
    return MeasurementMatrix(entries, kind="partial_idft")


def build_random_partial_fourier(
    n: int, interval: float, times, normalize: bool = False
) -> MeasurementMatrix:
    """Inverse Fourier-series rows sampled at arbitrary instants in [0, interval).

    Entry (m, k) is ``exp(2j*pi*t_m*k/interval)``, with an optional 1/sqrt(M)
    column-energy normalization. ``n`` and ``interval`` are checked before
    ``times`` is read.
    """
    if as_index(n, "number of harmonics") < 1:
        raise ValueError(f"number of harmonics must be positive, got {n}")
    if not (math.isfinite(interval) and interval > 0):
        raise ValueError(f"interval must be a positive finite number, got {interval}")
    t = np.array([float(x) for x in times], dtype=np.float64)
    if t.size < 1:
        raise ValueError("at least one sampling instant is required")
    if not np.all((t >= 0) & (t < interval)):
        raise ValueError(f"sampling instants must lie in [0, {interval})")
    scale = 1.0 / math.sqrt(t.size) if normalize else 1.0
    entries = _fourier_rows(t, n, interval, scale)
    return MeasurementMatrix(entries, kind="random_partial_fourier")


def build_gaussian(rows: int, cols: int, seed: int) -> MeasurementMatrix:
    """I.i.d. standard-normal entries scaled by 1/sqrt(rows), unit column energy
    in expectation.

    Uses numpy's PCG64 generator, so a fixed seed reproduces the same matrix.
    """
    rows, cols = as_index(rows, "number of rows"), as_index(cols, "number of columns")
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    rng = np.random.default_rng(seed)
    entries = rng.standard_normal((rows, cols)) / math.sqrt(rows)
    return MeasurementMatrix(entries, kind="gaussian")


def normalize_columns(a: MeasurementMatrix) -> MeasurementMatrix:
    """Divide each column by its Euclidean norm."""
    norms = _column_norms(a.entries)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateColumnError(int(zero[0]))
    entries, low = a.entries, norms < np.finfo(float).tiny
    if low.any():
        # a subnormal norm has lost digits and its reciprocal overflows: lift, measure again
        entries = _lift(entries, low)
        norms[low] = _column_norms(entries[:, low])
    return MeasurementMatrix(entries / norms[None, :], kind=a.kind)


def gram(a: MeasurementMatrix) -> np.ndarray:
    """Conjugate-transpose product of the matrix with itself, made exactly Hermitian.

    Formed once per matrix, whose entries are read-only, and kept with it as a
    read-only array: every RIP order of a certification shares it.
    """
    return a._gram
