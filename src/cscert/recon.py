"""Sparse-signal generation, measurement, and greedy recovery experiments.

This harness corroborates certified limits empirically: plant a K-sparse
vector, measure it through the matrix, reconstruct with orthogonal matching
pursuit (OMP), and count exact recoveries. Measurement vectors are plain
complex numpy arrays.

OMP's output is defined by the *reference arithmetic*: after every pick, a
``np.linalg.lstsq`` refit on the sorted support, the residual
``r = y - A_S c``, its norm against ``residual_tol``, and the next pick as
the largest ``|A^H r|`` computed by gemv. ``omp`` runs that loop itself
(``_reference_select``, then one refit on the final sorted support).
``monte_carlo`` gets the same picks from ``_select``, for the trials of every
sparsity in lockstep, each row stopping at its own target. Each step takes
one matrix product for all correlations (at the first a stacked gemv, below),
an argmax per row, and one Gram-Schmidt update: the new column is
orthogonalized twice against the row's orthonormal basis Q (CGS2), and the
residual loses its component along the new basis vector. Every decision
below reads only its own row, so a row's support, bound and departure do not
depend on which rows share its batch.

The screen. The engine's residual r_g and correlations differ from the
reference ones in the last digits, and exact ties are real: on a real matrix
with unit-modulus signal values, the two true atoms of a K=2 signal tie at
step 1, since ``|x_i + g x_j| = |x_j + g x_i|`` for real ``g = a_i^H a_j``.
So an engine decision stands only when it cannot differ from the
reference's: a pick when the two largest unpicked correlations are more
than ``2 * amax * dev`` apart (``amax`` the largest column norm), a stop or
continue when ``||r_g||`` is more than ``dev`` from ``residual_tol``. The
first pick needs no screen: there the reference's residual is y itself,
with no refit, so the engine takes the first correlations ``|A^H y|`` from
one stacked product whose rows are each the gemv of the reference's own
``A^H y``, byte for byte, and every first pick is the reference's. Such a
row stays when its continue is sure and that correlation is above 0. A row
with any step the screen cannot clear leaves the engine for good, and after
the lockstep loop ``_reference_select``, the reference arithmetic itself,
selects it again from the start. So every pick the engine holds is one it
cleared or one the reference made, and every support is the reference's:
the bounds below depend on the support and kappa, not on who chose the
pick.

Why ``dev`` bounds the difference. Let ``u = 2^-53``, S the support after k
picks, ``kappa = kappa_2(A_S)`` and ``r* = (I - P_S) y`` the exact residual.

* Reference residual. LAPACK's least-squares drivers are normwise backward
  stable (LAPACK Users' Guide, section 4.5): the computed c solves the
  problem for ``(A_S + E, y + f)`` exactly, with ``||E|| <= e ||A_S||`` and
  ``||f|| <= e ||y||``, where ``e = p u`` for a modest p; take
  ``e = M (k+1) u``. That problem's residual lies within
  ``(1 + 2 kappa) e ||y||`` of r* (Higham, *Accuracy and Stability of
  Numerical Algorithms*, Thm. 20.1). Going back to ``(A_S, y)`` costs
  ``||f|| + ||E c|| <= e (1 + kappa) ||y||``, since
  ``||c|| <= ||y|| / sigma_min``. Forming ``y - A_S c`` rounds by at most
  ``sqrt(2) gamma_(k+2) (||y|| + sqrt(k) ||A_S|| ||c||)``, below
  ``3 M (k+1) u (1 + kappa) ||y||``. In all,
  ``||r_ref - r*|| <= M (k+1) u (5 + 6 kappa) ||y||``.
* Engine residual. CGS2 gives ``A_S + D = Q R`` with ``||D|| <= e ||A_S||``
  and ``||I - Q^H Q|| <= eta`` (Giraud, Langou, Rozloznik and van den
  Eshof, Numer. Math. 101, 2005), both of order ``M k u`` while ``kappa u``
  is small; take ``e = eta = M (k+1) u``. Apart from rounding, r_g is y
  minus a combination of Q's columns, so its component orthogonal to
  range(Q) is exactly that of y, and its component in range(Q) is at most
  ``k eta ||y||``. The k updates round by at most ``3 M u ||y||`` each.
  range(Q) lies within ``e kappa`` of range(A_S) in projector norm
  (Wedin). In all, ``||r_g - r*|| <= M (k+1) u (3 + k + kappa) ||y||``.
* Correlations and norms. Each ``|a_j^H r|``, by gemv or by the batched
  product, rounds by at most ``5 M u ||a_j|| ||y||``; each norm by less.

So ``| |a_j^H r_ref| - |a_j^H r_g| | <= ||a_j|| ||y|| M (k+1) u
(18 + k + 7 kappa)``, and ``| ||r_ref|| - ||r_g|| |`` obeys the same bound
without ``||a_j||``. ``dev`` is that bound times ``_SAFETY``, which covers the
unspecified constants p of the cited backward errors. The engine bounds
kappa from the R factor it already holds: ``||A_S||_2 <= ||A_S||_F`` and
``1 / sigma_min(A_S)`` is ``||R^-1||_2 <= ||R^-1||_F`` up to a relative
``O(M k u kappa)``, so ``kappa <= 2 ||A_S||_F ||R^-1||_F``, both norms
accumulated as columns join (column k of ``R^-1`` is
``-R_(k-1)^-1 h / rho`` beside ``1 / rho``, with h and rho the new column's
projections and orthogonalized norm). On a normalized 10x24 Gaussian at k=5
kappa is about 3 and its bound about 14, so ``dev`` is about 6e-12 ``||y||``;
the largest difference measured on 219,074 (row, step) pairs of Gaussian and
partial inverse-DFT matrices was 3% of the bound before ``_SAFETY``.

The first-order terms above need ``kappa M k u`` small, so the screen also
sends off a row whose bound has passed ``_KAPPA_MAX``. A duplicate column, or
one in the span of those picked (``residual_tol=0`` can pick one), leaves an
orthogonalized norm rho near 0; rho is floored at ``||a_p|| / _KAPPA_MAX``, so
nothing divides by a vanishing norm and ``||R^-1||_F >= 1 / rho`` lifts the
bound to at least ``2 * _KAPPA_MAX``: the row leaves at the next screen. The
update also runs after the last pick, so a row's final bound covers its whole
support. A pick whose correlation is 0 leaves the engine: only the last
unpicked column can win so, and a zero column's floor would be 0.

Scoring. ``monte_carlo`` counts a trial as a hit when the reference refit on
the selected support S gives ``||x_hat - x|| / ||x|| <= recovery_tol``, both
norms as computed. S and the true support T (``|T| = K``, ``|x_i| = 1`` on
T) fix that outcome for most trials, so only the others are refit; both are
sorted and padded with N, so ``S = T`` is one row comparison:

* Sure miss. If T is not within S (so ``S != T``, as ``|S| <= K``), x_hat is
  exactly 0 at some i in T but not in S, where ``|x_i| = 1``: the computed
  ratio is at least ``(1 - O(N u)) / sqrt(K)``, whatever the refit returns, NaN
  included. The trial is a miss whenever ``recovery_tol * sqrt(K) < 1/2``.
* Sure hit. Let ``S = T`` with the row still in the engine, ``F =
  ||A_T||_F`` and ``sigma = sigma_min(A_T)``. The N - K zeros of x add exact
  zeros to the gemv, so ``y = A_T x_T + dy`` with ``|dy| <= sqrt(2)
  gamma_(K+1) |A_T| |x_T|``, hence ``||dy|| <= 2 (K+1) u F ||x||``. By the
  backward stability of LAPACK's ``gelsd`` (above), the coefficients c solve
  the problem for ``(A_T + E, y + f)`` exactly, ``||E|| <= e F`` and ``||f||
  <= e ||y||`` with ``e = M (K+1) u``. The unperturbed problem ``(A_T, A_T
  x_T)`` has residual 0, where Higham's Thm. 20.1 loses its ``kappa^2`` term
  and is the identity ``c - x_T = (A_T + E)^+ (dy + f - E x_T)``. So
  ``||c - x_T|| <= 2 (M+2) (K+1) u F ||x|| / (sigma - e F)``. The engine's
  final bound has ``F / sigma <= kappa``, and with ``e kappa <= 1/2`` the
  relative error is at most ``beta = 4 (M+2) (K+1) u kappa``. x_hat - x
  vanishes off T and rounds by u per entry on it; the two norms and the
  quotient round by a relative ``gamma_(2N+2)``, so the computed ratio is at
  most ``2 beta``. A trial scores a hit when ``kappa <= _KAPPA_MAX`` and
  ``_SAFETY * beta <= recovery_tol / 2`` (then ``e kappa < 1/128``).
* Everything else is refit: rows the screen sent off, ``recovery_tol = 0``,
  and ``recovery_tol * sqrt(K) >= 1/2``, where neither argument is used.

On 50 normalized 10x24 Gaussians at K=1..10 with 20 trials each, 7,148 of
10,000 trials select a wrong support and the other 2,852 settle as hits: no
trial leaves the engine, so none is refit.

Draws. Trial t at sparsity K is ``generate_sparse_signal(N, K, [seed, K,
t])``, which draws from ``np.random.default_rng([seed, K, t])``. Building
that generator costs more than the draw itself, so ``monte_carlo`` derives
every trial's PCG64 state in one numpy pass (``_pcg64_states``). PCG64's
state is a 128-bit LCG, ``s -> s * MULT + inc mod 2^128``, and each raw
64-bit word is the XSL-RR output of the state one step on. So word j of any
trial is reached directly by jump-ahead (Brown, "Random number generation
with arbitrary strides", Trans. Am. Nucl. Soc. 1994), and ``_pcg64_words``
computes the first ``2 * max K`` words of the whole batch in one broadcast
pass, in 128-bit arithmetic on (hi, lo) pairs of uint64 words, the high
word of each 64-bit product taken from 32-bit limbs. ``_draws`` replays on
these words, in numpy passes over the whole batch, what NumPy 2.4's
``choice(N, K, replace=False)`` and ``random(K)`` do:

* 32-bit draws are the low half of a fresh word, then its high half.
* Floyd's method: for j = N-K .. N-1, a value on [0, j] by Lemire's method
  (``m = u (j+1)``, rejected when ``m mod 2^32 < (2^32 - 1 - j) mod (j+1)``,
  value ``m >> 32``), or j itself when the value was picked before. j = 0,
  when K = N, draws nothing.
* The shuffle: K-1 Lemire draws on [0, i], i = K-1 .. 1. Supports are
  sorted, so only their count and rejections matter.
* ``random(K)``: the next K whole words, ``(w >> 11) 2^-53``; a buffered
  high half is skipped.

A trial with any Lemire rejection (below j / 2^32 per draw), or in
``choice``'s tail-shuffle regime (N > 10,000 and K > N // 50), is drawn by
``generate_sparse_signal`` itself, the reference draw. The batch is
exact, not approximate: NumPy's ``SeedSequence`` mixing (pool size 4, over
the 32-bit words of seed, K and t), PCG64's seeding, LCG step and XSL-RR
output, and these draws are fixed algorithms in integer arithmetic, and
``test_batched_draws_match_the_reference_draw`` pins every support and
value byte to the reference draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._codec import JsonReport
from .matrix_core import MeasurementMatrix, as_index

# Relative l2 error at or below this counts as exact recovery.
DEFAULT_RECOVERY_TOL = 1e-6

# OMP stops once the residual norm is at or below this.
DEFAULT_RESIDUAL_TOL = 1e-12

# Unit roundoff of IEEE double precision.
_U = np.finfo(np.float64).eps / 2

# Factor on the derived deviation bound, for the unspecified constants of
# the backward errors it rests on (module docstring).
_SAFETY = 8.0

# Past this bound on kappa(A_S) a row leaves the engine for the reference arithmetic.
_KAPPA_MAX = 1e8

# NumPy's fixed SeedSequence constants (pool size 4) and PCG64's 128-bit
# multiplier, which monte_carlo's batched draws reproduce (module docstring, "Draws")
_SS_POOL = 4
_SS_INIT_A = 0x43B0D7E5
_SS_MULT_A = 0x931E8875
_SS_INIT_B = 0x8B51F9DD
_SS_MULT_B = 0x58F38DED
_SS_MIX_MULT_L = 0xCA01F9DD
_SS_MIX_MULT_R = 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
# a uint64's low-half mask and half-word shift
_LOW32, _HALF = np.uint64(_MASK32), np.uint64(32)

# monte_carlo selects at most about this many state entries (signal, basis,
# R^-1) per batch of trials, so memory stays bounded for any trial count.
_BATCH_ENTRIES = 1 << 20

# _pcg64_states takes each trial index as one 32-bit word, so t < 2^32.
_MAX_TRIALS = 1 << 32


@dataclass(frozen=True, eq=False)
class SparseVector:
    """Length-N coefficient vector stored as (support, values on the support).

    The support is a strictly increasing tuple of indices in [0, length).
    """

    length: int
    support: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        length = as_index(self.length, "vector length")
        if length < 0:
            raise ValueError(f"vector length must be non-negative, got {length}")
        idx = tuple(as_index(i, "support index") for i in self.support)
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"support indices must be strictly increasing: {idx}")
        if idx and (idx[0] < 0 or idx[-1] >= length):
            raise ValueError(f"support indices must lie in [0, {length}): {idx}")
        vals = np.array(self.values, dtype=np.complex128)
        if vals.ndim != 1 or vals.size != len(idx):
            raise ValueError(
                f"need one value per support index, got {vals.size} values "
                f"for support of size {len(idx)}"
            )
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise ValueError(f"position {idx[bad[0]]}: non-finite value {vals[bad[0]]}")
        vals.setflags(write=False)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "support", idx)
        object.__setattr__(self, "values", vals)

    @property
    def nnz(self) -> int:
        return len(self.support)

    def to_dense(self) -> np.ndarray:
        x = np.zeros(self.length, dtype=np.complex128)
        x[list(self.support)] = self.values
        return x


def generate_sparse_signal(n: int, k: int, seed) -> SparseVector:
    """K-sparse vector with uniformly random support, deterministic per seed.

    The values have unit modulus and uniform random phase. ``seed`` is
    anything ``np.random.default_rng`` accepts. This is the reference draw:
    ``monte_carlo``'s trial t at sparsity K is this vector at
    ``seed=[seed, K, t]``, bit for bit (module docstring, "Draws").
    """
    n, k = as_index(n, "vector length"), as_index(k, "sparsity")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= K <= N, got K={k}, N={n}")
    rng = np.random.default_rng(seed)
    support = np.sort(rng.choice(n, size=k, replace=False))
    return SparseVector(n, tuple(support.tolist()), np.exp(2j * np.pi * rng.random(k)))


def _hashmix(v: np.ndarray, h: int, mult: int) -> tuple[np.ndarray, int]:
    """NumPy's SeedSequence ``hashmix`` of uint32 words ``v``, and the next hash constant."""
    v = v ^ np.uint32(h)
    h = h * mult & _MASK32
    v = v * np.uint32(h)
    return v ^ (v >> np.uint32(16)), h


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """NumPy's SeedSequence ``mix`` of two uint32 word arrays."""
    r = np.uint32(_SS_MIX_MULT_L) * x - np.uint32(_SS_MIX_MULT_R) * y
    return r ^ (r >> np.uint32(16))


def _u128(values) -> np.ndarray:
    """Python ints in [0, 2^128) as a (2, n) uint64 array of their (hi, lo) words."""
    return np.array([[v >> 64 for v in values], [v % (1 << 64) for v in values]], dtype=np.uint64)


def _mul128(a, b):
    """``a * b mod 2^128`` for (hi, lo) pairs of uint64 arrays.

    The high word of ``a_lo * b_lo`` comes from its 32-bit limbs.
    """
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    a0, a1, b0, b1 = a_lo & _LOW32, a_lo >> _HALF, b_lo & _LOW32, b_lo >> _HALF
    t = a1 * b0 + (a0 * b0 >> _HALF)
    w = (t & _LOW32) + a0 * b1
    mulhi = a1 * b1 + (t >> _HALF) + (w >> _HALF)
    return mulhi + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def _add128(a, b):
    """``a + b mod 2^128`` for (hi, lo) pairs of uint64 arrays."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _pcg64_states(seed: int, ks: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """PCG64 ``(state, inc)`` of ``default_rng([seed, k, t])`` for each pair of ``ks``, ``ts``.

    Returns a (2, 2, B) uint64 array: state and inc, each as its (hi, lo)
    words. One numpy pass over all trials runs NumPy's SeedSequence mixing
    and ``generate_state(4, uint64)`` in uint32 arithmetic, then PCG64's
    seeding ``(s + inc) * MULT + inc mod 2^128`` in (hi, lo) arithmetic
    (module docstring, "Draws"). Needs ``0 <= seed``, ``1 <= k < 2^32`` and
    ``0 <= t < 2^32``.
    """
    # seed's 32-bit little-endian words, as NumPy splits an int (0 gives one word)
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    size = len(words) + 2
    entropy = np.zeros((max(size, _SS_POOL), len(ks)), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[size - 2], entropy[size - 1] = ks, ts
    h = _SS_INIT_A
    pool = []
    for word in entropy[:_SS_POOL]:
        v, h = _hashmix(word, h, _SS_MULT_A)
        pool.append(v)
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                v, h = _hashmix(pool[src], h, _SS_MULT_A)
                pool[dst] = _mix(pool[dst], v)
    for word in entropy[_SS_POOL:]:
        for dst in range(_SS_POOL):
            v, h = _hashmix(word, h, _SS_MULT_A)
            pool[dst] = _mix(pool[dst], v)
    h = _SS_INIT_B  # generate_state(4, uint64): eight uint32 words, cycling the pool
    state = []
    for i in range(8):
        v, h = _hashmix(pool[i % _SS_POOL], h, _SS_MULT_B)
        state.append(v.astype(np.uint64))
    s0, s1, s2, s3 = (state[2 * j] | state[2 * j + 1] << _HALF for j in range(4))
    one = np.uint64(1)
    inc = s2 << one | s3 >> np.uint64(63), s3 << one | one
    seeded = _add128(_mul128(_add128((s0, s1), inc), _u128([_PCG64_MULT])), inc)
    return np.array([seeded, inc])


def _pcg64_words(states: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` raw words of PCG64 at each state of ``_pcg64_states``, as (B, count).

    Each word is output after one LCG step, so word j (from 1) is the
    XSL-RR output of ``s * MULT^j + inc * (MULT^(j-1) + ... + 1) mod 2^128``:
    one broadcast pass over the whole array, its constants from Python ints.
    """
    powers, sums = [1], [0]
    for _ in range(count):
        sums.append(sums[-1] + powers[-1] & _MASK128)
        powers.append(powers[-1] * _PCG64_MULT & _MASK128)
    state, inc = states[..., None]
    hi, lo = _add128(_mul128(state, _u128(powers[1:])), _mul128(inc, _u128(sums[1:])))
    # XSL-RR: hi ^ lo rotated right by the top six bits of hi
    x, rot = hi ^ lo, hi >> np.uint64(58)
    return x >> rot | x << (np.uint64(64) - rot & np.uint64(63))


def _draws(n: int, seed: int, ks: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signals of ``generate_sparse_signal(n, k, [seed, k, t])`` for each pair of ``ks``, ``ts``.

    Returns the (B, N) dense signals and each row's sorted support, padded
    with N to the largest K. Every trial's first ``2 * max(ks)`` raw words
    come from ``_pcg64_words`` in one pass, and numpy passes over the whole
    batch replay on them what ``choice(n, K, replace=False)`` and
    ``random(K)`` do: Floyd's method and the shuffle, by Lemire's method on
    32-bit halves, then K whole words as phases (module docstring, "Draws").
    A trial with a Lemire rejection, or in ``choice``'s tail-shuffle regime,
    is drawn by ``generate_sparse_signal`` itself.
    """
    rows, k_max = len(ks), int(ks.max(initial=0))
    words = _pcg64_words(_pcg64_states(seed, ks, ts), 2 * k_max)
    # next_uint32: the low half of a fresh word, then its high half; choice
    # takes at most 2K - 1 halves, from the first K words
    halves = np.empty((rows, 2 * k_max), dtype=np.uint64)
    halves[:, 0::2] = words[:, :k_max] & _LOW32
    halves[:, 1::2] = words[:, :k_max] >> _HALF
    step = np.arange(k_max)
    held = step < ks[:, None]
    full = (ks == n).astype(np.intp)  # Floyd's first bound is then 0, which draws nothing
    # Floyd draws on [0, j] for j = n - K .. n - 1, then the shuffle on [0, i] for i = K - 1 .. 1
    floyd = n - ks[:, None] + step
    drawn = np.hstack([held & (floyd > 0), step[:-1] < ks[:, None] - 1])
    bound = np.where(drawn, np.hstack([floyd, ks[:, None] - 1 - step[:-1]]), 0).astype(np.uint64)
    at = np.hstack([step - full[:, None], (ks - full)[:, None] + step[:-1]])
    span = bound + np.uint64(1)
    m = np.take_along_axis(halves, np.maximum(at, 0), axis=1) * span
    rejected = (m & _LOW32) < (_LOW32 - bound) % span
    redraw = rejected.any(axis=1) | ((n > 10_000) & (ks > n // 50))
    # Floyd: take j itself when the draw repeats an earlier pick
    value = (m[:, :k_max] >> _HALF).astype(np.intp)
    picks = np.full((rows, k_max), n, dtype=np.intp)
    for d in range(k_max):
        seen = (picks[:, :d] == value[:, d, None]).any(axis=1)
        picks[:, d] = np.where(seen, floyd[:, d], value[:, d])
    # random(K): K whole words after the choice's, a buffered high half skipped
    phases = (np.take_along_axis(words, (ks - full)[:, None] + step, axis=1)
              >> np.uint64(11)) * 2.0**-53
    picks[~held] = n
    truth = np.sort(picks, axis=1)
    signals = np.zeros((rows, n), dtype=np.complex128)
    signals[np.nonzero(held)[0], truth[held]] = np.exp(2j * np.pi * phases[held])
    for row in np.flatnonzero(redraw):
        k = int(ks[row])
        x = generate_sparse_signal(n, k, [seed, k, int(ts[row])])
        signals[row], truth[row, :k] = x.to_dense(), x.support
    return signals, truth


def _refit(a: np.ndarray, y: np.ndarray, support: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients on the sorted support, and the residual vector."""
    cols = a[:, support]
    coeffs, *_ = np.linalg.lstsq(cols, y, rcond=None)
    return coeffs, y - cols @ coeffs


def _reference_select(a, y, k_target: int, residual_tol: float) -> np.ndarray:
    """The sorted support that the reference arithmetic (module docstring) selects for ``y``."""
    a_h = a.conj().T
    picked = []
    for _ in range(k_target):
        residual = _refit(a, y, np.sort(picked))[1] if picked else y
        if np.linalg.norm(residual) <= residual_tol:
            break
        corr = np.abs(a_h @ residual)
        corr[picked] = -1.0
        picked.append(int(np.argmax(corr)))
    return np.sort(np.array(picked, dtype=np.intp))


def _select(a: np.ndarray, ys: np.ndarray, k_target,
            residual_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """OMP supports of every row of ``ys`` in lockstep, and each row's bound on ``kappa_2``.

    The supports are one (rows, max target) intp array, each row sorted and
    padded with N = ``a.shape[1]`` as ``_draws`` pads the true supports; a bound
    covers its row's whole support, inf for the rows that left. ``k_target`` is
    one int or one target per row. The loop runs to the largest target, and a
    row drops out of it, not departed, once it holds its own target of picks. A
    row leaves the engine at the first step whose pick or stop the screen cannot
    clear, and ``_reference_select`` selects it again at its own target (module
    docstring). First picks are not screened: the first step's correlations come
    from one stacked product whose rows are each the reference's own gemv on y,
    byte for byte, so each first pick is the reference's.
    """
    (rows, m), n = ys.shape, a.shape[1]
    targets = np.broadcast_to(np.asarray(k_target, dtype=np.intp), (rows,))
    k_max = int(targets.max(initial=0))
    a_conj = a.conj()
    col_norm = np.linalg.norm(a, axis=0)
    amax = col_norm.max()
    y_norm = np.linalg.norm(ys, axis=1)
    picks = np.full((rows, k_max), n, dtype=np.intp)  # n: not picked, so it sorts last
    basis = np.zeros((rows, k_max, m), dtype=np.complex128)  # rows of Q
    r_inv = np.zeros((rows, k_max, k_max), dtype=np.complex128)
    r_inv_sq = np.zeros(rows)  # ||R^-1||_F^2
    cols_sq = np.zeros(rows)  # ||A_S||_F^2
    departed = np.zeros(rows, dtype=bool)  # rows the screen sent to _reference_select
    res = ys.astype(np.complex128)
    live = np.arange(rows)
    for i in range(k_max):
        live = live[targets[live] > i]
        if not live.size:
            break
        r = res[live]
        kappa = 2.0 * np.sqrt(cols_sq[live] * r_inv_sq[live])
        dev = _SAFETY * m * (i + 1) * _U * (18 + i + 7 * kappa) * y_norm[live]
        res_norm = np.linalg.norm(r, axis=1)
        # the reference's first residual is y itself, so at i = 0 each row's
        # own gemv, stacked, gives the reference's own correlations
        corr = np.abs(r @ a_conj if i else np.matmul(a_conj.T[None], r[:, :, None])[:, :, 0])
        corr[np.arange(live.size)[:, None], picks[live, :i]] = -1.0
        pick = corr.argmax(axis=1)
        top = corr[np.arange(live.size), pick]
        rival = np.partition(corr, -2, axis=1)[:, -2] if n > 1 else -1.0
        stop = res_norm + dev <= residual_tol
        go = res_norm - dev > residual_tol
        # a first pick is the reference's own; a later one stands when the top two are apart
        apart = (i == 0) | (top - rival > 2 * amax * dev)
        sure = go & apart & (top > 0)
        cleared = (kappa <= _KAPPA_MAX) & (stop | sure)
        departed[live[~cleared]] = True
        live, pick = live[cleared & ~stop], pick[cleared & ~stop]
        picks[live, i] = pick
        # CGS2: orthogonalize the new columns twice against each row's basis
        q, v = basis[live, :i], a.T[pick]
        q_conj = q.conj()
        h = np.zeros((live.size, i), dtype=np.complex128)
        for _ in range(2):
            c = np.einsum("gim,gm->gi", q_conj, v)
            v = v - np.einsum("gi,gim->gm", c, q)
            h += c
        # the floor keeps the update finite and lifts kappa's bound past _KAPPA_MAX
        rho = np.maximum(np.linalg.norm(v, axis=1), col_norm[pick] / _KAPPA_MAX)
        q_new = v / rho[:, None]
        basis[live, i] = q_new
        res[live] -= q_new * np.einsum("gm,gm->g", q_new.conj(), res[live])[:, None]
        col = -np.einsum("gij,gj->gi", r_inv[live, :i, :i], h) / rho[:, None]
        r_inv[live, :i, i] = col
        r_inv[live, i, i] = 1.0 / rho
        r_inv_sq[live] += np.sum(col.real**2 + col.imag**2, axis=1) + rho**-2.0
        cols_sq[live] += col_norm[pick] ** 2
    selected = np.sort(picks, axis=1)
    for row in np.flatnonzero(departed):
        support = _reference_select(a, ys[row], int(targets[row]), residual_tol)
        selected[row] = np.pad(support, (0, k_max - support.size), constant_values=n)
    return selected, np.where(departed, np.inf, 2.0 * np.sqrt(cols_sq * r_inv_sq))


def check_tol(tol: float, name: str) -> None:
    """Raise ``ValueError`` unless ``tol`` is a finite non-negative number."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"{name} must be a finite non-negative number, got {tol}")


def omp(
    a: MeasurementMatrix, y: np.ndarray, k_target: int, residual_tol: float = DEFAULT_RESIDUAL_TOL
) -> tuple[SparseVector, float]:
    """Orthogonal matching pursuit: greedy column selection with LS refit.

    Each round picks the column with maximal absolute correlation against the
    current residual, then re-solves least squares on the accumulated
    support. Correlations that are bit-equal resolve to the smallest index;
    correlations equal in exact arithmetic but not in their bits resolve as
    the rounding of the reference arithmetic (module docstring) orders them.
    Stops after ``k_target`` atoms (none when it is 0) or once the residual
    norm drops to ``residual_tol``. Unit-norm columns are recommended,
    otherwise correlations are biased toward heavy columns.

    This is the reference arithmetic (module docstring) itself: on one
    vector the plain loop is two to three times faster than the lockstep
    engine, which gives the same support.
    """
    check_tol(residual_tol, "residual_tol")
    k_target = as_index(k_target, "k_target")
    if k_target < 0:
        raise ValueError(f"k_target must be non-negative, got {k_target}")
    y = np.ascontiguousarray(y, dtype=np.complex128)
    if y.shape != (a.rows,):
        raise ValueError(f"measurement vector must have shape {(a.rows,)}, got {y.shape}")
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise ValueError(f"measurement {bad[0]}: non-finite value {y[bad[0]]}")
    if k_target > min(a.rows, a.cols):
        raise ValueError(
            f"k_target {k_target} exceeds min(M, N) = {min(a.rows, a.cols)} "
            f"for a {a.rows}x{a.cols} matrix"
        )
    # y scaled by 2^-e, its largest part in [1/2, 1), so that no norm overflows; a power
    # of two scales every rounded step exactly while none leaves the normal range, so the
    # support is y's own
    parts = y.view(np.float64)
    e = int(np.frexp(np.abs(parts).max(initial=0.0))[1])
    y = np.ldexp(parts, -e).view(np.complex128)
    support = _reference_select(a.entries, y, k_target, np.ldexp(residual_tol, -e))
    coeffs, residual = _refit(a.entries, y, support)
    coeffs = np.ldexp(coeffs.view(np.float64), e).view(np.complex128)
    solution = SparseVector(a.cols, tuple(support.tolist()), coeffs)
    return solution, float(np.ldexp(np.linalg.norm(residual), e))


def _recoveries(a: MeasurementMatrix, seed: int, ks: np.ndarray, ts: np.ndarray,
                recovery_tol: float) -> np.ndarray:
    """Exact-recovery flag of trial ``ts[j]`` at sparsity ``ks[j]`` for each j, in one batch.

    The trials may mix sparsities: each is selected to its own K, and the
    bounds that settle it (module docstring, "Scoring") are taken at that K.
    One stacked product measures every trial, each row by the gemv that its
    own ``a.entries @ x`` calls, so each y keeps its bytes. Selected and true
    supports are both rows padded with N, so one comparison finds the right
    ones. A trial is refit only when its selected support cannot settle it.
    """
    signals, truth = _draws(a.cols, seed, ks, ts)
    ys = np.matmul(a.entries[None], signals[:, :, None])[:, :, 0]
    selected, kappa = _select(a.entries, ys, ks, DEFAULT_RESIDUAL_TOL)
    right = (selected == truth).all(axis=1)
    # a support missing a true atom misses by about 1 / sqrt(K)
    settles = recovery_tol * np.sqrt(ks) < 0.5
    # bound on the refit's relative error on the true support
    beta = 4 * (a.rows + 2) * (ks + 1) * _U * kappa
    hits = right & settles & (kappa <= _KAPPA_MAX) & (_SAFETY * beta <= recovery_tol / 2)
    for j in np.flatnonzero(~hits & (right | ~settles)):
        support = selected[j][selected[j] < a.cols]
        x_hat = np.zeros(a.cols, dtype=np.complex128)
        x_hat[support] = _refit(a.entries, ys[j], support)[0]
        hits[j] = np.linalg.norm(x_hat - signals[j]) / np.linalg.norm(signals[j]) <= recovery_tol
    return hits


@dataclass(frozen=True)
class ExperimentReport(JsonReport):
    """Per-sparsity exact-recovery rates from a Monte-Carlo sweep."""

    matrix: str
    trials: int
    seed: int
    recovery_tol: float
    success_rate: dict[int, float]

    def to_csv(self) -> str:
        lines = ["K,success_rate"]
        lines += [f"{k},{v!r}" for k, v in sorted(self.success_rate.items())]
        return "\n".join(lines) + "\n"


def monte_carlo(
    a: MeasurementMatrix,
    k_range,
    trials: int,
    seed: int,
    recovery_tol: float = DEFAULT_RECOVERY_TOL,
) -> ExperimentReport:
    """Plant, measure, and recover ``trials`` signals per sparsity in ``k_range``.

    Per-trial randomness derives from (seed, K, trial index), so the report is
    independent of trial execution order. A repeated sparsity is swept once.
    The trials of a batch are drawn together, bit for bit the draws of
    ``generate_sparse_signal`` (module docstring, "Draws"), and measured by
    one stacked product whose rows are bit for bit each trial's own
    ``a @ x``; the selection engine then
    recovers the trials of all sparsities together in lockstep, each to its
    own K, in batches of bounded memory sized by the largest K, with
    ``omp``'s default residual tolerance. A trial is scored from
    its selected and true supports where they settle it, and otherwise by the
    reference refit (module docstring, "Scoring"); the rates are those of
    refitting every trial.
    """
    ks = [as_index(k, "sparsity") for k in k_range]
    seed = as_index(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    check_tol(recovery_tol, "recovery_tol")
    trials = as_index(trials, "trials")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if trials > _MAX_TRIALS:
        raise ValueError(f"trials must be at most 2**32, got {trials}")
    limit = min(a.rows, a.cols)
    if any(k < 1 or k > limit for k in ks):
        raise ValueError(f"sparsities must lie in [1, min(M, N)] = [1, {limit}], got {ks}")
    ks = np.array(list(dict.fromkeys(ks)), dtype=np.intp)
    k_max = int(ks.max(initial=0))
    batch = max(1, _BATCH_ENTRIES // (a.cols + k_max * (a.rows + k_max)))
    # trial j of the whole sweep is trial j % trials at sparsity ks[j // trials]
    total = ks.size * trials
    hits = np.zeros(ks.size, dtype=np.int64)
    for s in range(0, total, batch):
        which, t_of = np.divmod(np.arange(s, min(s + batch, total)), trials)
        found = _recoveries(a, seed, ks[which], t_of, recovery_tol)
        hits += np.bincount(which[found], minlength=ks.size)
    rates = {k: int(h) / trials for k, h in zip(ks.tolist(), hits.tolist())}
    return ExperimentReport(
        matrix=a.describe(),
        trials=trials,
        seed=seed,
        recovery_tol=recovery_tol,
        success_rate=rates,
    )
