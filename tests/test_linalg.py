import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cscert._linalg import (
    _CHUNK_ENTRIES,
    _SCREEN_FLOOR,
    _unrank,
    CHUNK,
    SCREEN,
    dependent_mask,
    iter_combination_chunks,
    iter_orbit_chunks,
    positive_definite,
    rank_test,
    shift_invariant,
    sweep,
)
from cscert.matrix_core import build_gaussian, build_partial_idft, build_random_partial_fourier


def sequential_scan(combos, hits, budget):
    """Reference: evaluate one subset at a time, stop at a hit or the budget."""
    covered = 0
    for c in combos:
        if covered >= budget:
            return covered, False, False
        covered += 1
        if c in hits:
            return covered, True, True
    return covered, False, True


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 9), data=st.data())
def test_sweep_matches_sequential_scan(n, data):
    k = data.draw(st.integers(1, n), label="k")
    combos = list(itertools.combinations(range(n), k))
    total = len(combos)
    chunk = data.draw(st.integers(1, total + 1), label="chunk")
    stops = data.draw(st.booleans(), label="stops")
    planted = data.draw(st.sets(st.integers(0, total - 1), max_size=3), label="planted")
    hits = {combos[i] for i in planted} if stops else set()
    seen = []

    def evaluate(combs):
        rows = [tuple(c) for c in combs.tolist()]
        seen.extend(rows)
        return np.array([c in hits for c in rows]) if stops else None

    chunks = list(iter_combination_chunks(n, k, chunk))
    # budgets on a chunk edge and on C(n, k) itself are the off-by-one cases
    edges = list(itertools.accumulate((len(c) for c in chunks), initial=0)) + [total + 1]
    budget = data.draw(
        st.one_of(st.integers(0, total + 1), st.sampled_from(edges), st.just(math.inf)),
        label="budget",
    )
    got = sweep(chunks, evaluate, budget)
    assert tuple(got) == sequential_scan(combos, hits, budget)
    assert seen == combos[: len(seen)] and len(seen) <= budget


def test_combination_chunks_double_from_64_up_to_the_cap():
    chunks = list(iter_combination_chunks(14, 5, chunk=300))
    assert [len(c) for c in chunks] == [64, 128, 256] + [300] * 5 + [54]
    assert np.vstack(chunks).tolist() == [list(c) for c in itertools.combinations(range(14), 5)]
    # from k = 23 on, a chunk holds at most 2^20 entries of its k x k matrices
    chunks = list(iter_combination_chunks(27, 23))
    assert max(len(c) for c in chunks) == (1 << 20) // 23**2 < CHUNK
    assert sum(len(c) for c in chunks) == math.comb(27, 23)


def unrank(n, k, r):
    """Reference: the k-combination of range(n) of lexicographic rank r, in Python integers."""
    out, x = [], 0
    for i in range(k):
        while r >= (below := math.comb(n - 1 - x, k - 1 - i)):
            r -= below
            x += 1
        out.append(x)
        x += 1
    return out


@pytest.mark.parametrize("n, k", [(70, 35), (200, 100), (128, 40)])
def test_combination_chunks_past_int64_start_like_itertools(n, k):
    assert math.comb(n, k) >= 2**63
    chunks = itertools.islice(iter_combination_chunks(n, k), 3)
    got = np.vstack(list(chunks)).tolist()
    assert got == [list(c) for c in itertools.islice(itertools.combinations(range(n), k), len(got))]


@pytest.mark.parametrize("n, k", [(50, 25), (70, 35), (200, 100), (128, 40)])
def test_unrank_is_exact_near_rank_2_to_the_40(n, k):
    ranks = np.arange(2**40 - 150, 2**40 + 150)
    assert _unrank(n, k, ranks).T.tolist() == [unrank(n, k, int(r)) for r in ranks]


def test_unrank_refuses_ranks_past_its_exact_range():
    # C(70, 35) saturates the tails table; unranking is exact below 2^62 / 70
    last = (1 << 62) // 70 - 1
    assert _unrank(70, 35, np.array([last])).T.tolist() == [unrank(70, 35, last)]
    with pytest.raises(OverflowError):
        _unrank(70, 35, np.array([last + 1]))


def svd_rule(a, cols):
    """Reference: the columns are dependent iff sigma_min <= 1e-10 * sigma_max."""
    s = np.linalg.svd(a[:, cols], compute_uv=False)
    return len(s) < len(cols) or bool(s[-1] <= 1e-10 * s[0])


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 6), n=st.integers(1, 8), data=st.data())
def test_rank_test_matches_svd_rule(m, n, data):
    k = data.draw(st.integers(1, n), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    a = rng.standard_normal((m, n))
    if data.draw(st.booleans(), label="complex"):
        a = a + 1j * rng.standard_normal((m, n))
    for _ in range(data.draw(st.integers(0, 2), label="plants")):
        j = int(rng.integers(n))
        kind = data.draw(st.sampled_from(["combination", "zero", "duplicate"]), label="kind")
        if kind == "zero":
            a[:, j] = 0
        elif kind == "duplicate":
            a[:, j] = a[:, int(rng.integers(n))]
        else:
            # a combination of other columns, perturbed on both sides of the 1e-10 rule
            scale = 10.0 ** -data.draw(st.floats(3, 14), label="scale")
            others = rng.choice(n, size=int(rng.integers(0, n)), replace=False)
            others = others[others != j]
            noise = scale * rng.standard_normal(m)
            a[:, j] = a[:, others] @ rng.standard_normal(len(others)) + noise
    combs = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    got = rank_test(a)(combs)
    assert got.tolist() == [svd_rule(a, c) for c in combs]


def necklaces(n, k):
    """Burnside: the number of k-subsets of Z_n up to cyclic shifts."""
    g = math.gcd(n, k)
    phi = [sum(math.gcd(i, d) == 1 for i in range(1, d + 1)) for d in range(g + 1)]
    return sum(phi[d] * math.comb(n // d, k // d) for d in range(1, g + 1) if g % d == 0) // n


def test_orbit_chunks_yield_one_subset_per_cyclic_orbit():
    for n in range(1, 13):
        for k in range(1, n + 1):
            chunks = list(iter_orbit_chunks(n, k))
            assert all(0 < len(c) <= CHUNK for c in chunks)
            got = [tuple(c) for c in np.vstack(chunks).tolist()]
            canonical = {
                min(tuple(sorted((i + c) % n for i in s)) for c in range(n))
                for s in itertools.combinations(range(n), k)
            }
            assert got == sorted(canonical), (n, k)
            assert len(got) == necklaces(n, k), (n, k)
    assert sum(len(c) for c in iter_orbit_chunks(16, 8)) == 810
    assert max(len(c) for c in iter_orbit_chunks(20, 8)) <= CHUNK
    # above n = 512 the cap keeps a chunk's length-n spectra within 2^20 entries
    sizes = [len(c) for c in iter_orbit_chunks(1024, 3)]
    assert max(sizes) <= 1024 and sum(sizes) == necklaces(1024, 3)


def sorted_orbit_filter(n, k):
    """Reference: each {0} | T, kept when no shift S - s_j, sorted mod n, is smaller."""
    t = np.array(list(itertools.combinations(range(1, n), k - 1)), dtype=np.intp)
    s = np.hstack([np.zeros((len(t), 1), dtype=np.intp), t.reshape(len(t), k - 1)])
    for j in range(1, k):
        shifted = np.sort((s - s[:, j : j + 1]) % n, axis=1)
        diff = shifted - s
        first = np.argmax(diff != 0, axis=1)
        s = s[diff[np.arange(len(s)), first] >= 0]
    return s.tolist()


def test_orbit_chunks_match_the_sorted_filter():
    for n in range(13, 25):
        for k in range(1, n + 1):
            if math.comb(n - 1, k - 1) <= 40_000:
                got = np.vstack(list(iter_orbit_chunks(n, k))).tolist()
                assert got == sorted_orbit_filter(n, k), (n, k)


def lex_leq(a, b):
    """Mask of the columns of ``a`` that are lexicographically no larger than those of ``b``."""
    diff = b - a
    return diff[np.argmax(diff != 0, axis=0), np.arange(diff.shape[1])] >= 0


def candidate_filter_chunks(n, k):
    """Reference: draw each candidate {0} | (T + 1) in the chunks of T and keep the necklaces.

    T comes from ``iter_combination_chunks(n - 1, k - 1, cap)``. A candidate
    is kept when its gap sequence is ``lex_leq`` each of its rotations, and
    the candidates stop where T's first element reaches n // k.
    """
    if k == 1:
        yield np.zeros((1, 1), dtype=np.intp)
        return
    left = math.comb(n - 1, k - 1) - math.comb(n - 1 - n // k, k - 1)
    for t in iter_combination_chunks(n - 1, k - 1, min(CHUNK, _CHUNK_ENTRIES // n)):
        t = t[:left].T
        left -= t.shape[1]
        gaps = np.empty((2 * k, t.shape[1]), dtype=np.intp)
        gaps[0] = t[0] + 1
        gaps[1 : k - 1] = t[1:] - t[:-1]
        gaps[k - 1] = n - 1 - t[-1]
        gaps[k:] = gaps[:k]
        for j in range(1, k):
            keep = lex_leq(gaps[:k], gaps[j : j + k])
            t, gaps = t[:, keep], gaps[:, keep]
        if t.shape[1]:
            s = np.zeros((k, t.shape[1]), dtype=np.intp)
            s[1:] = t + 1
            yield s.T
        if not left:
            return


def test_orbit_chunks_match_the_candidate_filter_at_n_32():
    # below n = 25 the orbit-count and sorted-filter tests check every (n, k) the filter reaches
    for k in range(2, 9):
        got = np.vstack(list(iter_orbit_chunks(32, k)))
        assert np.array_equal(got, np.vstack(list(candidate_filter_chunks(32, k)))), k


def head(chunks, size):
    """The first ``size`` rows of a chunk stream, concatenated in order."""
    out = []
    while sum(map(len, out)) < size:
        out.append(next(chunks))
    return np.vstack(out)[:size]


@pytest.mark.parametrize("n, k", [(70, 35), (128, 40), (1024, 3), (4096, 5), (65536, 2)])
def test_orbit_chunks_start_like_the_candidate_filter_at_large_n(n, k):
    # C(n - 1, k - 1) past int64 at (70, 35) and (128, 40); caps below CHUNK from n = 1024 on
    got = head(iter_orbit_chunks(n, k), 3000)
    assert np.array_equal(got, head(candidate_filter_chunks(n, k), 3000))


@pytest.mark.parametrize("n", [8, 16, 32, 1024])
@pytest.mark.parametrize("normalize", [False, True])
def test_shift_invariant_accepts_partial_idft(n, normalize):
    rng = np.random.default_rng(n)
    for m in (1, n // 2, n):
        positions = rng.choice(n, size=m, replace=False)
        assert shift_invariant(build_partial_idft(n, positions, normalize).entries)


def test_shift_invariant_accepts_fourier_on_the_integer_grid():
    for normalize in (False, True):
        a = build_random_partial_fourier(16, 16, [0, 3, 5, 9, 15], normalize)
        assert shift_invariant(a.entries)


def test_shift_invariant_rejects_other_matrices():
    assert not shift_invariant(build_gaussian(7, 16, seed=1).entries)
    assert not shift_invariant(build_random_partial_fourier(16, 16, [0, 3.5, 5, 9]).entries)
    assert not shift_invariant(build_random_partial_fourier(16, 20, [0, 3, 5, 9]).entries)
    for normalize in (False, True):
        entries = build_partial_idft(16, range(10), normalize).entries.copy()
        entries[3, 5] += 1e-9 * np.abs(entries).max()
        assert not shift_invariant(entries)
    entries = build_partial_idft(16, range(10)).entries.copy()
    entries[3, 0] = 0
    assert not shift_invariant(entries)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 20), cplx=st.booleans(), data=st.data())
def test_positive_definite_matches_eigvalsh(k, cplx, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    b = rng.standard_normal((16, k, k)) + (1j * rng.standard_normal((16, k, k)) if cplx else 0)
    stack = b + b.conj().transpose(0, 2, 1)
    w = np.linalg.eigvalsh(stack)
    # lambda_min moved to +-gap times the norm, well outside the k^2 eps rounding band
    gap = np.maximum(10.0 ** -rng.uniform(3, 13, size=16), 12 * k**2 * np.finfo(float).eps)
    sign = rng.choice([-1.0, 1.0], size=16)
    norm = np.abs(w).max(axis=1)
    shift = w[:, 0] - sign * gap * norm
    stack[:, np.arange(k), np.arange(k)] -= shift[:, None]
    # matrix b of the certificate's stack is stack[:, :, b]
    assert positive_definite(stack.transpose(1, 2, 0).copy()).tolist() == (sign > 0).tolist()


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("cplx", [False, True])
def test_positive_definite_rejects_a_zero_or_negative_first_pivot(k, cplx):
    first = [0.0, -0.0, -1.0, -1e-300, 1.0]
    stack = np.repeat(np.eye(k, dtype=complex if cplx else float)[:, :, None], len(first), axis=2)
    stack[0, 0] = first
    stack[1:, 0] = 1 + (1j if cplx else 0)
    stack[1:, 1:] += 2 * k * np.eye(k - 1)[:, :, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = positive_definite(stack)
    assert got.tolist() == [False, False, False, False, True]


def _with_singular_values(rng, m, s, cplx):
    """An m x len(s) matrix with singular values s, in random orientation."""
    def unitary(size):
        z = rng.standard_normal((size, size)) + (1j * rng.standard_normal((size, size)) if cplx else 0)
        return np.linalg.qr(z)[0]
    return unitary(m)[:, : len(s)] @ np.diag(s) @ unitary(len(s)).conj().T


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 6), cplx=st.booleans(), above=st.booleans(), data=st.data())
def test_rank_test_screen_clears_exactly_above_its_threshold(k, cplx, above, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    m = k + data.draw(st.integers(0, 3), label="extra rows")
    # lambda_min / trace of the planted Gram just above or below 2 * SCREEN, or,
    # for one small column beside a unit one, lambda just above or below the floor
    factor = 1 + (1 if above else -1) * 10.0 ** -data.draw(st.floats(2, 5), label="gap")
    if data.draw(st.booleans(), label="floor"):
        a = np.zeros((m, 2), dtype=complex if cplx else float)
        a[0, 0] = 1
        a[:, 1] = _with_singular_values(rng, m, [math.sqrt(_SCREEN_FLOOR * factor)], cplx)[:, 0]
        cols = [1]
    else:
        s = rng.uniform(0.5, 2, size=k)
        if k > 1:
            # solve s_0^2 = 2 * SCREEN * factor * sum(s^2) for s_0
            t = 2 * SCREEN * factor
            s[0] = math.sqrt(t * (s[1:] ** 2).sum() / (1 - t))
        a = _with_singular_values(rng, m, s, cplx) * 10.0 ** rng.uniform(-100, 100)
        if k == 1:
            above = True  # a single nonzero column always clears: lambda = trace
        cols = list(range(k))
    sent = []

    def recording(stack, rtol):
        sent.append(len(stack))
        return dependent_mask(stack, rtol)

    with mock.patch("cscert._linalg.dependent_mask", recording):
        got = rank_test(a)(np.array([cols], dtype=np.intp))
    assert got.tolist() == [svd_rule(a, cols)] == [False]
    assert (sum(sent) == 0) == above
