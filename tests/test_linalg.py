import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cscert import _linalg
from cscert._linalg import (
    _CHUNK_ENTRIES,
    _SCREEN_FLOOR,
    _TABLE_ENTRIES,
    CHUNK,
    SCREEN,
    combination_tables,
    dependent_mask,
    iter_combination_chunks,
    iter_orbit_chunks,
    orbits,
    positive_definite,
    rank_test,
    shift_invariant,
    sweep,
)
from cscert.matrix_core import build_gaussian, build_partial_idft, build_random_partial_fourier


def ended(chunks, most):
    """The chunks of a stream that must end within ``most`` chunks.

    Takes at most ``most + 1``, so that a stream that never ends fails here
    instead of hanging the run.
    """
    out = list(itertools.islice(chunks, most + 1))
    assert len(out) <= most, f"the chunk stream did not end within {most} chunks"
    return out


def sequential_scan(combos, hits, budget):
    """Reference: evaluate one subset at a time, stop at a hit or the budget."""
    covered = 0
    for c in combos:
        if covered >= budget:
            return covered, False, None
        covered += 1
        if c in hits:
            return covered, True, c
    return covered, True, None


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
        # the position of the chunk's first planted combination, or None
        return next((i for i, c in enumerate(rows) if c in hits), None)

    chunks = ended(iter_combination_chunks(n, k, chunk), total)
    # budgets on a chunk edge and on C(n, k) itself are the off-by-one cases
    edges = list(itertools.accumulate((len(c) for c in chunks), initial=0)) + [total + 1]
    budget = data.draw(
        st.one_of(st.integers(0, total + 1), st.sampled_from(edges), st.just(math.inf)),
        label="budget",
    )
    got = sweep(chunks, evaluate, budget)
    # covered, exact and the witness, the first planted combination reached
    assert tuple(got) == sequential_scan(combos, hits, budget)
    assert seen == combos[: len(seen)] and len(seen) <= budget


def test_combination_chunks_double_from_64_up_to_the_cap():
    chunks = ended(iter_combination_chunks(14, 5, chunk=300), 9)
    assert [len(c) for c in chunks] == [64, 128, 256] + [300] * 5 + [54]
    assert np.vstack(chunks).tolist() == [list(c) for c in itertools.combinations(range(14), 5)]
    # from k = 23 on, a chunk holds at most 2^20 entries of its k x k matrices
    chunks = ended(iter_combination_chunks(27, 23), math.comb(27, 23))
    assert max(len(c) for c in chunks) == (1 << 20) // 23**2 < CHUNK
    assert sum(len(c) for c in chunks) == math.comb(27, 23)


def doubling_chunks_check(n, k, chunk, exact=True):
    """Itertools' order in chunks of at most ``min(64 * 2^i, cap)``, exactly so many if ``exact``.

    From the k-table alone every chunk but the last has exactly that width; on the prefix
    path a chunk may also end short where a block of prefixes ends.
    """
    chunks = ended(iter_combination_chunks(n, k, chunk), math.comb(n, k))
    assert np.vstack(chunks).tolist() == [list(c) for c in itertools.combinations(range(n), k)]
    cap = max(1, min(chunk, _CHUNK_ENTRIES // k**2))
    assert all(0 < len(c) <= min(64 << i, cap) for i, c in enumerate(chunks))
    assert max(len(c) for c in chunks) <= _CHUNK_ENTRIES // k**2
    if exact:
        # sizes double from 64 up to the cap, and only the last chunk may fall short
        sizes, size, left = [], min(64, cap), math.comb(n, k)
        while left > 0:
            sizes.append(min(size, left))
            left -= size
            size = min(2 * size, cap)
        assert [len(c) for c in chunks] == sizes
    assert all(c.dtype == np.intp and c.T.flags.c_contiguous for c in chunks)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 14), data=st.data())
def test_combination_chunks_are_itertools_in_doubling_chunks(n, data):
    k = data.draw(st.integers(1, n), label="k")
    chunk = data.draw(st.one_of(st.just(1), st.integers(1, 3000), st.just(CHUNK)), label="chunk")
    doubling_chunks_check(n, k, chunk)


def test_combination_tables_are_itertools():
    for n in range(1, 13):
        tables = combination_tables(n, n)
        # at n <= 12 every size fits under the entry limit
        assert len(tables) == n
        for r, (table, start) in enumerate(tables, 1):
            assert table.tolist() == np.array(list(itertools.combinations(range(n), r))).T.tolist()
            assert table.dtype == np.uint8 and not table.flags.writeable
            # start[f] is the first column whose first element is at least f
            assert start.tolist() == [
                sum(c < f for c in table[0].tolist()) for f in range(n + 1)
            ], (n, r)
    assert [t.dtype for t, _ in combination_tables(257, 2)] == [np.uint16, np.uint16]
    # only sizes whose table holds at most 2^17 entries: all at n = 16, two at n = 256
    assert len(combination_tables(16, 16)) == 16
    assert len(combination_tables(256, 5)) == 2
    assert len(combination_tables(16, 3)) == 3


# with the tables this small, most rows are a prefix from the recursive stream and a suffix column
@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 14), entries=st.sampled_from([1, 12, 60]), data=st.data())
def test_combination_chunks_from_small_tables_are_itertools_in_doubling_chunks(n, entries, data):
    k = data.draw(st.integers(1, n), label="k")
    chunk = data.draw(st.one_of(st.just(1), st.integers(1, 3000), st.just(CHUNK)), label="chunk")
    with mock.patch.object(_linalg, "_TABLE_ENTRIES", entries):
        doubling_chunks_check(n, k, chunk, exact=False)


def test_combination_chunks_from_small_tables_double_from_64_up_to_the_cap():
    with mock.patch.object(_linalg, "_TABLE_ENTRIES", 12):
        doubling_chunks_check(14, 5, 300, exact=False)
        # from k = 23 on, a chunk holds at most 2^20 entries of its k x k matrices
        doubling_chunks_check(27, 23, CHUNK, exact=False)


@pytest.mark.parametrize("n, k", [(70, 35), (200, 100), (128, 40)])
def test_combination_chunks_past_int64_start_like_itertools(n, k):
    assert math.comb(n, k) >= 2**63
    chunks = itertools.islice(iter_combination_chunks(n, k), 3)
    got = np.vstack(list(chunks)).tolist()
    assert got == [list(c) for c in itertools.islice(itertools.combinations(range(n), k), len(got))]


def svd_rule(a, cols):
    """Reference: the columns are dependent iff sigma_min <= 1e-10 * sigma_max."""
    s = np.linalg.svd(a[:, cols], compute_uv=False)
    return len(s) < len(cols) or bool(s[-1] <= 1e-10 * s[0])


def null_side_always(m, n, b, k, built):
    """A cost rule that sends every chunk of a wide matrix to the null side first."""
    return n > m


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 6), n=st.integers(1, 8), data=st.data())
def test_rank_test_matches_svd_rule(m, n, data):
    # wide: q = 1..3 null directions and k > q, every chunk screened on the null side first
    wide = data.draw(st.booleans(), label="wide")
    if wide:
        n = m + data.draw(st.integers(1, 3), label="q")
        k = data.draw(st.integers(n - m + 1, n), label="k")
    else:
        k = data.draw(st.integers(1, n), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if wide and data.draw(st.booleans(), label="partial idft"):
        a = build_partial_idft(n, sorted(rng.choice(n, size=m, replace=False))).entries.copy()
    else:
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
    verdicts = [svd_rule(a, c) for c in combs]
    with mock.patch.object(_linalg, "_null_side_pays", null_side_always if wide else _linalg._null_side_pays):
        evaluate = rank_test(a)
        # one subset per chunk gives each subset's verdict; the whole chunk names the first dependent one
        assert [evaluate(combs[i : i + 1]) for i in range(len(combs))] == [0 if v else None for v in verdicts]
        assert evaluate(combs) == (verdicts.index(True) if any(verdicts) else None)


def flagged_positions(evaluate, combs):
    """Every position that ``evaluate`` flags, from its first flag on each remaining suffix."""
    found, start = [], 0
    while start < len(combs):
        i = evaluate(combs[start:])
        if i is None:
            break
        found.append(start + i)
        start += i + 1
    return found


@pytest.mark.parametrize("name, a, k", [
    # 13 of 16 inverse-DFT rows, q = 3, on which 168 of the 8,008 10-subsets are dependent
    ("partial idft", build_partial_idft(16, [0, 1, 2, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14]).entries, 10),
    ("complex gaussian", None, 12),
    ("planted", None, 10),
])
def test_rank_test_takes_the_null_side_by_its_cost_rule_and_keeps_every_verdict(name, a, k):
    rng = np.random.default_rng(7)
    if name == "complex gaussian":
        a = rng.standard_normal((14, 18)) + 1j * rng.standard_normal((14, 18))
    elif name == "planted":
        # 12 x 15: column 14 is a combination of columns 0-3 within 1e-12, under the rule
        a = rng.standard_normal((12, 15))
        a[:, 14] = a[:, :4] @ rng.standard_normal(4) + 1e-12 * rng.standard_normal(12)
    n = a.shape[1]
    combs = np.vstack(list(iter_combination_chunks(n, k, ramp=False)))
    verdicts = [svd_rule(a, c) for c in combs]
    assert _linalg._null_side_pays(*a.shape, len(combs), k, built=False)
    cleared, clears = [], _linalg._null_clears

    def recording(z, t, c):
        mask = clears(z, t, c)
        cleared.append((int(mask.sum()), len(mask)))
        return mask

    with mock.patch.object(_linalg, "_null_clears", recording):
        got = flagged_positions(rank_test(a), combs)
    assert got == [i for i, v in enumerate(verdicts) if v]
    # the null side ran first, and its margins cleared every subset the rule finds independent
    assert cleared[0] == (len(combs) - len(got), len(combs))
    # the cost rule keeps Gaussians as tall as certify's benchmarks on the Gram side
    assert not _linalg._null_side_pays(7, 16, CHUNK, 8, built=True)


def test_null_side_refuses_an_ill_conditioned_r1_and_keeps_every_verdict():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 8))
    # cond(R1) about 1e6: SCREEN * cond^2 is past 1, so no subset could be cleared
    a[2] *= 1e-6
    assert _linalg._null_screen(a) is None
    # rows that are dependent leave R1 singular, and a tiny row leaves R1^-1 past the float range
    b = a.copy()
    b[3] = b[1]
    assert _linalg._null_screen(b) is None
    for scale in (1e-155, 1e-300):
        tiny = rng.standard_normal((6, 8))
        tiny[2] *= scale
        assert _linalg._null_screen(tiny) is None
    # a milder cond(R1), about 1e3, keeps the null side
    c = rng.standard_normal((6, 8))
    c[2] *= 1e-3
    assert _linalg._null_screen(c) is not None
    for x in (a, b, c):
        combs = np.array(list(itertools.combinations(range(8), 7)), dtype=np.intp)
        verdicts = [svd_rule(x, cols) for cols in combs]
        with mock.patch.object(_linalg, "_null_side_pays", null_side_always):
            evaluate = rank_test(x)
            assert [evaluate(combs[i : i + 1]) for i in range(len(combs))] == [0 if v else None for v in verdicts]


def test_orbit_count_is_the_number_of_representatives():
    # every k up to n = 22, and the k with at most 2^20 subsets up to n = 32:
    # all 280 million representatives of n <= 32 take minutes to generate
    for n in range(1, 33):
        for k in range(1, n + 1):
            if math.comb(n, k) <= 1 << 20:
                count = orbits(n, k)
                assert sum(map(len, ended(iter_orbit_chunks(n, k), count))) == count, (n, k)
    assert orbits(16, 8) == 810 and orbits(16, 7) == 715 and orbits(7, 0) == 1


def test_orbit_chunks_yield_one_subset_per_cyclic_orbit():
    for n in range(1, 13):
        for k in range(1, n + 1):
            chunks = ended(iter_orbit_chunks(n, k), orbits(n, k))
            assert all(0 < len(c) <= CHUNK for c in chunks)
            got = [tuple(c) for c in np.vstack(chunks).tolist()]
            canonical = {
                min(tuple(sorted((i + c) % n for i in s)) for c in range(n))
                for s in itertools.combinations(range(n), k)
            }
            assert got == sorted(canonical), (n, k)
            assert len(got) == orbits(n, k), (n, k)
    assert sum(len(c) for c in ended(iter_orbit_chunks(16, 8), 810)) == 810
    assert max(len(c) for c in ended(iter_orbit_chunks(20, 8), orbits(20, 8))) <= CHUNK
    # above n = 512 the cap keeps a chunk's length-n spectra within 2^20 entries
    sizes = [len(c) for c in ended(iter_orbit_chunks(1024, 3), orbits(1024, 3))]
    assert max(sizes) <= 1024 and sum(sizes) == orbits(1024, 3)


def kept_sizes(n):
    """The k whose orbit sets of range(n) hold at most ``_TABLE_ENTRIES`` entries."""
    return [k for k in range(1, n + 1) if k * orbits(n, k) <= _TABLE_ENTRIES]


def test_kept_orbit_sets_match_a_fresh_stream(monkeypatch):
    monkeypatch.setattr(_linalg, "_ORBIT_SETS", {})
    assert kept_sizes(16) == list(range(1, 17))
    assert kept_sizes(32) == [1, 2, 3, 4, 5, 28, 29, 30, 31, 32]
    for n in [*range(1, 17), 32]:
        for k in kept_sizes(n):
            kept = list(ended(iter_orbit_chunks(n, k), orbits(n, k)))
            assert _linalg._ORBIT_SETS[n, k] == tuple(kept)
            fresh = list(_linalg._necklaces(n, k))
            assert len(kept) == len(fresh), (n, k)
            for a, b in zip(kept, fresh):
                assert a.dtype == b.dtype == np.intp
                assert a.shape == b.shape and a.strides == b.strides and a.T.flags.c_contiguous
                assert np.array_equal(a, b), (n, k)
            # a second call iterates over the same chunks
            again = list(iter_orbit_chunks(n, k))
            assert len(again) == len(kept) and all(a is b for a, b in zip(again, kept))
            with pytest.raises(ValueError, match="read-only"):
                kept[0][0, 0] = 1
    # every n = 16 set together: 32,928 entries of 8 bytes
    assert sum(c.size for k in range(1, 17) for c in _linalg._ORBIT_SETS[16, k]) == 32_928


@pytest.mark.parametrize("n, k", [(32, 16), (32, 6), (1024, 3)])
def test_orbit_sets_above_the_gate_stream_and_are_not_kept(monkeypatch, n, k):
    monkeypatch.setattr(_linalg, "_ORBIT_SETS", {})
    assert k * orbits(n, k) > _TABLE_ENTRIES
    chunks = iter_orbit_chunks(n, k)
    first = next(chunks)
    assert np.array_equal(first, next(_linalg._necklaces(n, k)))
    assert not first.flags.writeable
    assert _linalg._ORBIT_SETS == {}


def test_the_gate_counts_no_large_binomial(monkeypatch):
    calls = []

    def comb(n, k, comb=math.comb):
        assert min(k, n - k) < 64, (n, k)
        calls.append((n, k))
        return comb(n, k)

    monkeypatch.setattr(_linalg, "_ORBIT_SETS", {})
    monkeypatch.setattr(_linalg.math, "comb", comb)
    # math.comb(2**20 - 1, 2**19 - 1) alone takes seconds; no chunk is asked for here,
    # and the first one of a set this size would take as long again
    for n, k in [(2**20, 2**19), (2**20, 2**20), (2**20, 2**20 - 30), (2**64, 2**63), (70, 35)]:
        iter_orbit_chunks(n, k)
    assert calls == []
    # sets too large for the bounds to tell are counted, on their small side
    for n, k in [(2**20, 30), (2**64, 3)]:
        iter_orbit_chunks(n, k)
    assert (2**20, 30) in calls and (2**64, 3) in calls
    assert _linalg._ORBIT_SETS == {}
    with pytest.raises(ValueError, match="need 0 < k <= n"):
        iter_orbit_chunks(2**20, 2**20 + 1)


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
                got = np.vstack(ended(iter_orbit_chunks(n, k), orbits(n, k))).tolist()
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
        got = np.vstack(ended(iter_orbit_chunks(32, k), orbits(32, k)))
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


@pytest.mark.parametrize("n", [2**r for r in range(1, 11)])
@pytest.mark.parametrize("normalize", [False, True])
def test_shift_invariant_accepts_partial_idft(n, normalize):
    # the DFT column test sweeps orbits on rows it builds as these, with no check of its own;
    # at 4096 the m = n case builds arrays of hundreds of MB
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
    # a scaled column keeps every phase; only the check against D^j x_0 rejects it
    for normalize in (False, True):
        for col in (1, 5):
            entries = build_partial_idft(16, range(10), normalize).entries.copy()
            entries[:, col] *= 2
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
    # the one-subset chunk names no dependent subset, as the rule finds none
    assert (got, svd_rule(a, cols)) == (None, False)
    assert (sum(sent) == 0) == above


def _with_null_space(rng, m, q, k, cplx):
    """``build(w)``: an m x (m + q) matrix whose null rows V have ``V_T V_T^H = P diag(w) P^H``.

    T is every column from k on, so ``lambda_min(W_S) = min(w)`` for S = range(k).
    A fixed random T x U, U the rows orthogonal to V, so only w changes between builds.
    """
    def unitary(size):
        z = rng.standard_normal((size, size)) + (1j * rng.standard_normal((size, size)) if cplx else 0)
        return np.linalg.qr(z)[0]
    n = m + q
    p, left, right = unitary(q), unitary(k)[:, :q], unitary(n - k)[:, :q]
    mix = unitary(m) @ np.diag(rng.uniform(0.5, 2, size=m)) @ unitary(m) * 10.0 ** rng.uniform(-100, 100)

    def build(w):
        v = np.hstack([p @ np.diag(np.sqrt(1 - w)) @ left.conj().T, p @ np.diag(np.sqrt(w)) @ right.conj().T])
        rows = np.linalg.qr(v.conj().T, mode="complete")[0][:, q:].conj().T
        return mix @ rows
    return build


@settings(max_examples=200, deadline=None)
@given(q=st.integers(1, 3), cplx=st.booleans(), above=st.booleans(), data=st.data())
def test_null_side_clears_exactly_above_its_threshold(q, cplx, above, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    m = data.draw(st.integers(q, 7), label="rows")
    k = data.draw(st.integers(q, m), label="k")
    build = _with_null_space(rng, m, q, k, cplx)
    w = rng.uniform(0.3, 1, size=q)
    # lambda_min(W_S) just above or below the threshold that the screen computes for this x
    _, t = _linalg._null_screen(build(w))
    assert SCREEN * m < t < 1e-3
    w[0] = t * (1 + (1 if above else -1) * 10.0 ** -data.draw(st.floats(2, 4), label="gap"))
    a = build(w)
    z, t = _linalg._null_screen(a)
    cols = np.arange(k)
    assert _linalg._null_clears(z, t, cols[:, None]).tolist() == [above]
    s = np.linalg.svd(a[:, cols], compute_uv=False)
    if above:
        # what a cleared subset proves
        assert s[-1] > math.sqrt(SCREEN) * s[0]
    screened, gram_screen = [], _linalg.shifted_definite

    def recording(g, c, shift):
        screened.append(c.shape[1])
        return gram_screen(g, c, shift)

    with mock.patch.object(_linalg, "_null_side_pays", null_side_always), \
            mock.patch.object(_linalg, "shifted_definite", recording):
        got = rank_test(a)(cols[None])
    # the subset is independent, and only one the null side left reaches the Gram screen
    assert (got, svd_rule(a, cols)) == (None, False)
    assert (sum(screened) == 0) == above
