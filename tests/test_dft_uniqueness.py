import collections
import copy
import importlib
import itertools
import math
import pickle
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cscert import (
    DftUniquenessResult,
    MissingSamplePattern,
    dft_sparsity_limit,
    dft_uniqueness_oracle,
    load_pattern,
    spark,
    stride_count,
)
from cscert import _linalg, dft_uniqueness
from cscert._linalg import (
    RANK_RTOL,
    dependent_mask,
    iter_combination_chunks,
    iter_orbit_chunks,
    orbits,
    rank_test,
    sweep,
)
from cscert.certify import _largest_k_below
from cscert.dft_uniqueness import _bch_lower, _MinSupport, _null_vectors
from cscert.matrix_core import build_partial_idft

WORKED_EXAMPLE = MissingSamplePattern.of(32, [2, 3, 8, 13, 19, 22, 23, 28, 30])

def oracle_limit(p: MissingSamplePattern) -> int:
    """Largest K the brute-force oracle accepts, with every smaller K."""
    k = 1
    while dft_uniqueness_oracle(p, k):
        k += 1
    return k - 1


def assert_shared_test_answers_like_fresh_ones(n, missing, order, limit_first):
    """The oracle at K in ``order``, asked of one pattern object, against fresh objects, and its limit."""
    def fresh():
        return MissingSamplePattern.of(n, missing)

    report = dft_sparsity_limit(fresh()).to_json()
    p = fresh()
    if limit_first:
        assert dft_sparsity_limit(p).to_json() == report
    for k in order:
        assert dft_uniqueness_oracle(p, k) == dft_uniqueness_oracle(fresh(), k), (missing, k)
    assert dft_sparsity_limit(p).to_json() == report, missing


def shift_orbits_only(n, k, reflect=False):
    """``iter_orbit_chunks`` with ``reflect`` left out: one column subset per shift orbit."""
    return iter_orbit_chunks(n, k)


def assert_oracle_matches_the_shift_orbit_sweep(n, missing):
    """The oracle at every K up to (N - q) / 2 + 1 against the same sweep over shift orbits alone."""
    ks = range(1, (n - len(missing)) // 2 + 2)
    p = MissingSamplePattern.of(n, missing)
    got = [dft_uniqueness_oracle(p, k) for k in ks]
    with mock.patch.object(dft_uniqueness, "iter_orbit_chunks", shift_orbits_only):
        p = MissingSamplePattern.of(n, missing)
        assert got == [dft_uniqueness_oracle(p, k) for k in ks], missing


def plain_zero_set_scan(n: int, q, rows=None) -> int:
    """Smallest rank-confirmed null-vector support over the (q-1)-row sets ``rows`` of the DFT.

    ``rows`` defaults to every (q-1)-row set.
    """
    f = np.exp(-2j * np.pi * (np.outer(np.arange(n), q) % n) / n)
    idft = build_partial_idft(n, [m for m in range(n) if m not in q]).entries
    if rows is None:
        rows = np.array(list(itertools.combinations(range(n), len(q) - 1)))
    null = np.linalg.svd(f[rows])[2][:, -1].conj()
    supports = np.unique(np.abs(null @ f.T) > RANK_RTOL * math.sqrt(n), axis=0)
    # the smallest confirmed support: confirm them smallest first
    for s in supports[np.argsort(supports.sum(axis=1), kind="stable")]:
        if dependent_mask(idft[:, s][None])[0]:
            return int(s.sum())
    return n


def smallest_of_their_shifts(n: int, size: int) -> np.ndarray:
    """The row sets of this size that are the smallest of their n cyclic shifts, as base-n numbers.

    Shifting the rows by c scales column j by a unit phase, so a null vector's
    spectrum shifts by c and keeps its support size: one row set per shift orbit
    gives the full scan's smallest support.
    """
    rows = np.array(list(itertools.combinations(range(n), size)))
    weights = n ** np.arange(size - 1, -1, -1)
    shifts = np.sort((rows + np.arange(1, n)[:, None, None]) % n, axis=2) @ weights
    return rows[rows @ weights <= shifts.min(axis=0)]


def histogram_row(missing, h):
    """(h, modulus, residue, count, term) of the closed form, read off the full histogram mod 2^h."""
    modulus = 1 << h
    hist = np.bincount(np.array(missing, dtype=np.intp) % modulus, minlength=modulus)
    residue = int(hist.argmax())  # the first, so the smallest, of the largest classes
    return h, modulus, residue, int(hist[residue]), modulus * (int(hist[residue]) - 1)


def bch_alone(monkeypatch):
    """Make the decimation recursion and the zero-set sweep fail if anything runs them."""
    for name in ("lower", "zero_set_sweep"):
        monkeypatch.setattr(_MinSupport, name, mock.Mock(side_effect=AssertionError(name)))


def row_sweeps(monkeypatch):
    """The signal length of every zero-set sweep run from here on, in order."""
    lengths = []
    sweep_of = _MinSupport.zero_set_sweep

    def recorded(self, n, *args):
        lengths.append(n)
        return sweep_of(self, n, *args)

    monkeypatch.setattr(_MinSupport, "zero_set_sweep", recorded)
    return lengths


def opened(streams, chunks=iter_orbit_chunks):
    """``chunks``, recording the (n, k) of every stream it opens in ``streams``; keywords pass through."""
    def recorded(n, k, **kwargs):
        streams.append((n, k))
        return chunks(n, k, **kwargs)
    return recorded


def top_bracket(p):
    """The limit's K, and the (lo, hi) on S that its top level left to a sweep, or None."""
    brackets = []
    scan = _MinSupport.column_scan

    def recorded(self, n, q, lo, hi):
        brackets.append((lo, hi))
        return scan(self, n, q, lo, hi)

    with mock.patch.object(_MinSupport, "column_scan", recorded):
        k_max = dft_sparsity_limit(p).k_max
    return k_max, (brackets[0] if brackets else None)


def top_level(budget, n, q):
    """A ``_MinSupport`` whose top level is the pattern of length n missing q."""
    return _MinSupport(budget, MissingSamplePattern.of(n, q))


def row_side(n, q):
    """The K of the row side's exact S: the zero-set sweep over every row set, with no stop."""
    best, exact = top_level(math.inf, n, q).zero_set_sweep(n, frozenset(q), n, stop=0)
    assert exact
    return (best - 1) // 2


def column_side(n, q, lo, hi):
    """The column side's K for S in [lo, hi], with the count rule made to choose that side."""
    with mock.patch.object(dft_uniqueness, "orbits", lambda n, k: 0):
        support, exact = top_level(math.inf, n, q).column_scan(n, frozenset(q), lo, hi)
    assert exact
    return (support - 1) // 2


def resplit(size):
    """``iter_orbit_chunks`` with its stream of row sets cut again into chunks of ``size``."""
    def chunks(n, k, **kwargs):
        rows = itertools.chain.from_iterable(iter_orbit_chunks(n, k, **kwargs))
        while batch := list(itertools.islice(rows, size)):
            yield np.array(batch)
    return chunks


class TestPattern:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            MissingSamplePattern.of(12, [1])

    def test_rejects_duplicates_and_range(self):
        with pytest.raises(ValueError, match="duplicate"):
            MissingSamplePattern.of(8, [3, 3])
        with pytest.raises(ValueError):
            MissingSamplePattern.of(8, [8])

    def test_constructor_sorts_and_validates_like_of(self):
        p = MissingSamplePattern(16, (13, 3, 11, 5))
        assert p == MissingSamplePattern.of(16, [3, 5, 11, 13]) and p.missing == (3, 5, 11, 13)
        with pytest.raises(ValueError, match=r"^duplicate missing positions: \[3, 3\]$"):
            MissingSamplePattern(8, (3, 3))
        with pytest.raises(ValueError, match=r"^missing positions must lie in \[0, 8\)$"):
            MissingSamplePattern(8, (8,))

    def test_a_used_pattern_keeps_its_column_test_out_of_its_value(self):
        # the limit's column side and the oracle leave their rank test with the object;
        # it takes no part in equality, hash or repr, and copies and pickles leave it behind
        used = MissingSamplePattern.of(16, [0, 2, 3, 9])
        dft_sparsity_limit(used)
        for k in range(1, 7):
            dft_uniqueness_oracle(used, k)
        assert "_column_test" in vars(used)
        fresh = MissingSamplePattern.of(16, [0, 2, 3, 9])
        for twin in used, copy.copy(used), copy.deepcopy(used), pickle.loads(pickle.dumps(used)):
            assert twin == fresh and hash(twin) == hash(fresh) and repr(twin) == repr(fresh)
            assert twin is used or "_column_test" not in vars(twin)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        assert {used: 1}[fresh] == 1

    def test_available_is_complement(self):
        p = MissingSamplePattern.of(8, [1, 4])
        assert p.available() == (0, 2, 3, 5, 6, 7)
        assert p.q == 2 and p.r == 3

    def test_load_pattern_file(self, tmp_path):
        f = tmp_path / "pattern.txt"
        f.write_text("32\n2,3,8,13,19,22,23,28,30\n")
        assert load_pattern(f) == WORKED_EXAMPLE
        f.write_text("32\n2,3,8,13,19,22,23,28,30\n\n  \n")
        assert load_pattern(f) == WORKED_EXAMPLE

    def test_load_pattern_with_a_byte_order_mark(self, tmp_path):
        f = tmp_path / "bom.txt"
        f.write_bytes(b"\xef\xbb\xbf32\n2,3,8,13,19,22,23,28,30\n")
        assert load_pattern(f) == WORKED_EXAMPLE

    def test_load_pattern_without_missing(self, tmp_path):
        f = tmp_path / "full.txt"
        f.write_text("16\n\n")
        assert load_pattern(f).q == 0

    @pytest.mark.parametrize("text, line, what", [
        ("x16\n1,2\n", 1, "'x16'"),
        ("16\n1,x\n", 2, "'1,x'"),
        ("16\n1,,3\n", 2, "list of integers, got '1,,3'"),
        ("16\n1,3,\n", 2, "list of integers, got '1,3,'"),
        ("16\n1,2\n3\n", 3, "nothing may follow"),
        ("16\n1,2\n\n\n 4 \n", 5, "nothing may follow"),
        ("12\n1,2\n", 1, "power of two"),
        ("16\n1,1\n", 2, "duplicate missing positions"),
        ("16\n1,16\n", 2, "must lie in"),
    ])
    def test_load_pattern_errors_name_the_file_and_line(self, tmp_path, text, line, what):
        f = tmp_path / "bad.txt"
        f.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{f}:{line}: ')}.*{what}"):
            load_pattern(f)


class TestStrideCount:
    def test_worked_example_counts(self):
        assert stride_count(WORKED_EXAMPLE, 0) == 9
        assert stride_count(WORKED_EXAMPLE, 1) == 5  # evens {2,8,22,28,30}
        assert stride_count(WORKED_EXAMPLE, 2) == 3
        assert stride_count(WORKED_EXAMPLE, 3) == 2
        assert stride_count(WORKED_EXAMPLE, 4) == 2

    def test_h_range_enforced(self):
        with pytest.raises(ValueError):
            stride_count(WORKED_EXAMPLE, 5)
        with pytest.raises(ValueError):
            stride_count(WORKED_EXAMPLE, -1)

    @given(
        st.sampled_from([8, 16, 32]),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_h_zero_counts_everything(self, n, data):
        q = data.draw(st.integers(1, n - 1))
        positions = data.draw(
            st.lists(st.integers(0, n - 1), min_size=q, max_size=q, unique=True)
        )
        p = MissingSamplePattern.of(n, positions)
        assert stride_count(p, 0) == p.q


    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_rows_match_the_residue_histogram(self, data):
        r = data.draw(st.integers(1, 12))
        n = 1 << r
        # a progression with a power-of-two step fills its classes evenly, so the largest tie
        start, step = data.draw(st.integers(0, n - 1)), 1 << data.draw(st.integers(0, 4))
        length = data.draw(st.integers(0, n))
        extra = data.draw(st.lists(st.integers(0, n - 1), max_size=4))
        missing = sorted({(start + step * i) % n for i in range(length)} | set(extra))
        rows = dft_uniqueness._stride_rows(n, missing)
        assert [(row.h, row.modulus, row.argmax_residue, row.count, row.term)
                for row in rows] == [histogram_row(missing, h) for h in range(r)]
        p = MissingSamplePattern.of(n, missing)
        assert [stride_count(p, h) for h in range(r)] == [row.count for row in rows]

    def test_empty_pattern_counts_nothing(self):
        for r in range(1, 13):
            p = MissingSamplePattern(1 << r, ())
            assert [stride_count(p, h) for h in range(r)] == [0] * r
            assert dft_uniqueness._stride_rows(p.n, ()) == tuple(
                dft_uniqueness.StrideRow(*histogram_row([], h)) for h in range(r))


class TestSparsityLimit:
    def test_worked_example(self):
        res = dft_sparsity_limit(WORKED_EXAMPLE)
        assert res.stride_counts == {0: 9, 1: 5, 2: 3, 3: 2, 4: 2}
        assert res.penalty == 16
        assert res.k_max == 7 and res.exact and res.closed_form_k_max == 7
        terms = {row.h: row.term for row in res.derivation}
        assert terms == {0: 8, 1: 8, 2: 8, 3: 8, 4: 16}

    def test_single_missing_sample(self):
        res = dft_sparsity_limit(MissingSamplePattern.of(8, [5]))
        assert res.penalty == 0
        assert res.k_max == 3

    def test_half_period_pair(self):
        res = dft_sparsity_limit(MissingSamplePattern.of(16, [1, 9]))
        assert res.stride_counts[3] == 2
        assert res.penalty == 8
        assert res.k_max == 3
        assert dft_uniqueness_oracle(MissingSamplePattern.of(16, [1, 9]), 3)

    def test_no_missing_samples_bypasses_formula(self):
        res = dft_sparsity_limit(MissingSamplePattern.of(16, []))
        assert res.penalty is None
        assert res.k_max == 16
        assert res.derivation == ()
        assert res.to_text().splitlines() == [
            "N = 16, missing 0 samples: []",
            "no missing samples: full DFT is invertible",
            "unique reconstruction guaranteed for K <= 16",
        ]

    def test_json_round_trip(self):
        for pattern in (WORKED_EXAMPLE, MissingSamplePattern(16, ())):
            res = dft_sparsity_limit(pattern)
            again = DftUniquenessResult.from_json(res.to_json())
            assert again == res
            assert again.to_json() == res.to_json()


class TestKnownLimitation:
    def test_nested_half_period_pairs_defeat_the_closed_form(self):
        # Missing {3, 5, 11, 13} at N=16 nests two half-period pairs whose
        # quotient pattern is again paired; z(3)=1, z(11)=-1, z(5)=b,
        # z(13)=-b with b=-exp(2j*pi*10/16) has a 6-sparse DFT, so two
        # distinct 3-sparse spectra share every available sample. The
        # closed form misses this and says 3; the proven limit is 2.
        p = MissingSamplePattern.of(16, [3, 5, 11, 13])
        res = dft_sparsity_limit(p)
        assert res.penalty == 8 and res.closed_form_k_max == 3
        assert res.k_max == 2 and res.exact
        assert dft_uniqueness_oracle(p, 2)
        assert not dft_uniqueness_oracle(p, 3)

    def test_closed_form_exhaustively_sound_at_n8(self):
        for q in range(1, 8):
            for positions in itertools.combinations(range(8), q):
                p = MissingSamplePattern.of(8, positions)
                k_max = dft_sparsity_limit(p).closed_form_k_max
                assert all(
                    dft_uniqueness_oracle(p, k) for k in range(1, k_max + 1)
                ), positions


class TestExactLimit:
    def test_equals_oracle_limit_on_every_n8_pattern(self):
        for q in range(1, 8):
            for positions in itertools.combinations(range(8), q):
                p = MissingSamplePattern.of(8, positions)
                res = dft_sparsity_limit(p)
                assert res.exact, positions
                assert res.k_max == oracle_limit(p), positions

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equals_oracle_limit_on_random_n16_patterns(self, seed):
        rng = np.random.default_rng(seed)
        q = int(rng.integers(1, 16))
        p = MissingSamplePattern.of(16, rng.choice(16, size=q, replace=False))
        res = dft_sparsity_limit(p)
        assert res.exact and res.k_max == oracle_limit(p), p.missing

    @given(st.sampled_from([8, 16, 32]), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_orbit_zero_set_sweep_matches_every_row_set(self, n, seed):
        # the sweep takes one row set per cyclic-shift orbit; the reference takes them all,
        # each null vector from an SVD, not from the sweep's reflectors
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, n if n < 32 else 5))
        q = sorted(int(m) for m in rng.choice(n, size=size, replace=False))
        best, exact = top_level(math.inf, n, q).zero_set_sweep(n, frozenset(q), n, stop=0)
        assert exact and best == plain_zero_set_scan(n, q), q

    @given(st.sampled_from([16, 32]), st.integers(0, 2**32 - 1), st.booleans(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_zero_set_sweep_does_not_depend_on_chunk_ends(self, n, seed, refuse, data):
        # a sequential scan: its result and the budget it leaves are the same
        # for the generator's chunks and for chunks of 1 and of 7, refusals included
        budget = data.draw(st.sampled_from([1, 5, 60, 700, 10**7]), label="budget")
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, n if n == 16 else 6 if budget > 700 else 21))
        q = frozenset(rng.choice(n, size=size, replace=False).tolist())
        stop = data.draw(st.integers(0, n), label="stop")

        def rule(stack):
            # a refusal depends on the support alone, as the rank rule's does
            return dependent_mask(stack) & ~(refuse and len(stack[0]) % 3 == 0)

        runs = set()
        for chunks in iter_orbit_chunks, resplit(1), resplit(7):
            streams = []
            with mock.patch.object(dft_uniqueness, "iter_orbit_chunks", opened(streams, chunks)), \
                    mock.patch.object(dft_uniqueness, "dependent_mask", rule):
                m = top_level(budget, n, q)
                settled = m.settle(n, q, step=2)
                swept = m.zero_set_sweep(n, q, n, stop)
                # the top level's row sets were swept, unless the budget ran out first
                top = streams.count((n, len(q) - 1))
                assert top or m.left < 1, sorted(q)
                runs.add((settled, swept, m.left, top))
        assert len(runs) == 1, sorted(q)

    def test_row_and_column_sides_give_the_limit_on_every_n8_pattern(self):
        # the column side scans every K the pattern allows; q = 1 has no row set
        for size in range(2, 8):
            for q in itertools.combinations(range(8), size):
                k_max, _ = top_bracket(MissingSamplePattern.of(8, q))
                assert row_side(8, q) == column_side(8, q, 1, 9 - size) == k_max, q

    @given(st.sampled_from([16, 32]), st.integers(2, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_row_and_column_sides_give_the_limit_at_n16_and_n32(self, n, size, seed):
        q = sorted(np.random.default_rng(seed).choice(n, size=size, replace=False).tolist())
        k_max, bracket = top_bracket(MissingSamplePattern.of(n, q))
        assert row_side(n, q) == k_max, q
        # at N=16 the column side scans every K the pattern allows; at N=32 that runs to
        # millions of rank tests, so it scans the bracket the bounds left, up to 30,000 of them
        if n == 16:
            bracket = 1, n - len(q) + 1
        if bracket:
            lo, hi = bracket
            assume(sum(orbits(n, 2 * k) for k in range((lo + 1) // 2, (hi + 1) // 2)) <= 30_000)
            assert column_side(n, q, lo, hi) == k_max, q

    def test_column_side_settles_a_q8_limit_without_a_top_level_row_set(self, monkeypatch):
        # the bounds leave K in (2, 3]: the column side's worst case, orbits(16, 6) = 504
        # rank tests, is below the row side's orbits(16, 7) = 715 row sets
        p = MissingSamplePattern.of(16, [1, 3, 4, 5, 6, 8, 11, 14])
        streams = []
        monkeypatch.setattr(dft_uniqueness, "iter_orbit_chunks", opened(streams))
        res = dft_sparsity_limit(p)
        assert (res.k_max, res.exact) == (3, True) == (oracle_limit(p), True)
        assert (16, 7) not in streams

    def test_budget_below_the_row_sets_keeps_the_zero_set_sweep(self, monkeypatch):
        # with fewer than orbits(16, 7) = 715 row sets left, the count rule keeps the
        # zero-set sweep, even though the column side would need no budget; the budget
        # cuts it, so the limit is the bounds' K, labelled as a lower bound
        p = MissingSamplePattern.of(16, [1, 3, 4, 5, 6, 8, 11, 14])
        streams = []
        monkeypatch.setattr(dft_uniqueness, "iter_orbit_chunks", opened(streams))
        lengths = row_sweeps(monkeypatch)
        res = dft_sparsity_limit(p, budget=700)
        assert (16, 7) in streams and 16 in lengths
        assert (res.k_max, res.exact) == (2, False)

    def test_refused_support_is_a_labelled_lower_bound(self, monkeypatch):
        # the closed form says 3 and the true limit is 2; a support the rank rule
        # refuses proves nothing, so the limit stays the decimation bound, flagged
        monkeypatch.setattr(dft_uniqueness, "dependent_mask",
                            lambda stack: np.zeros(len(stack), dtype=bool))
        lengths = row_sweeps(monkeypatch)
        res = dft_sparsity_limit(MissingSamplePattern.of(16, [3, 5, 11, 13]))
        assert (res.k_max, res.exact, res.closed_form_k_max) == (2, False, 3)
        assert lengths[-1] == 16  # the top level ran the zero-set sweep

    @pytest.mark.parametrize("missing", [[0, 1, 4, 5], [0, 1, 2, 3, 4]])
    def test_bounds_naming_one_k_need_no_sweep(self, missing):
        # the decimation bound says S >= 3 and the closed form S <= 4, so K = 1
        # either way: no sweep runs at the top, and a one-row-set budget cannot cut it
        res = dft_sparsity_limit(MissingSamplePattern.of(8, missing), budget=1)
        assert (res.k_max, res.exact, res.closed_form_k_max) == (1, True, 1)

    def test_cut_sweep_is_a_labelled_lower_bound(self, monkeypatch):
        # the bounds around this N=32 pattern name K 6 and 11, so only the
        # zero-set sweep settles it (at 10), and one row set cannot
        p = MissingSamplePattern.of(32, [4, 10, 13, 15, 16, 21, 23])
        lengths = row_sweeps(monkeypatch)
        cut = dft_sparsity_limit(p, budget=1)
        assert lengths[-1] == 32  # the top level ran the zero-set sweep
        assert not cut.exact
        assert cut.k_max <= cut.closed_form_k_max
        del lengths[:]
        full = dft_sparsity_limit(p)
        assert lengths[-1] == 32
        assert full.exact and cut.k_max <= full.k_max
        assert full.k_max == 10 and full.closed_form_k_max == cut.closed_form_k_max == 11

    def test_settle_answers_a_repeat_from_its_memo(self, monkeypatch):
        # the bounds of this N=32 pattern disagree, so the first settle sweeps to the end
        # and leaves budget over; the second reads the memo and draws none of it
        lengths = row_sweeps(monkeypatch)
        q = frozenset([4, 10, 13, 15, 16, 21, 23])
        m = top_level(10**5, 32, q)
        first = m.settle(32, q)
        left = m.left
        assert first[1] and 0 < left < 10**5
        assert m.settle(32, q) == first and m.left == left
        assert lengths.count(32) == 1  # one top-level zero-set sweep, in the first settle

    def test_spent_budget_builds_no_zero_set_chunk(self, monkeypatch):
        # a sweep with no budget left covers nothing, so it builds no row set
        monkeypatch.setattr(dft_uniqueness, "iter_orbit_chunks",
                            mock.Mock(side_effect=AssertionError("chunk built")))
        m = top_level(1, 256, range(0, 256, 3))
        m.left = 0
        assert m.zero_set_sweep(256, frozenset(range(0, 256, 3)), 200, stop=0) == (200, False)
        assert m.left == 0

    def test_large_n_sweep_holds_no_n_by_n_matrix(self, monkeypatch):
        # the bounds, BCH included, name K 1021 and 1022 here, so the zero-set sweep
        # settles it; an (N-q) x N inverse DFT alone would take 64 MiB at N=2048
        p = MissingSamplePattern.of(2048, [0, 1, 6])
        swept = []
        sweep_of = _MinSupport.zero_set_sweep

        def counted(self, *args):
            left = self.left
            result = sweep_of(self, *args)
            swept.append(left - self.left)
            return result

        monkeypatch.setattr(_MinSupport, "zero_set_sweep", counted)
        tracemalloc.start()
        try:
            res = dft_sparsity_limit(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.exact and res.k_max == 1022
        assert sum(swept) > 0
        assert peak < 64 << 20

    @pytest.mark.parametrize("n", [16, 32])
    def test_zero_set_null_vectors_from_reflectors(self, n):
        # unit norm, and a residual at the rounding of one Householder QR
        rng = np.random.default_rng(n)
        eps = np.finfo(float).eps
        for q in range(2, n, n // 16):
            cols = rng.choice(n, size=q, replace=False)
            f = np.exp(-2j * np.pi * (np.outer(np.arange(n), cols) % n) / n)
            rows = np.array([rng.choice(n, size=q - 1, replace=False) for _ in range(50)])
            x = _null_vectors(f[rows])
            assert np.abs(np.linalg.norm(x, axis=1) - 1).max() <= 1e-14, q
            residual = np.linalg.norm(np.einsum("bij,bj->bi", f[rows], x), axis=1)
            assert residual.max() <= 10 * q * eps, q

    def test_bch_bound_never_exceeds_the_zero_set_scan(self):
        # every N=8 pattern, and a seeded sample at N=16, each scanned on one row set per
        # cyclic shift orbit; on every N=8 pattern that gives the scan of every row set
        rng = np.random.default_rng(16)
        patterns = [(8, q) for size in range(2, 8) for q in itertools.combinations(range(8), size)]
        patterns += [(16, sorted(rng.choice(16, size=int(rng.integers(2, 16)), replace=False)))
                     for _ in range(200)]
        for n, q in patterns:
            scan = plain_zero_set_scan(n, q, smallest_of_their_shifts(n, len(q) - 1))
            assert n > 8 or scan == plain_zero_set_scan(n, q), q
            assert _bch_lower(n, q, math.inf) <= scan, q

    def test_bch_bound_does_not_depend_on_its_blocks_of_units(self, monkeypatch):
        # each block of units is built apart; cuts of one unit, or ragged ones, give the same bound
        rng = np.random.default_rng(17)
        patterns = [(n, rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
                    for n in (2, 4, 8, 16, 64, 256) for _ in range(20)]
        whole = [_bch_lower(n, q, math.inf) for n, q in patterns]
        for entries in (1, 5, 12):
            monkeypatch.setattr(dft_uniqueness, "_CHUNK_ENTRIES", entries)
            assert [_bch_lower(n, q, math.inf) for n, q in patterns] == whole, entries

    @given(st.integers(1, 10), st.data())
    @settings(max_examples=200, deadline=None)
    def test_bch_scan_stops_between_its_threshold_and_the_full_bound(self, r, data):
        # blocks of a few units, so that a stop can fall before the last block
        n = 1 << r
        q = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 40)), label="q")
        entries = data.draw(st.integers(1, 64), label="entries")
        with mock.patch.object(dft_uniqueness, "_CHUNK_ENTRIES", entries):
            full = _bch_lower(n, q, math.inf)
            # thresholds at and just around the full bound are the off-by-one cases
            near = st.integers(max(1, full - 3), full + 1)
            stop = data.draw(st.one_of(st.integers(1, n + 1), near), label="stop")
            got = _bch_lower(n, q, stop)
        if full < stop:
            assert got == full
        else:
            assert stop <= got <= full

    def test_settle_maps_two_missing_samples_by_one_block_of_units(self, monkeypatch):
        # unit 1 alone gives N - 1, the closed form's hi, so the scan stops after
        # its first block instead of mapping all N / 4 odd units up to N / 2
        n = 1 << 20
        monkeypatch.setattr(dft_uniqueness, "_CHUNK_ENTRIES", 1 << 10)
        bch_alone(monkeypatch)
        with mock.patch.object(np, "sort", wraps=np.sort) as sort:
            assert top_level(1, n, [0, 1]).settle(n, frozenset({0, 1}), step=2) == (n - 1, True)
        assert sort.call_count == 1

    @pytest.mark.parametrize("n, missing", [
        (32, [m % 32 for m in range(27, 37)]),  # a burst that wraps past N - 1
        (64, list(range(3, 11))),
        (128, list(range(100, 110))),
        (32, list(range(1, 30, 3))),  # missing along step 3
        (8192, [0, 1, 3]),  # positions 4..8191 are one run: S >= 8189, and S <= 8190
    ], ids=["burst-32", "burst-64", "burst-128", "step3-32", "013-8192"])
    def test_bursts_need_no_sweep(self, n, missing, monkeypatch):
        # the BCH bound reaches the closed form's K = (N - q) // 2: neither the
        # decimation recursion nor any sweep runs, and a one-row-set budget settles it
        bch_alone(monkeypatch)
        res = dft_sparsity_limit(MissingSamplePattern.of(n, missing), budget=1)
        k = (n - len(missing)) // 2
        assert (res.k_max, res.exact, res.closed_form_k_max) == (k, True, k)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_lower_bound_never_exceeds_the_exact_limit(self, seed):
        rng = np.random.default_rng(seed)
        q = int(rng.integers(1, 16))
        p = MissingSamplePattern.of(16, rng.choice(16, size=q, replace=False))
        full = dft_sparsity_limit(p)
        cut = dft_sparsity_limit(p, budget=1)
        assert full.exact
        assert cut.k_max <= full.k_max <= cut.closed_form_k_max
        if cut.exact:
            assert cut.k_max == full.k_max


class TestOracle:
    def test_single_missing_exhaustive(self):
        assert dft_uniqueness_oracle(MissingSamplePattern.of(8, [5]), 3)

    def test_all_even_samples_missing_breaks_k1(self):
        # columns k and k+4 coincide on odd sample positions
        p = MissingSamplePattern.of(8, [0, 2, 4, 6])
        assert not dft_uniqueness_oracle(p, 1)
        assert dft_sparsity_limit(p).k_max == 0

    def test_too_few_samples_is_false(self):
        p = MissingSamplePattern.of(8, [0, 1, 2, 3, 4, 5])
        assert not dft_uniqueness_oracle(p, 2)  # 2K=4 > 2 available

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            dft_uniqueness_oracle(WORKED_EXAMPLE, 0)

    @pytest.mark.parametrize("n", [2**r for r in range(1, 7)])
    def test_no_missing_samples_settles_every_k_up_to_half_n(self, n):
        # 2K = N is the one subset of every column, swept as its own orbit, not as the
        # complement of no column; 2K = N + 2 exceeds the N samples
        p = MissingSamplePattern.of(n, [])
        assert dft_uniqueness_oracle(p, n // 2)
        assert not dft_uniqueness_oracle(p, n // 2 + 1)

    @given(st.permutations(range(1, 5)), st.booleans())
    @settings(max_examples=5, deadline=None)
    def test_one_pattern_object_answers_like_fresh_ones_on_every_n8_pattern(self, order, limit_first):
        # from an empty memo, each orbit set is generated once for all 256 patterns: the
        # helper runs the limit and the oracle at every K on fresh pattern objects too
        generated = collections.Counter()
        necklaces = _linalg._necklaces

        def counted(n, k):
            generated[n, k] += 1
            return necklaces(n, k)

        with mock.patch.object(_linalg, "_ORBIT_SETS", {}), \
                mock.patch.object(_linalg, "_necklaces", counted):
            for q in range(9):
                for missing in itertools.combinations(range(8), q):
                    assert_shared_test_answers_like_fresh_ones(8, missing, order, limit_first)
        assert generated and set(generated.values()) == {1}, generated

    @given(st.sets(st.integers(0, 15), max_size=15), st.permutations(range(1, 9)), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_one_pattern_object_answers_like_fresh_ones_at_n16(self, missing, order, limit_first):
        # whichever call comes first builds the null side, and later chunks that
        # _null_side_pays(built=True) sends to it must keep every verdict
        assert_shared_test_answers_like_fresh_ones(16, sorted(missing), order, limit_first)

    def test_a_scan_builds_the_column_test_once(self, monkeypatch):
        # the limit, then the oracle at K = 1, 2, ... until False, as scripts/certify_demo.py
        # asks it: one Fourier row block, one Gram and one null-side certificate for all
        built = {"rows": 0, "gram": 0, "null": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                built[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(dft_uniqueness, "_fourier_rows", counted("rows", dft_uniqueness._fourier_rows))
        monkeypatch.setattr(dft_uniqueness, "rank_test", counted("gram", dft_uniqueness.rank_test))
        monkeypatch.setattr(_linalg, "_null_screen", counted("null", _linalg._null_screen))
        p = MissingSamplePattern.of(16, [0, 5])  # K = 7: 14 columns, where the null side pays
        assert dft_sparsity_limit(p).k_max == oracle_limit(p) == 7
        assert built == {"rows": 1, "gram": 1, "null": 1}
        # a limit that the bounds settle builds no column test at all
        burst = MissingSamplePattern.of(1 << 24, [0, 1])
        assert dft_sparsity_limit(burst).exact and "_column_test" not in vars(burst)
        assert built == {"rows": 1, "gram": 1, "null": 1}

    @given(st.sampled_from([8, 16]), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_orbit_sweep_matches_full_sweep(self, n, seed):
        # the oracle sweeps one subset per shift orbit; the reference sweeps them all
        rng = np.random.default_rng(seed)
        p = MissingSamplePattern.of(n, rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        entries = build_partial_idft(n, p.available()).entries
        for k in range(1, len(p.available()) // 2 + 1):
            full = sweep(iter_combination_chunks(n, 2 * k), rank_test(entries))
            assert dft_uniqueness_oracle(p, k) == (full.witness is None), (p.missing, k)

    def test_bracelet_sweep_matches_the_shift_orbit_sweep_on_every_n8_pattern(self):
        for q in range(9):
            for missing in itertools.combinations(range(8), q):
                assert_oracle_matches_the_shift_orbit_sweep(8, missing)

    @given(st.sets(st.integers(0, 15), max_size=15))
    @settings(max_examples=60, deadline=None)
    def test_bracelet_sweep_matches_the_shift_orbit_sweep_at_n16(self, missing):
        assert_oracle_matches_the_shift_orbit_sweep(16, sorted(missing))

    def test_only_the_column_test_sweeps_bracelets(self):
        # the oracle and the column scan, both sides of 2K = N/2 and 2K = N; the zero-set
        # sweep's budget counts row sets and spark's top sweep needs its first flag in order
        asked = []

        def recorded(n, k, reflect=False):
            asked.append(reflect)
            return iter_orbit_chunks(n, k, reflect=reflect)

        with mock.patch.object(dft_uniqueness, "iter_orbit_chunks", recorded):
            p = MissingSamplePattern.of(16, [])
            assert [dft_uniqueness_oracle(p, k) for k in (3, 6, 8)] == [True] * 3
            q = frozenset([1, 3, 4, 5, 6, 8, 11, 14])
            m = top_level(math.inf, 16, q)
            with mock.patch.object(dft_uniqueness, "orbits", lambda n, k: 0):
                assert m.column_scan(16, q, 1, 9) == (7, True)
            assert asked and all(asked)
            del asked[:]
            m.zero_set_sweep(16, q, 16, stop=0)
            assert asked == [False]
            del asked[:]
        with mock.patch.object(importlib.import_module("cscert.certify"), "iter_orbit_chunks", recorded):
            spark(build_partial_idft(16, range(2, 16)))
        assert asked and not any(asked)

    def test_complement_sweep_matches_the_orbit_sweep_on_every_n16_pattern(self):
        # the column test sweeps the complements of necklaces of N - size columns for
        # N/2 < size < N; the reference sweeps the orbits of size columns themselves, as the
        # column test does at every size up to N/2, and at N, which these sizes hold too.
        # Every pattern maps to one that misses 0 by a shift and to one whose missing set is the
        # smallest of its multiples by the odd units; shifts scale the rows and units permute the
        # columns, which keeps every verdict, so these patterns stand for all of them
        for q in range(7):
            for missing in itertools.combinations(range(16), q):
                if q and missing[0]:
                    break
                if missing > min(tuple(sorted(u * m % 16 for m in missing)) for u in range(1, 16, 2)):
                    continue
                avail = [i for i in range(16) if i not in missing]
                p = MissingSamplePattern.of(16, missing)
                evaluate = rank_test(build_partial_idft(16, avail).entries)
                sizes = range(10, len(avail) + 1, 2)  # 2K, as the oracle and the column scan ask
                passing = [size for size in sizes
                           if sweep(iter_orbit_chunks(16, size), evaluate).witness is None]
                for size in sizes:
                    got = dft_uniqueness._first_independent(p, [size])
                    assert got == (size if size in passing else None), (missing, size)
                # one rank test shared by a downward scan stops at the largest passing size
                got = dft_uniqueness._first_independent(p, sizes[::-1])
                assert got == max(passing, default=None), missing

    @pytest.mark.parametrize("missing, sizes", [
        ((), (26, 28, 30)),
        ((5,), (28, 30)),
        ((0, 16), (28, 30)),
        ((0, 8, 16, 24), (28,)),
        ((3, 4, 11, 20, 29), (26,)),
        ((1, 2, 7, 13, 17, 22), (26,)),
    ])
    def test_complement_sweep_matches_the_orbit_sweep_at_n32(self, missing, sizes):
        # the reference sweeps every combination, not one per orbit
        avail = [i for i in range(32) if i not in missing]
        p = MissingSamplePattern.of(32, missing)
        evaluate = rank_test(build_partial_idft(32, avail).entries)
        for size in sizes:
            full = sweep(iter_combination_chunks(32, size), evaluate).witness is None
            assert (dft_uniqueness._first_independent(p, [size]) == size) == full, size


class TestProperties:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 15))
    @settings(max_examples=40, deadline=None)
    def test_shift_covariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        q = int(rng.integers(1, 8))
        positions = rng.choice(16, size=q, replace=False)
        p = MissingSamplePattern.of(16, positions)
        shifted = MissingSamplePattern.of(16, (positions + shift) % 16)
        assert dft_sparsity_limit(p).stride_counts == dft_sparsity_limit(shifted).stride_counts
        assert dft_sparsity_limit(p).k_max == dft_sparsity_limit(shifted).k_max

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_k_max_nonincreasing_under_new_missing_position(self, seed):
        rng = np.random.default_rng(seed)
        q = int(rng.integers(1, 12))
        positions = set(int(x) for x in rng.choice(16, size=q, replace=False))
        p = MissingSamplePattern.of(16, positions)
        remaining = [x for x in range(16) if x not in positions]
        extra = int(rng.choice(remaining))
        bigger = MissingSamplePattern.of(16, positions | {extra})
        assert dft_sparsity_limit(bigger).k_max <= dft_sparsity_limit(p).k_max

    def test_spark_of_the_partial_idft_gives_the_dft_limit(self):
        # the partial IDFT's spark is S(Q), so its spark limit is the DFT limit; every
        # pattern with a sample at N = 4 and 8, and a seeded sample at N = 16
        rng = np.random.default_rng(26)
        patterns = [(n, missing) for n in (4, 8) for q in range(1, n)
                    for missing in itertools.combinations(range(n), q)]
        patterns += [(16, rng.choice(16, size=int(rng.integers(1, 16)), replace=False))
                     for _ in range(70)]
        compared = 0
        for n, missing in patterns:
            p = MissingSamplePattern.of(n, missing)
            res, lim = spark(build_partial_idft(n, p.available())), dft_sparsity_limit(p)
            if res.exact and lim.exact:
                assert _largest_k_below(res.value / 2) == lim.k_max, p.missing
                compared += 1
        assert compared == len(patterns) == 338

    def test_stride_counts_bounded_by_q(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            q = int(rng.integers(1, 16))
            p = MissingSamplePattern.of(32, rng.choice(32, size=q, replace=False))
            for h in range(p.r):
                assert 1 <= stride_count(p, h) <= p.q
