import itertools
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cscert import (
    DftUniquenessResult,
    MissingSamplePattern,
    dft_sparsity_limit,
    dft_uniqueness_oracle,
    load_pattern,
    stride_count,
)
from cscert import dft_uniqueness
from cscert._linalg import (
    RANK_RTOL,
    dependent_mask,
    iter_combination_chunks,
    iter_orbit_chunks,
    rank_test,
    sweep,
)
from cscert.dft_uniqueness import _MinSupport
from cscert.matrix_core import build_partial_idft

WORKED_EXAMPLE = MissingSamplePattern.of(32, [2, 3, 8, 13, 19, 22, 23, 28, 30])

def oracle_limit(p: MissingSamplePattern) -> int:
    """Largest K the brute-force oracle accepts, with every smaller K."""
    k = 1
    while dft_uniqueness_oracle(p, k):
        k += 1
    return k - 1


def plain_zero_set_scan(n: int, q) -> int:
    """Smallest rank-confirmed null-vector support over every (q-1)-row set of the DFT."""
    f = np.exp(-2j * np.pi * (np.outer(np.arange(n), q) % n) / n)
    idft = build_partial_idft(n, [m for m in range(n) if m not in q]).entries
    rows = np.array(list(itertools.combinations(range(n), len(q) - 1)))
    null = np.linalg.svd(f[rows])[2][:, -1].conj()
    supports = np.unique(np.abs(null @ f.T) > RANK_RTOL * math.sqrt(n), axis=0)
    confirmed = [int(s.sum()) for s in supports if dependent_mask(idft[:, s][None])[0]]
    return min(confirmed, default=n)


def resplit(size):
    """``iter_orbit_chunks`` with its stream of row sets cut again into chunks of ``size``."""
    def chunks(n, k):
        rows = itertools.chain.from_iterable(iter_orbit_chunks(n, k))
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

    @given(st.sampled_from([8, 16]), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_orbit_zero_set_sweep_matches_every_row_set(self, n, seed):
        # the sweep takes one row set per cyclic-shift orbit; the reference takes them all
        rng = np.random.default_rng(seed)
        q = sorted(int(m) for m in rng.choice(n, size=int(rng.integers(2, n)), replace=False))
        best, exact = _MinSupport(math.inf).zero_set_sweep(n, frozenset(q), n, stop=0)
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
        hi = n - max(row.term for row in dft_uniqueness._stride_rows(n, sorted(q)))

        def rule(stack):
            # a refusal depends on the support alone, as the rank rule's does
            return dependent_mask(stack) & ~(refuse and len(stack[0]) % 3 == 0)

        runs = set()
        for chunks in iter_orbit_chunks, resplit(1), resplit(7):
            with mock.patch.object(dft_uniqueness, "iter_orbit_chunks", chunks), \
                    mock.patch.object(dft_uniqueness, "dependent_mask", rule):
                m = _MinSupport(budget)
                settled = m.settle(n, q, hi, step=2)
                swept = m.zero_set_sweep(n, q, n, stop)
                runs.add((settled, swept, m.left))
        assert len(runs) == 1, sorted(q)

    def test_refused_support_is_a_labelled_lower_bound(self, monkeypatch):
        # the closed form says 3 and the true limit is 2; a support the rank rule
        # refuses proves nothing, so the limit stays the decimation bound, flagged
        monkeypatch.setattr(dft_uniqueness, "dependent_mask",
                            lambda stack: np.zeros(len(stack), dtype=bool))
        res = dft_sparsity_limit(MissingSamplePattern.of(16, [3, 5, 11, 13]))
        assert (res.k_max, res.exact, res.closed_form_k_max) == (2, False, 3)

    @pytest.mark.parametrize("missing", [[0, 1, 4, 5], [0, 1, 2, 3, 4]])
    def test_bounds_naming_one_k_need_no_sweep(self, missing):
        # the decimation bound says S >= 3 and the closed form S <= 4, so K = 1
        # either way: no sweep runs at the top, and a one-row-set budget cannot cut it
        res = dft_sparsity_limit(MissingSamplePattern.of(8, missing), budget=1)
        assert (res.k_max, res.exact, res.closed_form_k_max) == (1, True, 1)

    def test_cut_sweep_is_a_labelled_lower_bound(self):
        # the bounds around this N=32 pattern name K 6 and 11, so only the
        # zero-set sweep settles it (at 10), and one row set cannot
        p = MissingSamplePattern.of(32, [4, 10, 13, 15, 16, 21, 23])
        cut = dft_sparsity_limit(p, budget=1)
        assert not cut.exact
        assert cut.k_max <= cut.closed_form_k_max
        full = dft_sparsity_limit(p)
        assert full.exact and cut.k_max <= full.k_max
        assert full.k_max == 10 and full.closed_form_k_max == cut.closed_form_k_max == 11

    def test_large_n_sweep_holds_no_n_by_n_matrix(self):
        # the bounds name K 1021 and 1022 here, so the zero-set sweep settles it;
        # an (N-q) x N inverse DFT alone would take 64 MiB at N=2048
        p = MissingSamplePattern.of(2048, [0, 1, 3])
        tracemalloc.start()
        try:
            res = dft_sparsity_limit(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.exact and res.k_max == 1022
        assert peak < 64 << 20

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

    @given(st.sampled_from([8, 16]), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_orbit_sweep_matches_full_sweep(self, n, seed):
        # the oracle sweeps one subset per shift orbit; the reference sweeps them all
        rng = np.random.default_rng(seed)
        p = MissingSamplePattern.of(n, rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        entries = build_partial_idft(n, p.available()).entries
        for k in range(1, len(p.available()) // 2 + 1):
            full = sweep(iter_combination_chunks(n, 2 * k), rank_test(entries))
            assert dft_uniqueness_oracle(p, k) == (not full.hit), (p.missing, k)


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

    def test_stride_counts_bounded_by_q(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            q = int(rng.integers(1, 16))
            p = MissingSamplePattern.of(32, rng.choice(32, size=q, replace=False))
            for h in range(p.r):
                assert 1 <= stride_count(p, h) <= p.q
