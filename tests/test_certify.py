import functools
import importlib
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cscert import (
    CertificationReport,
    MeasurementMatrix,
    MissingSamplePattern,
    NormalizationError,
    RipProfile,
    SparkResult,
    build_gaussian,
    build_partial_idft,
    certify,
    coherence,
    condition_number_bound,
    dft_sparsity_limit,
    gram,
    normalize_columns,
    rip_constant,
    rip_profile,
    spark,
    welch_bound,
)
from cscert._linalg import (
    DEFAULT_BUDGET,
    RANK_RTOL,
    iter_combination_chunks,
    iter_orbit_chunks,
    rank_test,
    shift_invariant,
    sweep,
)
from cscert.certify import _settled

# Frozen from the demo 5x8 matrix; independently recomputed below by
# SVD-based oracles where the main path uses eigendecompositions.
DEMO_DELTAS = {1: 0.0, 2: 0.49, 3: 0.940551514367, 4: 1.206284454255, 5: 1.336787095725}
DEMO_COHERENCE_TIES = ((1, 5), (2, 7), (3, 6), (4, 5), (4, 6), (5, 7))
EPS = np.finfo(float).eps


def unit_gaussian(seed, rows=4, cols=6):
    return normalize_columns(build_gaussian(rows, cols, seed))


def top_sweep_test(a):
    """Spark's top-sweep evaluator: the rank test of ``a`` at twice the rule's tolerance."""
    return functools.partial(rank_test(a.entries), rtol=2 * RANK_RTOL)


class TestSpark:
    def test_demo_matrix(self, demo_matrix):
        assert spark(demo_matrix) == (6, True, 218)

    def test_zero_column(self):
        entries = np.eye(3, 4)
        entries[:, 3] = 0
        assert spark(MeasurementMatrix(entries)).value == 1

    def test_planted_parallel_pair(self):
        rng = np.random.default_rng(3)
        entries = rng.standard_normal((3, 5))
        entries[:, 4] = 2 * entries[:, 1]
        res = spark(MeasurementMatrix(entries))
        assert res == (2, True, res.evaluations) and res.exact

    def test_generic_wide_matrix_hits_rows_plus_one(self):
        res = spark(build_gaussian(3, 6, seed=0))
        assert res.value == 4 and res.exact

    def test_full_column_rank_square_has_no_dependent_subset(self):
        res = spark(MeasurementMatrix(np.eye(3)))
        assert res.value is None and res.exact

    def test_flagged_at_twice_the_tolerance_but_clean_at_once_is_full_rank(self):
        # columns {0, 2} have sigma_min / sigma_max = 1.5e-10: the top sweep flags
        # them under 2 * RANK_RTOL, and the upward scan finds nothing under RANK_RTOL
        a = MeasurementMatrix([[1, 0, 1], [0, 1, 3e-10]])
        assert sweep(iter_combination_chunks(3, 2), top_sweep_test(a)).witness == (0, 2)
        assert spark(a) == SparkResult(3, True, 6)

    def test_budget_exhaustion_gives_lower_bound(self, demo_matrix):
        res = spark(demo_matrix, budget=10)
        assert not res.exact
        assert res.value == 2  # all 8 singles checked, pairs truncated
        assert res.evaluations == 10


def reference_spark(a, budget):
    """Upward scan one subset at a time under the 1e-10 rule, stopping at the budget."""
    m, n = a.shape
    used = 0
    for k in range(1, min(m, n) + 1):
        for comb in itertools.combinations(range(n), k):
            if used >= budget:
                return k, False, used
            used += 1
            sv = np.linalg.svd(a.entries[:, comb], compute_uv=False)
            if sv[-1] <= 1e-10 * sv[0]:
                return k, True, used
    return (m + 1 if n > m else None), True, used


class Drawn:
    """Fixed draws, by label, for an explicit example of a test that draws from ``st.data()``."""

    def __init__(self, **values):
        self.values = values

    def draw(self, strategy, label):
        return self.values[label]


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 5), n=st.integers(1, 8), data=st.data())
# s = min(M, N): the top sweep flags the planted 4-subset under twice the rule's tolerance
# but the rule clears it, so the upward scan runs its size-4 pass and finds spark M + 1
@example(m=4, n=6, data=Drawn(seed=40, spark=4, scale=2e-10, budget=56))
def test_spark_matches_upward_scan(m, n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    entries = rng.standard_normal((m, n))
    # spark s <= min(M, N) is planted; s = min(M, N) + 1 leaves the matrix generic
    s = data.draw(st.integers(1, min(m, n) + 1), label="spark")
    if s <= min(m, n):
        cols = rng.choice(n, size=s, replace=False)
        # near 1e-10 the size-min(M, N) pass may flag what the 1e-10 rule does not
        scale = data.draw(st.sampled_from([0.0, 1e-6, 2e-10, 1e-10, 5e-11]), label="scale")
        entries[:, cols[-1]] = (
            entries[:, cols[:-1]] @ rng.standard_normal(s - 1) + scale * rng.standard_normal(m)
        )
    a = MeasurementMatrix(entries)
    total = sum(math.comb(n, k) for k in range(1, min(m, n) + 1))
    budget = data.draw(
        st.one_of(st.sampled_from([max(total - 1, 1), total, total + 1]),
                  st.integers(1, total + 2)),
        label="budget",
    )
    assert tuple(spark(a, budget)) == reference_spark(a, budget)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 10), normalize=st.booleans(), data=st.data())
def test_spark_on_partial_idft_matches_upward_scan(n, normalize, data):
    # shift-invariant columns: the size-min(M, N) pass sweeps one subset per orbit
    positions = data.draw(st.sets(st.integers(0, n - 1), min_size=1), label="positions")
    a = build_partial_idft(n, sorted(positions), normalize)
    m = a.shape[0]
    total = sum(math.comb(n, k) for k in range(1, min(m, n) + 1))
    budget = data.draw(
        st.one_of(st.sampled_from([max(total - 1, 1), total, total + 1]),
                  st.integers(1, total + 2)),
        label="budget",
    )
    assert tuple(spark(a, budget)) == reference_spark(a, budget)


@pytest.mark.parametrize("n", range(1, 10))
def test_spark_settles_the_subsets_whose_first_top_superset_precedes_the_flag(n):
    # every top <= n (top = n included), every flagged top-subset F (the first
    # one, 0 .. top-1, included) and every size k <= top
    for top in range(1, n + 1):
        for k in range(1, top + 1):
            subsets = list(itertools.combinations(range(n), k))
            supersets = [
                tuple(sorted(t + tuple(c for c in range(n) if c not in t)[: top - k]))
                for t in subsets
            ]
            combs = np.array(subsets)
            for flag in itertools.combinations(range(n), top):
                # j, the smallest value missing from the flag
                j = next((i for i, v in enumerate(flag) if v != i), top)
                got = _settled(combs, flag, top, j).tolist()
                assert got == [u < flag for u in supersets], (n, top, k, flag)
                # below size top - j all are
                assert all(got) or k >= top - j, (n, top, k, flag)


def planted_8x16(s, i):
    # as certify-early-exit builds its inputs, one column a combination of s - 1 others
    rng = np.random.default_rng([17, s, i])
    a = rng.standard_normal((8, 16))
    cols = rng.choice(16, size=s, replace=False)
    a[:, cols[0]] = a[:, cols[1:]] @ rng.standard_normal(s - 1)
    return normalize_columns(MeasurementMatrix(a))


def missing_zero_x_and_half(n):
    """Partial IDFT matrices missing samples 0, x and n/2, for x = 1, 2, 3.

    A signal on 0 and n/2 cancels every even frequency, so the spark is at
    most n/2, below the n - 3 rows, and the orbit top sweep flags a subset.
    """
    return [build_partial_idft(n, [c for c in range(n) if c not in (0, x, n // 2)])
            for x in (1, 2, 3)]


@pytest.mark.parametrize(
    "kind, s, share",
    [("planted", 7, 0.4), ("planted", 8, 0.15), ("idft", 6, 0.6), ("idft", 8, 0.6)],
    ids=["7-0.4", "8-0.15", "idft-6-0.6", "idft-8-0.6"],
)
def test_spark_settles_most_of_the_upward_scan_after_a_top_flag(kind, s, share, monkeypatch):
    # every spark test would pass on a scan that settles nothing, so count the
    # subsets the upward scan hands to rank_test: 25% of the logical count at
    # s = 7 and 7% at s = 8 when this was written, and on partial IDFT matrices
    # with N = 2s, whose top sweep tests one subset per shift orbit, 48% at N = 12
    # and 51% at N = 16
    module = importlib.import_module("cscert.certify")
    plain = module.rank_test
    received = []

    def counted_rank_test(entries):
        evaluate = plain(entries)

        def counted(combs, rtol=RANK_RTOL):
            if rtol == RANK_RTOL:  # not the top sweep's call, under the doubled tolerance
                received.append(len(combs))
            return evaluate(combs, rtol)

        return counted

    monkeypatch.setattr(module, "rank_test", counted_rank_test)
    tested = logical = 0
    if kind == "planted":
        inputs = [planted_8x16(s, i) for i in range(5)]
    else:
        inputs = missing_zero_x_and_half(2 * s)
    for i, a in enumerate(inputs):
        received.clear()
        res = spark(a)
        assert tuple(res) == reference_spark(a, math.inf) and res.value == s, i
        tested += sum(received)
        logical += res.evaluations
    assert tested < share * logical


def test_spark_skips_the_sizes_a_top_flag_settles_whole(monkeypatch):
    # every k-subset with k < top - j is settled, with j the smallest value missing from
    # the flagged top-subset, so spark counts those sizes without generating them
    plain = iter_combination_chunks
    sizes = []

    def recorded(n, k, *args, **kwargs):
        sizes.append(k)
        return plain(n, k, *args, **kwargs)

    # the top sweep and the upward scan both run in certify
    monkeypatch.setattr(importlib.import_module("cscert.certify"), "iter_combination_chunks", recorded)
    skipped = 0
    for s in (6, 7, 8):
        for i in range(5):
            a = planted_8x16(s, i)
            sizes.clear()
            # counts against the one-subset scan: the test above at spark 7 and 8, and
            # test_spark_matches_upward_scan on small matrices
            assert spark(a).value == s, (s, i)
            flag = sweep(plain(16, 8), top_sweep_test(a)).witness
            j = next((c for c, v in enumerate(flag) if v != c), 8)
            # the top sweep, then the upward scan from size max(8 - j, 1) on; at s = 8
            # one rank test of the flag settles size 8, which is not generated again
            assert sizes == [8] + list(range(max(8 - j, 1), min(s, 7) + 1)), (s, i)
            skipped += max(8 - j, 1) - 1
    assert skipped > 0


def recorded_top_subsets(monkeypatch, top):
    """The size-``top`` subsets that spark's upward scan hands to rank_test, in order."""
    module = importlib.import_module("cscert.certify")
    plain = module.rank_test
    received = []

    def recorded_rank_test(entries):
        evaluate = plain(entries)

        def recorded(combs, rtol=RANK_RTOL):
            if rtol == RANK_RTOL:  # not the top sweep's call, under the doubled tolerance
                received.extend(tuple(c) for c in combs.tolist() if len(c) == top)
            return evaluate(combs, rtol)

        return recorded

    monkeypatch.setattr(module, "rank_test", recorded_rank_test)
    return received


def idft_12_on_9_rows():
    # missing samples 0, 1 and 3: spark 9, the row count
    return build_partial_idft(12, [c for c in range(12) if c not in (0, 1, 3)])


def flagged_under_twice_the_tolerance_only():
    # the fixed example of test_spark_matches_upward_scan: spark 5, past min(M, N) = 4
    rng = np.random.default_rng(40)
    entries = rng.standard_normal((4, 6))
    cols = rng.choice(6, size=4, replace=False)
    entries[:, cols[-1]] = (
        entries[:, cols[:-1]] @ rng.standard_normal(3) + 2e-10 * rng.standard_normal(4)
    )
    return MeasurementMatrix(entries)


@pytest.mark.parametrize(
    "build",
    [*(functools.partial(planted_8x16, 8, i) for i in range(5)), idft_12_on_9_rows,
     flagged_under_twice_the_tolerance_only],
    ids=[*(f"planted-8-{i}" for i in range(5)), "idft-12-on-9", "clean-at-the-rule"],
)
def test_spark_settles_the_top_size_with_one_rank_test_of_the_flag(build, monkeypatch):
    # every top-subset before the flag F is settled, so at spark = min(M, N) the upward
    # scan hands rank_test F alone at that size and counts F's lexicographic rank
    a = build()
    m, n = a.shape
    top = min(m, n)
    # the partial IDFT's top sweep runs on shift orbits
    assert shift_invariant(a.entries) == (build is idft_12_on_9_rows)
    chunks = iter_orbit_chunks(n, top) if shift_invariant(a.entries) else iter_combination_chunks(n, top)
    flag = sweep(chunks, top_sweep_test(a)).witness
    received = recorded_top_subsets(monkeypatch, top)
    res = spark(a)
    assert tuple(res) == reference_spark(a, math.inf)
    if build is flagged_under_twice_the_tolerance_only:
        # the rule clears F, so after F alone the size-top pass tests every subset from F on
        assert res == (m + 1, True, 56)
        assert received == [flag] + [c for c in itertools.combinations(range(n), top) if c >= flag]
    else:
        assert res.value == top and received == [flag]


@pytest.mark.parametrize(
    "build",
    [functools.partial(planted_8x16, 7, 0), idft_12_on_9_rows, functools.partial(unit_gaussian, 0)],
    ids=["planted-7", "idft-12-on-9", "generic-4x6"],
)
def test_spark_forms_one_gram_for_its_top_sweep_and_upward_scan(build, monkeypatch):
    # the top sweep passes twice the tolerance per call to the rank test the upward scan uses
    module = importlib.import_module("cscert.certify")
    plain = module.rank_test
    built = []
    monkeypatch.setattr(module, "rank_test", lambda entries: built.append(entries.shape) or plain(entries))
    a = build()
    assert tuple(spark(a)) == reference_spark(a, math.inf)
    assert built == [a.shape]


@pytest.mark.parametrize("entry", ["spark", "rip_profile", "certify"])
def test_spark_and_rip_profile_build_each_table_once_per_call(entry, monkeypatch):
    module = importlib.import_module("cscert._linalg")
    monkeypatch.setattr(module, "_TABLES", {})
    plain = module._extend_table
    built = []

    def counted(table, start):
        built.append(len(table) + 1)
        return plain(table, start)

    monkeypatch.setattr(module, "_extend_table", counted)
    # spark sweeps size 8, then scans sizes up to 7 after its flag
    a = planted_8x16(7, 0)
    call = {"spark": lambda: spark(a), "rip_profile": lambda: rip_profile(a, 8),
            "certify": lambda: certify(a, k_max=8)}[entry]
    call()
    # from an empty store, each size from 2 to 8 is built from the one below it, once
    assert built == list(range(2, 9))
    # a second call reads the kept tables and builds none
    call()
    assert built == list(range(2, 9))


def test_spark_rip_profile_and_certify_build_each_table_once_per_process(monkeypatch):
    module = importlib.import_module("cscert._linalg")
    monkeypatch.setattr(module, "_TABLES", {})
    plain = module._extend_table
    built = []

    def counted(table, start):
        built.append(len(table) + 1)
        return plain(table, start)

    monkeypatch.setattr(module, "_extend_table", counted)
    # spark sweeps size 8, then scans sizes up to 7 after its flag; the RIP profile sweeps 1 to 8
    a = planted_8x16(7, 0)
    certify(a, k_max=8)
    # each size from 2 to 8 is built from the one below it, once
    assert built == list(range(2, 9))
    certify(a, k_max=8)
    spark(a)
    rip_profile(a, 8)
    assert built == list(range(2, 9))
    assert sorted(module._TABLES) == [(16, r) for r in range(1, 9)]


@settings(max_examples=12, deadline=None)
@given(m=st.integers(4, 7), n=st.integers(18, 24), planted=st.booleans(),
       seed=st.integers(0, 2**32 - 1), cut=st.booleans())
def test_certify_and_spark_do_not_depend_on_the_largest_table(m, n, planted, seed, cut):
    # small entry limits send most sizes down the prefix path, large ones keep every table;
    # a budget cut, if any, falls wherever it falls in either layout
    module = importlib.import_module("cscert._linalg")
    rng = np.random.default_rng(seed)
    entries = rng.standard_normal((m, n))
    if planted:
        cols = rng.choice(n, size=int(rng.integers(2, m + 1)), replace=False)
        entries[:, cols[0]] = entries[:, cols[1:]] @ rng.standard_normal(len(cols) - 1)
    a = normalize_columns(MeasurementMatrix(entries))
    budget = int(rng.integers(1, 20_000)) if cut else DEFAULT_BUDGET
    results = []
    # the real limit first, so that the smaller ones meet a warm store: the limit holds on every
    # call all the same; tables above the real limit go to a store of their own, which the patch drops
    for limit in (1 << 17, 1, 60, 1 << 30):
        with mock.patch.object(module, "_TABLE_ENTRIES", limit), \
                mock.patch.object(module, "_TABLES", {} if limit > 1 << 17 else module._TABLES):
            results.append((certify(a, budget=budget).to_json(), spark(a, budget)))
    assert results[1:] == results[:1] * 3


@pytest.mark.parametrize("budget", [0, -3])
@pytest.mark.parametrize(
    "entry", ["spark", "rip_constant", "rip_profile", "certify", "dft_sparsity_limit"])
def test_budget_below_one_is_a_one_line_error(entry, budget):
    a = normalize_columns(build_gaussian(4, 6, seed=1))
    call = {
        "spark": lambda: spark(a, budget),
        "rip_constant": lambda: rip_constant(a, 2, budget),
        "rip_profile": lambda: rip_profile(a, 3, budget),
        "certify": lambda: certify(a, budget=budget),
        "dft_sparsity_limit": lambda: dft_sparsity_limit(
            MissingSamplePattern.of(8, [0, 1, 4, 5]), budget),
    }[entry]
    with pytest.raises(ValueError, match=rf"^budget must be at least 1, got {budget}$"):
        call()


@pytest.mark.parametrize("budget", [2.5, 3.0, 2e7])
@pytest.mark.parametrize(
    "entry", ["spark", "rip_constant", "rip_profile", "certify", "dft_sparsity_limit"])
def test_real_budget_counts_as_its_floor(entry, budget):
    a = normalize_columns(build_gaussian(4, 6, seed=1))
    call = {
        "spark": lambda b: spark(a, b),
        "rip_constant": lambda b: rip_constant(a, 2, b),
        "rip_profile": lambda b: rip_profile(a, 3, b),
        "certify": lambda b: certify(a, budget=b).to_json(),
        "dft_sparsity_limit": lambda b: dft_sparsity_limit(
            MissingSamplePattern.of(16, [3, 5, 11, 13]), b).to_json(),
    }[entry]
    assert call(budget) == call(math.floor(budget))


def test_rip_profile_orders_past_the_budget_read_zero_inexact():
    a = normalize_columns(build_gaussian(4, 6, seed=1))
    # order 1 takes 6 subsets, order 2 the other 4 of the budget
    profile = rip_profile(a, 4, budget=10)
    assert profile.exact == {1: True, 2: False, 3: False, 4: False}
    assert profile.deltas[3] == profile.deltas[4] == 0.0 and profile.budget_used == 10
    # an order above min(M, N) is refused even when the budget cannot reach it
    with pytest.raises(ValueError, match=r"^order must satisfy 1 <= K <= min\(M, N\) = 4, got 5$"):
        rip_profile(a, 5, budget=1)


@pytest.mark.parametrize("tiny, bounded", [(1e-310, False), (1e-300, True)])
def test_a_coherence_whose_inverse_overflows_bounds_nothing(tiny, bounded):
    # at mu of about 7e-311, 1/mu overflows, so the coherence route bounds nothing, as at
    # mu = 0, and the limit is N; at mu = 1e-300 the thresholds stay finite and raw, and the
    # limit is capped at N, since a support of two columns holds at most two entries
    a = normalize_columns(MeasurementMatrix([[tiny, 1.0], [0.0, 1.0], [1.0, 0.0]]))
    report = certify(a)
    assert 0.0 < report.coherence < 1e-299
    assert (report.coherence_k_threshold is not None) == bounded
    assert (report.spark_lower_bound_from_mu is not None) == bounded
    assert report.coherence_limit == 2
    assert not bounded or report.coherence_k_threshold > 1e299
    assert "  unique for K <= 2  (K < " in report.to_text()
    assert ("spark >= 1 + 1/mu = no bound" in report.to_text()) != bounded

    def refuse(name):
        raise ValueError(f"non-finite JSON constant {name}")

    json.loads(report.to_json(), parse_constant=refuse)
    assert CertificationReport.from_json(report.to_json()) == report


class TestCoherence:
    def test_demo_matrix_six_way_tie(self, demo_matrix):
        res = coherence(demo_matrix)
        assert res.mu == pytest.approx(0.49, abs=1e-9)
        # the maximum is attained by six column pairs, all exactly 0.49;
        # the reported pair is the lexicographically smallest of them
        assert res.ties == DEMO_COHERENCE_TIES
        assert res.pair == (1, 5)
        assert (4, 6) in res.ties

    def test_orthonormal_columns(self):
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((5, 3)))
        assert coherence(MeasurementMatrix(q)).mu == pytest.approx(0.0, abs=1e-12)

    def test_repeated_column(self):
        col = np.array([[1.0], [2.0], [3.0]])
        a = MeasurementMatrix(np.hstack([col, np.ones((3, 1)), col]))
        res = coherence(a)
        assert res.mu == pytest.approx(1.0, abs=1e-12)
        assert res.pair == (0, 2)

    @pytest.mark.parametrize("scale", [1e-170, 1e160])
    def test_extreme_column_scale_gives_the_unscaled_mu(self, scale):
        # the Gram of such columns under- or overflows; that of the unit columns does not
        entries = np.random.default_rng(5).standard_normal((4, 7))
        plain = coherence(MeasurementMatrix(entries))
        scaled = coherence(MeasurementMatrix(scale * entries))
        assert scaled.mu == pytest.approx(plain.mu, rel=1e-12)
        assert scaled.ties == plain.ties


class TestWelch:
    def test_five_by_eight(self):
        assert welch_bound(5, 8) == pytest.approx(math.sqrt(3 / 35), abs=0)

    def test_square_is_zero(self):
        assert welch_bound(6, 6) == 0.0

    def test_two_by_four(self):
        assert welch_bound(2, 4) == pytest.approx(math.sqrt(2 / 6), abs=1e-15)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            welch_bound(5, 4)
        with pytest.raises(ValueError):
            welch_bound(1, 1)


class TestRip:
    def test_demo_profile_values(self, demo_matrix):
        for k, expected in DEMO_DELTAS.items():
            res = rip_constant(demo_matrix, k)
            assert res.exact
            assert res.delta == pytest.approx(expected, abs=1e-9)

    def test_unnormalized_matrix_rejected(self):
        a = build_gaussian(4, 6, seed=2)
        assert not a.normalized
        with pytest.raises(NormalizationError, match="normalize"):
            rip_constant(a, 2)

    def test_orthonormal_profile_is_zero(self):
        q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((4, 4)))
        profile = rip_profile(MeasurementMatrix(q), k_max=4)
        assert all(d == pytest.approx(0.0, abs=1e-12) for d in profile.deltas.values())

    def test_profile_monotone_on_random_corpus(self):
        for seed in range(100):
            profile = rip_profile(unit_gaussian(seed), k_max=4)
            deltas = [profile.deltas[k] for k in sorted(profile.deltas)]
            assert all(a <= b + 1e-12 for a, b in zip(deltas, deltas[1:]))

    def test_budget_exhaustion_flags_approximate(self, demo_matrix):
        res = rip_constant(demo_matrix, 2, budget=5)
        assert not res.exact and res.evaluations == 5
        full = rip_constant(demo_matrix, 2)
        assert res.delta <= full.delta + 1e-15

    def test_svd_oracle_agrees(self, demo_matrix):
        # independent route: extreme squared singular values over submatrices
        for k in (2, 3):
            lmin, lmax = np.inf, -np.inf
            for comb in itertools.combinations(range(8), k):
                s = np.linalg.svd(demo_matrix.entries[:, comb], compute_uv=False)
                lmin = min(lmin, s[-1] ** 2)
                lmax = max(lmax, s[0] ** 2)
            oracle = max(1 - lmin, lmax - 1)
            assert rip_constant(demo_matrix, k).delta == pytest.approx(oracle, abs=1e-10)


def plain_deviation(a, s):
    """``||G_S - I||_2`` of the subset s, from ``eigvalsh`` of its Gram submatrix alone."""
    w = np.linalg.eigvalsh(gram(a)[np.ix_(s, s)])
    return max(1.0 - float(w[0]), float(w[-1]) - 1.0)


def reference_rip(a, k, budget):
    """Plain scan: eigvalsh of one Gram submatrix at a time, stopping at the budget.

    Returns delta, exact, evaluations and the witness: the lexicographically
    first subset scanned whose deviation is delta.
    """
    delta, witness, used = -math.inf, None, 0
    for comb in itertools.combinations(range(a.cols), k):
        if used == budget:
            break
        dev = plain_deviation(a, comb)
        if dev > delta:
            delta, witness = dev, comb
        used += 1
    return delta, used == math.comb(a.cols, k), used, witness


def chunk_edges(n, k):
    """Subset counts at the ends of the sweep's chunks, each +-1, from 1 on."""
    # at most C(n, k) + 1 chunks, so that a stream that never ends fails here
    chunks = list(itertools.islice(iter_combination_chunks(n, k), math.comb(n, k) + 1))
    assert len(chunks) <= math.comb(n, k), "the chunk stream did not end"
    ends = itertools.accumulate(len(c) for c in chunks)
    return sorted({e + d for e in ends for d in (-1, 0, 1)} - {0})


def planted_triples(first, last):
    """Unit columns in R^9 with two planted triples, columns 0-2 and columns 6-8.

    Columns 0-2, 3-5 and 6-8 each span their own three coordinates, and
    columns 3-5 are orthonormal. So every Gram submatrix is block diagonal,
    and a subset deviates from the identity only as much as its part in one
    triple. A triple is either "dependent" (two columns at inner product -0.2
    and their sum: lambda = 0, 1.2, 1.8), a number c, the inner product of
    every pair (lambda = 1 - c, 1 - c, 1 + 2c), or its own 3 x 3 Gram.
    """
    q = np.linalg.qr(np.random.default_rng(3).standard_normal((9, 9)))[0]
    z = q.copy()
    for cols, kind in ((slice(0, 3), first), (slice(6, 9), last)):
        basis = q[:, cols]
        if isinstance(kind, str):  # "dependent"
            pair = basis[:, :2] @ np.linalg.cholesky([[1, -0.2], [-0.2, 1]]).T
            z[:, cols] = np.column_stack([pair, pair.sum(axis=1)])
        else:
            g = np.full((3, 3), kind) + (1 - kind) * np.eye(3) if np.ndim(kind) == 0 else kind
            z[:, cols] = basis @ np.linalg.cholesky(g).T
    return normalize_columns(MeasurementMatrix(z))


@pytest.mark.parametrize(
    "first, last, late_sets_delta",
    [(0.45, "dependent", True), ("dependent", 0.9, True), (0.9, "dependent", False)],
    ids=[
        "late-minimum-inside-running-maximum",
        "late-maximum-inside-running-minimum",
        "dependent-late-triple-under-early-maximum",
    ],
)
def test_rip_constant_finds_a_late_extreme_the_other_bound_would_exclude(
        first, last, late_sets_delta):
    # the first chunk (64 subsets) holds triple 0-2, which sets d; the last
    # subset, triple 6-8, sets delta through one eigenvalue while the other
    # passes its side's test (lambda_max 1.8 < 1.9, lambda_min 0.1 > 0). When
    # triple 0-2's lambda_max = 2.8 sets d = 1.8, the lower side is skipped,
    # and triple 6-8's lambda_min = 0 leaves delta as it was
    a = planted_triples(first, last)
    res = rip_constant(a, 3)
    w = np.linalg.eigvalsh(gram(a)[6:, 6:])
    late = max(1.0 - w[0], w[-1] - 1.0)
    if late_sets_delta:
        assert res.delta == late
    else:
        assert abs(w[0]) < 1e-12 and late < res.delta
        assert res.delta == reference_rip(a, 3, math.comb(9, 3) - 1)[0]
    assert repr(tuple(res)) == repr(reference_rip(a, 3, math.inf))


def test_rip_power_step_divides_each_row_by_its_own_sum():
    # columns 0-3 and 4-7 span their own four coordinates; 0-3 have pairwise
    # inner product 0.52 (lambda_max 2.56) and set d in the first chunk (64
    # of 70 subsets). Columns 4-7, the last subset, have lambda_max 2.608:
    # column 7 meets the others at 0.6, 0.7, 0.7 and columns 5-6 meet at 0.9.
    # Its Gershgorin sums reach 3.0, and the power step's largest
    # (|G_S| r)_i / r_i, 2.71, is on row 5 (r = 2.6), not on row 7 (r = 3.0).
    # Divided by the largest row sum instead, that step would read 2.53, below
    # 1 + d, and exclude the subset that sets delta
    early = np.full((4, 4), 0.52) + 0.48 * np.eye(4)
    late = np.eye(4)
    late[1, 2] = late[2, 1] = 0.9
    late[3, :3] = late[:3, 3] = [0.6, 0.7, 0.7]
    z = np.zeros((8, 8))
    z[:4, :4] = np.linalg.cholesky(early).T
    z[4:, 4:] = np.linalg.cholesky(late).T
    a = normalize_columns(MeasurementMatrix(z))
    res = rip_constant(a, 4)
    w = np.linalg.eigvalsh(gram(a)[4:, 4:])
    assert res.delta == w[-1] - 1.0 > 1.6
    assert repr(tuple(res)) == repr(reference_rip(a, 4, math.inf))


def drawn_unit_matrix(kind, m, data):
    """A unit-column matrix of m rows and at most 10 columns, of the given kind.

    The near-square kinds, a Gaussian and a partial IDFT, have one to three
    columns more than rows, so that delta stays below 1 at orders past 2.
    """
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if kind == "orthonormal":
        n = m
    elif kind.startswith("near-square"):
        n = m + data.draw(st.integers(1, 3), label="columns past the rows")
    else:
        n = data.draw(st.integers(m, 10), label="n")
    if kind in ("idft", "near-square idft", "near-repeated"):
        n = max(n, 2)
    if kind in ("idft", "near-square idft"):
        positions = sorted(rng.choice(n, size=min(m, n), replace=False))
        return build_partial_idft(n, positions, normalize=True)
    cplx = kind == "complex" or data.draw(st.booleans(), label="complex")
    z = rng.standard_normal((m, n)) + (1j * rng.standard_normal((m, n)) if cplx else 0)
    if kind == "orthonormal":
        z = np.linalg.qr(z)[0]
    elif kind == "repeated":
        z = z[:, rng.integers(0, max(1, n // 2), size=n)]
    elif kind == "near-repeated":
        # lambda_min of a subset holding both columns is near 1e-18
        i, j = rng.choice(n, size=2, replace=False)
        z[:, j] = z[:, i] + 1e-9 * np.linalg.norm(z[:, i]) * rng.standard_normal(m)
    return normalize_columns(MeasurementMatrix(z))


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["gaussian", "complex", "idft", "orthonormal", "repeated",
                          "near-repeated", "near-square", "near-square idft"]),
    m=st.integers(1, 6),
    data=st.data(),
)
def test_rip_constant_matches_plain_eigvalsh_scan(kind, m, data):
    # the exclusion certificate may skip eigvalsh, never change a reported bit
    a = drawn_unit_matrix(kind, m, data)
    for k in range(1, min(a.shape) + 1):
        total = math.comb(a.cols, k)
        budget = data.draw(
            st.one_of(st.sampled_from(chunk_edges(a.cols, k)), st.integers(1, total + 1)),
            label=f"budget {k}",
        )
        # delta, exact, evaluations, witness
        assert repr(tuple(rip_constant(a, k, budget))) == repr(reference_rip(a, k, budget)), k


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(3, 6),
    c=st.sampled_from([0.5, 0.5 + 1e-13, 0.6, 0.9]),
    cplx=st.booleans(),
    data=st.data(),
)
def test_rip_profile_matches_plain_eigvalsh_scan_as_delta_crosses_one(m, c, cplx, data):
    # a planted triple at pairwise inner product c has lambda_max = 1 + 2c, so
    # delta_K >= 2c from order 3 on, while delta_1 and delta_2 stay below 1:
    # one profile runs orders that check the lower side and orders that skip it
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n = data.draw(st.integers(m + 1, 10), label="n")
    z = rng.standard_normal((m, n)) + (1j * rng.standard_normal((m, n)) if cplx else 0)
    triple = sorted(rng.choice(n, size=3, replace=False))
    basis = np.linalg.qr(rng.standard_normal((m, 3)))[0]
    z[:, triple] = basis @ np.linalg.cholesky(np.full((3, 3), c) + (1 - c) * np.eye(3)).T
    a = normalize_columns(MeasurementMatrix(z))
    deltas = rip_profile(a, min(a.shape)).deltas
    expected = {k: reference_rip(a, k, math.inf)[0] for k in deltas}
    assert repr(deltas) == repr(expected)
    assert expected[2] < 1.0 and expected[3] >= 2 * c - 1e-12


def reference_profile(a, k_max, budget):
    """``rip_profile`` from plain scans: one budget across orders, the orders past it 0.0, inexact."""
    deltas = dict.fromkeys(range(1, k_max + 1), 0.0)
    exact = dict.fromkeys(deltas, False)
    used = 0
    for k in deltas:
        if used < budget:
            deltas[k], exact[k], evaluations, _ = reference_rip(a, k, budget - used)
            used += evaluations
    return RipProfile(deltas, exact, used)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["gaussian", "complex", "idft", "repeated", "near-repeated"]),
    m=st.integers(1, 6),
    data=st.data(),
)
def test_rip_profile_matches_plain_eigvalsh_scans_on_a_shared_budget(kind, m, data):
    # an order is seeded from the one below only when its whole sweep fits the
    # budget left, so draw budgets where that switches, at each cumulative
    # C(N, K) +-1, and at the unseeded sweep's chunk edges +-1 inside each order
    a = drawn_unit_matrix(kind, m, data)
    k_max = data.draw(st.integers(1, min(a.shape)), label="k_max")
    done = list(itertools.accumulate(math.comb(a.cols, k) for k in range(1, k_max + 1)))
    edges = {e + d for e in done for d in (-1, 0, 1)}
    edges |= {before + e for k, before in enumerate([0] + done[:-1], 1)
              for e in chunk_edges(a.cols, k)}
    budget = data.draw(
        st.one_of(st.sampled_from(sorted(edges - {0})), st.integers(1, done[-1] + 1)),
        label="budget",
    )
    assert repr(rip_profile(a, k_max, budget)) == repr(reference_profile(a, k_max, budget))


def test_rip_profile_finds_a_late_extreme_that_no_seed_extension_reaches(monkeypatch):
    # columns 0-1 meet at 0.7, order 2's witness, and the last triple,
    # 6-8, meets pairwise at 0.45 (lambda = 0.55, 0.55, 1.9). Every extension
    # of (0, 1) deviates by 0.7, so order 3's seed sets d = 0.7, and the last
    # subset must raise it to 0.9
    plain = np.linalg.eigvalsh
    stacks = []

    def recorded(stack):
        stacks.append(stack.shape)
        return plain(stack)

    pair = np.eye(3)
    pair[0, 1] = pair[1, 0] = 0.7
    a = planted_triples(pair, 0.45)
    g = gram(a)

    def dev(s):
        w = plain(g[np.ix_(s, s)])
        return max(1.0 - w[0], w[-1] - 1.0)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    profile = rip_profile(a, 3)
    assert profile.deltas[2] == dev((0, 1)) > max(dev(s) for s in itertools.combinations(
        range(2, 9), 2))
    assert max(dev(sorted({0, 1, j})) for j in range(2, 9)) < profile.deltas[3]
    assert profile.deltas[3] == dev((6, 7, 8))
    # the seed ran: the 7 extensions of (0, 1) in a stack of their own
    assert (7, 3, 3) in stacks
    assert repr(profile) == repr(reference_profile(a, 3, math.inf))


def test_rip_margin_covers_eigvalsh_rounding_past_a_tight_gershgorin_sum(monkeypatch):
    # a triple at pairwise inner product c has Gershgorin sums equal to its
    # lambda_max, 1 + 2c, and so has the power step from them, which stands in
    # for the row-sum test: on this triple the two bounds are equal. With
    # eigvalsh off by K^3 eps max(diag G) = 27 eps, inside the error the
    # margin m covers, triple 0-2 at c = 0.6 sets d, and triple 6-8 at
    # c + 6 eps raises it although its power step is below 1 + d
    plain = np.linalg.eigvalsh

    def rounded_outward(stack):
        w = plain(stack)
        k = stack.shape[-1]
        err = k**3 * EPS * np.abs(np.diagonal(stack, axis1=-2, axis2=-1)).max(axis=-1)
        w[..., 0] -= err
        w[..., -1] += err
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", rounded_outward)
    a = planted_triples(0.6, 0.6 + 6 * EPS)
    res = rip_constant(a, 3)
    assert res.delta == rounded_outward(gram(a)[6:, 6:])[-1] - 1.0
    assert repr(tuple(res)) == repr(reference_rip(a, 3, math.inf))


def test_rip_skips_the_lower_side_only_past_the_gram_rounding():
    # a computed Gram may put a dependent subset's lambda_min about 2 K M eps
    # below 0: 256 eps for pairs of 64-row columns. Columns 0-1 and 10-11 are
    # repeated pairs, and the others orthonormal. Their Grams get
    # lambda_min = -96 eps and -192 eps, past the margin m = 64 eps. So
    # d = 1 + 96 eps after the first chunk (64 pairs), and the last pair still
    # raises it
    z = np.zeros((64, 12))
    z[0, [0, 1]] = z[1, [10, 11]] = 1.0
    z[2:10, 2:10] = np.eye(8)
    a = MeasurementMatrix(z)
    g = gram(a).copy()
    for (i, j), t in (((0, 1), 96 * EPS), ((10, 11), 192 * EPS)):
        # minus t v v^T, v = (e_i - e_j) / sqrt(2): lambda_min = -t, lambda_max stays 2
        g[[i, j], [i, j]] -= t / 2
        g[[i, j], [j, i]] += t / 2
    g.setflags(write=False)
    a.__dict__["_gram"] = g  # gram(a) now returns the perturbed Gram
    res = rip_constant(a, 2)
    assert res.delta > 1.0 + 150 * EPS
    assert repr(tuple(res)) == repr(reference_rip(a, 2, math.inf))


def unit_5x10(kind, seed):
    """A 5x10 unit-column matrix: real or complex Gaussian, or a partial IDFT."""
    rng = np.random.default_rng(seed)
    if kind == "idft":
        return build_partial_idft(10, sorted(rng.choice(10, 5, replace=False)), normalize=True)
    z = rng.standard_normal((5, 10)) + (1j * rng.standard_normal((5, 10)) if kind == "complex" else 0)
    return normalize_columns(MeasurementMatrix(z))


@pytest.mark.parametrize("kind", ["real", "complex", "idft"])
@pytest.mark.parametrize("seed", range(3))
def test_rip_constant_witness_is_the_first_maximizer_of_the_covered_prefix(kind, seed):
    # C(10, 3) = 120 subsets; the budgets cut inside the first chunk (64), at
    # its edge, inside the second, and not at all
    a = unit_5x10(kind, seed)
    subsets = list(itertools.combinations(range(10), 3))
    for budget in (1, 17, 64, 65, 100, 120):
        res = rip_constant(a, 3, budget)
        devs = [plain_deviation(a, s) for s in subsets[:budget]]
        assert res.delta == max(devs) and res.exact == (budget == 120), budget
        assert res.witness == subsets[devs.index(res.delta)], budget


@pytest.mark.parametrize("kind", ["real", "complex", "idft"])
@pytest.mark.parametrize("budget", [20_000_000, 385, 384, 300, 60, 12])
def test_rip_profile_seeds_each_order_from_the_witness_below(kind, budget, monkeypatch):
    # orders 1-5 of a 5x10 matrix take 10, 45, 120, 210 and 252 subsets, so
    # order 4 fits a budget of 385 whole and is cut at 384 and 300, order 3
    # is cut at 60 and order 2 at 12
    module = importlib.import_module("cscert.certify")
    plain = module.rip_constant
    calls = []

    def recorded(a, k, budget, **kwargs):
        res = plain(a, k, budget, **kwargs)
        calls.append((k, budget, kwargs["_seed"], res))
        return res

    monkeypatch.setattr(module, "rip_constant", recorded)
    a = unit_5x10(kind, 4)
    profile = rip_profile(a, 5, budget)
    assert [k for k, *_ in calls] == [k for k in profile.deltas if k <= len(calls)]
    previous = None
    for k, left, seed, res in calls:
        assert len(res.witness) == k and list(res.witness) == sorted(set(res.witness))
        assert plain_deviation(a, res.witness) == res.delta == profile.deltas[k], k
        assert seed == (previous if math.comb(10, k) <= left else None), k
        previous = res.witness
    # order 2 is seeded once its 45 subsets fit after order 1's 10
    assert any(seed is not None for _, _, seed, _ in calls) == (budget >= 55)


def gaussian_7x16(seed):
    return normalize_columns(build_gaussian(7, 16, seed))


def idft_16_on_8_rows(seed):
    rows = np.sort(np.random.default_rng(seed).choice(16, 8, replace=False))
    return build_partial_idft(16, rows, normalize=True)


@pytest.mark.parametrize("build, share", [(gaussian_7x16, 0.01), (idft_16_on_8_rows, 0.25)])
def test_rip_exclusion_keeps_most_subsets_from_eigvalsh(build, share, monkeypatch):
    # every digit test would pass on a certificate that excludes nothing, so
    # count the subsets eigvalsh receives, the seeds included: at most 0.44% of
    # the Gaussians' 26,332 and 14.6% of the partial IDFTs' 39,202 when this was
    # written. Seeding each order from the one below's witness brought
    # the Gaussians' share down from 2.1%, when d came from each first chunk
    plain = np.linalg.eigvalsh
    received = []

    def counted(stack):
        received.append(len(stack))
        return plain(stack)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for seed in range(5):
        a = build(seed)
        received.clear()
        profile = rip_profile(a, min(a.shape))
        assert all(profile.exact.values())
        assert sum(received) < share * profile.budget_used, seed


def test_rip_excludes_most_pairs_in_closed_form(monkeypatch):
    # the power step's interval [min_i (2 g_ii - p_i), max_i p_i] holds every eigenvalue
    # (weighted Gershgorin), and for a pair with a unit diagonal it is 1 -+ |g_12|, the
    # pair's spectrum, so most pairs skip the Cholesky kernel: without a closed-form lower
    # test every seeded pair reached its lower side, and with one 266 of the 4,200 pairs
    # here reached its upper side when this was written
    module = importlib.import_module("cscert.certify")
    plain = module.shifted_definite
    received = []

    def counted(g, c, shift):
        if len(c) == 2:
            received.append(c.shape[1])
        return plain(g, c, shift)

    monkeypatch.setattr(module, "shifted_definite", counted)
    for s in range(2, 9):
        for i in range(5):
            a = planted_8x16(s, i)
            assert repr(rip_profile(a, 2)) == repr(reference_profile(a, 2, math.inf))
    assert sum(received) < 0.1 * 35 * math.comb(16, 2)


def idft_24_on_12_rows(seed):
    rows = sorted(np.random.default_rng(seed).choice(24, 12, replace=False))
    return build_partial_idft(24, rows, normalize=True)


def test_rip_weighted_gershgorin_keeps_most_lower_sides_from_the_kernel(monkeypatch):
    # delta stays below 1 to order 5 on these partial IDFTs, so the lower side stays live.
    # The Cholesky kernel got 110,278 lower sides when only pairs had a closed-form lower
    # test, and 22,922 with min_i (2 g_ii - p_i) at every order when this was written
    module = importlib.import_module("cscert.certify")
    plain = module.shifted_definite
    received = []

    def counted(g, c, shift):
        # a lower side's shift is 1 - d + m, above -slack; an upper side's is -(1 + d - m)
        if shift > -0.5:
            received.append(c.shape[1])
        return plain(g, c, shift)

    monkeypatch.setattr(module, "shifted_definite", counted)
    for seed in range(2):
        a = idft_24_on_12_rows(seed)
        profile = rip_profile(a, 5)
        assert profile.deltas[5] < 1.0
        assert repr(profile) == repr(reference_profile(a, 5, math.inf))
    assert sum(received) < 30_000


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(1, 8),
    rows=st.integers(1, 10),
    cplx=st.booleans(),
    equiangular=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_rip_gershgorin_interval_holds_every_eigenvalue(k, rows, cplx, equiangular, seed):
    # with r the row sums of |G_S| and p_i = (|G_S| r)_i / r_i, rip_constant's power step,
    # every eigenvalue lies within p_i - g_ii of some g_ii (weighted Gershgorin), so in
    # [min_i (2 g_ii - p_i), max_i p_i], up to the margin m = 8 K^3 eps max(diag G) that
    # covers the rounding of both ends and of eigvalsh. An equiangular stack,
    # g_ij = c u_i conj(u_j) off a unit diagonal with |u_i| = 1, meets the upper end:
    # lambda_max = 1 + (K - 1) c = p_i
    rng = np.random.default_rng(seed)
    if equiangular:
        c = rng.uniform(0.0, 1.0, (16, 1, 1))
        u = (np.exp(2j * np.pi * rng.uniform(size=(16, k))) if cplx
             else rng.choice([-1.0, 1.0], (16, k)))
        g = (c + (1.0 - c) * np.eye(k)) * u[:, :, None] * u[:, None, :].conj()
    else:
        z = rng.standard_normal((16, rows, k))
        z = z + (1j * rng.standard_normal((16, rows, k)) if cplx else 0)
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        g = z.conj().transpose(0, 2, 1) @ z
    g = (g + g.conj().transpose(0, 2, 1)) / 2.0  # exactly Hermitian, as gram() makes it
    g[:, range(k), range(k)] = rng.uniform(1.0 - 1e-9, 1.0 + 1e-9, (16, k))
    moduli = np.abs(g).transpose(1, 2, 0)  # (K, K, B), as rip_constant gathers |G_S|
    r = moduli.sum(axis=1)
    p = np.einsum("ijb,jb->ib", moduli, r) / r
    lower, upper = (2.0 * np.einsum("iib->ib", moduli) - p).min(axis=0), p.max(axis=0)
    w = np.linalg.eigvalsh(g)
    margin = 8 * k**3 * EPS * (1.0 + 1e-9)
    assert np.all(lower - margin < w[:, 0]) and np.all(w[:, -1] < upper + margin)


class TestConditionNumberBound:
    def test_isometry(self):
        assert condition_number_bound(0.0) == 1.0

    def test_delta_049(self):
        assert condition_number_bound(0.49) == pytest.approx(1.49 / 0.51, abs=1e-12)

    def test_at_l1_threshold(self):
        # (1+d)/(1-d) at d = sqrt(2)-1 collapses to 1+sqrt(2)
        assert condition_number_bound(math.sqrt(2) - 1) == pytest.approx(
            1 + math.sqrt(2), abs=1e-12
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            condition_number_bound(1.0)
        with pytest.raises(ValueError):
            condition_number_bound(-0.1)


class TestCertify:
    def test_demo_report_limits(self, demo_matrix):
        rep = certify(demo_matrix)
        assert rep.spark == 6 and rep.spark_exact
        assert rep.spark_limit == 2
        assert rep.coherence_limit == 1
        assert rep.coherence_k_threshold == pytest.approx(1.5204, abs=1e-4)
        assert rep.rip_unique_limit == 1
        assert rep.l1_equiv_limit_0493 == 1
        assert rep.l1_equiv_limit_sqrt2 == 0
        assert rep.spark_lower_bound_from_mu == pytest.approx(1 + 1 / 0.49, abs=1e-9)
        assert rep.spark >= rep.spark_lower_bound_from_mu
        assert rep.welch <= rep.coherence
        assert rep.welch_k_bound == pytest.approx(2.2078, abs=1e-3)

    def test_report_json_round_trip(self, demo_matrix):
        rep = certify(demo_matrix)
        again = CertificationReport.from_json(rep.to_json())
        assert again == rep
        assert again.to_json() == rep.to_json()

    def test_unnormalized_columns_fail_before_the_spark_sweep(self, monkeypatch):
        def no_spark(*args, **kwargs):
            raise AssertionError("spark ran on unnormalized columns")

        monkeypatch.setattr(importlib.import_module("cscert.certify"), "spark", no_spark)
        with pytest.raises(NormalizationError, match="normalize"):
            certify(build_gaussian(9, 20, seed=0))

    def test_k_max_zero_asks_for_no_rip_order(self):
        # unnormalized columns pass too, since no RIP order needs them unit-norm
        rep = certify(build_gaussian(4, 6, seed=1), k_max=0)
        assert (rep.rip.deltas, rep.rip.budget_used, rep.rip_unique_limit) == ({}, 0, 0)
        assert rep.spark == 5

    def test_cond_bounds_only_below_one(self, demo_matrix):
        rep = certify(demo_matrix)
        assert set(rep.cond_bounds) == {1, 2, 3}
        assert rep.cond_bounds[2] == pytest.approx(1.49 / 0.51, abs=1e-9)

    def test_cut_rip_profile_claims_no_delta_at_or_above_one(self):
        # every order is cut at budget 1, so no delta is known to be >= 1
        rep = certify(normalize_columns(build_gaussian(4, 6, seed=1)), budget=1)
        assert rep.cond_bounds == {} and not any(rep.rip.exact.values())
        lines = rep.to_text().splitlines()
        assert lines[-1] == "condition-number bounds: none (no exact order has delta < 1)"

    def test_text_report_names_absent_thresholds(self):
        # M = N puts the Welch bound at 0; orthonormal columns put mu at 0 as well
        square = certify(normalize_columns(build_gaussian(4, 4, seed=2))).to_text()
        assert "(best possible coherence; no bound)" in square
        assert "(K < " in square.splitlines()[4]
        identity = certify(MeasurementMatrix(np.eye(4))).to_text().splitlines()
        assert identity[4] == "  unique for K <= 4  (no bound)"
        assert identity[5] == "  spark >= 1 + 1/mu = no bound"
        assert not any("None" in line for line in square.splitlines() + identity)


class TestSpecProperties:
    """Cross-criterion invariants on randomized corpora."""

    def test_welch_bound_below_coherence(self):
        for seed in range(50):
            a = unit_gaussian(seed, rows=4, cols=8)
            assert coherence(a).mu >= welch_bound(4, 8) - 1e-12

    def test_gershgorin_spark_lower_bound(self):
        for seed in range(50):
            a = unit_gaussian(seed, rows=4, cols=8)
            mu = coherence(a).mu
            assert spark(a).value >= math.ceil((1 + 1 / mu) - 1e-9)

    def test_delta2_equals_mu(self, demo_matrix):
        assert rip_constant(demo_matrix, 2).delta == pytest.approx(
            coherence(demo_matrix).mu, abs=1e-10
        )
        for seed in range(20):
            a = unit_gaussian(seed)
            assert rip_constant(a, 2).delta == pytest.approx(
                coherence(a).mu, abs=1e-10
            )

    def test_submatrix_coherence_never_exceeds_full(self):
        rng = np.random.default_rng(11)
        for seed in range(20):
            a = unit_gaussian(seed, rows=4, cols=7)
            mu = coherence(a).mu
            for _ in range(5):
                size = rng.integers(2, 7)
                idx = np.sort(rng.choice(7, size=size, replace=False))
                assert coherence(MeasurementMatrix(a.entries[:, idx])).mu <= mu + 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(1, 2), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_eigenvalue_sandwich(self, seed, k, vec_seed):
        a = unit_gaussian(seed, rows=5, cols=8)
        rng = np.random.default_rng(vec_seed)
        sub = a.entries[:, np.sort(rng.choice(8, size=2 * k, replace=False))]
        w = np.linalg.eigvalsh(gram(MeasurementMatrix(sub)))
        v = rng.standard_normal(2 * k) + 1j * rng.standard_normal(2 * k)
        ratio = np.linalg.norm(sub @ v) ** 2 / np.linalg.norm(v) ** 2
        assert w[0] - 1e-9 <= ratio <= w[-1] + 1e-9

    def test_spark_uniqueness_matches_rank_oracle(self):
        # K < spark/2 must imply every merged 2K-column set is full rank
        for seed in range(10):
            a = unit_gaussian(seed, rows=4, cols=6)
            s = spark(a).value
            for k in range(1, (s - 1) // 2 + 1):
                for comb in itertools.combinations(range(6), 2 * k):
                    sv = np.linalg.svd(a.entries[:, comb], compute_uv=False)
                    assert sv[-1] > 1e-10 * sv[0]
