import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cscert import (
    ExperimentReport,
    SparseVector,
    build_gaussian,
    build_partial_idft,
    generate_sparse_signal,
    monte_carlo,
    normalize_columns,
    omp,
    spark,
)
from cscert import recon
from cscert.cli import main
from cscert.matrix_core import MeasurementMatrix
from conftest import DEMO_CSV


class TestGenerate:
    def test_single_spike(self):
        x = generate_sparse_signal(8, 1, seed=0)
        assert x.nnz == 1
        assert np.count_nonzero(x.to_dense()) == 1

    def test_k_bounds_enforced(self):
        with pytest.raises(ValueError):
            generate_sparse_signal(8, 0, seed=0)
        with pytest.raises(ValueError):
            generate_sparse_signal(8, 9, seed=0)

    def test_deterministic_per_seed(self):
        a = generate_sparse_signal(16, 3, seed=99)
        b = generate_sparse_signal(16, 3, seed=99)
        assert a.support == b.support
        np.testing.assert_array_equal(a.values, b.values)

    def test_unit_phase_amplitudes(self):
        x = generate_sparse_signal(16, 5, seed=1)
        np.testing.assert_allclose(np.abs(x.values), 1.0, atol=1e-12)

    def test_support_histogram_uniform(self):
        n, k, draws = 8, 2, 10_000
        counts = np.zeros(n)
        for t in range(draws):
            x = generate_sparse_signal(n, k, seed=[202, t])
            counts[list(x.support)] += 1
        mean = draws * k / n
        sigma = np.sqrt(draws * (k / n) * (1 - k / n))
        assert np.all(np.abs(counts - mean) <= 3 * sigma)


class TestSparseVector:
    def test_support_rejects_disorder_duplicates_and_range(self):
        for support in [(2, 1), (1, 1), (-1, 2), (2, 8)]:
            with pytest.raises(ValueError, match="support indices must"):
                SparseVector(8, support, np.ones(2))

    def test_support_is_a_plain_int_tuple(self):
        x = SparseVector(8, np.array([1, 5]), np.ones(2))
        assert x.support == (1, 5) and all(type(i) is int for i in x.support)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1, np.nan)])
    def test_non_finite_value_is_a_one_line_error_naming_its_position(self, bad):
        with pytest.raises(ValueError, match=r"^position 4: non-finite value \S+$"):
            SparseVector(8, (0, 4, 6), [1.0, bad, bad])


class TestMeasure:
    def test_zero_vector(self, demo_matrix):
        x = SparseVector(8, (), np.zeros(0))
        np.testing.assert_array_equal(demo_matrix.entries @ x.to_dense(), np.zeros(5))

    def test_spike_reads_column(self, demo_matrix):
        x = SparseVector(8, (3,), np.array([1.0]))
        np.testing.assert_array_equal(
            demo_matrix.entries @ x.to_dense(), demo_matrix.entries[:, 3]
        )

    def test_two_harmonic_signal_matches_direct_evaluation(self):
        n, positions = 16, [0, 3, 4, 7, 9, 11]
        a = build_partial_idft(n, positions)
        k1, k2 = 2, 11
        c1, c2 = 1.5 - 0.5j, -0.25 + 1j
        x = SparseVector(n, (k1, k2), np.array([c1, c2]))
        y = a.entries @ x.to_dense()
        direct = np.array(
            [
                (c1 * np.exp(2j * np.pi * m * k1 / n) + c2 * np.exp(2j * np.pi * m * k2 / n)) / n
                for m in positions
            ]
        )
        np.testing.assert_allclose(y, direct, atol=1e-12)


class TestLeastSquares:
    """The least-squares refit on a sorted support that every OMP result ends with."""

    def test_true_support_recovers_exactly(self, demo_matrix):
        x = generate_sparse_signal(8, 3, seed=5)
        y = demo_matrix.entries @ x.to_dense()
        coeffs, residual = recon._refit(demo_matrix.entries, y, np.array(x.support))
        err = np.linalg.norm(coeffs - x.values) / np.linalg.norm(x.values)
        assert err <= 1e-9
        assert np.linalg.norm(residual) <= 1e-9

    def test_k2_planted_signal(self, demo_matrix):
        # spark 6 > 4 makes every 2-sparse signal identifiable
        x = generate_sparse_signal(8, 2, seed=17)
        y = demo_matrix.entries @ x.to_dense()
        coeffs, _ = recon._refit(demo_matrix.entries, y, np.array(x.support))
        assert np.linalg.norm(coeffs - x.values) <= 1e-9


class TestOmp:
    def test_single_spike_exact(self, demo_matrix):
        for seed in range(25):
            x = generate_sparse_signal(8, 1, seed=seed)
            y = demo_matrix.entries @ x.to_dense()
            x_hat, residual = omp(demo_matrix, y, k_target=1)
            assert x_hat.support == x.support
            np.testing.assert_allclose(x_hat.values, x.values, atol=1e-10)
            assert residual <= 1e-10

    def test_zero_measurements_give_empty_solution(self, demo_matrix):
        x_hat, residual = omp(demo_matrix, np.zeros(5), k_target=3)
        assert x_hat.nnz == 0 and residual == 0.0

    def test_k2_rate_recorded_not_asserted(self, demo_matrix):
        # beyond the certified K=1 coherence limit; observe, don't require 1.0
        hits = 0
        trials = 500
        for seed in range(trials):
            x = generate_sparse_signal(8, 2, seed=seed)
            y = demo_matrix.entries @ x.to_dense()
            x_hat, _ = omp(demo_matrix, y, k_target=2)
            err = np.linalg.norm(x_hat.to_dense() - x.to_dense()) / np.linalg.norm(
                x.to_dense()
            )
            hits += err <= 1e-6
        assert 0 <= hits <= trials

    def test_k_target_bounded_by_rows(self, demo_matrix):
        with pytest.raises(ValueError, match="k_target"):
            omp(demo_matrix, np.zeros(5), k_target=6)

    def test_k_target_bounded_by_columns(self):
        a = MeasurementMatrix(np.random.default_rng(4).standard_normal((6, 3)))
        with pytest.raises(ValueError, match=r"^k_target 5 exceeds min\(M, N\) = 3 "):
            omp(a, np.ones(6), k_target=5)
        x_hat, _ = omp(a, np.ones(6), k_target=3, residual_tol=0.0)
        assert x_hat.support == (0, 1, 2)

    def test_negative_k_target_is_refused_and_zero_selects_nothing(self, demo_matrix):
        with pytest.raises(ValueError, match=r"^k_target must be non-negative, got -2$"):
            omp(demo_matrix, np.ones(5), k_target=-2)
        x_hat, residual = omp(demo_matrix, np.ones(5), k_target=0)
        assert x_hat.nnz == 0 and residual == np.linalg.norm(np.ones(5))

    def test_huge_measurement_selects_as_its_scaled_copy_without_overflow(self):
        a = normalize_columns(build_gaussian(5, 8, 1))
        y = np.full(5, 1e200)
        scaled = np.ldexp(y, -600)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x_hat, residual = omp(a, y, 2)
            x_ref, residual_ref = omp(a, scaled, 2)
        assert x_hat.support == x_ref.support
        assert math.isfinite(residual) and residual == np.ldexp(residual_ref, 600)
        np.testing.assert_array_equal(x_hat.values, np.ldexp(x_ref.values.real, 600)
                                      + 1j * np.ldexp(x_ref.values.imag, 600))

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, np.inf)])
    def test_non_finite_measurement_is_a_one_line_error(self, demo_matrix, bad):
        y = np.ones(5, dtype=complex)
        y[2] += bad
        y[4] += bad
        with pytest.raises(ValueError, match=r"^measurement 2: non-finite value \S+$"):
            omp(demo_matrix, y, k_target=2)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_residual_tol_must_be_finite_and_non_negative(self, demo_matrix, tol):
        message = rf"^residual_tol must be a finite non-negative number, got {tol}$"
        with pytest.raises(ValueError, match=message):
            omp(demo_matrix, np.ones(5), k_target=2, residual_tol=tol)

    def test_exact_recovery_at_certified_limit_of_low_coherence_dictionary(self):
        # spikes-and-sines dictionary: coherence 1/4, so K < (1 + 4)/2
        # certifies K = 2, and greedy recovery must then be exact
        from cscert import certify

        m = 16
        grid = np.outer(np.arange(m), np.arange(m))
        fourier = np.exp(2j * np.pi * grid / m) / np.sqrt(m)
        a = MeasurementMatrix(np.hstack([np.eye(m), fourier]))
        rep = certify(a, k_max=1, budget=100_000)
        assert rep.coherence == pytest.approx(0.25, abs=1e-12)
        assert rep.coherence_limit == 2
        for seed in range(50):
            x = generate_sparse_signal(2 * m, rep.coherence_limit, seed=[77, seed])
            y = a.entries @ x.to_dense()
            x_hat, _ = omp(a, y, k_target=rep.coherence_limit)
            assert x_hat.support == x.support
            err = np.linalg.norm(x_hat.to_dense() - x.to_dense())
            assert err <= 1e-9

    def test_identifiability_spot_check(self):
        # two distinct K-sparse vectors with K < spark/2 cannot collide
        a = normalize_columns(
            MeasurementMatrix(np.random.default_rng(23).standard_normal((4, 6)))
        )
        k_limit = (spark(a).value - 1) // 2
        rng = np.random.default_rng(7)
        for _ in range(200):
            k = int(rng.integers(1, k_limit + 1))
            xa = generate_sparse_signal(6, k, seed=[int(rng.integers(2**32)), 0])
            xb = generate_sparse_signal(6, k, seed=[int(rng.integers(2**32)), 1])
            if np.allclose(xa.to_dense(), xb.to_dense()):
                continue
            ya, yb = a.entries @ xa.to_dense(), a.entries @ xb.to_dense()
            assert np.linalg.norm(ya - yb) > 1e-9


class TestMonteCarlo:
    def test_demo_matrix_k1_perfect(self, demo_matrix):
        report = monte_carlo(demo_matrix, [1], trials=200, seed=0)
        assert report.success_rate == {1: 1.0}

    def test_saturated_k_reported_only(self, demo_matrix):
        report = monte_carlo(demo_matrix, [5], trials=40, seed=0)
        assert 0.0 <= report.success_rate[5] <= 1.0

    def test_equal_seeds_identical_reports(self, demo_matrix):
        r1 = monte_carlo(demo_matrix, [1, 2], trials=30, seed=4)
        r2 = monte_carlo(demo_matrix, [1, 2], trials=30, seed=4)
        assert r1 == r2
        assert r1.to_json() == r2.to_json()
        assert r1.to_csv() == r2.to_csv()

    def test_json_round_trip(self, demo_matrix):
        report = monte_carlo(demo_matrix, [1, 3], trials=10, seed=9)
        again = ExperimentReport.from_json(report.to_json())
        assert again == report

    def test_csv_shape(self, demo_matrix):
        report = monte_carlo(demo_matrix, [2, 1], trials=5, seed=3)
        lines = report.to_csv().splitlines()
        assert lines[0] == "K,success_rate"
        assert len(lines) == 3
        assert report.to_csv().endswith("\n")

    def test_k_range_validated(self, demo_matrix):
        with pytest.raises(ValueError):
            monte_carlo(demo_matrix, [0], trials=5, seed=0)
        with pytest.raises(ValueError, match=r"\[1, min\(M, N\)\] = \[1, 5\]"):
            monte_carlo(demo_matrix, [6], trials=5, seed=0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_recovery_tol_must_be_finite_and_non_negative(self, demo_matrix, tol):
        message = rf"^recovery_tol must be a finite non-negative number, got {tol}$"
        with pytest.raises(ValueError, match=message):
            monte_carlo(demo_matrix, [1, 2], trials=5, seed=0, recovery_tol=tol)

    @pytest.mark.parametrize("seed, message", [
        (-1, r"^seed must be non-negative, got -1$"),
        (2.5, r"^seed must be an integer, got 2\.5$"),
    ])
    def test_seed_must_be_a_non_negative_integer(self, demo_matrix, seed, message):
        with pytest.raises(ValueError, match=message):
            monte_carlo(demo_matrix, [1, 2], trials=5, seed=seed)

    def test_trials_past_two_to_the_32_are_refused(self, demo_matrix):
        # each trial index is one 32-bit word of its draw's seed
        with pytest.raises(ValueError, match=r"^trials must be at most 2\*\*32, got 4294967297$"):
            monte_carlo(demo_matrix, [1], trials=2**32 + 1, seed=0)

    def test_memory_stays_bounded_for_a_billion_trials(self, demo_matrix, monkeypatch):
        class Stop(Exception):
            pass

        batches = []

        def first_batch_only(a, seed, ks, ts, recovery_tol):
            if batches:
                raise Stop
            batches.append(len(ks))
            return np.zeros(len(ks), dtype=bool)

        monkeypatch.setattr(recon, "_recoveries", first_batch_only)
        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                monte_carlo(demo_matrix, [1, 2], trials=10**9, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batches and peak < 4 * 2**20

    def test_batch_boundaries_change_no_rate(self, demo_matrix, monkeypatch):
        # batches of 7 trials cut across sparsities 1 | 2 | 3 of 5 trials each
        want = monte_carlo(demo_matrix, [1, 2, 3], trials=5, seed=6).to_json()
        monkeypatch.setattr(recon, "_BATCH_ENTRIES", 7 * (8 + 3 * (5 + 3)))
        assert monte_carlo(demo_matrix, [1, 2, 3], trials=5, seed=6).to_json() == want

    def test_true_seed_reads_as_one(self, demo_matrix):
        # as in NumPy, where default_rng([True, K, t]) draws as [1, K, t]
        report = monte_carlo(demo_matrix, [1, 2, 3], trials=20, seed=True)
        assert report.seed == 1 and type(report.seed) is int
        assert report.to_json() == monte_carlo(demo_matrix, [1, 2, 3], trials=20, seed=1).to_json()


def assert_draws_match_the_reference(n, seed, ks, ts):
    signals, truth = recon._draws(n, seed, np.array(ks, dtype=np.intp), np.array(ts))
    assert truth.shape == (len(ks), max(ks))
    for x, row, k, t in zip(signals, truth, ks, ts):
        want = generate_sparse_signal(n, k, seed=[seed, k, t])
        assert tuple(row[:k].tolist()) == want.support and (row[k:] == n).all()
        assert x[list(want.support)].tobytes() == want.values.tobytes()
        assert x.tobytes() == want.to_dense().tobytes()


@settings(max_examples=200, deadline=None)
@given(
    # from 2**64 on a seed takes three words, past the pool of four with K and t
    seed=st.integers(0, 2**96) | st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1, 2**64]),
    data=st.data(),
    n=st.integers(1, 64),
)
def test_batched_draws_match_the_reference_draw(seed, data, n):
    # pins monte_carlo's hand-derived SeedSequence mixing and PCG64 seeding to NumPy's
    trials = data.draw(st.lists(st.tuples(st.integers(1, n), st.integers(0, 10**6)),
                                min_size=1, max_size=12))
    ks, ts = [k for k, _ in trials], [t for _, t in trials]
    assert_draws_match_the_reference(n, seed, ks, ts)
    # the first trial alone: a one-trial batch
    assert_draws_match_the_reference(n, seed, ks[:1], ts[:1])


@pytest.mark.parametrize("k", [200, 201])
def test_batched_draws_match_the_reference_draw_at_both_choice_regimes(k):
    # past N = 10,000 NumPy's choice runs Floyd's method up to K = N // 50 and
    # shuffles the tail of arange(N) above it, which the batch leaves to choice itself
    assert_draws_match_the_reference(10_001, 5, [k, 1, k], [0, 1, 2])


def pcg64_state(state, inc):
    """The ``PCG64.state`` dictionary at ``(state, inc)``, with no 32-bit half buffered."""
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def pcg64_state_with_a_zero_half(word):
    """A PCG64 ``(state, inc)`` whose raw word number ``word`` has a low half of 0."""
    inc = 2 * 0x9E3779B97F4A7C15 + 1
    # the top six bits of hi are 0, so XSL-RR rotates by 0 and outputs hi ^ lo
    state = 0x0123456789ABCDEF << 64 | 0x7654321089ABCDEF
    inverse = pow(recon._PCG64_MULT, -1, 2**128)
    for _ in range(word + 1):  # each word is output after one LCG step
        state = (state - inc) * inverse % 2**128
    return state, inc


@pytest.mark.parametrize("n, k, word, rejecting", [
    # a zero half draws m = 0 on [0, j], rejected when 2^32 mod (j + 1) > 0:
    # the first Floyd draw, on [0, 8] or on [0, 9], reads the low half of word 0,
    # so every row rejects
    pytest.param(10, 2, 0, [0, 1, 2], id="10-2-0"),
    # Floyd draws nothing on [0, 0], then twice; the shuffle's first draw, on
    # [0, 2], reads the low half of word 1; K = 1 draws only word 0
    pytest.param(3, 3, 1, [0, 2], id="3-3-1"),
])
def test_batched_draws_redraw_a_trial_with_a_lemire_rejection(n, k, word, rejecting, monkeypatch):
    state, inc = pcg64_state_with_a_zero_half(word)
    halves = np.array([recon._u128([state]), recon._u128([inc])])
    monkeypatch.setattr(recon, "_pcg64_states",
                        lambda seed, ks, ts: np.repeat(halves, len(ks), axis=2))
    calls = []

    def recorded(*args):
        calls.append(args)
        return generate_sparse_signal(*args)

    monkeypatch.setattr(recon, "generate_sparse_signal", recorded)
    bit_generator = np.random.PCG64(0)
    bit_generator.state = pcg64_state(state, inc)
    assert bit_generator.random_raw(word + 1)[word] & 0xFFFFFFFF == 0
    ks = [k, 1, k]
    signals, truth = recon._draws(n, 0, np.array(ks, dtype=np.intp), np.arange(3))
    # a rejecting row is the reference draw at its own seed, not at the injected state
    assert calls == [(n, ks[t], [0, ks[t], t]) for t in rejecting]
    rng = np.random.Generator(bit_generator)
    for t, (x, row, k) in enumerate(zip(signals, truth, ks)):
        if t in rejecting:
            want = generate_sparse_signal(n, k, [0, k, t])
            support, values = np.array(want.support), want.values
        else:
            bit_generator.state = pcg64_state(state, inc)
            support = np.sort(rng.choice(n, size=k, replace=False))
            values = np.exp(2j * np.pi * rng.random(k))
        assert row[:k].tolist() == support.tolist() and (row[k:] == n).all()
        assert x[support].tobytes() == values.tobytes()
        assert np.count_nonzero(x) == k


def u128_ints(pair):
    hi, lo = pair
    return [int(h) << 64 | int(l) for h, l in zip(hi.tolist(), lo.tolist())]


def test_128_bit_add_and_multiply_match_python_ints():
    rng = np.random.default_rng(0)
    values = [0, 1, 2, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**64 + 1, 2**96 + 2**32 - 1,
              2**127, 2**128 - 2**64, 2**128 - 1, recon._PCG64_MULT]
    values += [int.from_bytes(rng.bytes(16), "little") for _ in range(20)]
    values += [int.from_bytes(rng.bytes(8), "little") for _ in range(6)]
    a = [x for x in values for _ in values]
    b = [y for _ in values for y in values]
    # lo words whose sum passes 2^64 carry into hi
    assert any((x & 2**64 - 1) + (y & 2**64 - 1) >= 2**64 for x, y in zip(a, b))
    got_sum = u128_ints(recon._add128(recon._u128(a), recon._u128(b)))
    got_product = u128_ints(recon._mul128(recon._u128(a), recon._u128(b)))
    assert got_sum == [(x + y) % 2**128 for x, y in zip(a, b)]
    assert got_product == [x * y % 2**128 for x, y in zip(a, b)]


def test_jump_ahead_words_match_random_raw():
    rng = np.random.default_rng(1)
    randoms = [int.from_bytes(rng.bytes(16), "little") for _ in range(4)]
    # the top state, incs with the top bit set, and state 0 stepping by inc alone
    pairs = [(2**128 - 1, 2**128 - 1), (2**128 - 1, 2**127 + 1), (0, 2**127 + 2**64 + 1), (0, 1),
             (randoms[0], randoms[1] | 1), (randoms[2], randoms[3] | 2**127 | 1)]
    states = np.array([recon._u128([s for s, _ in pairs]), recon._u128([i for _, i in pairs])])
    bit_generator = np.random.PCG64(0)
    for count in [1, 2, 3, 20, 128]:
        words = recon._pcg64_words(states, count)
        assert words.shape == (len(pairs), count) and words.dtype == np.uint64
        for row, (state, inc) in zip(words, pairs):
            bit_generator.state = pcg64_state(state, inc)
            assert row.tobytes() == bit_generator.random_raw(count).tobytes()


@pytest.mark.parametrize("kind, seed", [("real", 0), ("complex", 0), ("idft", 0), ("idft", 1)])
@pytest.mark.parametrize("m", [3, 7, 10, 24, 40])
def test_stacked_measurement_matches_each_product(kind, seed, m, monkeypatch):
    # seed 1 normalizes the partial IDFT columns, seed 0 leaves them unscaled
    a = MeasurementMatrix(_test_matrix(kind, seed, m, 64))
    seen = {}
    draws, select = recon._draws, recon._select

    def keep_signals(*args):
        seen["signals"], truth = draws(*args)
        return seen["signals"], truth

    def keep_measurements(entries, ys, k_target, residual_tol):
        seen["ys"] = ys
        return select(entries, ys, k_target, residual_tol)

    monkeypatch.setattr(recon, "_draws", keep_signals)
    monkeypatch.setattr(recon, "_select", keep_measurements)
    ks = np.repeat(np.arange(1, min(m, 10) + 1), 6)
    recon._recoveries(a, seed, ks, np.arange(ks.size), recon.DEFAULT_RECOVERY_TOL)
    assert seen["ys"].shape == (ks.size, m)
    # step 0's correlations, stacked as _select forms them, are each row's own
    # gemv, so every first pick is the reference's and stays in the engine
    a_conj = a.entries.conj()
    first = np.abs(np.matmul(a_conj.T[None], seen["ys"][:, :, None])[:, :, 0])
    supports, kappa = select(a.entries, seen["ys"], 1, recon.DEFAULT_RESIDUAL_TOL)
    assert np.isfinite(kappa).all()
    for y, x, corr, support in zip(seen["ys"], seen["signals"], first, supports):
        assert y.tobytes() == (a.entries @ x).tobytes()
        own = np.abs(a.entries.conj().T @ y)
        assert corr.tobytes() == own.tobytes()
        assert support.tolist() == [own.argmax()]


def reference_omp(a, y, k_target, residual_tol):
    """The plain OMP loop: a lstsq refit on the sorted support after every pick."""
    picked = []
    residual = y
    support, coeffs = np.zeros(0, dtype=np.intp), np.zeros(0)
    res_norm = float(np.linalg.norm(residual))
    for _ in range(k_target):
        if res_norm <= residual_tol:
            break
        corr = np.abs(a.conj().T @ residual)
        corr[picked] = -1.0
        picked.append(int(np.argmax(corr)))
        support = np.array(sorted(picked), dtype=np.intp)
        cols = a[:, support]
        coeffs, *_ = np.linalg.lstsq(cols, y, rcond=None)
        residual = y - cols @ coeffs
        res_norm = float(np.linalg.norm(residual))
    return support, coeffs, res_norm


def unpadded(selected, n):
    """The rows of ``_select``'s supports without their padding ``n``, as a list."""
    return [row[row < n] for row in selected]


def assert_engine_matches_reference(a, ys, k, tol):
    for y, support in zip(ys, unpadded(recon._select(a, ys, k, tol)[0], a.shape[1])):
        coeffs, residual = recon._refit(a, y, support)
        want_support, want_coeffs, want_norm = reference_omp(a, y, k, tol)
        np.testing.assert_array_equal(support, want_support)
        assert np.asarray(coeffs, dtype=np.complex128).tobytes() == (
            np.asarray(want_coeffs, dtype=np.complex128).tobytes())
        assert float(np.linalg.norm(residual)) == want_norm


def _test_matrix(kind, seed, m, n):
    rng = np.random.default_rng(seed)
    if kind == "idft":
        return build_partial_idft(n, np.sort(rng.choice(n, size=m, replace=False)),
                                  normalize=bool(seed % 2)).entries
    a = rng.standard_normal((m, n))
    if kind == "complex":
        a = a + 1j * rng.standard_normal((m, n))
    return normalize_columns(MeasurementMatrix(a)).entries


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["real", "complex", "idft"]),
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(4, 8), (6, 12), (10, 24), (12, 16), (8, 32), (8, 5)]),
    k=st.integers(1, 10),
    tol=st.sampled_from([1e-12, 0.0]),
)
def test_engine_matches_reference_loop(kind, seed, shape, k, tol):
    m, n = shape
    if kind == "idft":
        n = 16 if n <= 16 else 32
    k = min(k, m, n)
    a = _test_matrix(kind, seed, m, n)
    ys = np.array([a @ generate_sparse_signal(n, k, seed=[seed, t]).to_dense()
                   for t in range(12)])
    assert_engine_matches_reference(a, ys, k, tol)
    # omp runs the plain loop on one vector
    x_hat, residual = omp(MeasurementMatrix(a), ys[0], k_target=k, residual_tol=tol)
    support, coeffs, res_norm = reference_omp(a, ys[0], k, tol)
    assert x_hat.support == tuple(support.tolist())
    assert x_hat.values.tobytes() == np.asarray(coeffs, dtype=np.complex128).tobytes()
    assert residual == res_norm


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["real", "complex", "idft"]),
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(4, 8), (6, 12), (10, 24), (12, 16), (8, 32), (8, 5)]),
    tol=st.sampled_from([1e-12, 0.0]),
)
def test_mixed_targets_select_as_one_target_at_a_time(kind, seed, shape, tol):
    m, n = shape
    if kind == "idft":
        n = 16 if n <= 16 else 32
    a = _test_matrix(kind, seed, m, n)
    ks = np.repeat(np.arange(1, min(m, n) + 1), 4)
    np.random.default_rng(seed).shuffle(ks)
    ys = np.array([a @ generate_sparse_signal(n, k, seed=[seed, t]).to_dense()
                   for t, k in enumerate(ks)])
    selected, kappa = recon._select(a, ys, ks, tol)
    supports = unpadded(selected, n)
    assert all(s.size <= k for s, k in zip(supports, ks))
    for k in np.unique(ks):
        rows = np.flatnonzero(ks == k)
        alone, alone_kappa = recon._select(a, ys[rows], int(k), tol)
        alone = unpadded(alone, n)
        for s, want in zip([supports[r] for r in rows], alone):
            np.testing.assert_array_equal(s, want)
        assert kappa[rows].tobytes() == alone_kappa.tobytes()
        # one int and the same target per row select alike
        same, same_kappa = recon._select(a, ys[rows], np.full(rows.size, k), tol)
        assert all(np.array_equal(s, w) for s, w in zip(unpadded(same, n), alone))
        assert same_kappa.tobytes() == alone_kappa.tobytes()


def test_omp_never_enters_the_engine(demo_matrix, monkeypatch, tmp_path, capsys):
    # one vector runs the plain loop (its bytes: test_engine_matches_reference_loop)
    def refuse(*args):
        raise AssertionError("omp entered the lockstep engine")

    monkeypatch.setattr(recon, "_select", refuse)
    y = (demo_matrix.entries[:, [1, 6]] @ np.array([1.0, -2.0])).real
    x_hat, _ = omp(demo_matrix, y, k_target=2)
    assert x_hat.support == (1, 6)
    yfile = tmp_path / "y.csv"
    yfile.write_text("\n".join(repr(float(v)) for v in y) + "\n")
    assert main(["recon", "--matrix", str(DEMO_CSV), "--measurements", str(yfile),
                 "--k", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["support"] == [1, 6]


def test_planted_k2_ties_follow_the_reference_rounding():
    # real unit-norm columns and unit-modulus values: |x_i + g x_j| = |x_j + g x_i|
    # with g = a_i . a_j, so the true atoms tie in exact arithmetic at step 1
    a = _test_matrix("real", 3, 10, 24)
    signals = [generate_sparse_signal(24, 2, seed=[8, t]) for t in range(200)]
    ys = np.array([a @ x.to_dense() for x in signals])
    corr = np.abs(ys @ a.conj())
    ties = 0
    for x, c in zip(signals, corr):
        i, j = x.support
        assert abs(c[i] - c[j]) <= 1e-14 * np.linalg.norm(c)
        ties += set(np.argsort(c)[-2:]) == {i, j}
    assert ties > 100
    assert_engine_matches_reference(a, ys, 2, 1e-12)


def test_duplicate_column_with_zero_tolerance_follows_the_reference():
    # after columns 3 and 5 the residual is rounding noise and the copy of
    # column 3 has an orthogonalized norm near zero: those rows leave the
    # engine, finish on the reference arithmetic, and produce no NaN
    a = normalize_columns(MeasurementMatrix(np.random.default_rng(5).standard_normal((5, 8))))
    a = np.hstack([a.entries, a.entries[:, [3]]])
    ys = np.array([a[:, 3] * c + a[:, 5] for c in np.linspace(-2, 2, 9)])
    with np.errstate(all="raise"):
        assert_engine_matches_reference(a, ys, 5, 0.0)
        # an exact copy of a picked unit vector orthogonalizes to exactly zero
        copy = np.array([[1, 1, 0], [0, 0, 0], [0, 0, 1]], dtype=np.complex128)
        assert_engine_matches_reference(copy, np.array([[1, 1, 0]], dtype=np.complex128), 3, 0.0)
        # a zero column, the last one unpicked, wins with correlation 0
        zero = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 0]], dtype=np.complex128)
        assert_engine_matches_reference(zero, np.array([[1, 2, 3]], dtype=np.complex128), 3, 1e-12)


def test_ill_conditioned_support_leaves_before_its_stop_is_trusted():
    # columns 0 and 1 are 1e-9 apart: after both are picked the kappa bound is
    # past _KAPPA_MAX, the engine's residual is off by far more than dev
    # covers, and only leaving the engine keeps the reference's stop at {0, 1}
    a = normalize_columns(MeasurementMatrix([[1, 1, 0], [0, 1e-9, 0], [0, 0, 1]])).entries
    y = np.array([[1, 0.8, 0]], dtype=np.complex128)
    assert_engine_matches_reference(a, y, 3, 0.5)
    selected, _ = recon._select(a, y, 3, 0.5)
    assert unpadded(selected, 3)[0].tolist() == [0, 1]


def test_rows_the_screen_cannot_clear_rerun_the_plain_loop_once(monkeypatch):
    calls = []
    select = recon._reference_select

    def counted(a, y, k_target, residual_tol):
        calls.append(y.tobytes())
        return select(a, y, k_target, residual_tol)

    monkeypatch.setattr(recon, "_reference_select", counted)
    # the exact K=2 ties of real columns fall on the first pick, which the
    # reference makes from y alone: the engine takes its pick and keeps the row
    a = _test_matrix("real", 3, 10, 24)
    ys = np.array([a @ generate_sparse_signal(24, 2, seed=[8, t]).to_dense() for t in range(200)])
    assert_engine_matches_reference(a, ys, 2, 1e-12)
    assert calls == []
    assert np.isfinite(recon._select(a, ys, 2, 1e-12)[1]).all()
    # the ill-conditioned pair above leaves through its kappa bound, once
    calls.clear()
    a = normalize_columns(MeasurementMatrix([[1, 1, 0], [0, 1e-9, 0], [0, 0, 1]])).entries
    assert_engine_matches_reference(a, np.array([[1, 0.8, 0]], dtype=np.complex128), 3, 0.5)
    assert len(calls) == 1
    # orthonormal columns and a clean spike: the engine clears every step
    calls.clear()
    assert_engine_matches_reference(np.eye(4, dtype=np.complex128), np.eye(4)[[2]], 2, 1e-12)
    assert calls == []


def reference_ratios(a, k, trials, seed):
    """Each trial's ``||x_hat - x|| / ||x||``, every trial recovered by ``reference_omp``."""
    ratios = []
    for t in range(trials):
        x = generate_sparse_signal(a.shape[1], k, seed=[seed, k, t]).to_dense()
        support, coeffs, _ = reference_omp(a, a @ x, k, recon.DEFAULT_RESIDUAL_TOL)
        x_hat = np.zeros(a.shape[1], dtype=np.complex128)
        x_hat[support] = coeffs
        ratios.append(float(np.linalg.norm(x_hat - x) / np.linalg.norm(x)))
    return ratios


def edge_tols(k):
    """1/(2 sqrt K), where a wrong support stops settling a trial, and its neighbours."""
    edge = 0.5 / math.sqrt(k)
    return [float(np.nextafter(edge, 0)), edge, float(np.nextafter(edge, 1))]


def assert_rates_match_refitting_every_trial(a, ks, trials, seed):
    matrix = MeasurementMatrix(a)
    ratios = {k: reference_ratios(a, k, trials, seed) for k in ks}

    def rates(ks, tol):
        return {k: sum(r <= tol for r in ratios[k]) / trials for k in ks}

    # 1e-15 sits among the errors of right supports, where only the refit can tell
    for tol in [0.0, 1e-15, 1e-12, 1e-6, 0.9]:
        assert monte_carlo(matrix, ks, trials, seed, recovery_tol=tol).success_rate == rates(ks, tol)
    for k in ks:
        for tol in edge_tols(k):
            got = monte_carlo(matrix, [k], trials, seed, recovery_tol=tol).success_rate
            assert got == rates([k], tol), (k, tol)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["real", "complex", "idft"]),
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(4, 8), (6, 12), (10, 24), (8, 5)]),
)
def test_monte_carlo_rates_match_refitting_every_trial(kind, seed, shape):
    m, n = shape
    if kind == "idft":
        n = 16
    a = _test_matrix(kind, seed, m, n)
    assert_rates_match_refitting_every_trial(a, range(1, min(m, n) + 1), 10, seed % 1000)


def test_rates_match_refitting_every_trial_with_a_near_pair_in_the_support():
    # columns 0 and 1 are 1e-9 apart: a support holding both is past _KAPPA_MAX
    a = np.random.default_rng(11).standard_normal((4, 6))
    a[:, 1] = a[:, 0] + 1e-9 * a[:, 2]
    a = normalize_columns(MeasurementMatrix(a)).entries
    assert np.linalg.cond(a[:, :2]) > recon._KAPPA_MAX
    assert any({0, 1} <= set(generate_sparse_signal(6, 3, seed=[5, 3, t]).support) for t in range(40))
    assert_rates_match_refitting_every_trial(a, [2, 3], 40, 5)


def test_duplicate_column_floors_rho_and_lifts_kappa_past_the_cap():
    # the second pick repeats the first column, so CGS2 leaves a norm near 0 (exactly 0
    # on some seeds): the floor keeps 1 / rho finite and the bound past _KAPPA_MAX
    for seed in range(20):
        a0 = np.random.default_rng(seed).standard_normal(3)
        a0 /= np.linalg.norm(a0)
        w = np.linalg.qr(a0[:, None], mode="complete")[0][:, 1]
        a, y = np.column_stack([a0, a0]), a0 + w
        supports, kappa = recon._select(a, y[None], 2, 0.0)
        assert supports[0].tolist() == recon._reference_select(a, y, 2, 0.0).tolist() == [0, 1]
        assert kappa[0] >= 2 * recon._KAPPA_MAX, seed


def test_rates_match_refitting_every_trial_when_a_support_stops_inside_the_true_one():
    # column 4 lies along columns 0 + 1: once OMP holds two of the three, the
    # residual vanishes and it stops at a support strictly inside the true one,
    # with well-conditioned columns the engine keeps
    a = np.random.default_rng(1).standard_normal((3, 5))
    a[:, 4] = a[:, 0] + a[:, 1]
    a = normalize_columns(MeasurementMatrix(a)).entries
    signals = [generate_sparse_signal(5, 3, seed=[5, 3, t]) for t in range(40)]
    ys = np.array([a @ x.to_dense() for x in signals])
    selected, kappa = recon._select(a, ys, 3, recon.DEFAULT_RESIDUAL_TOL)
    inside = [set(s.tolist()) < set(x.support) and k <= recon._KAPPA_MAX
              for s, x, k in zip(unpadded(selected, 5), signals, kappa)]
    assert sum(inside) >= 3
    assert_rates_match_refitting_every_trial(a, [2, 3], 40, 5)


def test_one_padded_support_array_scores_a_mixed_batch():
    # columns 2 and 5 are 1e-9 apart, so a support holding both leaves the engine;
    # column 4 lies along columns 0 + 1, so some residuals vanish inside the true support
    a = np.random.default_rng(0).standard_normal((4, 7))
    a[:, 4] = a[:, 0] + a[:, 1]
    a[:, 5] = a[:, 2] + 1e-9 * a[:, 3]
    a = normalize_columns(MeasurementMatrix(a)).entries
    ks = np.repeat(np.arange(1, 5), 40)
    np.random.default_rng(0).shuffle(ks)
    ts = np.arange(ks.size)
    signals, truth = recon._draws(7, 5, ks, ts)
    ys = np.matmul(a[None], signals[:, :, None])[:, :, 0]
    selected, kappa = recon._select(a, ys, ks, recon.DEFAULT_RESIDUAL_TOL)
    assert isinstance(selected, np.ndarray) and selected.shape == truth.shape
    refs = [recon._reference_select(a, y, int(k), recon.DEFAULT_RESIDUAL_TOL) for y, k in zip(ys, ks)]
    for row, ref in zip(selected, refs):
        assert row.tolist() == ref.tolist() + [7] * (4 - ref.size)
    drawn = [generate_sparse_signal(7, int(k), [5, int(k), int(t)]).support for k, t in zip(ks, ts)]
    # rows that left, some of them stopping short, and kept rows stopping inside the true support
    gone = np.isinf(kappa)
    assert sum(r.size < k for r, k, g in zip(refs, ks, gone) if g) >= 2
    assert sum(set(r.tolist()) < set(d) for r, d, g in zip(refs, drawn, gone) if not g) >= 2
    right = (selected == truth).all(axis=1)
    assert right.tolist() == [r.tolist() == list(d) for r, d in zip(refs, drawn)]
    assert 0 < right.sum() < ks.size


def count_refits(monkeypatch):
    """Record the measurement vector of each refit that scoring makes, not those of ``_reference_select``."""
    refit, select = recon._refit, recon._reference_select
    inside, refits = [], []

    def counted_select(*args):
        inside.append(True)
        try:
            return select(*args)
        finally:
            inside.pop()

    def counted_refit(a, y, support):
        if not inside:
            refits.append(y.tobytes())
        return refit(a, y, support)

    monkeypatch.setattr(recon, "_reference_select", counted_select)
    monkeypatch.setattr(recon, "_refit", counted_refit)
    return refits


def test_only_trials_a_support_cannot_settle_are_refit(monkeypatch):
    # columns 0 and 1 are 1e-9 apart: a support holding both leaves the engine
    # through its kappa bound, right supports included
    a = np.random.default_rng(17).standard_normal((10, 24))
    a[:, 1] = a[:, 0] + 1e-9 * a[:, 2]
    a = normalize_columns(MeasurementMatrix(a)).entries
    refits = count_refits(monkeypatch)
    trials, left = 40, []
    for k in range(1, 11):
        signals = [generate_sparse_signal(24, k, seed=[3, k, t]) for t in range(trials)]
        ys = np.array([a @ x.to_dense() for x in signals])
        supports, kappa = recon._select(a, ys, k, recon.DEFAULT_RESIDUAL_TOL)
        every = [y.tobytes() for y in ys]
        right = [y for y, s, x in zip(every, supports, signals) if s.tolist() == list(x.support)]
        # at the default tol a right support settles unless its row left the engine
        unsettled = [y for y, s, x, kp in zip(every, supports, signals, kappa)
                     if s.tolist() == list(x.support) and kp == np.inf]
        left += unsettled
        for tol, want in [(recon.DEFAULT_RECOVERY_TOL, unsettled), (0.0, right),
                          (edge_tols(k)[2], every), (0.9, every)]:
            refits.clear()
            monte_carlo(MeasurementMatrix(a), [k], trials, seed=3, recovery_tol=tol)
            assert refits == want, (k, tol)
    assert left
    # selecting every sparsity in one batch moves no departure
    refits.clear()
    monte_carlo(MeasurementMatrix(a), range(1, 11), trials, seed=3)
    assert refits == left


def test_repeated_sparsities_are_swept_once(demo_matrix, monkeypatch):
    calls = []
    select = recon._select

    def counted(a, ys, k_target, residual_tol):
        calls.append(np.broadcast_to(k_target, len(ys)).tolist())
        return select(a, ys, k_target, residual_tol)

    monkeypatch.setattr(recon, "_select", counted)
    report = monte_carlo(demo_matrix, [2, 2, 1], trials=30, seed=4)
    # every trial of every sparsity goes through one selection, in the order of k_range
    assert calls == [[2] * 30 + [1] * 30]
    assert report.to_json() == monte_carlo(demo_matrix, [2, 1], trials=30, seed=4).to_json()
