import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cscert import (
    CsvParseError,
    CsvShapeError,
    DegenerateColumnError,
    MeasurementMatrix,
    build_gaussian,
    build_partial_idft,
    build_random_partial_fourier,
    certify,
    coherence,
    gram,
    load_matrix_csv,
    normalize_columns,
    rip_constant,
    save_matrix_csv,
    welch_bound,
)
from cscert import MissingSamplePattern, SparseVector, generate_sparse_signal, monte_carlo, omp
from cscert.certify import rip_profile
from cscert.dft_uniqueness import dft_uniqueness_oracle, stride_count
from cscert._linalg import iter_combination_chunks, iter_orbit_chunks
from conftest import DEMO_CSV, DEMO_5X8


def random_matrix(seed, rows=4, cols=6, complex_parts=True):
    rng = np.random.default_rng(seed)
    entries = rng.standard_normal((rows, cols))
    if complex_parts:
        entries = entries + 1j * rng.standard_normal((rows, cols))
    return MeasurementMatrix(entries)


class TestCsv:
    def test_demo_file_loads_normalized(self):
        a = load_matrix_csv(DEMO_CSV)
        assert a.rows == 5 and a.cols == 8
        assert a.kind == "loaded"
        assert a.normalized
        np.testing.assert_allclose(a.entries, DEMO_5X8, atol=0)

    def test_single_cell(self, tmp_path):
        f = tmp_path / "one.csv"
        f.write_text("1.0\n")
        a = load_matrix_csv(f)
        assert a.shape == (1, 1) and a.normalized

    def test_ragged_rows_rejected(self, tmp_path):
        f = tmp_path / "ragged.csv"
        f.write_text("1,2,3\n4,5,6,7\n")
        with pytest.raises(CsvShapeError, match="row 1 has 4 fields, expected 3"):
            load_matrix_csv(f)

    def test_bad_cell_names_row_and_column(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("1,2\n3,oops\n")
        with pytest.raises(CsvParseError, match="row 1, column 1"):
            load_matrix_csv(f)

    @pytest.mark.parametrize("text, what", [
        ("1,2\n3, \n", "row 1, column 1: empty cell"), ("\n  \n", "no rows")])
    def test_empty_cell_or_file_is_a_one_line_error(self, tmp_path, text, what):
        f = tmp_path / "bad.csv"
        f.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{f}: {what}')}$"):
            load_matrix_csv(f)

    def test_complex_cells(self, tmp_path):
        f = tmp_path / "cplx.csv"
        f.write_text("1+2i,0.5\n-3i,1.25-0.5i\n")
        a = load_matrix_csv(f)
        assert a.entries[0, 0] == 1 + 2j
        assert a.entries[1, 0] == -3j
        assert a.entries[1, 1] == 1.25 - 0.5j

    def test_round_trip_real_and_complex(self, tmp_path):
        for seed, cplx in [(0, False), (1, True)]:
            a = random_matrix(seed, complex_parts=cplx)
            f = tmp_path / f"m{seed}.csv"
            save_matrix_csv(a, f)
            assert f.read_text().endswith("\n")
            b = load_matrix_csv(f)
            np.testing.assert_array_equal(a.entries, b.entries)


class TestConstructors:
    def test_partial_idft_single_zero_row(self):
        a = build_partial_idft(4, [0])
        np.testing.assert_allclose(a.entries, [[0.25, 0.25, 0.25, 0.25]], atol=0)
        assert a.kind == "partial_idft"

    def test_partial_idft_demo_complement_shape(self):
        missing = {2, 3, 8, 13, 19, 22, 23, 28, 30}
        positions = [p for p in range(32) if p not in missing]
        a = build_partial_idft(32, positions)
        assert a.shape == (23, 32)

    def test_full_idft_inverts_forward_dft(self):
        n = 8
        a = build_partial_idft(n, range(n), normalize=False)
        grid = np.outer(np.arange(n), np.arange(n))
        forward = np.exp(-2j * np.pi * grid / n)
        np.testing.assert_allclose(a.entries @ forward, np.eye(n), atol=1e-9)

    def test_partial_idft_normalize_gives_unit_columns(self):
        a = build_partial_idft(16, [1, 5, 6], normalize=True)
        assert a.normalized

    def test_partial_idft_rejects_duplicates_and_range(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_partial_idft(8, [1, 1])
        with pytest.raises(ValueError, match=r"\[0, 8\)"):
            build_partial_idft(8, [8])

    def test_random_fourier_on_uniform_grid_matches_idft(self):
        n = 8
        positions = [0, 2, 5]
        times = [p / n for p in positions]  # interval length 1
        rf = build_random_partial_fourier(n, 1.0, times)
        pidft = build_partial_idft(n, positions)
        np.testing.assert_allclose(rf.entries, pidft.entries * n, atol=1e-12)

    def test_random_fourier_time_zero_row(self):
        a = build_random_partial_fourier(2, 1.0, [0.0])
        np.testing.assert_allclose(a.entries, [[1.0, 1.0]], atol=0)

    def test_random_fourier_rejects_out_of_range_times(self):
        with pytest.raises(ValueError, match="instants"):
            build_random_partial_fourier(4, 1.0, [0.2, 1.0])

    def test_random_fourier_coherence_respects_welch(self):
        rng = np.random.default_rng(123)
        times = np.sort(rng.uniform(0.0, 1.0, size=5))
        a = build_random_partial_fourier(8, 1.0, times, normalize=True)
        assert coherence(a).mu >= welch_bound(5, 8) - 1e-12

    def test_gaussian_deterministic(self):
        a = build_gaussian(5, 8, seed=42)
        b = build_gaussian(5, 8, seed=42)
        np.testing.assert_array_equal(a.entries, b.entries)
        assert a.kind == "gaussian"

    def test_gaussian_column_energy_law_of_large_numbers(self):
        a = build_gaussian(1000, 1, seed=5)
        energy = float(np.linalg.norm(a.entries[:, 0]) ** 2)
        assert 0.9 <= energy <= 1.1

    def test_gaussian_ensemble_coherence_above_welch(self):
        mus = [coherence(build_gaussian(5, 8, seed=s)).mu for s in range(100)]
        assert np.mean(mus) > 0.2928


class TestColumnOps:
    def test_normalize_leaves_demo_matrix_alone(self, demo_matrix):
        n = normalize_columns(demo_matrix)
        np.testing.assert_allclose(n.entries, demo_matrix.entries, atol=1e-12)

    def test_three_four_five(self):
        a = MeasurementMatrix(np.array([[3.0], [4.0]]))
        n = normalize_columns(a)
        np.testing.assert_allclose(n.entries, [[0.6], [0.8]], atol=1e-15)
        assert n.normalized

    def test_normalization_preserves_coherence(self):
        a = random_matrix(5)
        scaled = MeasurementMatrix(a.entries * np.arange(1, a.cols + 1))
        assert coherence(normalize_columns(scaled)).mu == pytest.approx(
            coherence(scaled).mu, abs=1e-12
        )

    def test_zero_column_error_names_index(self):
        entries = np.ones((3, 4), dtype=complex)
        entries[:, 2] = 0
        with pytest.raises(DegenerateColumnError, match="column 2"):
            normalize_columns(MeasurementMatrix(entries))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_normalize_idempotent(self, seed):
        a = random_matrix(seed)
        once = normalize_columns(a)
        twice = normalize_columns(once)
        assert np.max(np.abs(once.entries - twice.entries)) <= 1e-12

    def test_gram_of_demo_matrix_has_unit_diagonal(self, demo_matrix):
        g = gram(demo_matrix)
        assert g.shape == (8, 8)
        np.testing.assert_allclose(np.diagonal(g).real, 1.0, atol=1e-9)

    def test_gram_orthonormal_is_identity(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 4)))
        np.testing.assert_allclose(gram(MeasurementMatrix(q)), np.eye(4), atol=1e-12)

    def test_gram_single_column(self):
        a = MeasurementMatrix(np.array([[1.0], [1.0]]) / np.sqrt(2))
        np.testing.assert_allclose(gram(a), [[1.0]], atol=1e-12)

    def test_gram_is_formed_once_per_matrix(self, demo_matrix):
        g = gram(demo_matrix)
        assert type(g) is np.ndarray and not g.flags.writeable
        assert gram(demo_matrix) is g
        assert gram(MeasurementMatrix(DEMO_5X8)) is not g

    def test_gram_is_exactly_hermitian(self):
        g = gram(random_matrix(3, rows=5, cols=9))
        np.testing.assert_array_equal(g, g.conj().T)

    def test_select_worst_pair_gram(self, demo_matrix):
        g = gram(MeasurementMatrix(demo_matrix.entries[:, [4, 6]]))
        assert abs(g[0, 1]) == pytest.approx(0.49, abs=1e-12)

    @given(
        st.integers(0, 2**32 - 1),
        st.sets(st.integers(0, 5), min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_gram_of_selection_is_principal_submatrix(self, seed, idx):
        a = random_matrix(seed)
        s = sorted(idx)
        direct = gram(MeasurementMatrix(a.entries[:, s]))
        principal = gram(a)[np.ix_(s, s)]
        assert np.max(np.abs(direct - principal)) <= 1e-12


class TestTypes:
    def test_matrix_entries_read_only(self, demo_matrix):
        with pytest.raises(ValueError):
            demo_matrix.entries[0, 0] = 9.0

    def test_partial_idft_kind_enforces_common_modulus(self):
        with pytest.raises(ValueError, match="modulus"):
            MeasurementMatrix(np.array([[1.0, 2.0]]), kind="partial_idft")

    def test_normalized_flag_is_measured(self):
        a = MeasurementMatrix(np.array([[2.0, 0.5]]))
        assert not a.normalized


@pytest.mark.parametrize("call, field", [
    (lambda: SparseVector(8, [1.5, 6.9], np.ones(2)), "support index"),
    (lambda: MissingSamplePattern.of(8, [1.9]), "missing position"),
    (lambda: MissingSamplePattern(8, (2.0,)), "missing position"),
    (lambda: MissingSamplePattern.of(8.7, [1]), "signal length"),
    (lambda: build_partial_idft(8, [1.5]), "sample position"),
    (lambda: build_partial_idft(8.5, [1]), "signal length"),
    (lambda: build_random_partial_fourier(2.5, 1.0, [0.5]), "number of harmonics"),
    (lambda: monte_carlo(MeasurementMatrix(np.eye(3)), [1.5], trials=1, seed=0), "sparsity"),
    (lambda: build_gaussian(3.0, 4, 0), "number of rows"),
    (lambda: build_gaussian(3, 4.0, 0), "number of columns"),
    (lambda: dft_uniqueness_oracle(MissingSamplePattern.of(16, [1, 3]), 1.5), "sparsity"),
    (lambda: dft_uniqueness_oracle(MissingSamplePattern.of(16, [1, 3]), 2.0), "sparsity"),
    (lambda: stride_count(MissingSamplePattern.of(16, [1, 3]), 1.5), "h"),
    (lambda: rip_constant(normalize_columns(build_gaussian(4, 6, 1)), 2.0), "order"),
    (lambda: rip_profile(normalize_columns(build_gaussian(4, 6, 1)), 2.5), "order"),
    (lambda: certify(normalize_columns(build_gaussian(4, 6, 1)), k_max=2.5), "k_max"),
    (lambda: omp(MeasurementMatrix(np.eye(3)), np.ones(3), 1.5), "k_target"),
    (lambda: monte_carlo(MeasurementMatrix(np.eye(3)), [1], 2.5, 0), "trials"),
    (lambda: SparseVector(8.5, [1], [1]), "vector length"),
    (lambda: generate_sparse_signal(8.5, 2, 0), "vector length"),
], ids=["support", "missing-of", "missing", "length", "sample-position", "idft-length",
        "harmonics", "sparsity", "gaussian-rows", "gaussian-cols", "oracle-sparsity",
        "oracle-whole-float", "stride-h", "rip-order", "rip-profile-order", "certify-k-max",
        "omp-k-target", "trials", "vector-length", "signal-length"])
def test_non_integer_index_is_refused_not_truncated(call, field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got ") as exc:
        call()
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("call, message", [
    (lambda: MeasurementMatrix(np.zeros(3)), "matrix must be 2-D and nonempty, got shape (3,)"),
    (lambda: MeasurementMatrix(np.eye(2), kind="bogus"), "unknown matrix kind 'bogus'"),
    (lambda: build_partial_idft(8, []), "at least one sample position is required"),
    (lambda: build_random_partial_fourier(4, 1.0, []), "at least one sampling instant is required"),
    (lambda: build_gaussian(0, 3, 1), "matrix dimensions must be positive, got 0x3"),
    (lambda: certify(normalize_columns(MeasurementMatrix(np.ones((3, 1))))),
     "coherence needs at least two columns"),
    (lambda: rip_constant(normalize_columns(build_gaussian(4, 6, 1)), 0),
     "order must satisfy 1 <= K <= min(M, N) = 4, got 0"),
    (lambda: SparseVector(8, (1, 2), np.ones(3)),
     "need one value per support index, got 3 values for support of size 2"),
    (lambda: monte_carlo(MeasurementMatrix(np.eye(3)), [1], trials=0, seed=0),
     "need at least one trial, got 0"),
    (lambda: next(iter_combination_chunks(3, 4)), "need 0 < k <= n, got k=4, n=3"),
    (lambda: next(iter_orbit_chunks(3, 0)), "need 0 < k <= n, got k=0, n=3"),
    (lambda: SparseVector(-1, [], []), "vector length must be non-negative, got -1"),
    (lambda: certify(normalize_columns(build_gaussian(4, 6, 1)), k_max=-2),
     "k_max must be non-negative, got -2"),
    (lambda: rip_profile(normalize_columns(build_gaussian(4, 6, 1)), -2),
     "order must be non-negative, got -2"),
], ids=["1-d", "kind", "no-positions", "no-instants", "no-rows", "one-column", "order-0",
        "extra-value", "no-trials", "k-above-n", "orbit-k-0", "negative-length",
        "negative-k-max", "negative-order"])
def test_bad_input_is_a_one_line_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_numpy_integers_are_indices():
    assert SparseVector(8, np.array([1, 6], dtype=np.int32), np.ones(2)).support == (1, 6)
    p = MissingSamplePattern.of(np.int64(8), np.array([5, 1]))
    assert (p.n, p.missing) == (8, (1, 5)) and type(p.n) is int
    a = build_partial_idft(8, np.array([1, 3]))
    assert a.entries.tobytes() == build_partial_idft(8, [1, 3]).entries.tobytes()
    g = build_gaussian(np.int64(4), np.int32(6), 1)
    assert g.entries.tobytes() == build_gaussian(4, 6, 1).entries.tobytes()
    assert dft_uniqueness_oracle(p, np.int64(2)) == dft_uniqueness_oracle(p, 2)
    assert stride_count(p, np.int32(2)) == stride_count(p, 2)
    g = normalize_columns(g)
    assert rip_constant(g, np.int64(2)) == rip_constant(g, 2)
    assert rip_profile(g, np.int64(3)) == rip_profile(g, 3)
    assert certify(g, k_max=np.int64(3)).to_json() == certify(g, k_max=3).to_json()
