import importlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cscert import (
    CertificationReport,
    MeasurementMatrix,
    MissingSamplePattern,
    NormalizationError,
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
from cscert._linalg import RANK_RTOL, any_dependent, iter_combination_chunks

# Frozen from the demo 5x8 matrix; independently recomputed below by
# SVD-based oracles where the main path uses eigendecompositions.
DEMO_DELTAS = {1: 0.0, 2: 0.49, 3: 0.940551514367, 4: 1.206284454255, 5: 1.336787095725}
DEMO_COHERENCE_TIES = ((1, 5), (2, 7), (3, 6), (4, 5), (4, 6), (5, 7))
EPS = np.finfo(float).eps


def unit_gaussian(seed, rows=4, cols=6):
    return normalize_columns(build_gaussian(rows, cols, seed))


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
        assert any_dependent(a.entries, 2, 2 * RANK_RTOL)
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


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 5), n=st.integers(1, 8), data=st.data())
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


def reference_rip(a, k, budget):
    """Plain scan: eigvalsh of one Gram submatrix at a time, stopping at the budget."""
    g = gram(a)
    lo, hi, used = math.inf, -math.inf, 0
    for comb in itertools.combinations(range(a.cols), k):
        if used == budget:
            break
        w = np.linalg.eigvalsh(g[np.ix_(comb, comb)])
        lo, hi, used = min(lo, float(w[0])), max(hi, float(w[-1])), used + 1
    return max(1.0 - lo, hi - 1.0), used == math.comb(a.cols, k), used


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
    and their sum: lambda = 0, 1.2, 1.8) or a number c, the inner product of
    every pair (lambda = 1 - c, 1 - c, 1 + 2c).
    """
    q = np.linalg.qr(np.random.default_rng(3).standard_normal((9, 9)))[0]
    z = q.copy()
    for cols, kind in ((slice(0, 3), first), (slice(6, 9), last)):
        basis = q[:, cols]
        if kind == "dependent":
            pair = basis[:, :2] @ np.linalg.cholesky([[1, -0.2], [-0.2, 1]]).T
            z[:, cols] = np.column_stack([pair, pair.sum(axis=1)])
        else:
            g = np.full((3, 3), kind) + (1 - kind) * np.eye(3)
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


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(
        ["gaussian", "complex", "idft", "orthonormal", "repeated", "near-repeated"]),
    m=st.integers(1, 6),
    data=st.data(),
)
def test_rip_constant_matches_plain_eigvalsh_scan(kind, m, data):
    # the exclusion certificate may skip eigvalsh, never change a reported bit
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n = m if kind == "orthonormal" else data.draw(st.integers(m, 10), label="n")
    if kind in ("idft", "near-repeated"):
        n = max(n, 2)
    if kind == "idft":
        positions = sorted(rng.choice(n, size=min(m, n), replace=False))
        a = build_partial_idft(n, positions, normalize=True)
    else:
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
        a = normalize_columns(MeasurementMatrix(z))
    for k in range(1, min(a.shape) + 1):
        total = math.comb(a.cols, k)
        budget = data.draw(
            st.one_of(st.sampled_from(chunk_edges(a.cols, k)), st.integers(1, total + 1)),
            label=f"budget {k}",
        )
        # delta, exact, evaluations
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


def test_rip_margin_covers_eigvalsh_rounding_past_a_tight_gershgorin_sum(monkeypatch):
    # a triple at pairwise inner product c has Gershgorin sums equal to its
    # lambda_max, 1 + 2c. With eigvalsh off by K^3 eps max(diag G) = 27 eps,
    # inside the error the margin m covers, triple 0-2 at c = 0.6 sets d, and
    # triple 6-8 at c + 6 eps raises it although its sums are below 1 + d
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


def gaussian_7x16(seed):
    return normalize_columns(build_gaussian(7, 16, seed))


def idft_16_on_8_rows(seed):
    rows = np.sort(np.random.default_rng(seed).choice(16, 8, replace=False))
    return build_partial_idft(16, rows, normalize=True)


@pytest.mark.parametrize("build, share", [(gaussian_7x16, 0.05), (idft_16_on_8_rows, 0.25)])
def test_rip_exclusion_keeps_most_subsets_from_eigvalsh(build, share, monkeypatch):
    # every digit test would pass on a certificate that excludes nothing, so
    # count the subsets eigvalsh receives: at most 2.1% of the Gaussians'
    # 26,332 and 15.5% of the partial IDFTs' 39,202 when this was written
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
