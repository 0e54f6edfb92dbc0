import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cscert._linalg import iter_combination_chunks, rank_test, sweep


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
