import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cscert._linalg import iter_combination_chunks, sweep


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
    # budgets on a chunk edge and on C(n, k) itself are the off-by-one cases
    edges = [chunk * j for j in range(total // chunk + 2)] + [total]
    budget = data.draw(
        st.one_of(st.integers(0, total + 1), st.sampled_from(edges), st.just(math.inf)),
        label="budget",
    )
    stops = data.draw(st.booleans(), label="stops")
    planted = data.draw(st.sets(st.integers(0, total - 1), max_size=3), label="planted")
    hits = {combos[i] for i in planted} if stops else set()
    seen = []

    def evaluate(combs):
        rows = [tuple(c) for c in combs.tolist()]
        seen.extend(rows)
        return np.array([c in hits for c in rows]) if stops else None

    got = sweep(iter_combination_chunks(n, k, chunk), evaluate, budget)
    assert tuple(got) == sequential_scan(combos, hits, budget)
    assert seen == combos[: len(seen)] and len(seen) <= budget
