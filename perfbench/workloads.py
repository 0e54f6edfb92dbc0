"""The four benchmark workloads: seeded input pools, the timed op, its reference.

Every workload draws its inputs from a fixed pool of items, each generated
from ``numpy.random.default_rng([tag, class, index])`` alone, so an item's
input never depends on the run's ``--seed``. The seed only chooses which pool
items a run visits and in which order. That keeps every op checkable against
``refs/<workload>.tsv``, which ``make_refs.py`` captured from the seed
code once.

Items are stratified by a cost class (planted spark, missing count): each
pass of a run holds the same number of items of every class, so pass wall
times and op percentiles do not swing with how many expensive items a seed
happened to draw.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WARMUP = "warmup"


def write_csv(path: Path, a: np.ndarray) -> None:
    # The benchmark writes its own fixtures so input bytes never depend on
    # the program's CSV writer.
    path.write_text("".join(",".join(repr(float(x)) for x in row) + "\n" for row in a))


def run_cli(argv: list[str]) -> str:
    """One in-process ``cscert`` invocation; returns exit status and stdout."""
    cli = sys.modules["cscert.cli"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = cli.main(argv)
    return f"{rc}\n{out.getvalue()}"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


@dataclass(frozen=True)
class Workload:
    name: str
    tag: int  # RNG stream of this workload's pool
    classes: tuple[int, ...]
    pool_per_class: int
    per_pass: int  # items of each class in one pass
    tail_pct: int  # a run times at least 10 / (1 - tail_pct/100) ops

    kernel = "svd"  # the calibration kernel in run.py that resembles the ops

    @property
    def min_ops(self) -> int:
        return math.ceil(10 / (1 - self.tail_pct / 100))

    def pool(self) -> list[tuple[int, int]]:
        return [(c, i) for c in self.classes for i in range(self.pool_per_class)]

    def rng(self, key: str) -> np.random.Generator:
        if key == WARMUP:
            return np.random.default_rng([self.tag, 1_000_000])
        c, i = (int(x) for x in key.split("-"))
        return np.random.default_rng([self.tag, c, i])

    def warmup_class(self) -> int:
        return self.classes[len(self.classes) // 2]

    def prepare(self, key: str, fixtures: Path):
        """Write the item's fixture if it has one; return the op's input."""
        raise NotImplementedError

    def run(self, payload):
        """The timed op. Returns what the reference check compares."""
        return run_cli(payload)

    def reference(self, outcome) -> str:
        return digest(outcome)

    def refuted(self, outcome) -> bool:
        """True when the op exposes the closed-form DFT limit as optimistic."""
        return False

    def passes(self, seed: int) -> list[list[str]]:
        """Seeded pass plan: each pass takes ``per_pass`` unused items per class."""
        rng = np.random.default_rng([self.tag, seed % (1 << 64)])
        by_class = {c: [f"{c}-{i}" for cc, i in self.pool() if cc == c] for c in self.classes}
        orders = {c: list(rng.permutation(keys)) for c, keys in by_class.items()}
        n_passes = min(len(keys) for keys in orders.values()) // self.per_pass
        plan = []
        for j in range(n_passes):
            items = [
                k for c in self.classes for k in orders[c][j * self.per_pass:(j + 1) * self.per_pass]
            ]
            plan.append([str(items[i]) for i in rng.permutation(len(items))])
        return plan


class CertifyGeneric(Workload):
    """Spark and RIP up to order M on an i.i.d. Gaussian: every size is swept."""

    M, N = 7, 16

    def prepare(self, key, fixtures):
        path = fixtures / f"{self.name}-{key}.csv"
        write_csv(path, self.rng(key).standard_normal((self.M, self.N)))
        return ["certify", "--matrix", str(path), "--normalize", "--kmax", str(self.M),
                "--format", "json"]


class CertifyEarlyExit(CertifyGeneric):
    """One column is a random combination of s-1 others, so spark = s (the class)."""

    M, N = 8, 16

    def prepare(self, key, fixtures):
        s = self.warmup_class() if key == WARMUP else int(key.split("-")[0])
        rng = self.rng(key)
        a = rng.standard_normal((self.M, self.N))
        cols = rng.choice(self.N, size=s, replace=False)
        a[:, cols[0]] = a[:, cols[1:]] @ rng.standard_normal(s - 1)
        path = fixtures / f"{self.name}-{key}.csv"
        write_csv(path, a)
        return ["certify", "--matrix", str(path), "--normalize", "--format", "json"]


class DftOracle(Workload):
    """Closed-form limit, then the exact limit: oracle at K = 1, 2, ... until False."""

    N = 16

    def pool(self):
        # Patterns are distinct within a class; only 16 exist for q = 1.
        return [(q, i) for q in self.classes for i in range(len(self.patterns(q)))]

    @functools.cache
    def patterns(self, q: int) -> list[tuple[int, ...]]:
        """The class's distinct missing-position patterns, drawn in a fixed order."""
        rng = np.random.default_rng([self.tag, q])
        seen: dict[tuple[int, ...], None] = {}
        while len(seen) < min(self.pool_per_class, math.comb(self.N, q)):
            seen[tuple(sorted(int(x) for x in rng.choice(self.N, size=q, replace=False)))] = None
        return list(seen)

    def prepare(self, key, fixtures):
        if key == WARMUP:
            q = self.warmup_class()
            return tuple(sorted(int(x) for x in self.rng(key).choice(self.N, size=q, replace=False)))
        q, i = (int(x) for x in key.split("-"))
        return self.patterns(q)[i]

    def run(self, payload):
        dftu = sys.modules["cscert.dft_uniqueness"]
        p = dftu.MissingSamplePattern.of(self.N, payload)
        k_max = dftu.dft_sparsity_limit(p).k_max
        k = 1
        while dftu.dft_uniqueness_oracle(p, k):
            k += 1
        return k_max, k - 1

    def reference(self, outcome):
        return str(outcome[1])

    def refuted(self, outcome):
        return outcome[0] > outcome[1]


class RecoveryOmp(Workload):
    """One Monte-Carlo experiment over K = 1..M with T trials per K."""

    M, N, TRIALS = 10, 24, 20
    kernel = "lstsq"

    def prepare(self, key, fixtures):
        rng = self.rng(key)
        a = rng.standard_normal((self.M, self.N))
        a /= np.linalg.norm(a, axis=0)
        path = fixtures / f"{self.name}-{key}.csv"
        write_csv(path, a)
        ks = ",".join(str(k) for k in range(1, self.M + 1))
        return ["experiment", "--matrix", str(path), "--ks", ks, "--trials",
                str(self.TRIALS), "--seed", str(int(rng.integers(1 << 31))), "--format", "json"]


WORKLOADS = {
    w.name: w
    for w in (
        CertifyGeneric("certify-generic", 1, (0,), 240, 8, 75),
        CertifyEarlyExit("certify-early-exit", 2, tuple(range(2, 9)), 40, 2, 90),
        DftOracle("dft-oracle", 3, tuple(range(1, 14)), 30, 1, 90),
        RecoveryOmp("recovery-omp", 4, (0,), 400, 10, 90),
    )
}


def load_refs(w: Workload) -> dict[str, tuple[str, int]]:
    """Item -> (reference, logical work units) from ``refs/<workload>.tsv``."""
    refs = {}
    path = Path(__file__).resolve().parent / "refs" / f"{w.name}.tsv"
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        key, ref, work = line.split("\t")[:3]
        refs[key] = (ref, int(work))
    return refs
