"""Spans around the package's public functions, installed from the benchmark.

A wrapper replaces a function object wherever a loaded ``cscert`` module binds
it as a global: in its defining module and at every ``from .x import f`` site.
Calls the program makes internally therefore go through the wrapper too.
``remove`` restores every binding. A function that no longer exists is listed
as an unmeasured layer instead of failing the run.

Spans stay in memory as ``(layer, parent span, start, end, amount)`` and are
written out once the run ends; self time is derived from them afterwards.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _first_arg_batch(args, result):
    return args[0].shape[0]


def _evaluations(args, result):
    return result.evaluations


def _cells(args, result):
    return result.entries.size


def _false_verdict(args, result):
    return int(result is False)


# layer -> (module, function, name of the amount a span counts, how to count it)
LAYERS = {
    "cli.main": ("cscert.cli", "main", None, None),
    "certify.certify": ("cscert.certify", "certify", None, None),
    "certify.spark": ("cscert.certify", "spark", "evaluations", _evaluations),
    "certify.rip_constant": ("cscert.certify", "rip_constant", "evaluations", _evaluations),
    "certify.coherence": ("cscert.certify", "coherence", None, None),
    "linalg.iter_combination_chunks": ("cscert._linalg", "iter_combination_chunks", "subsets", len),
    "linalg.dependent_mask": ("cscert._linalg", "dependent_mask", "matrices", _first_arg_batch),
    "dft_uniqueness.dft_sparsity_limit": ("cscert.dft_uniqueness", "dft_sparsity_limit", None, None),
    "dft_uniqueness.dft_uniqueness_oracle": (
        "cscert.dft_uniqueness", "dft_uniqueness_oracle", "false_verdicts", _false_verdict),
    "matrix_core.load_matrix_csv": ("cscert.matrix_core", "load_matrix_csv", "cells", _cells),
    "matrix_core.normalize_columns": ("cscert.matrix_core", "normalize_columns", None, None),
    "matrix_core.gram": ("cscert.matrix_core", "gram", None, None),
    "matrix_core.build_partial_idft": ("cscert.matrix_core", "build_partial_idft", None, None),
    "recon.monte_carlo": ("cscert.recon", "monte_carlo", None, None),
    "recon.omp": ("cscert.recon", "omp", None, None),
    "recon.generate_sparse_signal": ("cscert.recon", "generate_sparse_signal", None, None),
    "recon.measure": ("cscert.recon", "measure", None, None),
}

# Amounts that depend only on the inputs and the code, never on timing. Two
# runs of the same code on the same item must agree on every one of them.
EXACT = (
    "linalg.dependent_mask.matrices",
    "certify.spark.evaluations",
    "certify.rip_constant.evaluations",
    "dft_uniqueness.dft_uniqueness_oracle.calls",
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []
        self.unmeasured: list[str] = []

    def _wrap(self, layer, fn, count):
        spans, stack = self.spans, self._stack

        def amount(*args):
            if count is None:
                return 0
            try:
                return int(count(*args))
            except (AttributeError, TypeError, IndexError):
                return 0

        if inspect.isgeneratorfunction(fn):
            # time each step of the generator, charged to whoever asked for it
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid = len(spans)
                    spans.append(None)
                    parent = stack[-1] if stack else -1
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        spans[sid] = (layer, parent, t0, perf_counter(), 0)
                        return
                    spans[sid] = (layer, parent, t0, perf_counter(), amount(item))
                    yield item
        else:
            def wrapper(*args, **kwargs):
                sid = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(sid)
                result = None
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    spans[sid] = (layer, parent, t0, t1, amount(args, result))

        return wrapper

    def install(self) -> None:
        mods = [m for n, m in sys.modules.items() if n == "cscert" or n.startswith("cscert.")]
        self.unmeasured = []
        for layer, (modname, fname, _, count) in LAYERS.items():
            fn = getattr(sys.modules.get(modname), fname, None)
            if not callable(fn):
                self.unmeasured.append(layer)
                continue
            wrapper = self._wrap(layer, fn, count)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, attr, wrapper)
                        self._saved.append((m, attr, fn))

    def remove(self) -> None:
        for m, attr, fn in reversed(self._saved):
            setattr(m, attr, fn)
        self._saved.clear()

    def exact_counts(self, start: int) -> dict[str, int]:
        """The EXACT amounts over the spans recorded since ``start``."""
        totals = _totals(self.spans[start:])
        return {name: totals[name] for name in EXACT}

    def write(self, path: Path) -> None:
        with path.open("w") as f:
            f.write("span\tlayer\tparent\tstart_s\tend_s\tamount\n")
            for sid, (layer, parent, t0, t1, n) in enumerate(self.spans):
                f.write(f"{sid}\t{layer}\t{parent}\t{t0!r}\t{t1!r}\t{n}\n")


def _totals(spans) -> dict[str, int]:
    totals: dict[str, int] = defaultdict(int)
    for layer, _, _, _, n in spans:
        totals[f"{layer}.calls"] += 1
        amount_name = LAYERS[layer][2]
        if amount_name:
            totals[f"{layer}.{amount_name}"] += n
    return totals


def layer_metrics(spans, first_pass_end: int, passes: int) -> dict[str, float]:
    """Per-layer metrics: times are per pass, amounts cover the first pass only.

    The first pass is the same item list in every run with the same seed, so
    its amounts repeat exactly; later passes depend on how many fit the time.
    """
    busy: dict[str, float] = defaultdict(float)
    child = defaultdict(float)
    for layer, parent, t0, t1, _ in spans:
        busy[layer] += t1 - t0
        if parent >= 0:
            child[parent] += t1 - t0
    self_s: dict[str, float] = defaultdict(float)
    for sid, (layer, _, t0, t1, _) in enumerate(spans):
        self_s[layer] += t1 - t0 - child[sid]

    out: dict[str, float] = dict(_totals(spans[:first_pass_end]))
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = busy[layer] / passes
        out[f"{layer}.self_s"] = self_s[layer] / passes

    all_matrices = _totals(spans)["linalg.dependent_mask.matrices"]
    out["linalg.dependent_mask.matrices_per_s"] = (
        all_matrices / busy["linalg.dependent_mask"] if busy["linalg.dependent_mask"] else 0.0
    )
    spark_tested = sum(
        n for layer, parent, _, _, n in spans[:first_pass_end]
        if layer == "linalg.dependent_mask" and parent >= 0 and spans[parent][0] == "certify.spark"
    )
    out["certify.spark.useful_ratio"] = (
        out.get("certify.spark.evaluations", 0) / spark_tested if spark_tested else 0.0
    )
    return out
