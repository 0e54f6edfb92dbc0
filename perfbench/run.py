"""cscert benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload certify-generic --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``. With
``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a
readable summary, the machine facts included, goes to standard error and to
``perfbench/.out/``. See perfbench/README.md for the workloads.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

# BLAS threads are capped here, before numpy loads, never inside the program:
# the ops are small batched factorizations that one core serves best, and one
# thread keeps BLAS reductions in a fixed order so reports repeat bit for bit.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
FIXTURES = OUT / "fixtures"
sys.path.insert(0, str(HERE))

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WARMUP, WORKLOADS, load_refs  # noqa: E402

SETUP_REPS = 5

# Fixed inputs and reference times of the calibration kernels. Changing any
# of them makes every end-to-end time of earlier runs incomparable with new ones.
_CAL_A = np.random.default_rng(0).standard_normal((10, 24)) + 0j
_CAL_Y = _CAL_A[:, :3].sum(axis=1)
_CAL_STACK = np.random.default_rng(0).standard_normal((384, 12, 6)) + 0j


def _lstsq_kernel():
    for i in range(150):
        cols = _CAL_A[:, :1 + i % 8]
        int(np.argmax(np.abs(_CAL_A.conj().T @ _CAL_Y)))
        sol, *_ = np.linalg.lstsq(cols, _CAL_Y, rcond=None)
        float(np.linalg.norm(_CAL_Y - cols @ sol))


def _svd_kernel():
    np.linalg.svd(_CAL_STACK, compute_uv=False)


# kernel -> (function, its time at the reference speed in seconds)
KERNELS = {"lstsq": (_lstsq_kernel, 0.0065), "svd": (_svd_kernel, 0.005)}


def import_program():
    """Import cscert afresh from this checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "cscert" or n.startswith("cscert.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("cscert")
    importlib.import_module("cscert.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "cscert":
        raise ImportError(f"cscert was imported from {pkg.__file__}, not from {SRC}")


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cscert").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:20]


def machine_facts() -> dict:
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        facts["blas"] = "unknown"
    # glibc's _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE, read from cpuid
    for label, code in (("l2_cache_bytes", 191), ("l3_cache_bytes", 194)):
        try:
            facts[label] = os.sysconf(code)
        except (OSError, ValueError):
            facts[label] = None
    return facts


class Run:
    """Bookkeeping for the timed ops of one run."""

    def __init__(self, w, refs):
        self.w, self.refs = w, refs
        self.op_s: list[float] = []
        self.failed = 0
        self.refuted = 0
        self.work = 0

    def op(self, key) -> None:
        """Prepare the item's input, then run, time and check one op on it."""
        payload = self.w.prepare(key, FIXTURES)
        t0 = perf_counter()
        try:
            out = self.w.run(payload)
        except Exception:
            self.op_s.append(perf_counter() - t0)
            if not self.failed:
                traceback.print_exc()
            self.failed += 1
            return
        self.op_s.append(perf_counter() - t0)
        ref, work = self.refs[key]
        if self.w.reference(out) != ref:
            if not self.failed:
                print(f"reference mismatch on {self.w.name} item {key}", file=sys.stderr)
            self.failed += 1
        self.refuted += self.w.refuted(out)
        self.work += work


def slowdown(kernel: str, reps: int = 1) -> float:
    """How much slower than the reference speed a fixed numpy kernel runs now.

    The host's speed drifts by up to 40% over seconds to a minute, so
    end-to-end times are divided by the slowdown measured right before and
    after them: they are seconds at the reference speed. Each workload names
    the kernel that resembles its ops: a batched SVD for the subset sweeps,
    small least squares in a Python loop for OMP. Neither touches the program.
    """
    fn, ref_s = KERNELS[kernel]
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times) / ref_s


def set_up(w, seed):
    """Import, plan, load references and run the warm-up op on its fresh fixture."""
    t0 = perf_counter()
    import_program()
    FIXTURES.mkdir(parents=True, exist_ok=True)
    plan = w.passes(seed)
    warm = Run(w, load_refs(w))
    warm.op(WARMUP)
    return perf_counter() - t0, plan, warm


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def timed(w, plan, run, seconds):
    """Returns every pass's (scaled wall time, work) and every op's scaled time.

    The kernel runs before the first op and after every op. An op's time is
    divided by the median slowdown of the six kernel runs nearest to it: that
    follows the host's phases but not one interrupted kernel run. A pass's
    wall time is the sum of its scaled op times.
    """
    slow = [slowdown(w.kernel)]
    bounds = []
    start = perf_counter()
    for items in plan:
        if perf_counter() - start >= seconds and len(run.op_s) >= w.min_ops:
            break
        gc.collect()
        first, work = len(run.op_s), run.work
        for key in items:
            run.op(key)
            slow.append(slowdown(w.kernel))
        bounds.append((first, len(run.op_s), run.work - work))
    op_s = [t / statistics.median(slow[max(0, i - 2):i + 4]) for i, t in enumerate(run.op_s)]
    return [(sum(op_s[a:b]), work) for a, b, work in bounds], op_s


def traced(w, plan, run, seconds):
    """Each pass runs twice, untraced and traced, in alternating order."""
    tracer = Tracer()

    def counted(r, key):
        mark = len(tracer.spans)
        r.op(key)
        return tracer.exact_counts(mark)

    # the same item twice under the same code must give the same exact counts
    warm = Run(w, run.refs)
    tracer.install()
    try:
        first, second = counted(warm, WARMUP), counted(warm, WARMUP)
    finally:
        tracer.remove()
    tracer.spans.clear()
    per_item = {WARMUP: first}
    exact_ok = first == second

    untraced = Run(w, run.refs)
    first_pass_end, passes, refuted_first = 0, 0, 0
    start = perf_counter()
    for j, items in enumerate(plan):
        if j and perf_counter() - start >= seconds:
            break
        for tracing_on in ((False, True) if j % 2 == 0 else (True, False)):
            gc.collect()
            if tracing_on:
                tracer.install()
            try:
                for key in items:
                    if tracing_on:
                        per_item[key] = counted(run, key)
                    else:
                        untraced.op(key)
            finally:
                tracer.remove()
        passes += 1
        if j == 0:
            first_pass_end, refuted_first = len(tracer.spans), run.refuted
    overhead = sum(run.op_s) / sum(untraced.op_s) - 1.0
    run.failed += warm.failed + untraced.failed
    run.op_s += untraced.op_s

    # and so must a second run of the same code on the same items
    store = OUT / f"counts-{w.name}.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    seen = known.setdefault(code_digest(), {})
    for key, counts in per_item.items():
        if seen.setdefault(key, counts) != counts:
            print(f"exact counts differ between runs on item {key}: "
                  f"{seen[key]} then {counts}", file=sys.stderr)
            exact_ok = False
    store.write_text(json.dumps(known))

    tracer.write(OUT / f"spans-{w.name}.tsv")
    metrics = layer_metrics(tracer.spans, first_pass_end, passes)
    metrics["dft_uniqueness.dft_sparsity_limit.refutations"] = refuted_first
    metrics["trace.overhead_frac"] = overhead
    return metrics, exact_ok, tracer.unmeasured, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    slow = [slowdown(w.kernel, 5)]
    setups = []
    try:
        for _ in range(SETUP_REPS):
            setups.append(set_up(w, args.seed))
            slow.append(slowdown(w.kernel, 5))
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    _, plan, warm = setups[-1]
    run = Run(w, warm.refs)
    run.failed = sum(s[2].failed for s in setups)
    details = {"workload": w.name, "seed": args.seed, "trace": args.trace,
               "machine": machine_facts()}

    if args.trace:
        values, exact_ok, unmeasured, passes = traced(w, plan, run, args.seconds)
        details.update(passes=passes, exact_counts_repeat=exact_ok, unmeasured=unmeasured)
    else:
        passes, op_s = timed(w, plan, run, args.seconds)
        exact_ok = True
        values = {
            "setup_s": statistics.median(
                s[0] / ((s0 + s1) / 2) for s, s0, s1 in zip(setups, slow, slow[1:])),
            "wall_s": statistics.median(wall for wall, _ in passes),
            "op_p50_s": statistics.median(op_s),
            "op_tail_s": nearest_rank(op_s, w.tail_pct),
            "work_per_s": statistics.median(work / wall for wall, work in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        details.update(passes=len(passes), ops_per_pass=len(plan[0]),
                       tail_percentile=w.tail_pct,
                       ops_beyond_tail=sum(t > values["op_tail_s"] for t in op_s),
                       unscaled={"setup_s": statistics.median(s[0] for s in setups),
                                 "op_p50_s": statistics.median(run.op_s)},
                       setup_slowdown=statistics.median(slow))

    attempted = len(run.op_s)
    details.update(attempted=attempted, failed=run.failed,
                   failed_frac=run.failed / attempted, closed_form_refutations=run.refuted)
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared}
    details["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{w.name}-trace{args.trace}.json").write_text(json.dumps(details, indent=2))
    print(json.dumps(details, indent=2), file=sys.stderr)
    print(json.dumps({"correct": run.failed == 0 and exact_ok, "attempted": attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
