"""Capture the per-item references in ``refs/`` from the program as it is now.

    python3 perfbench/make_refs.py [workload ...]

The committed references were captured from the seed code, before any
optimization. Re-capturing them from a later commit would make the benchmark
accept whatever that commit prints, so do it only to add items or workloads,
and check that every existing line stays the same.

Each line holds an item, its reference (a digest of the exit status and the
report bytes, or the exact DFT limit), the op's logical work and a note. The
logical work is what a sequential scan covers, so it does not change when an
optimization skips work: subsets for the sweeps, trials for the experiment.
"""

import json
import math
import sys

import run as bench  # sets the BLAS thread cap before numpy loads
from workloads import WARMUP, WORKLOADS, CertifyEarlyExit, DftOracle, RecoveryOmp


def certify_work(payload, outcome):
    cs = sys.modules["cscert"]
    report = json.loads(outcome.split("\n", 1)[1])
    a = cs.normalize_columns(cs.load_matrix_csv(payload[2]))
    return cs.spark(a).evaluations + report["rip"]["budget_used"], f"spark {report['spark']}"


def dft_work(w, payload, outcome):
    lin = sys.modules["cscert._linalg"]
    k_max, limit = outcome
    avail = [i for i in range(w.N) if i not in payload]
    work = sum(math.comb(w.N, 2 * k) for k in range(1, limit + 1))
    size = 2 * (limit + 1)
    if size <= len(avail):  # the first dependent subset ends the last sweep
        entries = sys.modules["cscert.matrix_core"].build_partial_idft(w.N, avail).entries
        for combs in lin.iter_combination_chunks(w.N, size, 2048):
            dep = lin.dependent_mask(entries[:, combs].transpose(1, 0, 2))
            if dep.any():
                work += int(dep.argmax()) + 1
                break
            work += len(combs)
    return work, f"missing {','.join(map(str, payload))} closed-form k_max {k_max}"


def main(names):
    bench.import_program()
    fixtures = bench.OUT / "fixtures"
    fixtures.mkdir(parents=True, exist_ok=True)
    for name in names or WORKLOADS:
        w = WORKLOADS[name]
        lines = [f"# {w.name}: item, reference, logical work, note"]
        for key in [f"{c}-{i}" for c, i in w.pool()] + [WARMUP]:
            payload = w.prepare(key, fixtures)
            outcome = w.run(payload)
            if isinstance(w, DftOracle):
                work, note = dft_work(w, payload, outcome)
            elif isinstance(w, RecoveryOmp):
                work, note = w.TRIALS * w.M, ""
            else:
                if not outcome.startswith("0\n"):
                    raise SystemExit(f"{name} {key}: exit status {outcome.split()[0]}")
                work, note = certify_work(payload, outcome)
                if isinstance(w, CertifyEarlyExit) and key != WARMUP \
                        and note != f"spark {key.split('-')[0]}":
                    raise SystemExit(f"{name} {key}: planted spark not found, {note}")
            lines.append(f"{key}\t{w.reference(outcome)}\t{work}\t{note}")
        (bench.HERE / "refs" / f"{name}.tsv").write_text("\n".join(lines) + "\n")
        print(f"{name}: {len(lines) - 1} items", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
