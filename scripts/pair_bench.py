#!/usr/bin/env python3
"""Time two checkouts against each other with perfbench, in alternating pairs.

    python3 scripts/pair_bench.py PARENT_DIR CHANGE_DIR --workload certify-early-exit --pairs 10
    python3 scripts/pair_bench.py PARENT_DIR CHANGE_DIR --workload all
    python3 scripts/pair_bench.py PARENT_DIR CHANGE_DIR --workload all --claim dft-oracle:op_tail_s

``--workload`` may be repeated; ``all`` names every workload of the
parent's ``BENCHMARK.json``. Each pair runs ``perfbench/run.py`` once on each
side for every named workload in turn, the parent first in even pairs and
the change first in odd ones, so that a slow phase of the host falls on both
sides. Every run happens in a fresh temporary copy of the checkout's
``src/``, ``perfbench/`` and ``BENCHMARK.json``, so nothing is written into
either checkout. Standard output gets one table, with one row per workload
and end-to-end metric of ``BENCHMARK.json``: the parent's median and
quartiles, the change's median, their difference and the pairs the change
won. A line under it names the rows whose medians lie further apart than
the parent's quartile spread, and a last one every row whose change is
worse than its ``BENCHMARK.json`` bound. With ``--claim WORKLOAD:METRIC``,
a line before that last one says whether the claim rule holds for that row
(the change won at least nine pairs in ten, and its median beats the
parent's by more than the parent's quartile spread), and the last line
leaves that row out. Progress goes to standard error.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HEADER = ("  | workload | metric | parent median [q1, q3] | change median | diff | wins |\n"
          "  |---|---|---|---|---|---|")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in a fresh copy of ``checkout``; returns its metric values."""
    with tempfile.TemporaryDirectory(prefix="pair-bench-") as tmp:
        copy = Path(tmp)
        shutil.copytree(checkout / "src", copy / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(checkout / "perfbench", copy / "perfbench",
                        ignore=shutil.ignore_patterns(".out", "__pycache__"))
        shutil.copy2(checkout / "BENCHMARK.json", copy / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=copy, capture_output=True, text=True, check=True,
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{checkout}: {result['failed']} of {result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(workload: str, parent: list, change: list, metrics: list) -> list:
    """Table rows from paired runs: ``parent[i]`` and ``change[i]`` map metric names to values.

    ``metrics`` is BENCHMARK.json's ``end_to_end`` list. A pair is a win when
    the change's value is better than the parent's in the metric's direction.
    """
    rows = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        q1, mid, q3 = statistics.quantiles(p, n=4, method="inclusive")
        med = statistics.median(c)
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        rows.append({"workload": workload, "metric": name, "parent": mid, "q1": q1, "q3": q3,
                     "change": med, "diff": med / mid - 1.0 if mid else 0.0,
                     "wins": wins, "pairs": len(p), "beyond_spread": abs(med - mid) > q3 - q1,
                     "lower": lower, "bound": m.get("bound")})
    return rows


def claim_lines(rows: list, claim: tuple) -> list:
    """Whether the claim rule holds for the ``(workload, metric)`` row, and the other rows past their bounds."""
    row = next(r for r in rows if (r["workload"], r["metric"]) == claim)
    better = (row["change"] < row["parent"]) if row["lower"] else (row["change"] > row["parent"])
    holds = 10 * row["wins"] >= 9 * row["pairs"] and better and row["beyond_spread"]
    gap, spread = abs(row["change"] - row["parent"]), row["q3"] - row["q1"]
    return [f"claim {' '.join(claim)}: {'holds' if holds else 'fails'} ({row['wins']}/{row['pairs']} "
            f"pairs won, {'better' if better else 'worse'} by {gap:.4g} against a parent "
            f"quartile spread of {spread:.4g})", bound_line(rows, claim)]


def bound_line(rows: list, claim=None) -> str:
    """The rows, but for the claimed one if any, whose change is worse than their bound."""
    worse = [f"{r['workload']} {r['metric']} {100 * r['diff']:+.1f}% (bound {100 * r['bound']:.0f}%)"
             for r in rows if (r["workload"], r["metric"]) != claim and r["bound"] is not None
             and (r["diff"] if r["lower"] else -r["diff"]) > r["bound"]]
    return f"{'other rows' if claim else 'rows'} worse than their bound: " + (", ".join(worse) or "none")


def format_table(rows: list) -> str:
    """The rows in the pair-table format of CHANGES.md, then the metrics past the spread."""
    lines = [HEADER]
    for r in rows:
        lines.append(f"  | {r['workload']} | {r['metric']} | {r['parent']:.4g} "
                     f"[{r['q1']:.4g}, {r['q3']:.4g}] | {r['change']:.4g} | "
                     f"{100 * r['diff']:+.1f}% | {r['wins']}/{r['pairs']} |")
    beyond = [f"{r['workload']} {r['metric']}" for r in rows if r["beyond_spread"]]
    lines.append("median gap beyond the parent's quartile spread: "
                 + (", ".join(beyond) or "none"))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a BENCHMARK.json workload, or all; may be repeated")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7919)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC",
                        help="check the claim rule on this row and the bounds on the others")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, since the table needs quartiles")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    workloads = known if "all" in args.workload else list(dict.fromkeys(args.workload))
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; "
                     f"BENCHMARK.json has {', '.join(known)}")
    claim = tuple(args.claim.split(":", 1)) if args.claim else None
    if claim and (len(claim) != 2 or claim[0] not in workloads
                  or claim[1] not in [m["name"] for m in spec["end_to_end"]]):
        parser.error(f"--claim {args.claim} names no row of the table")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        for w in workloads:
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                runs[w][side].append(run_once(getattr(args, side), w, args.seed, seconds))
            print(f"pair {i + 1}/{args.pairs} {w}: " + ", ".join(
                f"{k} {runs[w]['parent'][-1][k]:.4g} / {runs[w]['change'][-1][k]:.4g}"
                for k in ("wall_s", "op_tail_s") if k in runs[w]["parent"][-1]), file=sys.stderr)
    rows = [row for w in workloads
            for row in summarize(w, runs[w]["parent"], runs[w]["change"], spec["end_to_end"])]
    print(format_table(rows))
    print("\n".join(claim_lines(rows, claim)) if claim else bound_line(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
