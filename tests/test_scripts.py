import importlib.util
import json
import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT


@pytest.mark.parametrize("argv", [
    ["certify_demo.py"],
    ["recovery_phase_sweep.py", "--rows", "4", "--cols", "8", "--trials", "5"],
])
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def load_pair_bench():
    spec = importlib.util.spec_from_file_location(
        "pair_bench", REPO_ROOT / "scripts" / "pair_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pair_bench_formats_the_pair_table():
    pair_bench = load_pair_bench()
    metrics = [{"name": "wall_s", "better": "lower"}, {"name": "work_per_s", "better": "higher"}]
    parent = [{"wall_s": w, "work_per_s": r}
              for w, r in zip([0.20, 0.21, 0.22, 0.19], [1.0e6, 1.1e6, 1.2e6, 1.3e6])]
    change = [{"wall_s": w, "work_per_s": 1.5e6} for w in [0.18, 0.19, 0.20, 0.23]]
    table = pair_bench.format_table(pair_bench.summarize("w", parent, change, metrics))
    assert table.splitlines() == [
        "  | workload | metric | parent median [q1, q3] | change median | diff | wins |",
        "  |---|---|---|---|---|---|",
        # the change won three pairs of four; its median is within the parent's spread
        "  | w | wall_s | 0.205 [0.1975, 0.2125] | 0.195 | -4.9% | 3/4 |",
        "  | w | work_per_s | 1.15e+06 [1.075e+06, 1.225e+06] | 1.5e+06 | +30.4% | 4/4 |",
        "median gap beyond the parent's quartile spread: w work_per_s",
    ]


def test_pair_bench_runs_in_a_copy_of_the_checkout(tmp_path):
    # a stand-in run.py that writes its output directory next to itself, as perfbench does
    checkout = tmp_path / "checkout"
    (checkout / "src").mkdir(parents=True)
    (checkout / "perfbench").mkdir()
    (checkout / "BENCHMARK.json").write_text("{}")
    (checkout / "perfbench" / "run.py").write_text(
        "import json, pathlib, sys\n"
        "out = pathlib.Path(__file__).parent / '.out'\n"
        "out.mkdir()\n"
        "(out / 'args').write_text(' '.join(sys.argv[1:]))\n"
        "print(json.dumps({'correct': True, 'attempted': 3, 'failed': 0,\n"
        "                  'metrics': {'wall_s': {'value': 0.5, 'unit': 's'}}}))\n")
    before = sorted(p.relative_to(checkout) for p in checkout.rglob("*"))
    assert load_pair_bench().run_once(checkout, "certify-generic", 7919, 0.5) == {"wall_s": 0.5}
    assert sorted(p.relative_to(checkout) for p in checkout.rglob("*")) == before


def test_pair_bench_runs_every_named_workload_in_each_pair(tmp_path, monkeypatch, capsys):
    pair_bench = load_pair_bench()
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (parent / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 3,
        "workloads": [{"name": "a"}, {"name": "b"}, {"name": "c"}],
        "end_to_end": [{"name": "wall_s", "better": "lower"}],
    }))
    calls = []

    def fake_run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        base = {"a": 0.2, "b": 0.3, "c": 0.4}[workload]
        return {"wall_s": base / 2 if checkout == change else base}

    monkeypatch.setattr(pair_bench, "run_once", fake_run_once)
    argv = [str(parent), str(change), "--pairs", "3", "--seed", "5"]
    assert pair_bench.main(argv + ["--workload", "c", "--workload", "a"]) == 0
    # each pair runs every workload on both sides, the parent first in even pairs
    sides = [("parent", "change"), ("change", "parent"), ("parent", "change")]
    assert calls == [(side, w, 5, 3) for first in sides for w in "ca" for side in first]
    assert capsys.readouterr().out.splitlines()[2:] == [
        "  | c | wall_s | 0.4 [0.4, 0.4] | 0.2 | -50.0% | 3/3 |",
        "  | a | wall_s | 0.2 [0.2, 0.2] | 0.1 | -50.0% | 3/3 |",
        "median gap beyond the parent's quartile spread: c wall_s, a wall_s",
        # with no claim, the bound check still closes the output
        "rows worse than their bound: none",
    ]
    calls.clear()
    assert pair_bench.main(argv[:2] + ["--pairs", "2", "--workload", "all"]) == 0
    assert [w for _, w, *_ in calls] == ["a", "a", "b", "b", "c", "c"] * 2
    calls.clear()
    # bad arguments are usage errors before any run
    with pytest.raises(SystemExit):
        pair_bench.main(argv + ["--workload", "a", "--workload", "nope"])
    assert calls == [] and "unknown workload nope" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        pair_bench.main(argv[:2] + ["--pairs", "1", "--workload", "a"])
    assert calls == [] and "--pairs must be at least 2" in capsys.readouterr().err


def test_pair_bench_checks_a_claim_and_the_other_rows_bounds():
    pair_bench = load_pair_bench()
    metrics = [{"name": "op_tail_s", "better": "lower", "bound": 0.25},
               {"name": "work_per_s", "better": "higher", "bound": 0.25}]
    parent = [{"op_tail_s": t, "work_per_s": 100.0} for t in [1.00, 1.02, 0.98, 1.01, 0.99,
                                                                1.00, 1.03, 0.97, 1.00, 1.01]]

    def rows(tails, rate):
        change = [{"op_tail_s": t, "work_per_s": rate} for t in tails]
        return pair_bench.summarize("w", parent, change, metrics)

    # nine pairs of ten won, the median 20% lower against a spread under 2%: the claim holds
    won = [0.8] * 9 + [1.2]
    assert pair_bench.claim_lines(rows(won, 90.0), ("w", "op_tail_s")) == [
        "claim w op_tail_s: holds (9/10 pairs won, better by 0.2 against a parent "
        "quartile spread of 0.0175)",
        "other rows worse than their bound: none",
    ]
    # eight pairs won fail the rule, whatever the gap; a rate 30% down is past its bound
    lines = pair_bench.claim_lines(rows([0.8] * 8 + [1.2] * 2, 70.0), ("w", "op_tail_s"))
    assert lines[0].startswith("claim w op_tail_s: fails (8/10 pairs won, better by 0.2")
    assert lines[1] == "other rows worse than their bound: w work_per_s -30.0% (bound 25%)"
    # every pair won by less than the parent's quartile spread fails too
    close = [run["op_tail_s"] - 0.005 for run in parent]
    assert "fails (10/10" in pair_bench.claim_lines(rows(close, 100.0), ("w", "op_tail_s"))[0]
    # a claim on a metric that got worse fails, and the claimed row is not listed again
    lines = pair_bench.claim_lines(rows([0.8] * 10, 50.0), ("w", "work_per_s"))
    assert lines == ["claim w work_per_s: fails (0/10 pairs won, worse by 50 against a "
                     "parent quartile spread of 0)", "other rows worse than their bound: none"]
    # with no claim, every row past its bound is named, and none is left out
    assert pair_bench.bound_line(rows(won, 90.0)) == "rows worse than their bound: none"
    assert pair_bench.bound_line(rows([1.3] * 10, 50.0)) == (
        "rows worse than their bound: w op_tail_s +30.0% (bound 25%), w work_per_s -50.0% (bound 25%)")
    assert pair_bench.claim_lines(rows([1.3] * 10, 50.0), ("w", "work_per_s"))[1] == (
        "other rows worse than their bound: w op_tail_s +30.0% (bound 25%)")


def test_pair_bench_refuses_a_claim_on_no_row(tmp_path, capsys):
    pair_bench = load_pair_bench()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 3, "workloads": [{"name": "a"}, {"name": "b"}],
        "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}],
    }))
    for claim in ["b:wall_s", "a:op_tail_s", "a"]:
        with pytest.raises(SystemExit):
            pair_bench.main([str(tmp_path), str(tmp_path), "--workload", "a", "--claim", claim])
        assert f"--claim {claim} names no row of the table" in capsys.readouterr().err
