"""CLI reports on seeded inputs, frozen as bytes.

``data/frozen_certify.json`` holds ``certify --format json`` texts captured
before the Cholesky certificates entered the spark screen and the RIP sweep;
its four planted-spark 8x16 cases were captured before spark's upward scan
began to skip the subsets its size-min(M, N) sweep had settled.
``data/frozen_recovery.json`` holds ``experiment --format json`` and
``recon --format json`` texts captured before the per-trial OMP loop became
one batched selection per sparsity; its experiment cases at seed 2**64 + 3
and at one trial were captured before the trials of a batch were drawn
through one generator from states derived in one pass. ``data/frozen_dft.json`` holds
``dft-limit --format json`` texts on fixed N=16 and N=32 missing-sample
patterns, and ``dft_uniqueness_oracle`` verdicts at K = 1 .. limit + 1,
captured before both DFT paths drew their subsets from unranked
combinations; it was regenerated once, when the derivation rows dropped
their full residue histograms (``residue_counts``), and every other byte
stayed the same. Any later speed-up that changes one reported digit fails
here. Regenerate them only for an intended change of results:
``PYTHONPATH=src python tests/test_frozen_reports.py`` rewrites all three
files from the current code.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from cscert import (
    MeasurementMatrix,
    build_gaussian,
    build_partial_idft,
    generate_sparse_signal,
    normalize_columns,
    save_matrix_csv,
)
from cscert import recon
from cscert.cli import main
from cscert.dft_uniqueness import MissingSamplePattern, dft_uniqueness_oracle
from cscert.matrix_core import load_matrix_csv

DATA = Path(__file__).resolve().parent / "data"
FROZEN = DATA / "frozen_certify.json"
FROZEN_RECOVERY = DATA / "frozen_recovery.json"
FROZEN_DFT = DATA / "frozen_dft.json"
DEMO_CSV = Path(__file__).resolve().parents[1] / "data" / "demo_matrix_5x8.csv"


def _planted(rows, seed, target, sources):
    # column target becomes a fixed combination of the sources: spark len(sources) + 1
    a = build_gaussian(rows, 16, seed=seed).entries.real.copy()
    a[:, target] = a[:, sources] @ np.array([0.5, -1.25, 2.0, 0.75, -1.5, 1.25, -0.5])[
        : len(sources)]
    return a


def _complex():
    rng = np.random.default_rng(12)
    return rng.standard_normal((6, 12)) + 1j * rng.standard_normal((6, 12))


# name -> (entries builder, extra certify flags); None builds nothing: the demo CSV
CASES = {
    "gaussian-7x16-seed1": (lambda: build_gaussian(7, 16, seed=1).entries, ["--normalize"]),
    "gaussian-7x16-seed2": (lambda: build_gaussian(7, 16, seed=2).entries, ["--normalize"]),
    "gaussian-7x16-seed3": (lambda: build_gaussian(7, 16, seed=3).entries, ["--normalize"]),
    "gaussian-7x16-seed4-kmax7": (
        lambda: build_gaussian(7, 16, seed=4).entries, ["--normalize", "--kmax", "7"]),
    "gaussian-7x16-planted-spark4": (lambda: _planted(7, 5, 9, [2, 4, 11]), ["--normalize"]),
    "gaussian-8x16-planted-spark5": (
        lambda: _planted(8, 21, 6, [1, 9, 12, 14]), ["--normalize"]),
    "gaussian-8x16-planted-spark6": (
        lambda: _planted(8, 22, 13, [0, 3, 5, 10, 15]), ["--normalize"]),
    "gaussian-8x16-planted-spark7": (
        lambda: _planted(8, 23, 2, [4, 6, 7, 9, 11, 14]), ["--normalize"]),
    "gaussian-8x16-planted-spark8": (
        lambda: _planted(8, 24, 10, [1, 2, 5, 8, 12, 13, 15]), ["--normalize"]),
    "complex-gaussian-6x12": (_complex, ["--normalize"]),
    "demo-5x8": (None, []),
    "idft-16-normalized": (
        lambda: build_partial_idft(16, [0, 1, 3, 4, 7, 9, 10, 12, 15], True).entries, []),
    "idft-16-normalize-flag": (
        lambda: build_partial_idft(16, [2, 3, 5, 8, 11, 13, 14]).entries, ["--normalize"]),
    "idft-16-even-rows": (
        lambda: build_partial_idft(16, range(0, 16, 2), True).entries, ["--kmax", "4"]),
    "gaussian-4x7-times-1e200": (
        lambda: 1e200 * build_gaussian(4, 7, seed=5).entries, ["--normalize"]),
    "gaussian-5x9-times-2e664": (
        lambda: 2.0**664 * build_gaussian(5, 9, seed=6).entries, ["--normalize"]),
    "gaussian-5x9-times-2e-664": (
        lambda: 2.0**-664 * build_gaussian(5, 9, seed=6).entries, ["--normalize"]),
}

# scaling by a power of two is exact, so 2**-664 (about 1e-200) must certify
# exactly like 2**664 (about 1e200) once both norms are computed peak-scaled
SAME_AS = {"gaussian-5x9-times-2e-664": "gaussian-5x9-times-2e664"}


def _idft_rows():
    return np.sort(np.random.default_rng(32).choice(32, size=12, replace=False))


def _with_duplicate():
    # demo columns plus a copy of column 3: once columns 3 and 5 are picked the
    # residual is rounding noise, and --tol 0 keeps selecting from it
    a = load_matrix_csv(DEMO_CSV).entries
    return np.hstack([a, a[:, [3]]])


def _duplicate_measurement(a):
    return a[:, 3] - (0.5 - 0.25j) * a[:, 5]


def _planted_measurement(k, seed):
    return lambda a: a @ generate_sparse_signal(a.shape[1], k, seed=seed).to_dense()


# name -> entries builder; None builds nothing: the demo CSV
RECOVERY_MATRICES = {
    "demo-5x8": None,
    "gaussian-10x24-normalized": lambda: normalize_columns(build_gaussian(10, 24, seed=1)).entries,
    "complex-gaussian-6x12-normalized": (
        lambda: normalize_columns(MeasurementMatrix(_complex())).entries),
    "idft-32-normalized": lambda: build_partial_idft(32, _idft_rows(), True).entries,
}

# case name -> (matrix name, sparsities swept by experiment, trials, seed); the seed
# 2**64 + 3 takes three 32-bit words, and 2**32 two
EXPERIMENT_CASES = {
    "demo-5x8": ("demo-5x8", range(1, 6), 200, 7),
    "gaussian-10x24-normalized": ("gaussian-10x24-normalized", range(1, 11), 60, 3),
    "gaussian-10x24-normalized-seed-2e64+3": (
        "gaussian-10x24-normalized", range(1, 11), 60, 2**64 + 3),
    "gaussian-10x24-normalized-one-trial": ("gaussian-10x24-normalized", range(1, 11), 1, 2**32),
    "complex-gaussian-6x12-normalized": ("complex-gaussian-6x12-normalized", range(1, 7), 100, 5),
    "idft-32-normalized": ("idft-32-normalized", range(1, 13), 40, 11),
}

# name -> (entries builder, measurement builder, recon flags)
RECON_CASES = {
    "demo-5x8": (None, _planted_measurement(2, [5, 2]), ["--k", "3"]),
    "gaussian-10x24-normalized": (
        RECOVERY_MATRICES["gaussian-10x24-normalized"], _planted_measurement(4, [5, 4]),
        ["--k", "5"]),
    "complex-gaussian-6x12-normalized": (
        RECOVERY_MATRICES["complex-gaussian-6x12-normalized"], _planted_measurement(3, [5, 3]),
        ["--k", "4"]),
    "idft-32-normalized": (
        RECOVERY_MATRICES["idft-32-normalized"], _planted_measurement(4, [5, 5]), ["--k", "6"]),
    "demo-5x8-duplicate-column-tol0": (
        _with_duplicate, _duplicate_measurement, ["--k", "4", "--tol", "0"]),
}


def _matrix_csv(build, tmp):
    if build is None:
        return DEMO_CSV
    path = tmp / "m.csv"
    save_matrix_csv(MeasurementMatrix(build()), path)
    return path


def _run(argv, tmp):
    out = tmp / "report.json"
    assert main([*argv, "--format", "json", "--out", str(out)]) == 0
    return out.read_text()


def certify_json(build, flags, tmp):
    return _run(["certify", "--matrix", str(_matrix_csv(build, tmp)), *flags], tmp)


def experiment_json(name, tmp):
    matrix, ks, trials, seed = EXPERIMENT_CASES[name]
    return _run(["experiment", "--matrix", str(_matrix_csv(RECOVERY_MATRICES[matrix], tmp)),
                 "--ks", ",".join(map(str, ks)), "--trials", str(trials),
                 "--seed", str(seed)], tmp)


def recon_json(build, measurement, flags, tmp):
    path = _matrix_csv(build, tmp)
    y = measurement(load_matrix_csv(path).entries)
    y_path = tmp / "y.csv"
    save_matrix_csv(MeasurementMatrix(y[:, None]), y_path)
    return _run(["recon", "--matrix", str(path), "--measurements", str(y_path), *flags], tmp)


def recovery_reports(tmp):
    reports = {f"experiment {name}": experiment_json(name, tmp) for name in EXPERIMENT_CASES}
    reports.update({f"recon {name}": recon_json(*case, tmp)
                    for name, case in RECON_CASES.items()})
    return reports


# N=16: one pattern per q, many of which need the zero-set sweep, some on
# which the closed form is refuted ({3, 5, 11, 13} among them), plus the
# empty and the full pattern
DFT_PATTERNS_16 = [
    [], [14], [6, 13], [4, 10, 13], [0, 3, 9, 15], [3, 5, 11, 13], [1, 8, 10, 11, 12],
    [4, 6, 12, 14, 15], [0, 3, 4, 7, 8, 15], [1, 5, 7, 9, 10, 15], [0, 2, 4, 9, 10, 13, 14],
    [0, 2, 3, 6, 8, 13, 14], [0, 2, 5, 6, 8, 11, 13, 15], [4, 5, 6, 11, 12, 13, 14, 15],
    [4, 5, 7, 9, 10, 11, 12, 14, 15], [0, 1, 2, 3, 4, 5, 7, 10, 12],
    [1, 2, 3, 4, 6, 7, 9, 10, 11, 13], [0, 2, 3, 5, 7, 8, 10, 12, 13, 15],
    [0, 2, 3, 5, 8, 9, 11, 12, 13, 14, 15], [0, 1, 3, 6, 7, 8, 9, 10, 12, 13, 14, 15],
    [0, 1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13, 14], [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14],
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15], list(range(16)),
]

# N=32: sweeps at several decimation levels and at the top; the oracle only
# where the limit is at most 1, since K = 4 takes seconds at N=32
DFT_PATTERNS_32 = [
    [20, 26, 27], [0, 21, 22, 31], [3, 5, 11, 13], [6, 10, 22, 26], [0, 1, 16, 17],
    [0, 8, 16, 24], [0, 14, 19, 25, 28], [0, 2, 8, 16, 18], [1, 4, 13, 21, 23, 30],
    [0, 5, 18, 19, 20, 28, 29], list(range(0, 32, 4)),
    [0, 1, 2, 7, 9, 13, 14, 17, 19, 20, 22, 24, 25, 27],
    [1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 14, 16, 17, 18, 19, 20, 21, 22, 24, 25, 26, 27, 28,
     29, 30],
    [0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26,
     27, 28, 29, 30],
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26,
     27, 28, 29, 30, 31],
]

DFT_CASES = {f"N={n} missing={','.join(map(str, m))}": (n, m)
             for n, patterns in ((16, DFT_PATTERNS_16), (32, DFT_PATTERNS_32)) for m in patterns}


def dft_limit_json(n, missing, tmp):
    return _run(["dft-limit", "--n", str(n), "--missing", ",".join(map(str, missing))], tmp)


def oracle_verdicts(n, missing, k_max):
    """Oracle verdicts at K = 1 .. k_max + 1, or None where that is too slow to freeze."""
    if n > 16 and k_max > 1:
        return None
    p = MissingSamplePattern.of(n, missing)
    return [dft_uniqueness_oracle(p, k) for k in range(1, k_max + 2)]


def dft_reports(tmp):
    reports = {}
    for name, (n, missing) in DFT_CASES.items():
        text = dft_limit_json(n, missing, tmp)
        reports[name] = {"dft-limit": text,
                         "oracle": oracle_verdicts(n, missing, json.loads(text)["k_max"])}
    return reports


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FROZEN.read_text())


@pytest.fixture(scope="module")
def frozen_recovery():
    return json.loads(FROZEN_RECOVERY.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_certify_json_is_frozen(name, frozen, tmp_path):
    assert certify_json(*CASES[name], tmp_path) == frozen[SAME_AS.get(name, name)]


@pytest.mark.parametrize("name", sorted(EXPERIMENT_CASES))
def test_experiment_json_is_frozen(name, frozen_recovery, tmp_path):
    assert experiment_json(name, tmp_path) == frozen_recovery[f"experiment {name}"]


@pytest.mark.parametrize("per_batch", [7, 1])
@pytest.mark.parametrize("name", sorted(EXPERIMENT_CASES))
def test_experiment_json_is_frozen_across_batch_cuts(name, per_batch, frozen_recovery, tmp_path,
                                                     monkeypatch):
    # batches that cut through sparsities, and trials selected one at a time
    matrix, ks, trials, _ = EXPERIMENT_CASES[name]
    build = RECOVERY_MATRICES[matrix]
    rows, cols = (load_matrix_csv(DEMO_CSV).entries if build is None else build()).shape
    k_max = max(ks)
    monkeypatch.setattr(recon, "_BATCH_ENTRIES", per_batch * (cols + k_max * (rows + k_max)))
    sizes, select = [], recon._select

    def counted(a, ys, *args):
        sizes.append(len(ys))
        return select(a, ys, *args)

    monkeypatch.setattr(recon, "_select", counted)
    assert experiment_json(name, tmp_path) == frozen_recovery[f"experiment {name}"]
    assert sizes[:-1] == [per_batch] * (len(sizes) - 1) and sum(sizes) == len(ks) * trials


@pytest.mark.parametrize("name", sorted(RECON_CASES))
def test_recon_json_is_frozen(name, frozen_recovery, tmp_path):
    assert recon_json(*RECON_CASES[name], tmp_path) == frozen_recovery[f"recon {name}"]


@pytest.fixture(scope="module")
def frozen_dft():
    return json.loads(FROZEN_DFT.read_text())


@pytest.mark.parametrize("name", sorted(DFT_CASES))
def test_dft_limit_and_oracle_are_frozen(name, frozen_dft, tmp_path):
    n, missing = DFT_CASES[name]
    text = dft_limit_json(n, missing, tmp_path)
    assert text == frozen_dft[name]["dft-limit"]
    assert oracle_verdicts(n, missing, json.loads(text)["k_max"]) == frozen_dft[name]["oracle"]


def _write(path, reports):
    path.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reports)} reports to {path}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _write(FROZEN, {name: certify_json(*case, tmp)
                        for name, case in CASES.items() if name not in SAME_AS})
        _write(FROZEN_RECOVERY, recovery_reports(tmp))
        _write(FROZEN_DFT, dft_reports(tmp))
