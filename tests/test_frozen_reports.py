"""``certify --format json`` output on seeded matrices, frozen as bytes.

The expected texts in ``data/frozen_certify.json`` were captured before the
Cholesky certificates entered the spark screen and the RIP sweep, so any
later speed-up that changes one reported digit fails here. Regenerate them
only for an intended change of results:
``PYTHONPATH=src python tests/test_frozen_reports.py`` rewrites the file from
the current code.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from cscert import MeasurementMatrix, build_gaussian, build_partial_idft, save_matrix_csv
from cscert.cli import main

FROZEN = Path(__file__).resolve().parent / "data" / "frozen_certify.json"
DEMO_CSV = Path(__file__).resolve().parents[1] / "data" / "demo_matrix_5x8.csv"


def _planted():
    a = build_gaussian(7, 16, seed=5).entries.real.copy()
    a[:, 9] = a[:, [2, 4, 11]] @ np.array([0.5, -1.25, 2.0])
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
    "gaussian-7x16-planted-spark4": (_planted, ["--normalize"]),
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


def certify_json(build, flags, tmp):
    path = DEMO_CSV
    if build is not None:
        path = tmp / "m.csv"
        save_matrix_csv(MeasurementMatrix(build()), path)
    out = tmp / "report.json"
    assert main(["certify", "--matrix", str(path), "--format", "json", "--out", str(out), *flags]) == 0
    return out.read_text()


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FROZEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_certify_json_is_frozen(name, frozen, tmp_path):
    assert certify_json(*CASES[name], tmp_path) == frozen[SAME_AS.get(name, name)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        reports = {
            name: certify_json(*case, Path(tmp))
            for name, case in CASES.items()
            if name not in SAME_AS
        }
    FROZEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reports)} reports to {FROZEN}")
