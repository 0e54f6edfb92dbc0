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
