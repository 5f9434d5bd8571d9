import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["tower_walkthrough.py", "--n", "3", "--q", "1", "--sign", "minus", "--sigma", "1"],
    ["tower_walkthrough.py", "--q", "0", "--sign", "minus", "--sigma", "0"],
    ["iteration_walkthrough.py", "--power", "3"],
], ids=["tower-walkthrough", "tower-walkthrough-ghost", "iteration-walkthrough"])
def test_walkthrough_script_runs_clean(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout and "FAIL" not in proc.stdout
