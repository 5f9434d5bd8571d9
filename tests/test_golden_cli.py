"""The benchmark's fixed CLI commands reproduce its known answers byte for byte.

perfbench/workloads.py lists the commands of the `cli` workload and
perfbench/golden.json the exit code and sha256 of each one's stdout and
--out file.  This runs them in process, in order, so that a changed output
byte of build, verify, expand, classify, indices, weights, iterate or dims
fails here and not first as failed benchmark items.
Both files are only read.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

from towercalc.cli import main

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _workload_commands() -> list:
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CLI_FIXED + module.CLI_TAIL


def test_fixed_cli_commands_match_the_benchmark_answers(tmp_path, capsys):
    golden = json.loads((PERFBENCH / "golden.json").read_text())["cli"]
    commands = _workload_commands()
    assert sorted(name for name, _ in commands) == sorted(golden)
    for name, argv in commands:
        argv = [a.format(seq=tmp_path, inputs=PERFBENCH / "inputs") for a in argv]
        code = main(argv)
        out = capsys.readouterr().out.encode()
        got = {"exit": code, "stdout": hashlib.sha256(out).hexdigest()}
        if "--out" in argv:
            got["out"] = hashlib.sha256(
                Path(argv[argv.index("--out") + 1]).read_bytes()).hexdigest()
        assert got == golden[name], name
