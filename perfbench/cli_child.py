"""Run one towercalc CLI command under the span tracer.

Usage: python3 perfbench/cli_child.py STATS_JSON SPAWN_WALL ARG...

Imports towercalc.cli, installs the tracer, runs the command with ARG...,
writes the aggregated spans and counters to STATS_JSON and exits with the
command's exit code.  SPAWN_WALL is the parent's time.time() just before it
started this process, so that interpreter start plus import can be timed.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import towercalc.cli  # noqa: E402

IMPORTED_WALL = time.time()

from tracer import Tracer  # noqa: E402


def main() -> int:
    stats_path, spawn_wall, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    tracer.begin_item("cli.item")
    try:
        code = towercalc.cli.main(argv)
    finally:
        tracer.end_item()
        tracer.uninstall()
        sys.stdout.flush()
        obj = tracer.to_obj()
        obj["start_s"] = IMPORTED_WALL - spawn_wall
        with open(stats_path, "w") as fh:
            json.dump(obj, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
