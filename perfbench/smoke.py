"""Self-test of the benchmark on tiny inputs (python3 perfbench/run.py --smoke).

For each workload, on a few small items:
  * every end-to-end and per-layer metric of BENCHMARK.json is emitted,
    with its unit, and every item passes its check;
  * two traced passes give identical exact counts;
  * a deliberately wrong expected answer makes fail_share positive, so the
    checker is not vacuous.
Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys

import run
import workloads as wl
from tracer import exact_counts

TINY_SWEEP = [(3, 0, 1, 0), (3, 1, -1, 1), (3, 2, 1, 1), (5, 4, 1, 0)]
TINY_CLI = ([c for c in wl.CLI_FIXED if c[0] in ("dims-n3", "build-n3", "verify-n3")],
            [c for c in wl.CLI_TAIL if c[0] in ("weights", "iterate")])


def tiny(name: str, golden: dict, seed: int = 7):
    if name == "sweep":
        w = wl.Sweep(seed, golden, families=TINY_SWEEP)
    elif name == "expand":
        w = wl.Expand(seed, golden, limit=4)
    else:
        w = wl.Cli(seed, golden, run.STATE / f"smoke-cli-{seed}",
                   commands=TINY_CLI, tampered=1)
    w.min_passes = 1
    return w


class WrongExpand(wl.Expand):
    """Expects one coefficient that is off by one."""

    def items(self, pass_no: int) -> list:
        out = super().items(pass_no)
        pair, want = out[0]
        side = "e" if want["e"] else "h"
        idx = sorted(want[side])[0]
        want[side][idx] += 1
        return out


def wrong(name: str, golden: dict):
    """The tiny workload with one expected answer made wrong."""
    bad = copy.deepcopy(golden)
    if name == "sweep":
        key = wl.family_key(TINY_SWEEP[0])
        bad["sweep"][key]["family"] = "0" * 64
        return tiny(name, bad)
    if name == "expand":
        w = WrongExpand(7, bad, limit=4)
        w.min_passes = 1
        return w
    bad["cli"]["weights"]["exit"] = 1
    return tiny(name, bad)


def check_metrics(block: dict, specs: list, where: str, problems: list) -> None:
    want = {m["name"]: m["unit"] for m in specs}
    got = {k: v.get("unit") for k, v in block.items()}
    if got != want:
        problems.append(f"{where}: metrics/units differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    for k, v in block.items():
        if not isinstance(v.get("value"), (int, float)):
            problems.append(f"{where}: {k} has no numeric value")


def main() -> int:
    spec = run.load_spec()
    golden = wl.load_golden()
    problems: list = []
    for name in ("sweep", "expand", "cli"):
        w = tiny(name, golden)
        try:
            block, tally = run.untraced_run(w, 0, 0.0, spec)
        finally:
            w.close()
        check_metrics(block, spec["end_to_end"], f"{name} untraced", problems)
        if tally.failed:
            problems.append(f"{name}: {tally.failed} items failed: {tally.errors}")

        counts = []
        for _ in range(2):
            w = tiny(name, golden)
            try:
                values, tally = run.trace_values(w, 7)
            finally:
                w.close()
            check_metrics(run.metric_block(values, spec["per_layer"]),
                          spec["per_layer"], f"{name} traced", problems)
            counts.append(exact_counts(values))
        if counts[0] != counts[1]:
            problems.append(f"{name}: exact counts differ between traced runs")

        w = wrong(name, golden)
        try:
            _, tally = run.untraced_run(w, 0, 0.0, spec)
        finally:
            w.close()
        share = tally.failed / tally.attempted
        if not share > 0:
            problems.append(f"{name}: a wrong expected answer left fail_share at 0")
        print(f"smoke {name}: wrong answer gives fail_share {share:.3f}", flush=True)

    for p in problems:
        print(f"smoke FAIL {p}", file=sys.stderr)
    print(json.dumps({"smoke": "fail" if problems else "ok",
                      "problems": len(problems)}))
    return 1 if problems else 0
