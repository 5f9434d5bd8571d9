"""towercalc benchmark: one command, three workloads, checked answers.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a towercalc checkout.  With --trace 0 the last stdout
line is a JSON object holding every end-to-end metric of BENCHMARK.json;
with --trace 1 it holds every per-layer metric, taken from a traced pass
that follows an untraced one.  Lines before it starting with "# " record the
environment, the host-speed probe and the tail percentile.  --smoke runs the
self-test on tiny inputs.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_build" / "perfbench"
SETUP_REPS = 3
TAIL_BEYOND = 10


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def source_files() -> list:
    return sorted((SRC / "towercalc").glob("*.py"))


def code_digest() -> str:
    """Hash of the package and benchmark sources; keys the stored counts."""
    h = hashlib.sha256()
    for path in source_files() + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    from towercalc.ring import QQ
    return {
        "python": sys.version.split()[0],
        "backend": QQ.__module__,
        "git_sha": git_sha(),
        "code_sha256": code_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(p.read_text().splitlines()) for p in source_files()),
    }


def ref_loop() -> float:
    """Seconds taken by a fixed pure-Python Fraction loop: one *ref*."""
    t0 = perf_counter()
    acc = 0
    for i in range(1, 1201):
        x = Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 3) + Fraction(1, i + 5)
        acc += x.numerator & 7
    return perf_counter() - t0


def host_ref_ms(reps: int = 5) -> list:
    """The reference loop timed `reps` times, in ms."""
    return [ref_loop() * 1000.0 for _ in range(reps)]


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Tally:
    """Item latencies, and the reference loop timed before each item."""

    def __init__(self):
        self.latencies: list = []
        self.refs: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def record(self, dt: float, ok: bool, name: str, err=None) -> None:
        self.latencies.append(dt)
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{name}: {err or 'wrong answer'}")

    def relative(self) -> list:
        """Each latency in refs: over the mean of the reference loops timed
        just before and just after the item.  The host's speed swings by
        nearly 2x within seconds, and the loop slows down with it."""
        refs = self.refs + [ref_loop()]
        return [dt / ((refs[i] + refs[i + 1]) / 2)
                for i, dt in enumerate(self.latencies)]


def run_item(workload, item, tally: Tally, tracer=None) -> None:
    tally.refs.append(ref_loop())
    if tracer is not None:
        tracer.begin_item(f"{workload.name}.item")
    err = out = None
    t0 = perf_counter()
    try:
        out = workload.run(item)
    except Exception as ex:          # an item that raises is a failed item
        err = f"{type(ex).__name__}: {ex}"
    t1 = perf_counter()
    if tracer is not None:
        tracer.pause()
        if err is None:
            try:
                workload.absorb(out, tracer)
            except (OSError, ValueError) as ex:
                err = f"no readable trace: {type(ex).__name__}: {ex}"
        tracer.end_item(end=t1)
    ok = False
    if err is None:
        try:
            ok = bool(workload.check(item, out))
        except Exception as ex:
            err = f"check raised {type(ex).__name__}: {ex}"
    tally.record(t1 - t0, ok, str(item)[:80] if not isinstance(item, dict)
                 else item["name"], err)


def run_passes(workload, seconds: float, tally: Tally, first_pass: int = 0,
               max_passes=None, tracer=None) -> int:
    """Whole passes until `seconds` of item time and min_passes are done."""
    passes = 0
    busy = 0.0
    while True:
        if max_passes is not None and passes >= max_passes:
            break
        if (max_passes is None and passes >= workload.min_passes
                and busy >= seconds):
            break
        before = len(tally.latencies)
        for item in workload.items(first_pass + passes):
            run_item(workload, item, tally, tracer)
        busy += sum(tally.latencies[before:])
        passes += 1
    return passes


def tail_level(workload, pass_len: int) -> float:
    """Highest percentile with TAIL_BEYOND items beyond it at the minimum
    item count of a run; fixed per workload so runs compare."""
    n_min = workload.min_passes * pass_len
    return max(0.0, (n_min - TAIL_BEYOND) / n_min)


def percentile(values: list, level: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(level * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def make_workload(name: str, seed: int, golden: dict):
    import workloads as wl
    if name == "sweep":
        return wl.Sweep(seed, golden)
    if name == "expand":
        return wl.Expand(seed, golden)
    if name == "cli":
        return wl.Cli(seed, golden, STATE / f"cli-{seed}-{os.getpid()}")
    raise KeyError(name)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def metric_block(values: dict, specs: list) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in specs}


def info(tag: str, obj) -> None:
    print(f"# {tag} {json.dumps(obj, sort_keys=True)}", flush=True)


def untraced_run(workload, seconds: float, import_s: float, spec: dict) -> tuple:
    setups = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        workload.setup()
        setups.append(perf_counter() - t0)
    ref = host_ref_ms()
    tally = Tally()
    passes = run_passes(workload, seconds, tally)
    rel = tally.relative()
    ref += host_ref_ms()
    level = tail_level(workload, len(rel) // passes)
    lat = tally.latencies
    values = {
        "setup_s": import_s + statistics.median(setups),
        "items_per_kref": 1000.0 * len(rel) / sum(rel),
        "item_p50_ref": statistics.median(rel),
        "item_tail_ref": percentile(rel, level),
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    info("run", {"passes": passes, "items": len(lat),
                 "tail_percentile": round(100 * level, 2),
                 "items_beyond_tail": len(lat) - math.ceil(level * len(lat)),
                 "fail_share": tally.failed / max(1, tally.attempted),
                 "items_per_s": len(lat) / sum(lat),
                 "item_p50_s": statistics.median(lat),
                 "item_tail_s": percentile(lat, level),
                 "ref_ms_median": 1000.0 * statistics.median(tally.refs),
                 "import_s": import_s, "setup_reps_s": setups,
                 "host_ref_ms": {"before": ref[:5], "after": ref[5:]}})
    return metric_block(values, spec["end_to_end"]), tally


def trace_values(workload, seed: int) -> tuple:
    """Set up, run one untraced pass and one traced pass; per-layer values."""
    from tracer import Tracer, layer_metrics
    workload.setup()
    ref = host_ref_ms()
    untraced, traced = Tally(), Tally()
    run_passes(workload, 0, untraced, first_pass=0, max_passes=1)
    untraced_rel = untraced.relative()
    tracer = Tracer()
    trace_dir = STATE / f"trace-{workload.name}-{seed}-{os.getpid()}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    workload.reset_stats()
    workload.trace_dir = trace_dir
    tracer.install()
    try:
        run_passes(workload, 0, traced, first_pass=1, max_passes=1,
                   tracer=tracer)
        traced_rel = traced.relative()
    finally:
        tracer.uninstall()
        workload.trace_dir = None
    ref += host_ref_ms()
    values = layer_metrics(tracer)
    starts = [s["start_s"] for s in workload.child_stats]
    values["cli.start_s"] = statistics.median(starts) if starts else 0.0
    values["cli.json_bytes"] = workload.json_bytes
    values["cli.exit_mismatch"] = workload.exit_mismatch
    values["trace.overhead_ratio"] = (statistics.fmean(traced_rel)
                                      / statistics.fmean(untraced_rel))
    values["trace.unattributed_share"] = tracer.unattributed_share()
    values["host.ref_ms"] = statistics.median(ref)
    with open(trace_dir / "spans.json", "w") as fh:
        json.dump(tracer.to_obj(), fh)
    info("trace", {"spans": str(trace_dir.relative_to(ROOT) / "spans.json"),
                   "host_ref_ms": {"before": ref[:5], "after": ref[5:]}})
    tally = Tally()
    for t in (untraced, traced):
        tally.latencies += t.latencies
        tally.attempted += t.attempted
        tally.failed += t.failed
        tally.errors += t.errors
    return values, tally


def traced_run(workload, seed: int, spec: dict) -> tuple:
    from tracer import exact_counts
    values, tally = trace_values(workload, seed)
    counts_ok = check_exact_counts(workload.name, seed, exact_counts(values))
    info("counts", {"exact_counts_repeat": counts_ok})
    return metric_block(values, spec["per_layer"]), tally, counts_ok


def check_exact_counts(name: str, seed: int, counts: dict):
    """Compare with the counts an earlier traced run of the same code and
    seed stored; store them if there is none.  False means they differ."""
    store = STATE / "counts" / f"{name}-{seed}-{code_digest()[:16]}.json"
    if store.is_file():
        with open(store) as fh:
            earlier = json.load(fh)
        if earlier != counts:
            diff = {k: (earlier.get(k), counts.get(k))
                    for k in sorted(set(earlier) | set(counts))
                    if earlier.get(k) != counts.get(k)}
            print(f"perfbench: exact counts differ from an earlier traced run "
                  f"at seed {seed}: {diff}", file=sys.stderr)
            return False
        return True
    store.parent.mkdir(parents=True, exist_ok=True)
    with open(store, "w") as fh:
        json.dump(counts, fh, sort_keys=True)
    return None


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def import_package() -> float:
    t0 = perf_counter()
    import towercalc
    import towercalc.cli  # noqa: F401
    import_s = perf_counter() - t0
    where = Path(towercalc.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"towercalc imported from {where}, not from {SRC}")
    return import_s


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["sweep", "expand", "cli"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="self-test on tiny inputs, then exit")
    args = p.parse_args(argv)

    if not (SRC / "towercalc" / "__init__.py").is_file():
        return fail(f"no towercalc sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    try:
        import_s = import_package()
    except ImportError as ex:
        return fail(str(ex))
    if args.smoke:
        import smoke
        return smoke.main()
    if args.workload is None:
        return fail("--workload is required")

    # One CPU for the whole run, CLI children included: the reference loop
    # then runs where the items run, so it sees the same host speed.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import workloads
    spec = load_spec()
    workload = make_workload(args.workload, args.seed, workloads.load_golden())
    info("env", dict(environment(), workload=args.workload, seed=args.seed,
                     trace=args.trace))
    counts_ok = True
    try:
        if args.trace:
            metrics, tally, counts_ok = traced_run(workload, args.seed, spec)
        else:
            metrics, tally = untraced_run(workload, args.seconds, import_s, spec)
    finally:
        workload.close()
    for err in tally.errors:
        print(f"perfbench: failed item {err}", file=sys.stderr)
    result = {"correct": tally.failed == 0 and counts_ok is not False,
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if counts_ok is not False else 1


if __name__ == "__main__":
    sys.exit(main())
