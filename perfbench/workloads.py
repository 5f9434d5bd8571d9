"""The three benchmark workloads: sweep, expand and cli.

Every workload is a closed loop with one client: the next item starts when
the previous one has finished.  A *pass* is a fixed list of items; the run
seed fixes the item order (and, for expand, the rational coefficients).
Checks run between items, outside the item clock.

A workload object offers:
  setup()             fill caches from cold; called several times for setup_s
  items(pass_no)      the items of one pass, in seeded order
  run(item)           the timed call into towercalc
  check(item, out)    True iff the output equals the known answer
  peak_rss_mb()       peak resident memory of the process doing the work
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INPUTS = HERE / "inputs"
GOLDEN = HERE / "golden.json"


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def json_text(obj) -> str:
    """JSON exactly as the towercalc CLI writes it."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Workload:
    """Defaults shared by the in-process workloads."""

    name = ""
    min_passes = 1

    def __init__(self):
        self.trace_dir = None      # set by the harness around a traced pass
        self.reset_stats()

    def reset_stats(self) -> None:
        """Clear the CLI counters (they stay zero in process)."""
        self.child_stats: list = []
        self.json_bytes = 0
        self.exit_mismatch = 0

    def absorb(self, out, tracer) -> None:
        """Fold spans recorded outside this process into `tracer`."""

    def peak_rss_mb(self) -> float:
        return _rss_mb(resource.RUSAGE_SELF)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_FLOORS = 4


def sweep_families() -> list:
    """The acceptance criterion-1 grid (n in {3,5}, q in 0..n-1, both signs,
    4 floors) at sigma <= 3 for n=3 and sigma <= 1 for n=5.

    The n=5 sigma in {2,3} families take 1-15 s each and their cold seed
    solves 7 s, which does not fit a run; they are left out of the pass.
    """
    fams = []
    for n, sigma_max in ((3, 3), (5, 1)):
        for q in range(n):
            for sign in (1, -1):
                for sigma in range(sigma_max + 1):
                    fams.append((n, q, sign, sigma))
    return fams


def family_key(fam) -> str:
    n, q, sign, sigma = fam
    return f"n{n}_q{q}_{'+' if sign > 0 else '-'}_s{sigma}"


def report_text(rep: dict, harm: dict) -> str:
    return json_text({"verify": rep["checks"], "harmonicity": harm["checks"]})


class Sweep(Workload):
    name = "sweep"
    min_passes = 2

    def __init__(self, seed: int, golden: dict, families=None):
        super().__init__()
        from towercalc import towers
        self.towers = towers
        self.seed = seed
        self.golden = golden["sweep"]
        self.families = families or sweep_families()

    def setup(self) -> None:
        """Cold seed solves for every family of the pass."""
        from towercalc.harmonic import clear_cache
        clear_cache()
        for fam in self.families:
            self.towers.build_tower_pair(*fam, 1)

    def items(self, pass_no: int) -> list:
        order = list(self.families)
        random.Random(f"sweep-{self.seed}-{pass_no}").shuffle(order)
        return order

    def run(self, fam):
        t = self.towers
        family = t.build_tower_pair(*fam, SWEEP_FLOORS)
        rep = t.verify_family(family, rebuild=False, independence=False)
        harm = t.verify_low_floor_harmonicity(family)
        return family, rep, harm

    def check(self, fam, out) -> bool:
        family, rep, harm = out
        want = self.golden[family_key(fam)]
        return (rep["passed"] and harm["passed"]
                and sha256(json_text(family.to_obj())) == want["family"]
                and sha256(report_text(rep, harm)) == want["report"])


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------

EXPAND_N = 3
EXPAND_HEIGHT = 3
EXPAND_WEIGHTS = ("-5/4", "0", "7/4", "3")
SHAPE_SEED = 20240915


def available_members(ctx, q: int) -> list:
    """(side, index) of every nonzero member at floors <= 2, sigma <= 2."""
    from towercalc.indices import multiplicity
    from towercalc.towers import TowerIndex
    slots = []
    for side, rank, line in (("e", q, "D"), ("h", q + 1, "R")):
        for sign in (1, -1):
            for k in range(3):
                for sigma in range(3):
                    for m in range(1, multiplicity(ctx.n, rank, line, sigma, k) + 1):
                        idx = TowerIndex(sign, k, sigma, m)
                        form = (ctx.d_form(q, idx) if side == "e"
                                else ctx.r_form(q + 1, idx))
                        if form is not None:
                            slots.append((side, idx))
    return slots


class Expand(Workload):
    """Criterion-5 shaped items: expand, reconstruct, membership, solve,
    re-expand, one for each (rank, member count).  Which members make up
    each combination is drawn once from a fixed seed, so every run does the
    same shapes of work; the run seed draws the nonzero rational
    coefficients and the item order afresh for every pass."""

    name = "expand"
    min_passes = 3

    def __init__(self, seed: int, golden: dict, limit=None):
        super().__init__()
        from towercalc import expansion, indices, static_op
        from towercalc.ring import qq
        self.expansion, self.indices, self.static_op = expansion, indices, static_op
        self.seed = seed
        self.limit = limit
        self.weights = [qq(w) for w in EXPAND_WEIGHTS]
        self.ctx = None
        self.shapes = None

    def setup(self) -> None:
        """Build every member the items combine, and every family the
        solve and the re-expansion look up (floors <= 4, sigma <= 5)."""
        from towercalc.harmonic import clear_cache
        from towercalc.towers import TowerContext
        clear_cache()
        ctx = TowerContext(EXPAND_N)
        slots = {q: available_members(ctx, q) for q in range(EXPAND_N)}
        for q in range(EXPAND_N):
            for sign in (1, -1):
                for sigma in range(6):
                    ctx.family(q, sign, sigma, EXPAND_HEIGHT + 1)
        self.ctx = ctx
        rng = random.Random(SHAPE_SEED)
        self.shapes = [(q, rng.sample(slots[q], count))
                       for q in range(EXPAND_N)
                       for count in range(1, 5)][:self.limit]

    def items(self, pass_no: int) -> list:
        from towercalc.expansion import MaxwellPair
        from towercalc.forms import Form
        from towercalc.ring import QQ
        rng = random.Random(f"expand-{self.seed}-{pass_no}")
        ctx, out = self.ctx, []
        for q, members in self.shapes:
            want = {"e": {}, "h": {}}
            for side, idx in members:
                want[side][idx] = QQ(rng.choice([-1, 1]) * rng.randint(1, 9),
                                     rng.randint(1, 9))
            e = Form.zero(EXPAND_N, q)
            for idx, c in sorted(want["e"].items()):
                e = e + ctx.d_form(q, idx).scale(c)
            h = Form.zero(EXPAND_N, q + 1)
            for idx, c in sorted(want["h"].items()):
                h = h + ctx.r_form(q + 1, idx).scale(c)
            out.append((MaxwellPair(e, h), want))
        rng.shuffle(out)
        return out

    def run(self, item):
        pair, _ = item
        ex, ctx = self.expansion, self.ctx
        res = ex.expand(pair, EXPAND_HEIGHT, ctx)
        back = res.reconstruct(ctx)
        verdicts = [ex.membership_filter(res, s) for s in self.weights]
        solved = self.static_op.solve_whole_space(pair.e, pair.h, ctx,
                                                  k_max=EXPAND_HEIGHT)
        again = ex.expand(solved, EXPAND_HEIGHT + 1, ctx)
        return res, back, verdicts, again

    def check(self, item, out) -> bool:
        pair, want = item
        res, back, verdicts, again = out
        if not (res.exact and res.e_side.coeffs == want["e"]
                and res.h_side.coeffs == want["h"]):
            return False
        if not (back.e == pair.e and back.h == pair.h):
            return False
        in_l2 = self.indices.in_weighted_l2
        for s, v in zip(self.weights, verdicts):
            e_off = [i for i in sorted(want["e"]) if not in_l2(i, s, EXPAND_N)]
            h_off = [i for i in sorted(want["h"]) if not in_l2(i, s, EXPAND_N)]
            if (v["e_offending"] != e_off or v["h_offending"] != h_off
                    or v["passed"] != (not e_off and not h_off)):
                return False
        shift = self.indices.shift_index
        want_e = {shift(i, 1)[0]: c for i, c in want["h"].items()}
        want_h = {shift(i, 1)[0]: c for i, c in want["e"].items()}
        return (again.exact and again.e_side.coeffs == want_e
                and again.h_side.coeffs == want_h
                and not again.e_side.hat_coeff and not again.h_side.hat_coeff)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

# (name, argv) in run order.  {seq} is the pass's scratch directory, {work}
# the run's, {inputs} the checked-in inputs.  build* write JSON with --out.
CLI_FIXED = [
    ("dims-n3", ["dims", "--n", "3", "--sigma-max", "3"]),
    ("dims-n5", ["dims", "--n", "5", "--sigma-max", "1"]),
    ("build-n3", ["build", "--n", "3", "--q", "1", "--sign", "both",
                  "--sigma-max", "1", "--floors", "3",
                  "--out", "{seq}/fam-n3.json"]),
    ("build-n5", ["build", "--n", "5", "--q", "2", "--sign", "both",
                  "--sigma-max", "1", "--floors", "3",
                  "--out", "{seq}/fam-n5.json"]),
    ("verify-n3", ["verify", "{seq}/fam-n3.json", "--harmonicity"]),
    ("verify-n5", ["verify", "{seq}/fam-n5.json", "--harmonicity",
                   "--no-independence"]),
]
CLI_TAIL = [
    ("expand", ["expand", "--input", "{inputs}/pair.json", "--floors", "3",
                "--weight", "7/4"]),
    ("classify", ["classify", "--input", "{inputs}/form.json",
                  "--weight", "0"]),
    ("indices", ["indices", "--n", "3", "--q", "1", "--line", "D",
                 "--max-floor", "3", "--weight", "2", "--both-signs",
                 "--sigma-max", "2"]),
    ("weights", ["weights", "--n", "5", "--list", "5"]),
    ("iterate", ["iterate", "--n", "3", "--q", "1", "--weight", "15/4",
                 "--power", "3", "--tau", "10",
                 "--seed", "{inputs}/iterate_seed.json"]),
]
CLI_TAMPERED = 3
# The family set that build-n3 writes; setup builds it in process to make
# the tampered copies.
TAMPER_SOURCE = dict(n=3, q=1, signs=(1, -1), sigmas=(0, 1), floors=3)
RELATIONS = ("seed-closedness", "div-free-d-line", "rot-free-r-line",
             "rot-ladder", "div-ladder", "floor-homogeneity",
             "canonical-rebuild")


def tamper_one_coefficient(obj: dict, rng: random.Random) -> None:
    """Scale one random stored term coefficient by 3 (criterion 9)."""
    while True:
        fam = rng.choice(obj["families"])
        line = rng.choice(["d_floors", "r_floors"])
        floors = [fl for fl in fam[line] if fl]
        if not floors:
            continue
        member = rng.choice(rng.choice(floors))
        key = rng.choice(sorted(member["components"]))
        part = rng.choice(member["components"][key])
        term = rng.choice(part["terms"])
        num, _, den = term["coef"].partition("/")
        term["coef"] = f"{int(num) * 3}{'/' + den if den else ''}"
        return


def cli_env(cache_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TOWERCALC_CACHE"] = cache_dir
    return env


class Cli(Workload):
    """Each item is one CLI command in a fresh interpreter.  A pass is one
    command sequence that starts on an empty TOWERCALC_CACHE directory."""

    name = "cli"
    min_passes = 3

    def __init__(self, seed: int, golden: dict, work_root: Path,
                 commands=None, tampered: int = CLI_TAMPERED):
        super().__init__()
        self.seed = seed
        self.golden = golden["cli"]
        self.work = work_root
        self.commands = commands if commands is not None else (
            CLI_FIXED, CLI_TAIL)
        self.tampered = tampered

    def setup(self) -> None:
        """Build the family set in process and write the seeded tampered
        copies that the sequence verifies."""
        from towercalc.harmonic import clear_cache
        from towercalc.towers import build_tower_pair
        clear_cache()
        src = TAMPER_SOURCE
        fams = [build_tower_pair(src["n"], src["q"], sign, sigma, src["floors"]).to_obj()
                for sign in src["signs"] for sigma in src["sigmas"]]
        pristine = json.loads(json_text({"schema": "towercalc/1",
                                         "kind": "tower_family_set",
                                         "n": src["n"], "families": fams}))
        rng = random.Random(f"cli-{self.seed}")
        self.work.mkdir(parents=True, exist_ok=True)
        for t in range(self.tampered):
            doc = json.loads(json.dumps(pristine))
            tamper_one_coefficient(doc, rng)
            (self.work / f"tampered-{t}.json").write_text(json.dumps(doc))

    def items(self, pass_no: int) -> list:
        fixed, tail = self.commands
        seq = [dict(name=n, argv=a, tampered=False) for n, a in fixed]
        seq += [dict(name=f"verify-tampered-{t}",
                     argv=["verify", "{work}/tampered-%d.json" % t,
                           "--no-independence"], tampered=True)
                for t in range(self.tampered)]
        seq += [dict(name=n, argv=a, tampered=False) for n, a in tail]
        seq_dir = self.work / f"pass-{pass_no}"
        cache = seq_dir / "cache"
        if seq_dir.exists():
            shutil.rmtree(seq_dir)
        cache.mkdir(parents=True)
        for it in seq:
            it["dir"] = seq_dir
            it["cache"] = str(cache)
        return seq

    def _argv(self, item) -> list:
        fmt = {"seq": str(item["dir"]), "work": str(self.work),
               "inputs": str(INPUTS)}
        return [a.format(**fmt) for a in item["argv"]]

    def run(self, item):
        argv = self._argv(item)
        env = cli_env(item["cache"])
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "towercalc.cli", *argv]
            stats_path = None
        else:
            stats_path = self.trace_dir / f"child-{len(self.child_stats)}.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(stats_path),
                   repr(time.time()), *argv]
        proc = subprocess.run(cmd, env=env, cwd=str(ROOT), capture_output=True,
                              timeout=170)
        return proc, argv, stats_path

    def absorb(self, out, tracer) -> None:
        """Fold a traced child's spans and counters into the run's tracer."""
        stats_path = out[2]
        with open(stats_path) as fh:
            stats = json.load(fh)
        tracer.merge(stats)
        self.child_stats.append(stats)

    def check(self, item, out) -> bool:
        proc, argv, _ = out
        self.json_bytes += len(proc.stdout)
        for a in argv:
            if a.endswith(".json") and os.path.exists(a):
                self.json_bytes += os.path.getsize(a)
        if item["tampered"]:
            fails = [ln for ln in proc.stdout.decode().splitlines()
                     if ln.startswith("FAIL")]
            ok_exit = proc.returncode == 1
            self.exit_mismatch += not ok_exit
            return ok_exit and any(r in ln for ln in fails for r in RELATIONS)
        want = self.golden[item["name"]]
        ok_exit = proc.returncode == want["exit"]
        self.exit_mismatch += not ok_exit
        ok = ok_exit and sha256(proc.stdout) == want["stdout"]
        if "out" in want:
            out_path = argv[argv.index("--out") + 1]
            with open(out_path, "rb") as fh:
                ok = ok and sha256(fh.read()) == want["out"]
        return ok

    def peak_rss_mb(self) -> float:
        return _rss_mb(resource.RUSAGE_CHILDREN)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
