"""Regenerate the checked-in inputs and known answers from the current code.

    python3 perfbench/make_golden.py

Writes perfbench/inputs/*.json and perfbench/golden.json.  The answers
define what the benchmark counts as correct, so regenerate them only when
an output is meant to change, and say so in the change that does it.
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402
from towercalc.expansion import MaxwellPair  # noqa: E402
from towercalc.forms import Form  # noqa: E402
from towercalc.ring import QQ  # noqa: E402
from towercalc.towers import (TowerContext, TowerIndex,  # noqa: E402
                              build_tower_pair, verify_family,
                              verify_low_floor_harmonicity)


def write_inputs() -> None:
    wl.INPUTS.mkdir(exist_ok=True)
    ctx = TowerContext(3)
    rng = random.Random(1105)
    slots = wl.available_members(ctx, 1)
    e, h = Form.zero(3, 1), Form.zero(3, 2)
    for side, idx in rng.sample(slots, 4):
        c = QQ(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        if side == "e":
            e = e + ctx.d_form(1, idx).scale(c)
        else:
            h = h + ctx.r_form(2, idx).scale(c)
    (wl.INPUTS / "pair.json").write_text(wl.json_text(MaxwellPair(e, h).to_obj()))
    form = ctx.d_form(1, TowerIndex(-1, 0, 0, 1))
    (wl.INPUTS / "form.json").write_text(wl.json_text(form.to_obj()))
    seed = {"schema": "towercalc/1", "kind": "profile_seed",
            "f_coeffs": [{"sign": "-", "k": 0, "sigma": 0, "m": 1, "coeff": "2"},
                         {"sign": "-", "k": 0, "sigma": 1, "m": 2, "coeff": "3/5"}],
            "g_coeffs": [{"sign": "-", "k": 0, "sigma": 2, "m": 3, "coeff": "1/7"}]}
    (wl.INPUTS / "iterate_seed.json").write_text(wl.json_text(seed))


def sweep_answers() -> dict:
    out = {}
    for fam in wl.sweep_families():
        family = build_tower_pair(*fam, wl.SWEEP_FLOORS)
        rep = verify_family(family, rebuild=False, independence=False)
        harm = verify_low_floor_harmonicity(family)
        assert rep["passed"] and harm["passed"], fam
        out[wl.family_key(fam)] = {
            "family": wl.sha256(wl.json_text(family.to_obj())),
            "report": wl.sha256(wl.report_text(rep, harm))}
    return out


def cli_answers() -> dict:
    work = HERE.parent / ".bench_build" / "perfbench" / "golden"
    cli = wl.Cli(0, {"cli": {}}, work, tampered=0)
    out = {}
    try:
        for item in cli.items(0):
            proc, argv, _ = cli.run(item)
            want = {"exit": proc.returncode, "stdout": wl.sha256(proc.stdout)}
            if "--out" in argv:
                with open(argv[argv.index("--out") + 1], "rb") as fh:
                    want["out"] = wl.sha256(fh.read())
            out[item["name"]] = want
            print(f"{item['name']}: exit {proc.returncode}", file=sys.stderr)
    finally:
        cli.close()
    return out


def main() -> None:
    write_inputs()
    golden = {"sweep": sweep_answers(), "cli": cli_answers()}
    wl.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
