#!/usr/bin/env python3
"""Walk the whole-space solution operator both symbolically and concretely.

Starting from decaying floor-0 data, each step (a) advances the symbolic
profile bookkeeping one power, and (b) actually solves the static equations
and re-expands the solution, checking that the two agree coefficient by
coefficient (fresh floor-0 unknowns set to zero).

Example:
    python3 scripts/iteration_walkthrough.py --power 3 --weight 15/4
"""

import argparse
import sys

from towercalc.expansion import expand
from towercalc.ring import qq
from towercalc.static_op import TowerProfile, apply_L_profile, solve_whole_space
from towercalc.towers import TowerContext, TowerIndex


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--q", type=int, default=1)
    ap.add_argument("--weight", default="15/4", help="starting weight s")
    ap.add_argument("--tau", default="10")
    ap.add_argument("--power", type=int, default=2)
    args = ap.parse_args()

    n, q = args.n, args.q
    ctx = TowerContext(n)
    f = {TowerIndex(-1, 0, 0, 1): qq(1)}
    g = {TowerIndex(-1, 0, 1, 1): qq("-1/2")}
    profile = TowerProfile(n, q, qq(args.weight), f, g)

    f_form = ctx.combine(q, "D", f)
    g_form = ctx.combine(q + 1, "R", g)

    print(f"seed data: {len(f)} D coefficient(s), {len(g)} R coefficient(s), "
          f"weight s={args.weight}")
    for step in range(1, args.power + 1):
        profile = apply_L_profile(profile, qq(args.tau))
        pair = solve_whole_space(f_form, g_form, ctx)
        out = expand(pair, step + 1, ctx)
        zeros = {name: qq(0) for name in profile.symbols()}
        agree = True
        for coeffs, side in ((profile.f_coeffs, out.e_side),
                             (profile.g_coeffs, out.h_side)):
            got = dict(side.coeffs)
            for idx, expr in coeffs.items():
                if got.pop(idx, qq(0)) != expr.substitute(zeros).const:
                    agree = False
            if got:
                agree = False
        fresh = sum(1 for i in profile.f_coeffs if i.k == 0) + \
            sum(1 for i in profile.g_coeffs if i.k == 0)
        print(f"step {step}: weight {profile.s}, "
              f"{len(profile.f_coeffs)} D + {len(profile.g_coeffs)} R slots "
              f"({fresh} fresh), expansion exact={out.exact}, "
              f"profile match={'yes' if agree else 'NO'}")
        if not out.exact or not agree:
            return 1
        f_form, g_form = pair.e, pair.h
    return 0


if __name__ == "__main__":
    sys.exit(main())
