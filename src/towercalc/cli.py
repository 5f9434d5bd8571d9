"""Command-line surface: build, verify, expand, classify, indices, weights,
iterate, dims.

Exit codes: 0 ok, 1 an exact check failed, 2 usage or inadmissible input,
3 internal error.  JSON goes to stdout (or --out); human-readable notes go
to stderr.  Output is deterministic for a fixed invocation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache, lru_cache

from .errors import (DECODE_ERRORS, SCHEMA, HypothesisError, require_dim,
                     require_odd_dimension, require_schema)
from .expansion import (MaxwellPair, expand, lemma34_classify,
                        membership_filter)
from .forms import Form
from .harmonic import mu
from .indices import (EXCLUDED_LIMIT, enumerate_excluded, exceptional_weights,
                      is_exceptional_weight)
from .ring import qq, qq_str, require_rational
from .static_op import (TowerProfile, apply_L_profile, range_descriptor,
                        require_power)
from .towers import (TowerContext, TowerFamily, TowerIndex, build_tower_pair,
                     multiplicity, verify_family, verify_low_floor_harmonicity)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _odd_dimension(text: str) -> int:
    """argparse type of every --n: an odd dimension n >= 3."""
    try:
        require_odd_dimension(int(text))
    except ValueError as ex:
        raise argparse.ArgumentTypeError(str(ex))
    return int(text)


def _count(text: str) -> int:
    """argparse type of the count options: an integer >= 0."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, not {text}")
    return int(text)


def _emit(out: str | None, text: str) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(out: str | None, obj) -> None:
    parts: list = []
    _write_json(obj, 0, parts)
    parts.append("\n")
    _emit(out, "".join(parts))


_quote = json.encoder.encode_basestring_ascii
# every term of a form has the keys "alpha" and "coef": one quoted copy each
_quote_key = lru_cache(maxsize=1024)(_quote)


@cache
def _json_level(level: int) -> tuple:
    """(newline, "{" + inner, "[" + inner, "," + inner) of a container at an
    indent level, where inner is the newline of its items; every container
    of the level shares them."""
    newline = "\n" + "  " * level
    inner = newline + "  "
    return newline, "{" + inner, "[" + inner, "," + inner


def _write_json(obj, level: int, parts: list) -> None:
    """Append to parts the text json.dumps(obj, indent=2, sort_keys=True)
    writes for obj at an indent level.  json turns off its C encoder when
    asked to indent; this writer keeps the common case, a list of ints, to
    one join.  A key that is not a str is a TypeError from the quoting,
    where json would coerce it."""
    if isinstance(obj, str):
        parts.append(_quote(obj))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        newline, sep, _, comma = _json_level(level)
        for key in sorted(obj):
            parts += (sep, _quote_key(key), ": ")
            _write_json(obj[key], level + 1, parts)
            sep = comma
        parts += (newline, "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        newline, _, sep, comma = _json_level(level)
        if all(type(v) is int for v in obj):
            parts += (sep, comma.join(map(str, obj)), newline, "]")
            return
        for value in obj:
            parts.append(sep)
            _write_json(value, level + 1, parts)
            sep = comma
        parts += (newline, "]")
    elif type(obj) is int:
        parts.append(str(obj))
    else:
        parts.append(json.dumps(obj))


def _emit_csv(out: str | None, rows) -> None:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    _emit(out, buf.getvalue())


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"input file not found: {path}")
    except json.JSONDecodeError as ex:
        raise UsageError(f"malformed JSON in {path}: line {ex.lineno} "
                         f"column {ex.colno}: {ex.msg}")


class UsageError(Exception):
    pass


def _decode(path: str, decode):
    """decode(the JSON document at path); a wrong-shaped document, or one
    stating another schema, is a usage error, not an internal fault."""
    obj = _load_json(path)
    try:
        require_schema(obj)
        return decode(obj)
    except DECODE_ERRORS as ex:
        raise UsageError(f"invalid input in {path}: {type(ex).__name__}: {ex}")


def _parse_sign(word: str):
    signs = {"plus": [1], "minus": [-1], "both": [1, -1]}
    if word not in signs:
        raise UsageError(f"--sign must be plus, minus or both, not {word!r}")
    return signs[word]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_build(args) -> int:
    require_dim(args.n)         # verify refuses a document past MAX_DIM
    sigmas = [args.sigma] if args.sigma is not None else list(range(args.sigma_max + 1))
    families = []
    for sign in _parse_sign(args.sign):
        for sigma in sigmas:
            fam = build_tower_pair(args.n, args.q, sign, sigma, args.floors)
            families.append(fam.to_obj())
            if args.verbose:
                _note(f"built family q={args.q} sign={'+' if sign > 0 else '-'} "
                      f"sigma={sigma} floors={args.floors}")
    _emit_json(args.out, {"schema": SCHEMA, "kind": "tower_family_set",
                          "n": args.n, "families": families})
    return EXIT_OK


def _families_from_obj(obj) -> list:
    if obj.get("kind") == "tower_family":
        return [TowerFamily.from_obj(obj)]
    if obj.get("kind") == "tower_family_set":
        n = require_dim(obj["n"])
        families = [TowerFamily.from_obj(fo) for fo in obj["families"]]
        if any(fam.n != n for fam in families):
            raise ValueError(f"a family of the set is not of the set's dimension n={n}")
        return families
    raise ValueError("expected a tower_family or tower_family_set document")


def cmd_verify(args) -> int:
    all_ok = True
    for fam in _decode(args.path, _families_from_obj):
        label = (f"family(n={fam.n},q={fam.q},"
                 f"sign={'+' if fam.sign > 0 else '-'},sigma={fam.sigma})")
        report = verify_family(fam, rebuild=not args.no_rebuild,
                               independence=not args.no_independence)
        reports = report["checks"]
        if args.harmonicity:
            reports = reports + verify_low_floor_harmonicity(fam)["checks"]
        for chk in reports:
            ok = chk["passed"]
            all_ok &= ok
            line = f"{'PASS' if ok else 'FAIL'} {label} {chk['name']}"
            if not ok and chk.get("detail"):
                line += f": {chk['detail']}"
            print(line)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_expand(args) -> int:
    if args.floors < 1:
        raise UsageError(f"--floors must be >= 1, not {args.floors}")
    pair = _decode(args.input, MaxwellPair.from_obj)
    ctx = TowerContext(pair.n)
    try:
        result = expand(pair, args.floors, ctx)
    except ValueError as ex:
        _note(f"FAIL expand: {ex}")
        return EXIT_CHECK_FAILED
    obj = result.to_obj()
    if args.weight is not None:
        verdict = membership_filter(result, qq_str_to_q(args.weight))
        obj["membership"] = dict(
            verdict, e_offending=[i.to_obj() for i in verdict["e_offending"]],
            h_offending=[i.to_obj() for i in verdict["h_offending"]])
        _note(f"membership at s={verdict['weight']}: "
              f"{'PASS' if verdict['passed'] else 'FAIL'}")
        for side, offs in (("E", verdict["e_offending"]),
                           ("H", verdict["h_offending"])):
            for idx in offs:
                _note(f"  offending {side} index {idx} "
                      f"(degree {idx.degree(pair.n)})")
    _emit_json(args.out, obj)
    return EXIT_OK if result.exact else EXIT_CHECK_FAILED


def cmd_classify(args) -> int:
    form = _decode(args.input, Form.from_obj)
    ctx = TowerContext(form.n)
    s = qq_str_to_q(args.weight)
    rep = lemma34_classify(form, s, ctx)
    _emit_json(args.out, dict(
        rep, schema=SCHEMA, kind="classification", n=form.n, q=form.q,
        weight=qq_str(s), indices=[i.to_obj() for i in rep["indices"]],
        exceptional=None if rep["exceptional"] is None else rep["exceptional"].to_obj()))
    return EXIT_OK


def cmd_indices(args) -> int:
    s = qq_str_to_q(args.weight)
    if is_exceptional_weight(s, args.n):
        _note(f"warning: weight {qq_str(s)} is exceptional; "
              "theorems inapplicable at this weight")
    idxs = enumerate_excluded(args.n, args.q, args.line, args.max_floor, s,
                              negative_only=not args.both_signs,
                              sigma_max=args.sigma_max)
    _emit_csv(args.out, [["sign", "k", "sigma", "m", "degree"]] + [
        ["+" if i.sign > 0 else "-", i.k, i.sigma, i.m, qq_str(qq(i.degree(args.n)))]
        for i in idxs])
    return EXIT_OK


def cmd_weights(args) -> int:
    _emit_csv(args.out, [["weight"]] + [[qq_str(w)] for w in
                                        exceptional_weights(args.n, args.list)])
    return EXIT_OK


def cmd_iterate(args) -> int:
    s = qq_str_to_q(args.weight)
    tau = None if args.tau is None else qq_str_to_q(args.tau)
    f_coeffs, g_coeffs = _decode(args.seed, lambda obj: _profile_seed_from_obj(
        obj, args.n, args.q)) if args.seed else ({}, {})
    try:
        profile = TowerProfile(n=args.n, q=args.q, s=s,
                               f_coeffs=f_coeffs, g_coeffs=g_coeffs)
        chain = [profile]
        held = 0
        for _ in range(args.power):
            chain.append(apply_L_profile(chain[-1], tau))
            # each step keeps every index and adds an excluded set, so the
            # chain grows as power x weight^2 and is bounded as a whole
            held += len(chain[-1].f_coeffs) + len(chain[-1].g_coeffs)
            if held > EXCLUDED_LIMIT:
                raise UsageError(f"the profiles of {args.power} steps hold more than "
                                 f"the limit of {EXCLUDED_LIMIT} indices")
        # checked after the steps, so that a step's own refusal is reported first
        require_power(profile, args.power, tau)
        desc = range_descriptor(chain)
    except (HypothesisError, ValueError) as ex:
        raise UsageError(f"inadmissible iteration input: {ex}")
    _emit_json(args.out, {"schema": SCHEMA, "kind": "iteration",
                          "power": args.power,
                          "tau": None if tau is None else qq_str(tau),
                          "profiles": [p.to_obj() for p in chain],
                          "range": desc.to_obj()})
    return EXIT_OK


def _profile_seed_from_obj(obj, n: int, q: int) -> tuple:
    """(f_coeffs, g_coeffs) index -> coefficient maps of a profile seed.  The
    f rows name rank-q D-line members and the g rows rank-(q+1) R-line
    members; a repeated index or a member m past its floor's multiplicity
    is refused, and so is a document of another kind."""
    if obj.get("kind", "profile_seed") != "profile_seed":
        raise ValueError(f"expected a profile_seed document, not kind {obj['kind']!r}")
    maps = []
    for key, rank, line in (("f_coeffs", q, "D"), ("g_coeffs", q + 1, "R")):
        coeffs = {}
        for row in obj.get(key, []):
            idx = TowerIndex.from_obj(row)
            if idx in coeffs:
                raise ValueError(f"{key} lists index {idx} twice")
            if idx.m > multiplicity(n, rank, line, idx.sigma, idx.k):
                raise ValueError(f"{key} index {idx}: m exceeds the floor's multiplicity")
            coeffs[idx] = require_rational(row["coeff"], "coeff")
        maps.append(coeffs)
    return tuple(maps)


def cmd_dims(args) -> int:
    sigmas = range(args.sigma_max + 1)
    _emit_csv(args.out, [["q\\sigma"] + list(sigmas)] + [
        [q] + [mu(args.n, q, sg) for sg in sigmas] for q in range(args.n + 1)])
    return EXIT_OK


def qq_str_to_q(text: str):
    try:
        return qq(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"not a rational: {text!r}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="towercalc",
        description="Exact tower-form calculus for static Maxwell fields.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("build", help="build tower families and emit them as JSON")
    p.add_argument("--n", type=_odd_dimension, required=True)
    p.add_argument("--q", type=int, required=True, help="family rank (D-line rank)")
    p.add_argument("--sign", default="both", help="plus, minus or both")
    p.add_argument("--sigma", type=int, default=None, help="single seed order")
    p.add_argument("--sigma-max", type=_count, default=0,
                   help="build seed orders 0..sigma-max (ignored with --sigma)")
    p.add_argument("--floors", type=int, default=3)
    common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="re-check every invariant of built families")
    p.add_argument("path", help="tower_family or tower_family_set JSON")
    p.add_argument("--no-rebuild", action="store_true",
                   help="skip the canonical-rebuild comparison")
    p.add_argument("--no-independence", action="store_true",
                   help="skip the Gram-rank independence check (faster)")
    p.add_argument("--harmonicity", action="store_true",
                   help="also check low-floor harmonicity")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("expand", help="expand a static pair over tower members")
    p.add_argument("--input", required=True, help="maxwell_pair JSON file")
    p.add_argument("--floors", type=int, required=True,
                   help="height K: coefficients on floors <= K-1 plus the "
                        "height-K exceptional slots")
    p.add_argument("--weight", default=None,
                   help="also report weighted membership at this rational s")
    common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("classify",
                       help="classify a form by integrability of its derivatives")
    p.add_argument("--input", required=True, help="form JSON file")
    p.add_argument("--weight", required=True)
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("indices", help="excluded-index table as CSV")
    p.add_argument("--n", type=_odd_dimension, required=True)
    p.add_argument("--q", type=int, required=True, help="form rank")
    p.add_argument("--line", default="D", choices=["D", "R"])
    p.add_argument("--max-floor", type=_count, required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--both-signs", action="store_true",
                   help="include growing-side indices (requires --sigma-max)")
    p.add_argument("--sigma-max", type=_count, default=None)
    common(p)
    p.set_defaults(func=cmd_indices)

    p = sub.add_parser("weights", help="list exceptional weights")
    p.add_argument("--n", type=_odd_dimension, required=True)
    p.add_argument("--list", type=_count, default=5, help="entries per branch")
    common(p)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("iterate",
                       help="iterate the solution-operator profile bookkeeping")
    p.add_argument("--n", type=_odd_dimension, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--weight", required=True, help="starting weight s")
    p.add_argument("--power", type=int, required=True)
    p.add_argument("--tau", default=None, help="decay rate for the validators")
    p.add_argument("--seed", default=None,
                   help="JSON with f_coeffs/g_coeffs index rows")
    common(p)
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("dims", help="seed-space dimension table as CSV")
    p.add_argument("--n", type=_odd_dimension, required=True)
    p.add_argument("--sigma-max", type=_count, default=3)
    common(p)
    p.set_defaults(func=cmd_dims)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return ex.code if isinstance(ex.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as ex:
        _note(f"error: {ex}")
        return EXIT_USAGE
    except (ValueError, KeyError) as ex:
        _note(f"error: invalid input: {ex}")
        return EXIT_USAGE
    except Exception as ex:                      # noqa: BLE001
        _note(f"internal error: {type(ex).__name__}: {ex}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
