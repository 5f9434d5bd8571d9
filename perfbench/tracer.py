"""Span tracer that wraps towercalc's layer functions from outside the package.

Each wrapped function records a span (name, start, end, parent).  Calls are
aggregated per (parent span, span) pair instead of being stored one by one,
because the hottest ring and forms calls run 10^5-10^6 times per run.  A
span's self time is its duration minus the time its child spans cover.

Modules import names directly (``from .linalg import rref``), so patching
one module attribute is not enough: `Tracer.install` replaces every binding
of a target function in every loaded ``towercalc`` module and every alias of
a target method in its class (``__radd__ = __add__``).  `Tracer.uninstall`
puts the originals back.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import sys
from time import perf_counter

# Span name -> the functions it wraps, as (module, "name") for module-level
# functions or (module, "Class.method") for methods.  The span name is the
# metric prefix reported by `layer_metrics`.
SPANS = {
    "ring.diff": [("towercalc.ring", "RadialRingElement.diff")],
    "ring.mul": [("towercalc.ring", "RadialRingElement.__mul__")],
    "ring.add": [("towercalc.ring", "RadialRingElement.__add__"),
                 ("towercalc.ring", "RadialRingElement.__sub__"),
                 ("towercalc.ring", "RadialRingElement.__neg__")],
    "ring.scale": [("towercalc.ring", "RadialRingElement.scale")],
    "ring.reduce": [("towercalc.ring", "reduce_poly")],
    "ring.sphere_restriction": [
        ("towercalc.ring", "RadialRingElement.sphere_restriction")],
    "forms.rot": [("towercalc.forms", "Form.rot")],
    "forms.div": [("towercalc.forms", "Form.div")],
    "forms.hodge": [("towercalc.forms", "Form.hodge_star")],
    "forms.laplacian": [("towercalc.forms", "Form.laplacian")],
    "forms.radial": [("towercalc.forms", "Form.radial_wedge"),
                     ("towercalc.forms", "Form.radial_contraction")],
    "forms.sip": [("towercalc.forms", "sphere_inner_product")],
    "forms.coords": [("towercalc.forms", "coordinate_vectors")],
    "harmonic.seed": [("towercalc.harmonic", "seed_basis")],
    "harmonic.kernel": [("towercalc.harmonic", "kernel_of_operators")],
    "linalg.rref": [("towercalc.linalg", "rref")],
    "towers.build": [("towercalc.towers", "build_tower_pair")],
    "towers.verify": [("towercalc.towers", "verify_family")],
    "towers.harmonicity": [("towercalc.towers", "verify_low_floor_harmonicity")],
    "indices": [("towercalc.indices", name) for name in (
        "in_weighted_l2", "multiplicity", "enumerate_excluded",
        "excluded_empty_weight_bound", "shift_index", "negate_index",
        "is_exceptional_weight", "exceptional_weights",
        "validate_hypotheses", "require_hypotheses")],
    "expansion.expand": [("towercalc.expansion", "expand")],
    "expansion.side": [("towercalc.expansion", "_expand_side")],
    "static_op.solve": [("towercalc.static_op", "solve_whole_space")],
    "static_op.profile": [("towercalc.static_op", "apply_L_profile")],
    "static_op.power": [("towercalc.static_op", "apply_L_power")],
    "cli.to_obj": [("towercalc.cli", "_emit_json")] + [
        (mod, f"{cls}.to_obj") for mod, cls in (
            ("towercalc.forms", "Form"), ("towercalc.towers", "TowerFamily"),
            ("towercalc.harmonic", "SeedSpace"),
            ("towercalc.expansion", "MaxwellPair"),
            ("towercalc.expansion", "ExpansionResult"),
            ("towercalc.static_op", "TowerProfile"),
            ("towercalc.static_op", "OperatorRangeDescriptor"))],
    "cli.from_obj": [("towercalc.cli", "_load_json")] + [
        (mod, f"{cls}.from_obj") for mod, cls in (
            ("towercalc.forms", "Form"), ("towercalc.towers", "TowerFamily"),
            ("towercalc.towers", "TowerIndex"),
            ("towercalc.harmonic", "SeedSpace"),
            ("towercalc.expansion", "MaxwellPair"))],
}

# Functions that only feed counters: no span, so they cost no stack work.
COUNTED = {
    "towers.ctx": ("towercalc.towers", "TowerContext.family"),
    "expansion.candidates": ("towercalc.expansion", "tower_candidates"),
    "expansion.gram": ("towercalc.expansion", "solve_posdef"),
}

# Counts that must repeat exactly between two traced runs of one seed.
EXACT_SUFFIXES = (".calls", ".cells")
EXACT_NAMES = ("towers.terms", "towers.max_den_bits")


def _bits_and_terms(fam) -> tuple[int, int, int]:
    """(members, monomial terms, max denominator bits) of a tower family."""
    members = terms = bits = 0
    for floors in (fam.d_floors, fam.r_floors):
        for floor in floors:
            for form in floor:
                members += 1
                for el in form.components.values():
                    for poly in el.parts.values():
                        terms += len(poly)
                        for c in poly.values():
                            b = c.denominator.bit_length()
                            if b > bits:
                                bits = b
    return members, terms, bits


class Tracer:
    """Aggregated spans and counters for one traced phase."""

    def __init__(self):
        self.stack: list = []            # frames [span name, child seconds]
        self.agg: dict = {}              # (parent, span) -> [calls, total_s, self_s]
        self.counts: dict = {}
        self.on = [False]                # shared with every wrapper
        self.root_s = 0.0                # time covered by top-level spans
        self.hook_s = 0.0                # counting-hook time outside spans
        self.item = "run"                # parent name of top-level spans
        self.items: list = []            # [id, name, start, end, covered_s]
        self.item_wall = 0.0             # item time minus hook_s
        self.item_covered = 0.0          # item time inside top-level spans
        self._patched: list = []

    # -- counters ------------------------------------------------------------

    def add(self, key: str, value=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def high(self, key: str, value) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn, pre=None, post=None):
        stack, agg, on = self.stack, self.agg, self.on
        tracer = self

        def wrapper(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            if pre is not None:
                h0 = perf_counter()
                pre(args, kwargs)
                tracer._charge_hook(perf_counter() - h0)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    pname = parent[0]
                else:
                    tracer.root_s += dt
                    pname = tracer.item
                key = (pname, name)
                a = agg.get(key)
                if a is None:
                    agg[key] = [1, dt, dt - frame[1]]
                else:
                    a[0] += 1
                    a[1] += dt
                    a[2] += dt - frame[1]
            if post is not None:
                h0 = perf_counter()
                post(args, kwargs, result)
                tracer._charge_hook(perf_counter() - h0)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _counter(self, fn, pre, post):
        on, tracer = self.on, self

        def wrapper(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            h0 = perf_counter()
            note = pre(args)
            tracer._charge_hook(perf_counter() - h0)
            result = fn(*args, **kwargs)
            h0 = perf_counter()
            post(note, result)
            tracer._charge_hook(perf_counter() - h0)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "counted")
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _charge_hook(self, h: float) -> None:
        """Keep counting-hook time out of every span's self time, and out of
        the item time when no span encloses the hook."""
        if self.stack:
            self.stack[-1][1] += h
        else:
            self.hook_s += h

    # -- hooks ---------------------------------------------------------------

    def _hooks(self):
        harmonic = sys.modules["towercalc.harmonic"]
        add, high = self.add, self.high

        def scale_pre(args, kwargs):
            c = args[1] if len(args) > 1 else kwargs.get("c")
            if c == 1 or c == -1:
                add("ring.scale.unit")

        def seed_pre(args, kwargs):
            n, q, degree = args[:3]
            if kwargs.get("strategy", args[3] if len(args) > 3 else "auto") != "auto":
                add("harmonic.seed.computed")
            elif (n, q, degree) in harmonic._CACHE:
                pass
            else:
                path = harmonic._disk_cache_path(n, q, degree)
                if path and harmonic.os.path.exists(path):
                    add("harmonic.seed.disk_hits")
                else:
                    add("harmonic.seed.computed")

        def kernel_pre(args, kwargs):
            add("harmonic.kernel.candidates", len(args[0]))

        def rref_pre(args, kwargs):
            rows = args[0]
            if rows:
                add("linalg.rref.cells", len(rows) * len(rows[0]))

        def build_post(args, kwargs, fam):
            members, terms, bits = _bits_and_terms(fam)
            add("towers.members", members)
            add("towers.terms", terms)
            high("towers.max_den_bits", bits)

        def ctx_pre(args):
            ctx, q, sign, sigma, floors = args[:5]
            fam = ctx._families.get((q, sign, sigma))
            return fam is not None and fam.floors >= floors

        def ctx_post(hit, result):
            add("towers.ctx.lookups")
            if hit:
                add("towers.ctx.hits")

        def candidates_post(note, result):
            add("expansion.candidates", len(result))

        def gram_pre(args):
            dim = len(args[0])
            add("expansion.gram.cells", dim * dim)
            high("expansion.gram.max_dim", dim)

        def nothing(*_):
            return None

        pre = {"ring.scale": scale_pre, "harmonic.seed": seed_pre,
               "harmonic.kernel": kernel_pre, "linalg.rref": rref_pre}
        post = {"towers.build": build_post}
        counted = {"towers.ctx": (ctx_pre, ctx_post),
                   "expansion.candidates": (nothing, candidates_post),
                   "expansion.gram": (gram_pre, nothing)}
        return pre, post, counted

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        """Wrap every target; towercalc and all its modules must be imported."""
        import towercalc.cli  # noqa: F401  (loads every module of the package)

        pre, post, counted = self._hooks()
        for span, targets in SPANS.items():
            for target in targets:
                self._patch(target, lambda fn, s=span: self._span(
                    s, fn, pre.get(s), post.get(s)))
        for key, target in COUNTED.items():
            self._patch(target, lambda fn, k=key: self._counter(fn, *counted[k]))

    def _patch(self, target, make) -> None:
        modname, qual = target
        module = sys.modules[modname]
        if "." in qual:
            clsname, attr = qual.split(".")
            cls = getattr(module, clsname)
            raw = cls.__dict__[attr]
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            wrapped = make(fn)
            new = kind(wrapped) if kind else wrapped
            for name, val in list(vars(cls).items()):
                if val is raw:
                    self._patched.append((cls, name, raw))
                    setattr(cls, name, new)
            return
        fn = getattr(module, qual)
        wrapped = make(fn)
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "towercalc" or mname.startswith("towercalc.")):
                continue
            for name, val in list(vars(mod).items()):
                if val is fn:
                    self._patched.append((mod, name, fn))
                    setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        self.on[0] = False
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- phases --------------------------------------------------------------

    def start(self) -> None:
        self.on[0] = True

    def pause(self) -> None:
        self.on[0] = False

    def begin_item(self, name: str) -> None:
        self.item = name
        self._mark = (perf_counter(), self.root_s, self.hook_s)
        self.start()

    def end_item(self, end: float | None = None) -> None:
        """Close the current item; `end` is when its work finished."""
        self.pause()
        if end is None:
            end = perf_counter()
        start, root0, hook0 = self._mark
        covered = self.root_s - root0
        self.items.append([len(self.items), self.item, start, end, covered])
        self.item_wall += end - start - (self.hook_s - hook0)
        self.item_covered += covered
        self.item = "run"

    def unattributed_share(self) -> float:
        """Share of item time not covered by any top-level layer span."""
        if self.item_wall <= 0:
            return 0.0
        return max(0.0, 1.0 - self.item_covered / self.item_wall)

    # -- results -------------------------------------------------------------

    def to_obj(self) -> dict:
        return {"agg": [[p, s, *v] for (p, s), v in sorted(self.agg.items())],
                "counts": dict(sorted(self.counts.items())),
                "root_s": self.root_s, "hook_s": self.hook_s,
                "items": self.items}

    def merge(self, obj: dict) -> None:
        """Fold in the `to_obj` of a tracer that ran in a child process."""
        for parent, span, calls, total, self_s in obj["agg"]:
            a = self.agg.setdefault((parent, span), [0, 0.0, 0.0])
            a[0] += calls
            a[1] += total
            a[2] += self_s
        for key, value in obj["counts"].items():
            if key.endswith("max_dim") or key.endswith("max_den_bits"):
                self.high(key, value)
            else:
                self.add(key, value)
        self.root_s += obj["root_s"]
        self.hook_s += obj["hook_s"]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values, zero for every layer that did not run."""
    calls: dict = {}
    self_s: dict = {}
    for (_, span), (n, _, s) in tracer.agg.items():
        calls[span] = calls.get(span, 0) + n
        self_s[span] = self_s.get(span, 0.0) + s
    c = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for span in ("ring.diff", "ring.mul", "ring.scale", "ring.reduce",
                 "forms.rot", "forms.div", "forms.laplacian", "forms.sip",
                 "linalg.rref", "static_op.solve"):
        out[f"{span}.calls"] = calls.get(span, 0)
        out[f"{span}.self_s"] = self_s.get(span, 0.0)
    for span in ("ring.add", "forms.radial", "forms.coords", "harmonic.kernel",
                 "towers.build", "towers.verify", "towers.harmonicity",
                 "cli.to_obj", "cli.from_obj"):
        out[f"{span}.self_s"] = self_s.get(span, 0.0)
    out["ring.scale.unit_share"] = ratio(c.get("ring.scale.unit", 0),
                                         calls.get("ring.scale", 0))
    out["ring.sphere_restriction.calls"] = calls.get("ring.sphere_restriction", 0)
    out["forms.hodge.calls"] = calls.get("forms.hodge", 0)
    seeds = calls.get("harmonic.seed", 0)
    out["harmonic.seed.calls"] = seeds
    out["harmonic.seed.computed"] = c.get("harmonic.seed.computed", 0)
    out["harmonic.seed.disk_hits"] = c.get("harmonic.seed.disk_hits", 0)
    out["harmonic.seed.hit_ratio"] = ratio(
        seeds - c.get("harmonic.seed.computed", 0), seeds)
    out["harmonic.kernel.candidates"] = c.get("harmonic.kernel.candidates", 0)
    out["linalg.rref.cells"] = c.get("linalg.rref.cells", 0)
    out["towers.members"] = c.get("towers.members", 0)
    out["towers.terms"] = c.get("towers.terms", 0)
    out["towers.max_den_bits"] = c.get("towers.max_den_bits", 0)
    out["towers.ctx.hit_ratio"] = ratio(c.get("towers.ctx.hits", 0),
                                        c.get("towers.ctx.lookups", 0))
    out["indices.calls"] = calls.get("indices", 0)
    out["indices.self_s"] = self_s.get("indices", 0.0)
    out["expansion.expand.calls"] = calls.get("expansion.expand", 0)
    out["expansion.expand.self_s"] = (self_s.get("expansion.expand", 0.0)
                                      + self_s.get("expansion.side", 0.0))
    out["expansion.candidates"] = c.get("expansion.candidates", 0)
    out["expansion.gram.max_dim"] = c.get("expansion.gram.max_dim", 0)
    out["expansion.gram.cells"] = c.get("expansion.gram.cells", 0)
    out["static_op.profile.calls"] = calls.get("static_op.profile", 0)
    return out


def exact_counts(metrics: dict) -> dict:
    """The subset of metrics that must repeat exactly at a fixed seed."""
    return {k: v for k, v in metrics.items()
            if k.endswith(EXACT_SUFFIXES) or k in EXACT_NAMES}
