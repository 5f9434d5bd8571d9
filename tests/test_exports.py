"""Every public name, and every function the benchmark tracer wraps, exists;
and the package imports nothing outside the standard library.

perfbench/tracer.py patches towercalc functions by name when a benchmark
runs with --trace 1; a deleted or renamed target would only fail there.
The tracer module is loaded by path and only its target tables are read.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import towercalc

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(modname: str, qual: str) -> bool:
    owner = importlib.import_module(modname)
    if "." in qual:
        clsname, attr = qual.split(".")
        # the tracer patches the class's own attribute, not an inherited one
        cls = getattr(owner, clsname, None)
        return cls is not None and attr in vars(cls)
    return hasattr(owner, qual)


def test_public_and_traced_names_resolve():
    missing = [name for name in towercalc.__all__ if not hasattr(towercalc, name)]
    tracer = _load_tracer()
    targets = [t for group in tracer.SPANS.values() for t in group]
    targets += list(tracer.COUNTED.values())
    missing += [f"{mod}:{qual}" for mod, qual in targets if not _resolves(mod, qual)]
    assert missing == []


def test_tracer_counts_members_and_terms_through_the_parts_view():
    """The tracer's towers.members and towers.terms read RadialRingElement.parts
    through Form.components, which a form builds on each read; they must
    count what the family writes, component by component and in the
    family's own encoding."""
    from towercalc.towers import build_tower_pair
    fam = build_tower_pair(5, 2, 1, 1, 4)
    members, terms, _ = _load_tracer()._bits_and_terms(fam)
    forms = [f for floors in (fam.d_floors, fam.r_floors) for floor in floors for f in floor]
    assert members == len(forms)
    assert terms == sum(len(rec["terms"]) for f in forms for el in f.components.values()
                        for rec in el.to_records())
    written = [f for line in ("d_floors", "r_floors") for floor in fam.to_obj()[line]
               for f in floor]
    assert members == len(written)
    assert terms == sum(len(rec["terms"]) for f in written
                        for recs in f["components"].values() for rec in recs)
    assert terms > 0


def test_cli_imports_only_the_standard_library():
    """towercalc has no dependencies and one rational type, fractions.Fraction."""
    probe = ("import sys; before = set(sys.modules); import towercalc.cli; "
             "import fractions, towercalc; "
             "tops = {m.partition('.')[0] for m in set(sys.modules) - before}; "
             "print(sorted(tops - set(sys.stdlib_module_names) - {'towercalc'})); "
             "print(towercalc.QQ is fractions.Fraction)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "True"]


def test_cli_import_loads_every_module_and_no_code_generation():
    """import towercalc.cli loads every towercalc module, which the tracer's
    install relies on, and neither dataclasses nor inspect: together they
    cost 9-18 ms of every CLI start."""
    probe = ("import sys, towercalc.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('towercalc.'))); "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    package = sorted(f"towercalc.{p.stem}" for p in (ROOT / "src" / "towercalc").glob("*.py")
                     if p.stem != "__init__")
    assert proc.stdout.split("\n")[:2] == [repr(package), "[]"]


def test_tracer_hooks_read_names_that_resolve(monkeypatch):
    """The tracer's hooks read harmonic._CACHE, harmonic._disk_cache_path and
    TowerContext._families, and take len() of the rows that linalg.rref gets;
    a rename or a change of row format would break only --trace 1.  Run the
    seed hook on cold and memoised keys, the context hook on a miss and a
    hit, and the rref hook on the rows echelon_normalize passes."""
    from towercalc import harmonic
    from towercalc.towers import TowerContext
    tracer = _load_tracer().Tracer()
    pre, _, counted = tracer._hooks()
    seed_pre, (ctx_pre, _) = pre["harmonic.seed"], counted["towers.ctx"]
    forms = list(harmonic.seed_basis(3, 1, 1).forms)
    passed, rref = [], harmonic.rref
    monkeypatch.setattr(harmonic, "rref", lambda rows: passed.append(rows) or rref(rows))
    assert harmonic.echelon_normalize(forms[::-1]) == forms
    pre["linalg.rref"]((passed[0],), {})
    assert tracer.counts == {"linalg.rref.cells": len(forms) * len(forms[-1].terms)}
    tracer.counts.clear()
    monkeypatch.setattr(harmonic, "_CACHE", {})
    seed_pre((3, 1, 1), {})                    # computed
    harmonic.seed_basis(3, 1, 1)
    seed_pre((3, 1, 1), {})                    # in memory
    monkeypatch.setattr(harmonic, "_CACHE", {})
    seed_pre((3, 1, 1), {})                    # computed again
    assert tracer.counts == {"harmonic.seed.computed": 2}
    ctx = TowerContext(3)
    assert ctx_pre((ctx, 1, 1, 0, 2)) is False
    ctx.family(1, 1, 0, 2)
    assert ctx_pre((ctx, 1, 1, 0, 2)) is True
