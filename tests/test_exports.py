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


def test_tracer_hooks_read_names_that_resolve(tmp_path, monkeypatch):
    """The tracer's hooks read harmonic._CACHE, harmonic._disk_cache_path,
    harmonic.os and TowerContext._families; a rename would break only
    --trace 1.  Run the seed hook on each provenance and the context hook on
    a miss and a hit."""
    from towercalc import harmonic
    from towercalc.towers import TowerContext
    tracer = _load_tracer().Tracer()
    pre, _, counted = tracer._hooks()
    seed_pre, (ctx_pre, _) = pre["harmonic.seed"], counted["towers.ctx"]
    monkeypatch.setenv("TOWERCALC_CACHE", str(tmp_path))
    monkeypatch.setattr(harmonic, "_CACHE", {})
    seed_pre((3, 1, 1), {})                    # computed
    harmonic.seed_basis(3, 1, 1)
    seed_pre((3, 1, 1), {})                    # in memory
    monkeypatch.setattr(harmonic, "_CACHE", {})
    seed_pre((3, 1, 1), {})                    # on disk
    assert tracer.counts == {"harmonic.seed.computed": 1, "harmonic.seed.disk_hits": 1}
    ctx = TowerContext(3)
    assert ctx_pre((ctx, 1, 1, 0, 2)) is False
    ctx.family(1, 1, 0, 2)
    assert ctx_pre((ctx, 1, 1, 0, 2)) is True
