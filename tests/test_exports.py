"""Every public name, and every function the benchmark tracer wraps, exists.

perfbench/tracer.py patches towercalc functions by name when a benchmark
runs with --trace 1; a deleted or renamed target would only fail there.
The tracer module is loaded by path and only its target tables are read.
"""

import importlib
import importlib.util
from pathlib import Path

import towercalc

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
