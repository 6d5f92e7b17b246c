"""Every function the bench traces still exists in the package."""

import importlib
import importlib.util
import pathlib

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # Tracer.install looks each name up at its module; a deleted one would
    # crash the traced bench run
    tracing = _tracing()
    missing = []
    for mod, names in tracing.LAYERS.items():
        module = importlib.import_module(f"{tracing.PACKAGE}.{mod}")
        for name in names:
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{mod}.{name}")
    assert missing == []
