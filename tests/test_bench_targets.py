"""Every callable the traced benchmark wraps exists in the package: a renamed
or deleted target would make `bench/run.py --trace 1` raise AttributeError."""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_tracing_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for layer, mod, attr in tracing.TARGETS:
        assert layer in tracing.LAYERS
        owner = importlib.import_module(f"braidgamma.{mod}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (mod, attr)
