"""The benchmark tracer patches functions by name; every name must resolve."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = _load_tracing().targets()
    assert targets
    for owner, attr, *_ in targets:
        # Methods are patched through the class body, functions by module.
        found = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        assert found, f"{owner.__name__}.{attr} is traced but does not exist"
