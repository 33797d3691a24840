"""The benchmark's per-layer tracer (perfbench/tracing.py) wraps package
callables by name.  A site that no longer resolves is skipped there and its
layer reports zero calls, so a rename must fail here instead."""
import importlib.util
from pathlib import Path

import nonlinbandit

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_site_resolves():
    modules = {"package": nonlinbandit}
    for sub in ("learners", "environments", "harness", "hardinstances"):
        modules[sub] = getattr(nonlinbandit, sub)
    missing = []
    for layer, sites in _load_layers().items():
        for module_key, path in sites:
            owner = modules[module_key]
            for part in path.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{layer}: {module_key}:{path}")
    assert not missing, missing
