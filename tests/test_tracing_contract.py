"""The benchmark's span tracer wraps public names of the package; every one
of them must exist, or the traced benchmark run fails. The tracer is loaded
from ``bench/tracing.py`` by path and is not changed."""

import importlib.util
import sys
from pathlib import Path

import exoload.pipeline  # noqa: F401  (loads every module the tracer wraps)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("exoload_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_installs_on_every_wrapped_name_and_uninstalls():
    tracing = load_tracing()
    modules = {layer: sys.modules[f"exoload.{layer}"] for layer in tracing.TARGETS}
    before = {layer: dict(vars(module)) for layer, module in modules.items()}
    methods = [
        (getattr(modules[layer], target[0]), target[1])
        for layer, targets in tracing.TARGETS.items()
        for target in targets
        if len(target) == 2
    ]
    originals = [vars(owner).get(name) for owner, name in methods]
    tracer = tracing.Tracer()
    try:
        tracer.install()  # raises TraceError naming a missing target
        assert tracer._patches
    finally:
        tracer.uninstall()
    for layer, module in modules.items():
        assert all(vars(module).get(name) is value for name, value in before[layer].items())
    assert all(vars(owner)[name] is fn for (owner, name), fn in zip(methods, originals))
