"""The benchmark's span tracer wraps public names of the package; every one
of them must exist, or the traced benchmark run fails, and its result hooks
read attributes of what they return. The tracer is loaded from
``bench/tracing.py`` by path and is not changed."""

import importlib.util
import sys
from pathlib import Path

from helpers import write_bend_session, write_every_input_session

import exoload.pipeline  # loads every module the tracer wraps

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


def test_traced_pipeline_run_reports_its_layers(tmp_path):
    """One traced run of the pipeline: the tracer's result hooks read the
    retargeting result and the capture, so the figures they feed are non-zero
    and the retargeting diagnostics are those of the fixture's 60 frames, and
    the layers' self times add up to the root span."""
    tracing = load_tracing()
    config = exoload.pipeline.load_config(write_bend_session(tmp_path, duration_s=0.25))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        exoload.pipeline.run_pipeline(config)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["retarget.ms_per_frame"] > 0.0
    assert metrics["skeleton.kinematic_states"] > 0
    assert metrics["io.parse_motion_us_per_frame"] > 0.0
    assert abs(metrics["retarget.qp_iterations_per_frame"] - 352 / 60) <= 1e-12
    assert metrics["retarget.saturated_frames"] == 28
    assert metrics["retarget.skipped_frames"] == 0
    assert abs(metrics["trace.self_sum_error_s"]) < 1e-6


def test_traced_run_of_every_branch_reports_the_signal_and_survey_layers(tmp_path):
    """One traced run of a session with every kind of input: the EMG, ECG
    and survey layers' figures are non-zero, so their wrapped functions ran
    under the tracer, and the self times still add up to the root span. The
    config is read before the tracer is installed, or its read would be a
    second root span."""
    tracing = load_tracing()
    _, files = write_every_input_session(tmp_path)
    config = exoload.pipeline.load_config(files["config"])
    tracer = tracing.Tracer()
    try:
        tracer.install()
        exoload.pipeline.run_pipeline(config)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    for name in (
        "io.read_signal_mb_per_s",
        "io.read_responses_ms",
        "biosignals.envelope_msamples_per_s",
        "biosignals.r_peaks_ms_per_min",
        "surveys.us_per_response",
    ):
        assert metrics[name] > 0.0, name
    assert abs(metrics["trace.self_sum_error_s"]) < 1e-6
