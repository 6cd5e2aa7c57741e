"""In-process span tracing of ``pipeline.run_pipeline`` from outside the
program.

``Tracer.install`` replaces the public functions named in ``TARGETS`` with
timing wrappers, in every ``exoload`` module namespace that bound them (the
pipeline imports most of them by name), and ``Tracer.uninstall`` puts the
originals back. Each wrapped call records a span (name, start, end, parent
span) and, for some names, a count or a size at the same boundary. Spans
stay in memory; ``run.py`` writes them out when the run ends.

A layer's self time is the time of its spans minus the time their direct
child spans cover, so the self times of all layers sum to the root span.
A name in ``TARGETS`` that the program no longer has raises ``TraceError``:
the traced run fails instead of reporting a zero.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

# per layer (module): (function,) or (class, method) to wrap
TARGETS = {
    "io": [
        ("parse_motion_file",),
        ("parse_annotation_file",),
        ("read_signal_csv",),
        ("read_emg_file",),
        ("read_ecg_file",),
        ("read_responses_file",),
        ("load_json_file",),
        ("sha256_file",),
        ("write_csv",),
        ("write_joint_trajectory",),
        ("write_json",),
    ],
    "skeleton": [
        ("build_model",),
        ("integrate_configuration",),
        ("KinematicState", "__init__"),
        ("KinematicState", "jacobian"),
        ("KinematicState", "com"),
    ],
    "retarget": [("retarget_trajectory",), ("solve_frame",)],
    "qp": [("solve_ls_qp",)],
    "dynamics": [
        ("net_lumbar_series",),
        ("estimate_derivatives",),
        ("inverse_dynamics",),
        ("laevo_torque_series",),
        ("decompose_torque",),
        ("lumbar_effort_report",),
    ],
    "posture": [
        ("thorax_flexion_deg",),
        ("segment_series",),
        ("summarize",),
        ("posture_profile",),
        ("tukey_whiskers",),
    ],
    "biosignals": [
        ("emg_envelope",),
        ("emg_change_pct",),
        ("detect_r_peaks",),
        ("heart_rate_stats",),
    ],
    "surveys": [
        ("load_schema",),
        ("parse_response",),
        ("validate",),
        ("construct_scores",),
        ("borg_summary",),
    ],
    # the root span, and the parent that identifies the back-flexion calls
    "pipeline": [("run_pipeline",), ("run_motion_analysis",)],
}
LAYERS = tuple(TARGETS)
ROOT_SPAN = "pipeline.run_pipeline"
IO_WRITES = ("io.write_csv", "io.write_joint_trajectory", "io.write_json")
SUMMARY_SPANS = (
    "posture.segment_series",
    "posture.summarize",
    "posture.posture_profile",
    "posture.tukey_whiskers",
)


class TraceError(RuntimeError):
    pass


def _on_result(tracer: "Tracer", name: str, args: tuple, result) -> None:
    """Counts and sizes recorded at the boundary of one wrapped call."""
    facts = tracer.facts
    if name == "io.parse_motion_file":
        facts["motion_frames"] += result.n_frames
    elif name == "io.read_signal_csv":
        facts["signal_bytes"] += os.path.getsize(args[0])
    elif name == "io.sha256_file":
        facts["hashed_bytes"] += os.path.getsize(args[0])
    elif name == "io.read_responses_file":
        facts["responses"] += len(result)
    elif name == "retarget.retarget_trajectory":
        facts["frames"] += result.n_frames
        facts["qp_iterations"] += sum(d.iterations for d in result.diagnostics)
        facts["saturated_frames"] += sum(1 for d in result.diagnostics if d.active_constraints)
        facts["skipped_frames"] += sum(1 for d in result.diagnostics if d.skipped)
    elif name == "biosignals.emg_envelope":
        facts["envelope_samples"] += len(args[0])
    elif name == "biosignals.detect_r_peaks":
        facts["ecg_minutes"] += len(args[0]) / args[1] / 60.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.facts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            _on_result(self, name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items() if n == "exoload" or n.startswith("exoload.")}
        for layer, targets in TARGETS.items():
            module = modules.get(f"exoload.{layer}")
            if module is None:
                raise TraceError(f"module exoload.{layer} is not loaded")
            for target in targets:
                owner = module
                for part in target[:-1]:
                    owner = getattr(owner, part, None)
                original = owner.__dict__.get(target[-1]) if owner is not None else None
                if original is None:
                    raise TraceError(f"exoload.{layer}.{'.'.join(target)} no longer exists")
                # a constructor's span carries the class name
                name = ".".join((layer,) + tuple(p for p in target if p != "__init__"))
                wrapped = self._wrap(name, original)
                if len(target) > 1:  # a method: patch the class itself
                    self._patch(owner, target[-1], wrapped)
                    continue
                # a function: patch every namespace that bound this object
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def durations(self) -> list[float]:
        return [end - start for _, start, end, _ in self.spans]

    def self_times(self) -> list[float]:
        out = self.durations()
        for (_, start, end, parent) in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of one traced run (see bench/README.md)."""
        spans, facts = self.spans, self.facts
        roots = [i for i, s in enumerate(spans) if s[3] < 0]
        if len(roots) != 1 or spans[roots[0]][0] != ROOT_SPAN:
            raise TraceError(f"expected one root span {ROOT_SPAN}, got {[spans[i][0] for i in roots]}")
        dur = self.durations()
        total = dur[roots[0]]
        layer_self: dict[str, float] = defaultdict(float)
        for (name, *_), s in zip(spans, self.self_times()):
            layer_self[name.split(".", 1)[0]] += s
        inclusive: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, _, _, parent), d in zip(spans, dur):
            # a call nested in a call of the same name is already covered
            if parent < 0 or spans[parent][0] != name:
                inclusive[name] += d
            calls[name] += 1

        def outermost(names: tuple[str, ...]) -> float:
            return sum(
                d for (n, _, _, p), d in zip(spans, dur) if n in names and (p < 0 or spans[p][0] not in names)
            )

        def per(value: float, base: float) -> float:
            return value / base if base else 0.0

        frames = facts["frames"]
        back_flexion = sum(
            d
            for (n, _, _, p), d in zip(spans, dur)
            if n in ("skeleton.KinematicState", "posture.thorax_flexion_deg")
            and p >= 0
            and spans[p][0] == "pipeline.run_motion_analysis"
        )
        mb = 1024.0 * 1024.0
        out = {
            "io.parse_motion_us_per_frame": 1e6 * per(inclusive["io.parse_motion_file"], facts["motion_frames"]),
            "io.read_signal_mb_per_s": per(facts["signal_bytes"] / mb, inclusive["io.read_signal_csv"]),
            "io.read_responses_ms": 1e3 * inclusive["io.read_responses_file"],
            "io.sha256_mb_per_s": per(facts["hashed_bytes"] / mb, inclusive["io.sha256_file"]),
            "io.write_ms": 1e3 * outermost(IO_WRITES),
            "skeleton.kinematic_states": float(calls["skeleton.KinematicState"]),
            "skeleton.kinematic_state_us": 1e6
            * per(inclusive["skeleton.KinematicState"], calls["skeleton.KinematicState"]),
            "skeleton.jacobian_calls_per_frame": per(calls["skeleton.KinematicState.jacobian"], frames),
            "retarget.ms_per_frame": 1e3 * per(inclusive["retarget.retarget_trajectory"], frames),
            "retarget.qp_iterations_per_frame": per(facts["qp_iterations"], frames),
            "retarget.saturated_frames": float(facts["saturated_frames"]),
            "retarget.skipped_frames": float(facts["skipped_frames"]),
            "qp.solves": float(calls["qp.solve_ls_qp"]),
            "qp.us_per_solve": 1e6 * per(inclusive["qp.solve_ls_qp"], calls["qp.solve_ls_qp"]),
            "dynamics.derivatives_ms": 1e3 * inclusive["dynamics.estimate_derivatives"],
            "dynamics.inverse_dynamics_ms_per_frame": 1e3
            * per(
                inclusive["dynamics.net_lumbar_series"] - inclusive["dynamics.estimate_derivatives"],
                frames,
            ),
            "dynamics.exoskeleton_ms": 1e3 * inclusive["dynamics.laevo_torque_series"],
            "dynamics.effort_report_ms": 1e3 * inclusive["dynamics.lumbar_effort_report"],
            "posture.back_flexion_ms_per_frame": 1e3 * per(back_flexion, frames),
            "posture.summaries_ms": 1e3 * outermost(SUMMARY_SPANS),
            "biosignals.envelope_msamples_per_s": per(
                facts["envelope_samples"] / 1e6, inclusive["biosignals.emg_envelope"]
            ),
            "biosignals.r_peaks_ms_per_min": 1e3
            * per(inclusive["biosignals.detect_r_peaks"], facts["ecg_minutes"]),
            "surveys.schema_loads": float(calls["surveys.load_schema"]),
            "surveys.us_per_response": 1e6 * per(layer_self["surveys"], facts["responses"]),
        }
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = 1e3 * layer_self[layer]
        out["trace.total_s"] = total
        out["trace.self_sum_error_s"] = sum(layer_self.values()) - total
        return out
