"""End-to-end analysis pipeline: retarget captured motion, estimate joint
torques, apply the exoskeleton model, decompose the lumbar load, summarize
postures and torques per trial segment, process EMG/ECG recordings, score
questionnaires, and emit a deterministic report bundle.

Reruns on identical inputs and configuration produce byte-identical output
files: no timestamps, no randomness (the accepted ``seed`` is only recorded in
the manifest), stable orderings throughout.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import io as eio
from .anthropometry import AnthropometricProfile, load_table_file
from .biosignals import detect_r_peaks, emg_change_pct, heart_rate_stats, settled_envelope
from .dynamics import (
    LaevoModel,
    TorqueSeries,
    check_sampling,
    decompose_torque,
    laevo_torque_series,
    load_exoskeleton_params,
    lumbar_effort_report,
    net_lumbar_series,
    time_derivative,
)
from .errors import REQUIRED, JsonFields, ValidationError, prefixed
from .posture import (
    POSTURE_THRESHOLDS_DEG,
    AnnotationSegment,
    DistributionSummary,
    TrialAnnotation,
    posture_profile,
    segment_series,
    summarize,
    thorax_flexion_deg,
    tukey_whiskers,
)
from .retarget import CapturedTrajectory, RetargetResult, retarget_trajectory
from .skeleton import KinematicState, SkeletonModel, build_model
from .surveys import (
    borg_summary,
    construct_scores,
    format_mean_stdev,
    load_schema,
)

PACKAGE_VERSION = "0.1.0"

SUMMARY_HEADER = (
    "trial",
    "label",
    "channel",
    "n",
    "mean",
    "stdev",
    "min",
    "q1",
    "median",
    "q3",
    "max",
    "whisker_low_1p5iqr",
    "whisker_high_1p5iqr",
)


@dataclass
class EmgConfig:
    """The EMG branch of a session config: a baseline recording and the trials."""

    baseline_file: Path
    trial_files: dict[str, Path]


@dataclass
class EcgConfig:
    """The ECG branch of a session config: the recordings and the channel to read."""

    files: dict[str, Path]
    channel: str | None = None


@dataclass
class SurveyConfig:
    """The survey branch of a session config: one responses file."""

    responses_file: Path


@dataclass
class SessionConfig:
    """One session as its config file states it: inputs, branches and output directory."""

    profile: AnthropometricProfile
    output_dir: Path
    motion_file: Path | None = None
    annotation_file: Path | None = None
    coefficient_table_file: Path | None = None
    segment_aliases_file: Path | None = None
    exoskeleton: str = "none"  # none | laevo
    exoskeleton_params_file: Path | None = None
    emg: EmgConfig | None = None
    ecg: EcgConfig | None = None
    survey: SurveyConfig | None = None
    seed: int = 0
    config_path: Path | None = None

    def __post_init__(self) -> None:
        if self.exoskeleton not in ("none", "laevo"):
            raise ValidationError(f"exoskeleton must be 'none' or 'laevo', got {self.exoskeleton!r}")


# the top-level settings that only the motion branch reads
MOTION_FIELDS = (
    "annotation_file",
    "segment_aliases_file",
    "exoskeleton",
    "exoskeleton_params_file",
)


def load_config(path: str | Path) -> SessionConfig:
    """A session config file. Paths in it are relative to its directory. A
    field it does not define, at any level, is an error, and so is a setting
    no run of it reads: a motion setting without a ``motion_file``, an
    ``exoskeleton_params_file`` without the ``laevo`` model, or an EMG or ECG
    branch whose file map is empty."""
    path = Path(path)
    top = JsonFields(eio.load_json_file(path), path)

    def file(fields: JsonFields, key: str, default: object = None) -> Path | None:
        name = fields.get(key, str, default)
        return None if name is None else path.parent / name

    def files(fields: JsonFields, key: str) -> dict[str, Path]:
        return {label: path.parent / name for label, name in fields.get(key, dict).entries(str).items()}

    emg = ecg = survey = None
    if (raw := top.get("emg", dict, None)) is not None:
        emg = EmgConfig(
            baseline_file=file(raw, "baseline_file", REQUIRED), trial_files=files(raw, "trial_files")
        )
    if (raw := top.get("ecg", dict, None)) is not None:
        ecg = EcgConfig(files=files(raw, "files"), channel=raw.get("channel", str, None))
    if (raw := top.get("survey", dict, None)) is not None:
        survey = SurveyConfig(responses_file=file(raw, "responses_file", REQUIRED))
    prof = top.get("profile", dict)
    settings = dict(
        profile=AnthropometricProfile(
            height_m=prof.get("height_m", float, positive=True),
            mass_kg=prof.get("mass_kg", float, positive=True),
        ),
        output_dir=file(top, "output_dir", REQUIRED),
        motion_file=file(top, "motion_file"),
        annotation_file=file(top, "annotation_file"),
        coefficient_table_file=file(prof, "coefficient_table_file"),
        segment_aliases_file=file(top, "segment_aliases_file"),
        exoskeleton=top.get("exoskeleton", str, "none"),
        exoskeleton_params_file=file(top, "exoskeleton_params_file"),
        emg=emg,
        ecg=ecg,
        survey=survey,
        seed=top.get("seed", int, 0),
        config_path=path,
    )
    with prefixed(path):  # SessionConfig's own check names no file
        config = SessionConfig(**settings)
    top.reject_unread()
    if config.motion_file is None:
        motion_fields = [(top, key) for key in MOTION_FIELDS] + [(prof, "coefficient_table_file")]
        if given := [fields.prefix + key for fields, key in motion_fields if key in fields.data]:
            raise ValidationError(f"{path}: no motion_file, so no run reads {', '.join(given)}")
    if emg is not None and not emg.trial_files:
        raise ValidationError(f"{path}: emg.trial_files names no file, so no run reads emg.baseline_file")
    if ecg is not None and not ecg.files:
        raise ValidationError(f"{path}: ecg.files names no file, so the ECG branch reads nothing")
    if "exoskeleton_params_file" in top.data and config.exoskeleton != "laevo":
        raise ValidationError(
            f"{path}: exoskeleton_params_file is read only with exoskeleton 'laevo', "
            f"got {config.exoskeleton!r}"
        )
    return config


def config_echo(config: SessionConfig) -> dict:
    """Resolved configuration as recorded in the manifest: every field of
    ``SessionConfig``, paths as strings."""

    def plain(value: object) -> object:
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return str(value) if isinstance(value, Path) else value

    return plain(asdict(config))


def input_files(config: SessionConfig) -> list[Path]:
    """Every file a run of ``config`` reads, for the manifest. Optional
    files count when they are set (``load_config`` allows a device
    parameter file only with the ``laevo`` model); a biosignal's metadata
    sidecar counts when it exists."""
    files = [config.config_path]
    if config.motion_file is not None:
        files += [
            config.coefficient_table_file,
            config.motion_file,
            config.segment_aliases_file,
            config.annotation_file,
            config.exoskeleton_params_file,
        ]
    signals = []
    if config.emg is not None:
        signals += [config.emg.baseline_file, *config.emg.trial_files.values()]
    if config.ecg is not None:
        signals += config.ecg.files.values()
    for path in signals:
        sidecar = eio.sidecar_path(path)
        files += [path, sidecar] if sidecar.exists() else [path]
    if config.survey is not None:
        files.append(config.survey.responses_file)
    return [path for path in files if path is not None]


@dataclass
class ReportBundle:
    """The output directory of a run and every file the run wrote there, by key."""

    output_dir: Path
    files: dict[str, Path]


def emit_boxplot_data(
    summaries: list[tuple[str, str, str, DistributionSummary]],
) -> list[dict]:
    """Plot-ready boxplot records (figure, label, channel, five-number
    summary), ordered exactly as supplied."""
    out = []
    for figure, label, channel, s in summaries:
        out.append(
            {
                "figure": figure,
                "label": label,
                "channel": channel,
                "n": s.n,
                "min": s.minimum,
                "q1": s.q1,
                "median": s.median,
                "q3": s.q3,
                "max": s.maximum,
            }
        )
    return out


def _stage(name: str):
    return prefixed(f"stage {name}")


def _summary_row(trial: str, label: str, channel: str, s: DistributionSummary) -> list:
    lo, hi = tukey_whiskers(s)
    return [trial, label, channel, s.n, s.mean, s.stdev, s.minimum, s.q1, s.median, s.q3, s.maximum, lo, hi]


def build_session_model(config: SessionConfig) -> SkeletonModel:
    """The subject's model, scaled by the config's coefficient table file,
    or else by the bundled table."""
    file = config.coefficient_table_file
    if file is None:
        return build_model(config.profile)
    table = load_table_file(file)
    with prefixed(file):  # the model's segment check names no file
        return build_model(config.profile, table)


def _segment_aliases(config: SessionConfig) -> dict[str, str]:
    if config.segment_aliases_file is None:
        return {}
    payload = eio.load_json_file(config.segment_aliases_file)
    return JsonFields(payload, config.segment_aliases_file).entries(str)


@dataclass
class MotionInputs:
    """Everything the motion branch reads, checked before retargeting starts."""

    model: SkeletonModel
    captured: CapturedTrajectory
    annotation: TrialAnnotation
    exoskeleton: LaevoModel | None


def read_motion_inputs(config: SessionConfig) -> MotionInputs:
    """Build the model, then read and check every motion input: the
    capture, its annotation and the exoskeleton parameters."""
    with _stage("model"):
        model = build_session_model(config)
    with _stage("parse-motion"):
        aliases = _segment_aliases(config)
        captured = eio.parse_motion_file(config.motion_file, aliases=aliases)
        # the rule estimate_derivatives applies, at the step the motion run takes
        with prefixed(config.motion_file):
            check_sampling(captured.n_frames, 1.0 / captured.sample_rate)
    with _stage("parse-annotation"):
        if config.annotation_file is not None:
            annotation = eio.parse_annotation_file(config.annotation_file)
            # every window against the recorded range, by the rule the summaries apply
            with prefixed(config.annotation_file):
                segment_series(captured.times, captured.times, annotation)
        else:
            times = captured.times
            end = float(times[-1]) + 1.0 / captured.sample_rate
            # a capture without an annotation is one control window
            annotation = TrialAnnotation("session", (AnnotationSegment("control", float(times[0]), end),))
    with _stage("parse-exoskeleton"):
        file = config.exoskeleton_params_file
        if config.exoskeleton == "none":
            exo = None
        else:
            exo = LaevoModel() if file is None else load_exoskeleton_params(file)
    return MotionInputs(model, captured, annotation, exo)


def run_motion_analysis(config: SessionConfig, inputs: MotionInputs) -> tuple[RetargetResult, TorqueSeries]:
    """Retarget, differentiate, run inverse dynamics, apply the exoskeleton
    model and decompose the lumbar torque: the retargeted trajectory and the
    torque series."""
    model, captured, exo = inputs.model, inputs.captured, inputs.exoskeleton
    # the capture's errors here name no file
    with _stage("retarget"), prefixed(config.motion_file):
        result = retarget_trajectory(model, captured)
    dt = 1.0 / captured.sample_rate
    with _stage("dynamics"):
        kinematics = KinematicState(model, result.configurations)
        tau_net = net_lumbar_series(kinematics, dt)
    with _stage("back-flexion"):
        theta = thorax_flexion_deg(kinematics.segment_rotation("thorax"))
        theta_dot = time_derivative(theta, dt)
    with _stage("exoskeleton"):
        tau_exo = np.zeros_like(tau_net) if exo is None else laevo_torque_series(exo, theta, theta_dot)
    with _stage("decompose"):
        torque = decompose_torque(result.times, tau_net, tau_exo, theta, theta_dot)
    return result, torque


# a branch's distributions, each as (figure, label, channel, summary), the one
# record its summary tables and the boxplot records come from; and its CSV
# tables by key
Boxplots = list[tuple[str, str, str, DistributionSummary]]
Tables = dict[str, tuple[Sequence[str], Iterable[Sequence[object]]]]


def _summary_table(boxplots: Boxplots, trial: str) -> tuple[Sequence[str], list[list]]:
    return SUMMARY_HEADER, [_summary_row(trial, label, channel, s) for _, label, channel, s in boxplots]


def _motion_tables(ts: TorqueSeries, annotation: TrialAnnotation) -> tuple[Boxplots, Tables]:
    trial = annotation.trial_id
    tables: Tables = {
        "torque_series": (
            ["time_s", "theta_deg", "theta_dot_deg_s", "tau_net_nm", "tau_exo_nm", "tau_human_nm"],
            np.column_stack(
                [ts.times, ts.theta_deg, ts.theta_dot_deg_s, ts.tau_net, ts.tau_exo, ts.tau_human]
            ),
        )
    }
    with _stage("angle-summaries"):
        angles, fraction_rows = [], []
        for label, values in segment_series(ts.times, ts.theta_deg, annotation):
            angles.append(("back_flexion", label, "back_flexion_deg", summarize(values)))
            profile = posture_profile(values)
            fraction_rows.append([trial, label] + [profile[t] for t in POSTURE_THRESHOLDS_DEG])
        tables["angle_summaries"] = _summary_table(angles, trial)
        tables["posture_fractions"] = (
            ["trial", "label"] + [f"frac_above_{int(t)}deg" for t in POSTURE_THRESHOLDS_DEG],
            fraction_rows,
        )
    with _stage("torque-summaries"):
        rows, reductions = lumbar_effort_report(ts, annotation)
        torques = [("lumbar_torque", label, channel, s) for label, channel, s in rows]
        tables["torque_summaries"] = _summary_table(torques, trial)
        tables["torque_reductions"] = (
            ["trial", "label", "median_reduction_pct"],
            [[trial, label, pct] for label, pct in reductions.items()],
        )
    return angles + torques, tables


def _emg_tables(emg: EmgConfig) -> tuple[Boxplots, Tables]:
    boxplots: Boxplots = []
    with _stage("emg"):
        # the readers name their file; the prefix names it for the processing
        baseline = eio.read_emg_file(emg.baseline_file)
        # each record drops its own settle-in, at its own sample rate
        with prefixed(emg.baseline_file):
            base_env = {
                name: settled_envelope(samples, baseline.sample_rate)
                for name, samples in baseline.channels.items()
            }
        rows = []
        for label, file in emg.trial_files.items():
            record = eio.read_emg_file(file)
            with prefixed(file):
                for name in sorted(set(base_env) | set(record.channels)):
                    if name not in record.channels or name not in base_env:
                        rows.append([label, name, "NA"])
                        continue
                    env = settled_envelope(record.channels[name], record.sample_rate)
                    rows.append([label, name, emg_change_pct(env, base_env[name])])
                    boxplots.append(("emg_envelope", label, name, summarize(env)))
    return boxplots, {"emg_changes": (["label", "channel", "change_pct"], rows)}


def _ecg_tables(ecg: EcgConfig) -> tuple[Boxplots, Tables]:
    boxplots: Boxplots = []
    with _stage("ecg"):
        for label, file in ecg.files.items():
            record = eio.read_ecg_file(file, ecg.channel)
            with prefixed(file):
                beats = detect_r_peaks(record.samples, record.sample_rate)
                boxplots.append(("heart_rate", label, "heart_rate_bpm", heart_rate_stats(beats)))
        return boxplots, {"heart_rate": _summary_table(boxplots, "session")}


def _survey_tables(survey: SurveyConfig) -> Tables:
    with _stage("survey"):
        responses = eio.read_responses_file(survey.responses_file)
        construct_rows, borg_rows = [], []
        for qid in sorted({r.questionnaire_id for r in responses}):
            schema = load_schema(qid)
            answered = [r for r in responses if r.questionnaire_id == qid]
            groups: dict[str, list] = {}
            for response in answered:
                groups.setdefault(response.context.exoskeleton, []).append(response)
            for exo_type in sorted(groups):
                for c in construct_scores(schema, groups[exo_type], skip_empty=True):
                    display = format_mean_stdev(c.mean, c.stdev)
                    construct_rows.append([qid, exo_type, c.construct, c.n, c.mean, c.stdev, display])
            for s in borg_summary(schema, answered):
                display = format_mean_stdev(s.mean, s.stdev)
                borg_rows.append([qid, s.zone, s.position, s.n, s.mean, s.stdev, display])
    return {
        "survey_constructs": (
            ["questionnaire", "exoskeleton", "construct", "n", "mean", "stdev", "display"],
            construct_rows,
        ),
        "survey_borg": (["questionnaire", "zone", "position", "n", "mean", "stdev", "display"], borg_rows),
    }


def run_pipeline(config: SessionConfig) -> ReportBundle:
    """Execute every configured branch, then write the report bundle. Only
    ``output_dir`` is made before the branches run, so a run that fails
    before the report stage writes no file and leaves an earlier bundle
    there as it was. A file the report stage cannot write is a validation
    error naming it; the files written before it stay. A bundle file that
    is one of the run's inputs is a validation error naming both, raised
    before any file is written.

    The motion inputs are read first and the motion compute, the longest
    branch, runs last, so every input file is read and checked before
    retargeting starts. The bundle lists the branches in config order:
    motion, EMG, ECG, survey."""
    out_dir = Path(config.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {out_dir}: {exc}") from exc
    motion_inputs = None if config.motion_file is None else read_motion_inputs(config)
    branches: list[tuple[Boxplots, Tables]] = []
    if config.emg is not None:
        branches.append(_emg_tables(config.emg))
    if config.ecg is not None:
        branches.append(_ecg_tables(config.ecg))
    if config.survey is not None:
        branches.append(([], _survey_tables(config.survey)))
    if motion_inputs is not None:
        retargeted, torque = run_motion_analysis(config, motion_inputs)
        branches.insert(0, _motion_tables(torque, motion_inputs.annotation))
    boxplots = [record for records, _ in branches for record in records]
    tables = {key: table for _, branch_tables in branches for key, table in branch_tables.items()}

    with _stage("report"):
        inputs = sorted({str(name) for name in input_files(config)})
        manifest = {
            "package_version": PACKAGE_VERSION,
            "seed": config.seed,
            "config": config_echo(config),
            "inputs": {name: eio.sha256_file(name) for name in inputs},
        }
        csv_keys = (["joints"] if motion_inputs is not None else []) + list(tables)
        files = {key: out_dir / f"{key}.csv" for key in csv_keys}
        files.update(boxplot_data=out_dir / "boxplot_data.json", manifest=out_dir / "manifest.json")
        # an input may sit in output_dir under a bundle file's name
        for output in filter(Path.exists, files.values()):
            for name in inputs:
                if os.path.samefile(output, name):
                    raise ValidationError(f"output {output} would overwrite the input {name}")
        if motion_inputs is not None:
            eio.write_joint_trajectory(
                files["joints"], motion_inputs.model, torque.times, retargeted.configurations
            )
        for key, (header, rows) in tables.items():
            eio.write_csv(files[key], header, rows)
        eio.write_json(files["boxplot_data"], emit_boxplot_data(boxplots))
        eio.write_json(files["manifest"], manifest)

    return ReportBundle(out_dir, files)
