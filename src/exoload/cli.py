"""Command-line interface.

Subcommands mirror the analysis chain and compose through a shared JSON
session config: ``retarget``, ``dynamics``, ``posture``, ``emg``, ``ecg``,
``survey``, ``report`` and the all-in-one ``pipeline``. Every subcommand takes
``--config`` (or the EXOLOAD_CONFIG environment variable) plus overrides.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import io as eio
from .errors import ExoloadError, NumericalError, ValidationError
from .pipeline import (
    SessionConfig,
    emit_boxplot_data,
    load_config,
    run_motion_analysis,
    run_pipeline,
)
from .posture import DistributionSummary

CONFIG_ENV_VAR = "EXOLOAD_CONFIG"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exoload",
        description=(
            "Lumbar-load analysis of repositioning maneuvers on a scaled digital "
            "human model, with exoskeleton assistance estimation, biosignal "
            "processing and questionnaire scoring."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--config",
            default=os.environ.get(CONFIG_ENV_VAR),
            help=f"session config JSON (default: ${CONFIG_ENV_VAR})",
        )
        p.add_argument("--output-dir", help="override the config output directory")
        p.add_argument("--motion", help="override the motion capture file")
        p.add_argument("--annotation", help="override the annotation file")
        p.add_argument("--exoskeleton", choices=["none", "laevo"], help="override the device model")
        p.add_argument("--seed", type=int, help="recorded in the manifest; no stage is stochastic")
        return p

    add("pipeline", "run every configured analysis branch and emit the report bundle")
    add("retarget", "replay the captured motion on the model; write joints.csv")
    add("dynamics", "retarget plus inverse dynamics and torque decomposition")
    add("posture", "back-flexion summaries and postural exposure fractions")
    add("emg", "EMG envelope changes against the baseline recording")
    add("ecg", "R-peak detection and heart-rate statistics")
    add("survey", "validate and score questionnaire responses")
    add("report", "assemble boxplot data and the manifest from existing summaries")
    return parser


def _load_session(args: argparse.Namespace) -> SessionConfig:
    if not args.config:
        raise ValidationError(
            f"no config given: pass --config or set ${CONFIG_ENV_VAR}"
        )
    config = load_config(args.config)
    updates = {}
    if args.output_dir:
        updates["output_dir"] = Path(args.output_dir)
    if args.motion:
        updates["motion_file"] = Path(args.motion)
    if args.annotation:
        updates["annotation_file"] = Path(args.annotation)
    if args.exoskeleton:
        updates["exoskeleton"] = args.exoskeleton
    if args.seed is not None:
        updates["seed"] = args.seed
    return dataclasses.replace(config, **updates) if updates else config


def _prune(config: SessionConfig, keep: set[str]) -> SessionConfig:
    """Restrict a config to one branch so stage commands stay composable."""
    updates = {}
    if "motion" not in keep:
        updates["motion_file"] = None
    if "emg" not in keep:
        updates["emg"] = None
    if "ecg" not in keep:
        updates["ecg"] = None
    if "survey" not in keep:
        updates["survey"] = None
    return dataclasses.replace(config, **updates)


def _require(config: SessionConfig, field: str) -> None:
    if getattr(config, field) is None:
        raise ValidationError(f"this subcommand needs {field!r} in the session config")


def _cmd_pipeline(config: SessionConfig) -> None:
    bundle = run_pipeline(config)
    for key in sorted(bundle.files):
        print(f"{key}: {bundle.files[key]}")


def _cmd_retarget(config: SessionConfig) -> None:
    _require(config, "motion_file")
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model, motion = run_motion_analysis(_prune(config, {"motion"}))
    path = out_dir / "joints.csv"
    eio.write_joint_trajectory(path, model, motion.times, motion.retarget.configurations)
    skipped = sum(1 for d in motion.retarget.diagnostics if d.skipped)
    print(f"joints: {path} ({motion.retarget.n_frames} frames, {skipped} skipped)")


def _cmd_dynamics(config: SessionConfig) -> None:
    _require(config, "motion_file")
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _, motion = run_motion_analysis(_prune(config, {"motion"}))
    ts = motion.torque
    path = out_dir / "torque_series.csv"
    eio.write_csv(
        path,
        ["time_s", "theta_deg", "theta_dot_deg_s", "tau_net_nm", "tau_exo_nm", "tau_human_nm"],
        zip(ts.times, ts.theta_deg, ts.theta_dot_deg_s, ts.tau_net, ts.tau_exo, ts.tau_human),
    )
    print(f"torque_series: {path}")


def _run_branch(config: SessionConfig, keep: str, required_field: str) -> None:
    _require(config, required_field)
    bundle = run_pipeline(_prune(config, {keep}))
    for key in sorted(bundle.files):
        print(f"{key}: {bundle.files[key]}")


def _cmd_report(config: SessionConfig) -> None:
    """Rebuild boxplot data from summary CSVs already present in the output
    directory."""
    out_dir = Path(config.output_dir)
    sources = {
        "angle_summaries.csv": "back_flexion",
        "torque_summaries.csv": "lumbar_torque",
        "heart_rate.csv": "heart_rate",
    }
    records = []
    for filename, figure in sources.items():
        path = out_dir / filename
        if not path.exists():
            continue
        with open(path, encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                summary = DistributionSummary(
                    n=int(row["n"]),
                    mean=float(row["mean"]),
                    stdev=float(row["stdev"]),
                    minimum=float(row["min"]),
                    q1=float(row["q1"]),
                    median=float(row["median"]),
                    q3=float(row["q3"]),
                    maximum=float(row["max"]),
                )
                records.append((figure, row["label"], row["channel"], summary))
    if not records:
        raise ValidationError(f"no summary CSVs found in {out_dir}")
    path = out_dir / "boxplot_data.json"
    eio.write_json(path, emit_boxplot_data(records))
    print(f"boxplot_data: {path}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_session(args)
        if args.command == "pipeline":
            _cmd_pipeline(config)
        elif args.command == "retarget":
            _cmd_retarget(config)
        elif args.command == "dynamics":
            _cmd_dynamics(config)
        elif args.command == "posture":
            _require(config, "motion_file")
            _cmd_pipeline(_prune(config, {"motion"}))
        elif args.command == "emg":
            _run_branch(config, "emg", "emg")
        elif args.command == "ecg":
            _run_branch(config, "ecg", "ecg")
        elif args.command == "survey":
            _run_branch(config, "survey", "survey")
        elif args.command == "report":
            _cmd_report(config)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        # a numerical failure no stage turned into a NumericalError
        print(f"error: {args.command}: numerical failure: {exc!r}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ExoloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
