"""Command-line interface.

One subcommand per branch of the JSON session config (``motion``, ``emg``,
``ecg``, ``survey``) plus ``pipeline``, which runs every branch. Each takes
``--config`` and runs its branch through ``run_pipeline``, which writes every
output file. Every session setting, the seed the manifest records included,
comes from the config file, and the method's settings are the code's
constants; ``--output-dir`` overrides only where the bundle goes.

Exit codes: 0 success, 2 validation error, 3 numerical failure.

``python -m exoload.cli`` and the ``exoload`` script run ``entry_point``,
which freezes the garbage collector after ``main`` returns, so the
interpreter's final collections skip every object the run made. Library
callers of ``main`` keep their collector as it was.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import sys
from pathlib import Path

import numpy as np

from .errors import ExoloadError, NumericalError, ValidationError
from .pipeline import SessionConfig, load_config, run_pipeline

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

# the optional config branches, and the one each subcommand runs (None: all)
BRANCHES = ("motion_file", "emg", "ecg", "survey")
SUBCOMMAND_BRANCH = {
    "pipeline": None,
    "motion": "motion_file",
    "emg": "emg",
    "ecg": "ecg",
    "survey": "survey",
}


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
        p.add_argument("--config", help="session config JSON")
        p.add_argument("--output-dir", help="override the config output directory")
        return p

    add("pipeline", "run every configured analysis branch and emit the report bundle")
    add("motion", "retargeting, lumbar torques and back-flexion summaries: the motion bundle")
    add("emg", "EMG envelope changes against the baseline recording")
    add("ecg", "R-peak detection and heart-rate statistics")
    add("survey", "validate and score questionnaire responses")
    return parser


def _load_session(args: argparse.Namespace) -> SessionConfig:
    if not args.config:
        raise ValidationError("no config given: pass --config")
    config = load_config(args.config)
    if args.output_dir:
        return dataclasses.replace(config, output_dir=Path(args.output_dir))
    return config


def _cmd_analysis(config: SessionConfig, command: str) -> None:
    """Run the subcommand's config branch (every branch for ``pipeline``)
    through ``run_pipeline`` and list the files it wrote."""
    branch = SUBCOMMAND_BRANCH[command]
    if branch is not None:
        if getattr(config, branch) is None:
            raise ValidationError(f"{config.config_path}: the {command} subcommand needs field {branch!r}")
        config = dataclasses.replace(config, **{b: None for b in BRANCHES if b != branch})
    bundle = run_pipeline(config)
    for key in sorted(bundle.files):
        print(f"{key}: {bundle.files[key]}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _cmd_analysis(_load_session(args), args.command)
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


def entry_point() -> int:
    """``main`` for a process that exits when it returns: ``gc.freeze()``
    moves every object to the permanent generation, which the collections
    at interpreter exit do not traverse."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry_point())
