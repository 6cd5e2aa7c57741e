"""Command-line interface.

One command, ``pipeline``, runs every branch that the JSON session config
named by ``--config`` holds (motion, EMG, ECG, survey) through
``run_pipeline``, which writes every output file. The config alone chooses
the branches: a run of a subset is a config that holds only that subset.
Every session setting, the seed the manifest records included, comes from
the config file, and the method's settings are the code's constants;
``--output-dir`` overrides only where the bundle goes.

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

from .errors import NumericalError, ValidationError
from .pipeline import SessionConfig, load_config, run_pipeline

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
    p = sub.add_parser("pipeline", help="run every analysis branch of the config and emit the report bundle")
    p.add_argument("--config", help="session config JSON")
    p.add_argument("--output-dir", help="override the config output directory")
    return parser


def _load_session(args: argparse.Namespace) -> SessionConfig:
    if not args.config:
        raise ValidationError("no config given: pass --config")
    config = load_config(args.config)
    if args.output_dir:
        return dataclasses.replace(config, output_dir=Path(args.output_dir))
    return config


def _cmd_analysis(config: SessionConfig) -> None:
    """Run the pipeline on the config and list the files it wrote."""
    bundle = run_pipeline(config)
    for key in sorted(bundle.files):
        print(f"{key}: {bundle.files[key]}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _cmd_analysis(_load_session(args))
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
