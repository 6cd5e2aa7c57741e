#!/usr/bin/env python3
"""Session benchmark for ``exoload pipeline``.

    python3 bench/run.py --workload sway|shuffle|signals|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. For one workload it generates the
seeded session (bench/generate.py), times set-up in fresh interpreters
(bench/setup_probe.py), then for ``--seconds`` runs whole rounds of
operations: an operation is one ``python -m exoload.cli pipeline`` subprocess
together with the checks on its outputs (bench/checks.py). One pipeline
subprocess runs at a time. With ``--trace 1`` each round also runs
``pipeline.run_pipeline`` in this process three times: untraced, with the
span wrappers of bench/tracing.py, and untraced again; the per-layer metrics
are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a readable summary goes to
standard error. Generated inputs, bundles, the run record and the spans go
to bench/work/ (ignored by git). See bench/README.md for the workloads,
metrics and tolerances.
"""

from __future__ import annotations

import os
import sys

# fixed before numpy loads, here and in every subprocess
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = BENCH / "work"
WORKLOADS = ("sway", "shuffle", "signals")
SETUP_REPEATS = 3
# timed pipeline operations per round; a signals round also runs the control
# session and the three probes, so it times three operations to amortise them
MAIN_PER_ROUND = {"sway": 1, "shuffle": 1, "signals": 3}
OP_TIMEOUT_S = 90.0
RUN_DEADLINE_S = 150.0  # no round starts after this, so a run ends within 180 s

def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "exoload" / "cli.py").is_file():
    fail(f"no exoload sources under {SRC}; run from the root of a source checkout")
# metric names and units come from the benchmark declaration
DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in DECLARATION["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in DECLARATION["per_layer"]}
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import exoload  # noqa: E402
import exoload.pipeline as pipeline_module  # noqa: E402

if Path(exoload.__file__).resolve().parent != SRC / "exoload":
    fail(f"imported exoload from {exoload.__file__}, not from {SRC}")

import checks  # noqa: E402
import generate  # noqa: E402
import tracing  # noqa: E402


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


@dataclasses.dataclass
class Process:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_process(argv: list[str], log_stem: Path) -> Process:
    """Run one child to completion; wall time from launch to exit, peak RSS
    of that child alone from its wait4 rusage."""
    out_path, err_path = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:  # interrupted before the child was reaped
                proc.kill()
                proc.wait()
    return Process(
        returncode=proc.returncode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # kB on Linux
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def rel(path: Path) -> str:
    return os.path.relpath(path, ROOT)


def environment(sessions: list[generate.Session]) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={
                **child_env(),
                "GIT_CEILING_DIRECTORIES": str(ROOT.parent),  # never a repository above the checkout
                "GIT_CONFIG_NOSYSTEM": "1",
                "GIT_CONFIG_GLOBAL": os.devnull,
            },
            capture_output=True,
            text=True,
            timeout=10,
        )
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_sha = None
    return {
        "git_sha": git_sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "inputs": {rel(p): checks.sha256(p) for s in sessions for p in s.inputs},
    }


class Workload:
    """One benchmark run of one workload."""

    def __init__(self, name: str, seed: int, seconds: float, traced: bool) -> None:
        self.name, self.seed, self.seconds, self.traced = name, seed, seconds, traced
        self.dir = WORK / f"{name}-s{seed}"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # output checks that did not hold
        self.ops: list[dict] = []
        self.walls: list[float] = []
        self.rss: list[float] = []
        self.accuracy: dict[str, float] = {}
        self.digests: dict[str, dict] = {}
        self.layer_rounds: list[dict] = []
        self.overheads: list[float] = []
        self.spans: list[list] = []

    # -- operations ------------------------------------------------------------

    def cli(self, session: generate.Session, tag: str) -> Process:
        self.attempted += 1
        proc = run_process(
            [sys.executable, "-m", "exoload.cli", "pipeline", "--config", rel(session.config)],
            self.dir / "logs" / f"{tag}-{self.attempted}",
        )
        self.ops.append(
            {"op": tag, "exit": proc.returncode, "wall_s": proc.wall_s, "peak_rss_mb": proc.peak_rss_mb}
        )
        return proc

    def checked(self, session: generate.Session, tag: str, timed: bool) -> None:
        """One CLI operation on a clean session, then its output checks: the
        full checks on the first bundle, byte identity with it afterwards."""
        proc = self.cli(session, tag)
        if proc.returncode != 0:
            self.failed += 1
            self.failures.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return
        if timed:
            self.walls.append(proc.wall_s)
            self.rss.append(proc.peak_rss_mb)
        out_dir = session.directory / "out"
        digest = checks.bundle_digest(out_dir)
        if tag in self.digests:
            if digest != self.digests[tag]:
                self.failures.append(f"{tag}: bundle differs from the first round's")
            return
        self.digests[tag] = digest
        metrics: dict[str, float] = {}
        if session.truth["kind"] == "signals":
            found = checks.check_signals(session, out_dir, ROOT, metrics)
        else:
            found = checks.check_motion(session, out_dir, ROOT, metrics)
            if session.name in ("sway", "control") and not found:
                found = checks.check_motion_accuracy(metrics)
            self.accuracy = metrics
        self.failures += [f"{tag}: {f}" for f in found]

    def probe(self, probe: generate.Probe) -> None:
        """A malformed session must be rejected: exit 2 or 3 with the file
        named. Anything else counts as a failed operation."""
        proc = self.cli(probe.session, probe.name)
        named = probe.file.name in proc.stderr
        if proc.returncode not in (2, 3) or not named:
            self.failed += 1
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            self.ops[-1]["note"] = f"exit {proc.returncode}, file named: {named}, {last[0][:200]}"

    def in_process(self, session: generate.Session, tracer: tracing.Tracer | None) -> float:
        out_dir = self.dir / ("inproc-traced" if tracer else "inproc")
        config = dataclasses.replace(pipeline_module.load_config(session.config), output_dir=out_dir)
        gc.collect()
        try:
            if tracer is not None:
                tracer.install()
            start = perf_counter()
            pipeline_module.run_pipeline(config)  # looked up now, so the wrapper is called
            elapsed = perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        return elapsed

    def traced_round(self, session: generate.Session, index: int) -> None:
        tracer = tracing.Tracer()
        # untraced runs on both sides of the traced one, so a drift in machine
        # speed during the round cancels out of the overhead
        before = self.in_process(session, None)
        traced = self.in_process(session, tracer)
        after = self.in_process(session, None)
        self.overheads.append(traced - 0.5 * (before + after))
        metrics = tracer.metrics()
        error = metrics.pop("trace.self_sum_error_s")
        if abs(error) > 1e-6:
            self.failures.append(f"trace: layer self times miss the traced total by {error:.3g} s")
        self.layer_rounds.append(metrics)
        self.spans.append(tracer.spans)
        if index == 0:  # the manifest differs only in the output directory
            cli = checks.bundle_digest(session.directory / "out")
            in_process = checks.bundle_digest(self.dir / "inproc-traced")
            cli.pop("manifest.json", None)
            in_process.pop("manifest.json", None)
            if cli != in_process:
                self.failures.append("trace: the traced bundle differs from the CLI bundle")

    # -- the run ---------------------------------------------------------------

    def run(self) -> dict:
        run_start = perf_counter()
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "logs").mkdir(parents=True)
        main, control, probes = generate.build_workload(self.name, self.seed, self.dir)
        sessions = [main] + ([control] if control else []) + [p.session for p in probes]
        log(f"[{self.name} seed={self.seed}] generated in {perf_counter() - run_start:.2f} s")

        setups = []
        for i in range(SETUP_REPEATS):
            proc = run_process(
                [sys.executable, str(BENCH / "setup_probe.py"), rel(main.config)],
                self.dir / "logs" / f"setup-{i}",
            )
            if proc.returncode != 0:
                fail(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            setups.append({"wall_s": proc.wall_s, **json.loads(proc.stdout.strip().splitlines()[-1])})

        loop_start = perf_counter()
        rounds = 0
        while rounds == 0 or (
            perf_counter() - loop_start < self.seconds and perf_counter() - run_start < RUN_DEADLINE_S
        ):
            for _ in range(MAIN_PER_ROUND[self.name]):
                self.checked(main, self.name, timed=True)
            if control is not None:
                self.checked(control, "control", timed=False)
            for probe in probes:
                self.probe(probe)
            if self.traced:
                self.traced_round(main, rounds)
            rounds += 1
        loop_s = perf_counter() - loop_start
        self.record_digests(sessions)

        med = statistics.median
        if self.traced:
            metrics = {k: med(r[k] for r in self.layer_rounds) for k in self.layer_rounds[0]}
            metrics["setup.import_s"] = med(s["import_s"] for s in setups)
            metrics["setup.build_model_ms"] = med(s["build_model_ms"] for s in setups)
            metrics["trace.overhead_s"] = med(self.overheads)
            units = PER_LAYER_UNITS
        else:
            walls = self.walls or [op["wall_s"] for op in self.ops if op["op"] == self.name]
            rss = self.rss or [op["peak_rss_mb"] for op in self.ops if op["op"] == self.name]
            metrics = {
                "setup_s": med(s["wall_s"] for s in setups),
                "pipeline_s": med(walls),
                "peak_rss_mb": med(rss),
                "joint_rms_deg": self.accuracy.get("joint_rms_deg", float("nan")),
                "lumbar_rms_nm": self.accuracy.get("lumbar_rms_nm", float("nan")),
            }
            units = END_TO_END_UNITS
        if set(metrics) != set(units):
            fail(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
        for key, value in metrics.items():
            if not np.isfinite(value):  # only when every operation it needs failed
                self.failures.append(f"{key} could not be measured")
                metrics[key] = 0.0
        correct = not self.failures

        result = {
            "correct": bool(correct),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
        }
        record = {
            "workload": self.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.traced),
            "rounds": rounds,
            "loop_s": loop_s,
            "run_s": perf_counter() - run_start,
            "environment": environment(sessions),
            "setup": setups,
            "operations": self.ops,
            "accuracy": self.accuracy,
            "check_failures": self.failures,
            "result": result,
        }
        suffix = "-trace" if self.traced else ""
        (self.dir / f"run{suffix}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        if self.traced:
            (self.dir / "spans.json").write_text(
                json.dumps({"columns": ["name", "start", "end", "parent"], "rounds": self.spans}),
                encoding="utf-8",
            )
        if correct:  # a failed run keeps its sessions and bundles for inspection
            for path in self.dir.iterdir():
                if path.is_dir() and path.name != "logs":
                    shutil.rmtree(path)
        self.summary(result, rounds, record["run_s"])
        return result

    def record_digests(self, sessions: list[generate.Session]) -> None:
        """Bundles stay byte-identical across runs of the same program on the
        same inputs: the first such run records their digests, keyed by the
        hashes of the program's sources and of the inputs."""
        key = hashlib.sha256()
        for path in sorted((SRC / "exoload").rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                key.update(f"{path.relative_to(SRC)}:{checks.sha256(path)}\n".encode())
        for session in sessions:
            for path in session.inputs:
                key.update(f"{rel(path)}:{checks.sha256(path)}\n".encode())
        path = WORK / "digests" / f"{self.name}-s{self.seed}-{key.hexdigest()[:16]}.json"
        if not self.digests:
            return
        if path.exists():
            previous = json.loads(path.read_text(encoding="utf-8"))
            for tag, digest in self.digests.items():
                if tag in previous and previous[tag] != digest:
                    self.failures.append(f"{tag}: bundle differs from an earlier run of this seed")
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(self.digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    def summary(self, result: dict, rounds: int, run_s: float) -> None:
        log(
            f"[{self.name} seed={self.seed}] {rounds} rounds in {run_s:.1f} s: "
            f"attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}"
        )
        for name, m in result["metrics"].items():
            log(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
        for f in self.failures:
            log(f"  check failed: {f}")
        notes = {op["op"]: op["note"] for op in self.ops if "note" in op}
        for name, note in notes.items():
            log(f"  {name}: {note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a termination request unwinds through run_process, which kills and
    # reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: Workload(w, args.seed, args.seconds, bool(args.trace)).run() for w in names}
    except tracing.TraceError as exc:  # a wrapped name vanished: no per-layer zeros
        fail(f"trace: {exc}")
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
