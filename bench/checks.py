"""Output checks for one ``exoload pipeline`` bundle.

Every check compares the bundle with a computation made apart from the
pipeline: the generating trajectory and its analytic derivatives, the
benchmark's own Laevo spring, numpy recomputations from the bundle's own
torque series, the generated EMG ratios and heart rates, and the benchmark's
own questionnaire scoring from the bundled schema files. Nothing is compared
with a stored copy of an earlier output.

Each ``check_*`` function returns a list of failure messages (empty when the
bundle passes) and fills ``metrics`` with the accuracy figures it measured.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from exoload import inverse_dynamics

from generate import UNTRACKED_DOFS, Session, session_model

# tolerances, stated in bench/README.md
JOINT_RMS_MAX_DEG = 2.0  # the package's acceptance round-trip tolerance
THETA_MAX_DEG = 1.0  # back flexion vs the captured thorax inclination
# net lumbar torque vs the analytic-derivative reference: over all frames,
# and away from the ends, where the 5 Hz zero-phase smoothing and the
# one-sided difference stencils of the derivative estimate dominate
LUMBAR_RMS_MAX_NM = 40.0
LUMBAR_INTERIOR_RMS_MAX_NM = 4.0
EDGE_FRAMES = 24  # 0.1 s at 240 Hz
EMG_CHANGE_TOL_PCT = 2.0  # percentage points
HEART_RATE_TOL_BPM = 0.5
EXACT_RTOL = 1e-9  # recomputations of the same arithmetic
LAEVO = {"theta_min": 20.0, "theta_max": 50.0, "tau_max": 40.0, "k_loss": 10.0, "rate_tol": 1e-6}

MOTION_FILES = (
    "joints.csv",
    "torque_series.csv",
    "angle_summaries.csv",
    "posture_fractions.csv",
    "torque_summaries.csv",
    "torque_reductions.csv",
    "boxplot_data.json",
    "manifest.json",
)
SIGNALS_FILES = (
    "emg_changes.csv",
    "heart_rate.csv",
    "survey_constructs.csv",
    "survey_borg.csv",
    "boxplot_data.json",
    "manifest.json",
)
POSTURE_THRESHOLDS = (20.0, 45.0, 60.0)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def bundle_digest(out_dir: Path) -> dict[str, str]:
    return {p.name: sha256(p) for p in sorted(out_dir.iterdir()) if p.is_file()}


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def close(a: float, b: float, rtol: float = EXACT_RTOL, atol: float = 1e-9) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


# -- shared --------------------------------------------------------------------


def check_files(out_dir: Path, expected: tuple[str, ...]) -> list[str]:
    present = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    missing = sorted(set(expected) - present)
    return [f"bundle lacks {missing}"] if missing else []


def check_manifest(session: Session, out_dir: Path, root: Path) -> list[str]:
    """The manifest hashes exactly the session's inputs, with the
    benchmark's own hashes."""
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    recorded = {(root / key).resolve(): value for key, value in manifest["inputs"].items()}
    expected = {p.resolve(): sha256(p) for p in session.inputs}
    failures = []
    if set(recorded) != set(expected):
        extra = sorted(str(p) for p in set(recorded) - set(expected))
        missing = sorted(str(p) for p in set(expected) - set(recorded))
        failures.append(f"manifest inputs differ: extra {extra}, missing {missing}")
    for path, digest in expected.items():
        if path in recorded and recorded[path] != digest:
            failures.append(f"manifest hash of {path.name} differs from the file's sha256")
    return failures


# -- motion sessions -------------------------------------------------------------


def laevo_reference(theta: np.ndarray, theta_dot: np.ndarray) -> np.ndarray:
    """Piecewise-linear spring engaging at 20 deg and reaching 40 Nm at 50 deg
    while flexing, 10 Nm lower while extending, clamped to [0, 40]. The branch
    holds while the rate is within the tolerance."""
    p = LAEVO
    out = np.empty(len(theta))
    descending = False
    for k, (th, rate) in enumerate(zip(theta.tolist(), theta_dot.tolist())):
        if rate > p["rate_tol"]:
            descending = False
        elif rate < -p["rate_tol"]:
            descending = True
        tau = p["tau_max"] * (th - p["theta_min"]) / (p["theta_max"] - p["theta_min"])
        if descending:
            tau -= p["k_loss"]
        out[k] = min(max(tau, 0.0), p["tau_max"])
    return out


def thorax_inclination_deg(quats: np.ndarray) -> np.ndarray:
    """Sagittal inclination of the thorax long axis (third column of the
    rotation matrix) from the vertical, forward positive."""
    w, x, y, z = quats.T
    axis_x = 2.0 * (x * z + w * y)
    axis_z = 1.0 - 2.0 * (x * x + y * y)
    return np.degrees(np.arctan2(axis_x, axis_z))


def lumbar_reference(session: Session) -> np.ndarray:
    """Flexion-positive L5/S1 torque of the generating trajectory from its
    analytic velocities and accelerations: no retargeting, no numerical
    differentiation. The reported load is the negated actuation torque at
    the lumbar flexion coordinate."""
    cached = session.truth.get("lumbar_reference")
    if cached is None:
        model = session_model()
        motion = session.truth["motion"]
        idx = 6 + model.dof_index["lumbar_flexion"]
        cached = np.array(
            [
                -inverse_dynamics(model, q, motion.qd[k], motion.qdd[k])[idx]
                for k, q in enumerate(motion.configurations)
            ]
        )
        session.truth["lumbar_reference"] = cached
    return cached


def _summary(values: np.ndarray) -> list[float]:
    v = np.sort(values)
    q1, med, q3 = np.percentile(v, [25.0, 50.0, 75.0])
    mn, mx = float(v[0]), float(v[-1])
    iqr = q3 - q1
    return [
        len(v),
        float(np.mean(v)),
        float(np.std(v, ddof=1)) if len(v) > 1 else 0.0,
        mn,
        float(q1),
        float(med),
        float(q3),
        mx,
        max(mn, q1 - 1.5 * iqr),
        min(mx, q3 + 1.5 * iqr),
    ]


SUMMARY_COLUMNS = (
    "n", "mean", "stdev", "min", "q1", "median", "q3", "max",
    "whisker_low_1p5iqr", "whisker_high_1p5iqr",
)


def _compare_summary(row: dict[str, str], values: np.ndarray, what: str) -> list[str]:
    expected = _summary(values)
    if int(row["n"]) != expected[0]:
        return [f"{what}: n {row['n']} != {expected[0]}"]
    bad = [
        col
        for col, want in zip(SUMMARY_COLUMNS[1:], expected[1:])
        if not close(float(row[col]), want)
    ]
    return [f"{what}: columns {bad} differ from the recomputation"] if bad else []


def check_summaries(session: Session, out_dir: Path, series: dict[str, np.ndarray]) -> list[str]:
    """Angle/torque summaries, exposure fractions and median reductions
    recomputed with numpy from torque_series.csv over each [start, end)."""
    times = series["time_s"]
    windows = session.truth["windows"]
    trial = session.name
    if windows is None:  # no annotation: one window over the whole recording
        dt = float(np.median(np.diff(times)))
        windows = [{"label": "control", "start": float(times[0]), "end": float(times[-1]) + dt}]
        trial = "session"
    failures = []
    angles = read_rows(out_dir / "angle_summaries.csv")
    torques = {(r["label"], r["channel"]): r for r in read_rows(out_dir / "torque_summaries.csv")}
    fractions = read_rows(out_dir / "posture_fractions.csv")
    reductions = {r["label"]: r for r in read_rows(out_dir / "torque_reductions.csv")}
    if len(angles) != len(windows) or len(fractions) != len(windows):
        return [f"expected {len(windows)} angle and fraction rows"]
    if len(torques) != 3 * len(windows):
        return [f"expected {3 * len(windows)} torque summary rows"]
    for w, arow, frow in zip(windows, angles, fractions):
        label = w["label"]
        mask = (times >= w["start"]) & (times < w["end"])
        if (arow["trial"], arow["label"], arow["channel"]) != (trial, label, "back_flexion_deg"):
            failures.append(f"angle row order/labels differ at {label}")
            continue
        theta = series["theta_deg"][mask]
        failures += _compare_summary(arow, theta, f"angle_summaries {label}")
        for t in POSTURE_THRESHOLDS:
            want = np.count_nonzero(theta > t) / theta.size
            if float(frow[f"frac_above_{int(t)}deg"]) != want:
                failures.append(f"posture_fractions {label} above {t}: {frow} != {want}")
        for channel, column in (
            ("tau_net", "tau_net_nm"),
            ("tau_human", "tau_human_nm"),
            ("tau_exo", "tau_exo_nm"),
        ):
            row = torques.get((label, channel))
            if row is None:
                failures.append(f"torque_summaries lacks {label}/{channel}")
                continue
            failures += _compare_summary(row, series[column][mask], f"torque_summaries {label}/{channel}")
        net = float(np.median(series["tau_net_nm"][mask]))
        human = float(np.median(series["tau_human_nm"][mask]))
        if net != 0.0:
            want = 100.0 * (net - human) / net
            row = reductions.get(label)
            if row is None or not close(float(row["median_reduction_pct"]), want):
                failures.append(f"torque_reductions {label}: {row} != {want}")
    return failures


def check_motion(session: Session, out_dir: Path, root: Path, metrics: dict) -> list[str]:
    """Checks of a motion bundle. Fills ``joint_rms_deg``, ``lumbar_rms_nm``
    and ``theta_max_dev_deg`` into ``metrics``."""
    failures = check_files(out_dir, MOTION_FILES)
    if failures:
        return failures
    model = session_model()
    motion = session.truth["motion"]
    n = len(motion.times)

    joints = np.loadtxt(out_dir / "joints.csv", delimiter=",", skiprows=1, ndmin=2)
    with open(out_dir / "joints.csv", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    if joints.shape[0] != n or header[8:] != list(model.dof_names):
        return [f"joints.csv has shape {joints.shape} and an unexpected header"]
    if not np.array_equal(joints[:, 0], motion.times):
        failures.append("joints.csv timestamps differ from the capture")
    # a skipped frame holds the previous configuration bit for bit
    held = np.nonzero(np.all(joints[1:, 1:] == joints[:-1, 1:], axis=1))[0]
    if held.size:
        failures.append(f"{held.size} skipped (held) frames, first at frame {int(held[0]) + 1}")
    tracked = [i for i, name in enumerate(model.dof_names) if name not in UNTRACKED_DOFS]
    truth = np.array([q.joint_angles for q in motion.configurations])
    err = joints[:, 8:][:, tracked] - truth[:, tracked]
    metrics["joint_rms_deg"] = float(np.degrees(np.sqrt(np.mean(err**2))))

    data = np.loadtxt(out_dir / "torque_series.csv", delimiter=",", skiprows=1, ndmin=2)
    names = ("time_s", "theta_deg", "theta_dot_deg_s", "tau_net_nm", "tau_exo_nm", "tau_human_nm")
    if data.shape != (n, len(names)):
        return failures + [f"torque_series.csv has shape {data.shape}"]
    series = dict(zip(names, data.T))
    lhs = series["tau_net_nm"]
    rhs = series["tau_human_nm"] + series["tau_exo_nm"]
    if not np.all(np.abs(lhs - rhs) <= 1e-9 + 1e-12 * np.abs(lhs)):
        failures.append("tau_net != tau_human + tau_exo")
    exo = laevo_reference(series["theta_deg"], series["theta_dot_deg_s"])
    worst = float(np.max(np.abs(exo - series["tau_exo_nm"])))
    if worst > 1e-9:
        failures.append(f"tau_exo differs from the Laevo spring by up to {worst:.3g} Nm")

    thorax = session.truth["capture_header"].index("thorax_qw")
    inclination = thorax_inclination_deg(session.truth["capture"][:, thorax : thorax + 4])
    metrics["theta_max_dev_deg"] = float(np.max(np.abs(series["theta_deg"] - inclination)))
    err = lhs - lumbar_reference(session)
    metrics["lumbar_rms_nm"] = float(np.sqrt(np.mean(err**2)))
    metrics["lumbar_interior_rms_nm"] = float(np.sqrt(np.mean(err[EDGE_FRAMES:-EDGE_FRAMES] ** 2)))

    failures += check_summaries(session, out_dir, series)
    failures += check_manifest(session, out_dir, root)
    return failures


def check_motion_accuracy(metrics: dict) -> list[str]:
    """Bounds that hold when every frame is easy (planted feet, fixed base)."""
    failures = []
    if not metrics["joint_rms_deg"] <= JOINT_RMS_MAX_DEG:
        failures.append(f"joint RMS {metrics['joint_rms_deg']:.3f} deg > {JOINT_RMS_MAX_DEG}")
    if not metrics["theta_max_dev_deg"] <= THETA_MAX_DEG:
        failures.append(f"back flexion off the thorax inclination by {metrics['theta_max_dev_deg']:.3f} deg")
    if not metrics["lumbar_rms_nm"] <= LUMBAR_RMS_MAX_NM:
        failures.append(f"lumbar RMS error {metrics['lumbar_rms_nm']:.3f} Nm > {LUMBAR_RMS_MAX_NM}")
    if not metrics["lumbar_interior_rms_nm"] <= LUMBAR_INTERIOR_RMS_MAX_NM:
        failures.append(
            f"lumbar RMS error away from the ends {metrics['lumbar_interior_rms_nm']:.3f} Nm "
            f"> {LUMBAR_INTERIOR_RMS_MAX_NM}"
        )
    return failures


# -- the signals session -----------------------------------------------------------


def _mean_stdev(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    return mean, math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))


def score_responses(records: list[dict], schema_dir: Path) -> tuple[list[list], list[list]]:
    """Construct rows (per questionnaire, exoskeleton and construct) and Borg
    rows (per questionnaire, zone and position), from the bundled schemas'
    reverse flags, construct map and Borg items."""
    constructs, borg = [], []
    for qid in sorted({r["questionnaire_id"] for r in records}):
        schema = json.loads((schema_dir / f"questionnaire_{qid.lower()}.json").read_text("utf-8"))
        reverse = {str(i["id"]) for i in schema["items"] if i.get("reverse")}
        mine = [r for r in records if r["questionnaire_id"] == qid]
        groups: dict[str, list[dict]] = {}
        for r in mine:
            groups.setdefault(r["context"].get("exoskeleton", "none"), []).append(r)
        for exo in sorted(groups):
            for construct, members in schema.get("constructs", {}).items():
                pooled = [
                    float(6 - r["answers"][m] if m in reverse else r["answers"][m])
                    for r in groups[exo]
                    for m in members
                    if m in r["answers"]
                ]
                if pooled:
                    mean, sd = _mean_stdev(pooled)
                    constructs.append([qid, exo, construct, len(pooled), mean, sd])
        items = [(str(i["id"]), i["text_key"]) for i in schema["items"] if i["kind"] == "borg_cr10"]
        pooled_borg: dict[tuple[str, str], list[float]] = {}
        for r in mine:
            position = r["context"].get("position") or "unspecified"
            for item_id, key in items:
                if item_id in r["answers"]:
                    zone = key[len("borg_"):] if key.startswith("borg_") else key
                    pooled_borg.setdefault((zone, position), []).append(float(r["answers"][item_id]))
        for (zone, position) in sorted(pooled_borg):
            mean, sd = _mean_stdev(pooled_borg[(zone, position)])
            borg.append([qid, zone, position, len(pooled_borg[(zone, position)]), mean, sd])
    return constructs, borg


def _compare_scores(rows: list[dict], expected: list[list], keys: tuple[str, ...], what: str) -> list[str]:
    if len(rows) != len(expected):
        return [f"{what}: {len(rows)} rows, expected {len(expected)}"]
    failures = []
    for row, want in zip(rows, expected):
        *ident, n, mean, sd = want
        if tuple(row[k] for k in keys) != tuple(ident) or int(row["n"]) != n:
            failures.append(f"{what}: row {tuple(row.values())[:4]} != {want[:4]}")
        elif not (close(float(row["mean"]), mean) and close(float(row["stdev"]), sd)):
            failures.append(f"{what}: {ident} mean/stdev differ")
        elif row["display"] != f"{mean:.1f}±{sd:.1f}":
            failures.append(f"{what}: {ident} display {row['display']!r}")
    return failures


def check_signals(session: Session, out_dir: Path, root: Path, metrics: dict) -> list[str]:
    failures = check_files(out_dir, SIGNALS_FILES)
    if failures:
        return failures
    truth = session.truth

    changes = read_rows(out_dir / "emg_changes.csv")
    expected = {(label, c) for label, ratios in truth["emg_ratios"].items() for c in ratios}
    if {(r["label"], r["channel"]) for r in changes} != expected or len(changes) != len(expected):
        failures.append("emg_changes.csv rows differ from the generated trials and channels")
    worst = 0.0
    for r in changes:
        ratio = truth["emg_ratios"].get(r["label"], {}).get(r["channel"])
        if ratio is None:
            continue
        try:
            err = abs(float(r["change_pct"]) - 100.0 * (ratio - 1.0))
        except ValueError:
            err = math.inf
        worst = max(worst, err if not math.isnan(err) else math.inf)
    metrics["emg_change_max_err_pct"] = worst
    if not worst <= EMG_CHANGE_TOL_PCT:
        failures.append(f"EMG change off the generated ratio by {worst:.3f} points")

    hr = {r["label"]: float(r["median"]) for r in read_rows(out_dir / "heart_rate.csv")}
    if set(hr) != set(truth["bpm"]):
        failures.append(f"heart_rate.csv labels {sorted(hr)} != {sorted(truth['bpm'])}")
    else:
        worst = max(abs(hr[k] - truth["bpm"][k]) for k in hr)
        metrics["heart_rate_max_err_bpm"] = worst
        if not worst <= HEART_RATE_TOL_BPM:
            failures.append(f"heart-rate median off the generated rate by {worst:.3f} bpm")

    constructs, borg = score_responses(truth["responses"], root / "src" / "exoload" / "data")
    failures += _compare_scores(
        read_rows(out_dir / "survey_constructs.csv"),
        constructs,
        ("questionnaire", "exoskeleton", "construct"),
        "survey_constructs",
    )
    failures += _compare_scores(
        read_rows(out_dir / "survey_borg.csv"), borg, ("questionnaire", "zone", "position"), "survey_borg"
    )
    failures += check_manifest(session, out_dir, root)
    return failures
