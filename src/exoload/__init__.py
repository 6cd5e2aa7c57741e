"""Lumbar-load analysis of patient-repositioning maneuvers.

Replays captured whole-body motion on a scaled 43-DoF digital human model via
hierarchical velocity-QP retargeting, estimates the L5/S1 sagittal load with
and without a passive back-support exoskeleton, and reproduces the companion
kinematic, dynamic, biosignal and questionnaire analyses from file-based
inputs.
"""

from .anthropometry import AnthropometricProfile, CoefficientTable, default_table, load_table_file
from .biosignals import (
    EcgRecord,
    EmgRecord,
    HeartRateSeries,
    detect_r_peaks,
    emg_change_pct,
    emg_envelope,
    heart_rate_stats,
    instantaneous_heart_rate,
)
from .dynamics import (
    LaevoModel,
    TorqueSeries,
    decompose_torque,
    estimate_derivatives,
    inverse_dynamics,
    lumbar_effort_report,
    net_lumbar_series,
)
from .errors import (
    ExoloadError,
    InfeasibleBoundsError,
    NumericalError,
    SolverError,
    ValidationError,
)
from .pipeline import ReportBundle, SessionConfig, emit_boxplot_data, load_config, run_pipeline
from .posture import (
    AnnotationSegment,
    DistributionSummary,
    TrialAnnotation,
    posture_profile,
    segment_series,
    summarize,
    time_fraction_above,
)
from .retarget import (
    CapturedTrajectory,
    RetargetResult,
    SegmentTrack,
    TaskSpec,
    default_task_stack,
    retarget_trajectory,
    solve_frame,
)
from .skeleton import (
    JointConfiguration,
    KinematicState,
    SkeletonModel,
    build_model,
    forward_kinematics,
    task_jacobian,
)
from .surveys import (
    ConstructScore,
    QuestionnaireSchema,
    ResponseContext,
    ResponseSet,
    apply_reverse,
    borg_summary,
    construct_scores,
    load_schema,
    validate,
)

__version__ = "0.1.0"
