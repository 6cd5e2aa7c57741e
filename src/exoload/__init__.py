"""Lumbar-load analysis of patient-repositioning maneuvers.

Replays captured whole-body motion on a scaled 43-DoF digital human model via
hierarchical velocity-QP retargeting, estimates the L5/S1 sagittal load with
and without a passive back-support exoskeleton, and reproduces the companion
kinematic, dynamic, biosignal and questionnaire analyses from file-based
inputs.

The package root holds the library's motion path only, so importing it loads
no file, pipeline, biosignal or survey layer; every other name is imported
from its module (``exoload.io``, ``exoload.pipeline``, ...).
"""

from .anthropometry import AnthropometricProfile
from .dynamics import LaevoModel, decompose_torque, inverse_dynamics, net_lumbar_series
from .retarget import retarget_trajectory
from .skeleton import JointConfiguration, KinematicState, build_model, forward_kinematics
