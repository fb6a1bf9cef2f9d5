"""vackit: binocular distance-distortion modeling and correction.

Models how a constant vergence offset distorts stereoscopic distance
perception, predicts the resulting reaching errors, corrects scene depth
to cancel them, analyzes reaching trajectories, and fits the offset and
per-participant interpupillary distances from behavioral data.
"""

__version__ = "0.1.0"

from .correction import (
    CorrectionCurveRow,
    MeshModel,
    predicted_correction_curve,
    remap_depth,
    transform_mesh,
    transform_point,
    transform_points,
)
from .errors import DataFormatError, DomainError, FitError
from .fitting import (
    ComparisonRow,
    FitDataset,
    FitResult,
    IdentifiabilityWarning,
    ModelSpec,
    compare_models_detailed,
    fit,
    goodness_of_fit,
)
from .geometry import (
    AngleTimeSeries,
    EyeGeometry,
    FixationState,
    ScenePoint,
    VisualAnglePair,
    cdot,
    convergence_angle,
    disparity,
    disparity_from_vergence,
    distance_from_angle,
    iovd,
    subtended_angle,
    visual_angles,
)
from .kinematics import (
    EyePose,
    MovementSegment,
    TargetSpec,
    Trajectory,
    TrialOutcome,
    analyze_trials,
    detect_segment,
    differentiate,
    lowpass_filter,
    trial_outcome,
)
from .meshio import read_obj, read_points_csv, write_obj, write_points_csv
from .perception import (
    PerturbationParams,
    ViewingConfiguration,
    distance_error,
    fixated_distance_error,
    offset_as_fixation_shift,
    perceived_distance,
    predict_endpoint,
)
from .synth import (
    SimConfig,
    generate_participants,
    generate_trajectories,
    generate_trials,
)

__all__ = [
    "__version__",
    "AngleTimeSeries",
    "ComparisonRow",
    "CorrectionCurveRow",
    "DataFormatError",
    "DomainError",
    "EyeGeometry",
    "EyePose",
    "FitDataset",
    "FitError",
    "FitResult",
    "FixationState",
    "IdentifiabilityWarning",
    "MeshModel",
    "ModelSpec",
    "MovementSegment",
    "PerturbationParams",
    "ScenePoint",
    "SimConfig",
    "TargetSpec",
    "Trajectory",
    "TrialOutcome",
    "ViewingConfiguration",
    "VisualAnglePair",
    "analyze_trials",
    "cdot",
    "compare_models_detailed",
    "convergence_angle",
    "detect_segment",
    "differentiate",
    "disparity",
    "disparity_from_vergence",
    "distance_error",
    "distance_from_angle",
    "fit",
    "fixated_distance_error",
    "generate_participants",
    "generate_trajectories",
    "generate_trials",
    "goodness_of_fit",
    "iovd",
    "lowpass_filter",
    "offset_as_fixation_shift",
    "perceived_distance",
    "predict_endpoint",
    "predicted_correction_curve",
    "read_obj",
    "read_points_csv",
    "remap_depth",
    "subtended_angle",
    "transform_mesh",
    "transform_point",
    "transform_points",
    "trial_outcome",
    "visual_angles",
    "write_obj",
    "write_points_csv",
]
