"""Binocular viewing geometry.

Signed visual angles, disparity, vergence, triangulated distance, and the
two dynamic disparity signals (change of disparity over time and
interocular velocity difference).

Frame convention: the cyclopean eye sits at the origin, the depth axis is
positive forward (+z), the horizontal axis positive rightward (+x), and
the vertical axis positive upward (+y).  The left eye is at (-ipd/2, 0, 0)
and the right eye at (+ipd/2, 0, 0).  All angles are radians; degrees
appear only at CLI and report boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "EyeGeometry",
    "ScenePoint",
    "VisualAnglePair",
    "FixationState",
    "AngleTimeSeries",
    "subtended_angle",
    "convergence_angle",
    "visual_angles",
    "disparity",
    "disparity_from_vergence",
    "distance_from_angle",
    "angle_at",
    "shift_distance",
    "angles_at",
    "shift_distances",
    "cdot",
    "iovd",
]


IPD_BOUND_M = 0.1


@dataclass(frozen=True)
class EyeGeometry:
    """Interpupillary distance and the cyclopean-eye frame it defines.

    Args:
        ipd: Interpupillary distance in meters.  Must lie in (0, 0.1).
    """

    ipd: float

    def __post_init__(self) -> None:
        if not (0.0 < self.ipd < IPD_BOUND_M):
            raise DomainError(f"ipd must be in (0, {IPD_BOUND_M}) m, got {self.ipd!r}")

    @property
    def half_ipd(self) -> float:
        return self.ipd / 2.0

    @property
    def left_eye_x(self) -> float:
        return -self.ipd / 2.0

    @property
    def right_eye_x(self) -> float:
        return self.ipd / 2.0


@dataclass(frozen=True)
class ScenePoint:
    """A point in the cyclopean frame, in meters.  Depth must be positive."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "z"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise DomainError(f"coordinate {name} must be finite, got {v!r}")
        if self.z <= 0.0:
            raise DomainError(
                f"point must be in front of the observer (z > 0), got z={self.z!r}"
            )

    @property
    def cyclopean_distance(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)


@dataclass(frozen=True)
class VisualAnglePair:
    """Signed horizontal visual angles of one point in the two eyes.

    The sign convention is rightward-negative: the angle is negative when
    the point's image lies to the right of that eye's fixation direction.
    """

    alpha_left: float
    alpha_right: float

    def __post_init__(self) -> None:
        for name in ("alpha_left", "alpha_right"):
            a = getattr(self, name)
            if not math.isfinite(a) or abs(a) >= math.pi / 2:
                raise DomainError(f"{name} must be finite with |angle| < pi/2, got {a!r}")


@dataclass(frozen=True)
class FixationState:
    """A fixation point together with its vergence angle.

    The vergence angle is derived on construction as the horizontal
    convergence angle of the two lines of sight.  On the midline it equals
    the full subtended angle 2*atan2(ipd/2, distance).
    """

    fixation_point: ScenePoint
    eyes: EyeGeometry
    vergence_angle: float = field(init=False)

    def __post_init__(self) -> None:
        phi = convergence_angle(self.fixation_point, self.eyes)
        if phi <= 0.0:
            raise DomainError(f"vergence angle must be positive, got {phi!r}")
        object.__setattr__(self, "vergence_angle", phi)


class AngleTimeSeries:
    """Uniformly sampled visual-angle pairs.

    Args:
        sample_rate: Sampling rate in Hz.  Must be positive.
        samples: Sequence of VisualAnglePair, or a pair of equal-length
            angle arrays (left, right) in radians.
    """

    def __init__(self, sample_rate: float,
                 samples: Sequence[VisualAnglePair] | tuple[Iterable[float], Iterable[float]]):
        if sample_rate <= 0.0:
            raise DomainError(f"sample_rate must be positive, got {sample_rate!r}")
        self.sample_rate = float(sample_rate)
        if isinstance(samples, tuple) and len(samples) == 2 and not isinstance(
                samples[0], VisualAnglePair):
            left = np.asarray(samples[0], dtype=float)
            right = np.asarray(samples[1], dtype=float)
        else:
            left = np.array([s.alpha_left for s in samples], dtype=float)
            right = np.array([s.alpha_right for s in samples], dtype=float)
        if left.shape != right.shape or left.ndim != 1:
            raise DomainError("left/right angle series must be equal-length 1-D")
        self.alpha_left = left
        self.alpha_right = right

    def __len__(self) -> int:
        return len(self.alpha_left)


def subtended_angle(point: ScenePoint, eyes: EyeGeometry) -> float:
    """Full angle the point subtends at the two eyes.

    Uses the point's cyclopean distance, so off-axis points are handled by
    the same triangulation that distance_from_angle inverts:
    tau = 2*atan2(ipd/2, |point|).

    Args:
        point: Target point with positive depth.
        eyes: Viewing geometry.

    Returns:
        Subtended angle tau in radians, in (0, pi).
    """
    return angle_at(point.cyclopean_distance, eyes.half_ipd)


def convergence_angle(point: ScenePoint, eyes: EyeGeometry) -> float:
    """Horizontal convergence angle of the two lines of sight at a point.

    Difference of the per-eye horizontal azimuths of the point.  Elevation
    is ignored (the disparity model is purely horizontal).  Coincides with
    subtended_angle for points on the sagittal midline.
    """
    a_left = math.atan2(point.x - eyes.left_eye_x, point.z)
    a_right = math.atan2(point.x - eyes.right_eye_x, point.z)
    return a_left - a_right


def visual_angles(point: ScenePoint, fixation: FixationState,
                  eyes: EyeGeometry) -> VisualAnglePair:
    """Signed horizontal angle of a point relative to each eye's fixation direction.

    Args:
        point: Target point.
        fixation: Current fixation state.
        eyes: Viewing geometry.

    Returns:
        Per-eye angles, rightward-negative.

    Raises:
        DomainError: If the point coincides with an eye position.
    """
    fix = fixation.fixation_point
    angles = []
    for eye_x in (eyes.left_eye_x, eyes.right_eye_x):
        dx, dz = point.x - eye_x, point.z
        if dx * dx + point.y * point.y + dz * dz == 0.0:
            raise DomainError(f"point coincides with an eye at x={eye_x!r}")
        azimuth_point = math.atan2(dx, dz)
        azimuth_fix = math.atan2(fix.x - eye_x, fix.z)
        angles.append(azimuth_fix - azimuth_point)
    return VisualAnglePair(alpha_left=angles[0], alpha_right=angles[1])


def disparity(angles: VisualAnglePair) -> float:
    """Binocular disparity: the left angle minus the right angle."""
    return angles.alpha_left - angles.alpha_right


def disparity_from_vergence(phi: float, tau: float) -> float:
    """Disparity from the vergence angle and the target's subtended angle.

    delta = phi - tau.  A target farther than fixation subtends a smaller
    angle than the fixation does, so delta > 0 for farther targets.

    Args:
        phi: Vergence angle in (0, pi).
        tau: Target subtended angle in (0, pi).
    """
    if not (0.0 < phi < math.pi) or not (0.0 < tau < math.pi):
        raise DomainError(f"angles must be in (0, pi), got phi={phi!r}, tau={tau!r}")
    return phi - tau


def distance_from_angle(tau: float, eyes: EyeGeometry) -> float:
    """Triangulated distance from the cyclopean eye: (ipd/2) / tan(tau/2).

    Args:
        tau: Subtended angle in (0, pi).
        eyes: Viewing geometry.

    Raises:
        DomainError: If tau is outside (0, pi); tau <= 0 would place the
            point at infinity or behind the viewer.
    """
    # a point at infinity subtends exactly 0, so shifting it by tau
    # triangulates tau
    return shift_distance(math.inf, eyes.half_ipd, tau, "subtended angle")


# The angle shift in a scalar (math) and an array (numpy) form: np.arctan2
# and math.atan2 can differ in the last bit, so each caller keeps its form.

def angle_at(distance: float, half_ipd: float) -> float:
    """Angle 2*atan2(half_ipd, distance) subtended at a cyclopean distance."""
    return 2.0 * math.atan2(half_ipd, distance)


def shift_distance(distance: float, half_ipd: float, shift: float,
                   name: str = "shifted angle") -> float:
    """Distance whose subtended angle is that of `distance` plus `shift`.

    Raises:
        DomainError: If the shifted angle, called `name`, leaves (0, pi).
    """
    angle = angle_at(distance, half_ipd) + shift
    if not (0.0 < angle < math.pi):
        raise DomainError(f"{name} must be in (0, pi), got {angle!r}")
    return half_ipd / math.tan(angle / 2.0)


def angles_at(distance: np.ndarray, half_ipd: np.ndarray | float) -> np.ndarray:
    """angle_at on arrays."""
    return 2.0 * np.arctan2(half_ipd, distance)


def shift_distances(distance: np.ndarray, half_ipd: np.ndarray | float,
                    shift: float) -> tuple[np.ndarray, np.ndarray]:
    """shift_distance on arrays: (distances, ok), ok False where it raises."""
    angle = angles_at(distance, half_ipd) + shift
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        shifted = half_ipd / np.tan(angle / 2.0)
    return shifted, (angle > 0.0) & (angle < math.pi)


def _derivative(values: np.ndarray, sample_rate: float) -> np.ndarray:
    if len(values) < 3:
        raise DomainError(f"need >= 3 samples for temporal derivatives, got {len(values)}")
    # np.gradient: central differences interior, one-sided at the ends.
    return np.gradient(values, 1.0 / sample_rate)


def cdot(series: AngleTimeSeries) -> np.ndarray:
    """Temporal derivative of the disparity signal.

    Central differences in the interior, one-sided first differences at the
    series boundaries.

    Args:
        series: At least 3 samples.

    Returns:
        Angle rate in rad/s, same length as the input.
    """
    return _derivative(series.alpha_left - series.alpha_right, series.sample_rate)


def iovd(series: AngleTimeSeries) -> np.ndarray:
    """Interocular velocity difference: each eye's angle rate, subtracted.

    Mathematically identical to cdot when computed with the same
    differencing scheme; both are provided so the identity can be checked.
    """
    left = _derivative(series.alpha_left, series.sample_rate)
    right = _derivative(series.alpha_right, series.sample_rate)
    return left - right
