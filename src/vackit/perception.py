"""Forward model of depth misperception under a vergence offset.

Maps true viewing geometry plus a constant vergence offset to perceived
distances, predicted distance errors, and predicted reach endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import (
    EyeGeometry,
    FixationState,
    ScenePoint,
    distance_from_angle,
    disparity_from_vergence,
    shift_distance,
    shift_distances,
    subtended_angle,
)

__all__ = [
    "PerturbationParams",
    "ViewingConfiguration",
    "perturbed_vergence",
    "effective_target_angle",
    "perceived_distance",
    "distance_error",
    "offset_as_fixation_shift",
    "predict_endpoint",
    "fixated_distance_error",
]

BETA_BOUND_RAD = 0.05


@dataclass(frozen=True)
class PerturbationParams:
    """Vergence-offset model parameters: the offset alone.

    Args:
        beta_offset: Constant additive vergence offset in radians.  Must
            satisfy |beta| < 0.05 rad (about 2.9 degrees), a sanity bound
            well above any plausible display-induced offset.
    """

    beta_offset: float

    def __post_init__(self) -> None:
        if not abs(self.beta_offset) < BETA_BOUND_RAD:
            raise DomainError(
                f"|beta_offset| must be < {BETA_BOUND_RAD} rad, got {self.beta_offset!r}"
            )


@dataclass(frozen=True)
class ViewingConfiguration:
    """One viewing situation: eyes, current fixation, and a target point."""

    eyes: EyeGeometry
    fixation: FixationState
    target: ScenePoint


def perturbed_vergence(phi: float, params: PerturbationParams) -> float:
    """Vergence angle registered under the offset: phi + beta."""
    if phi <= 0.0:
        raise DomainError(f"vergence angle must be positive, got {phi!r}")
    return phi + params.beta_offset


def effective_target_angle(phi: float, delta: float,
                           params: PerturbationParams) -> float:
    """The target's effective subtended angle under the offset.

    tau_hat = (phi + beta) - delta.

    Raises:
        DomainError: If the result is outside (0, pi); a non-positive
            effective angle would place the target at infinity or behind
            the viewer.
    """
    tau_hat = perturbed_vergence(phi, params) - delta
    if not (0.0 < tau_hat < math.pi):
        raise DomainError(
            f"effective target angle must be in (0, pi), got {tau_hat!r}"
        )
    return tau_hat


def perceived_distance(config: ViewingConfiguration,
                       params: PerturbationParams) -> float:
    """Distance at which the target is perceived under the vergence offset.

    Computes the vergence angle and disparity of the configuration, offsets
    the vergence, and triangulates the effective angle back to a distance.
    Angles here are parameterized by cyclopean distance (the same
    triangulation distance_from_angle inverts), which keeps the zero-offset
    case an exact identity for every configuration, on- or off-axis.  The
    azimuth-based visual-angle route in the geometry module agrees with
    this parameterization on the midline.

    Returns:
        Perceived cyclopean distance in meters.
    """
    phi = subtended_angle(config.fixation.fixation_point, config.eyes)
    tau = subtended_angle(config.target, config.eyes)
    delta = disparity_from_vergence(phi, tau)
    tau_hat = effective_target_angle(phi, delta, params)
    return distance_from_angle(tau_hat, config.eyes)


def distance_error(config: ViewingConfiguration,
                   params: PerturbationParams) -> float:
    """Perceived minus true target distance; negative means underestimation."""
    true_distance = config.target.cyclopean_distance
    return perceived_distance(config, params) - true_distance


def offset_as_fixation_shift(params: PerturbationParams,
                             fixation_distance: float,
                             eyes: EyeGeometry) -> float:
    """How much closer the effective fixation lies under the offset.

    Converts the angular offset into the equivalent shift of the fixation
    distance: the offset vergence corresponds to fixating a nearer point.

    Args:
        params: Offset parameters.
        fixation_distance: True fixation distance in meters (> 0).

    Returns:
        fixation_distance minus the distance whose subtended angle is the
        offset vergence; positive for a positive offset.
    """
    if fixation_distance <= 0.0:
        raise DomainError(
            f"fixation_distance must be positive, got {fixation_distance!r}"
        )
    return fixation_distance - shift_distance(
        fixation_distance, eyes.half_ipd, params.beta_offset)


def predict_endpoint(target_distance: float, params: PerturbationParams,
                     eyes: EyeGeometry) -> float:
    """Model reach endpoint under disparity matching, as a depth in meters.

    The actor fixates the target and drives the hand until its disparity
    matches the target's offset disparity, i.e. to the depth z_e whose
    subtended angle satisfies tau(z_e) = tau(target) + beta:
    z_e = (ipd/2) / tan((tau_t + beta) / 2).

    The endpoint error z_e - target_distance is zero when beta is zero and
    its implied disparity difference equals -beta at every distance.
    """
    if target_distance <= 0.0:
        raise DomainError(f"target_distance must be positive, got {target_distance!r}")
    return shift_distance(target_distance, eyes.half_ipd, params.beta_offset,
                          "matched angle")


def fixated_distance_error(distance: np.ndarray | float, ipd: np.ndarray | float,
                           beta: float) -> np.ndarray:
    """Vectorized distance error for fixated targets.

    Fast path used by fitting and simulation: for a fixated target the
    effective angle reduces to tau + beta, so the error is
    (ipd/2)/tan((tau + beta)/2) - distance with tau = 2*atan2(ipd/2, d).
    Inputs broadcast; domain violations yield +inf instead of raising so
    that an optimizer can reject the offending step.

    Args:
        distance: Cyclopean target distance(s) in meters.
        ipd: Interpupillary distance(s) in meters.
        beta: Vergence offset in radians.

    Returns:
        Error array (perceived minus true distance), +inf where invalid.
    """
    d = np.asarray(distance, dtype=float)
    perceived, ok = shift_distances(d, np.asarray(ipd, dtype=float) / 2.0, beta)
    with np.errstate(invalid="ignore"):
        err = perceived - d
    bad = ~(ok & np.isfinite(err))
    if np.any(bad):
        err = np.where(bad, np.inf, err)
    return err
