"""Trigonometric core tests.

Reference values were computed independently with 40-digit arithmetic
(mpmath) from the defining formulas:

    tau = 2*atan(half_ipd / d)          -> subtended angle
    d   = half_ipd / tan(tau / 2)       -> triangulated distance

For ipd = 0.064 m:
    tau(d = 0.5 m) = 7.323871151039605708875147443 deg
    tau(d = 0.4 m) = 9.147842519801722383504499234 deg
    difference     = 1.823971368762116674629351791 deg
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from vackit.errors import DomainError
from vackit.geometry import (
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

TAU_050_DEG = 7.323871151039605708875147443
TAU_040_DEG = 9.147842519801722383504499234
DELTA_DEG = 1.823971368762116674629351791

EYES64 = EyeGeometry(ipd=0.064)


class TestEyeGeometry:
    def test_half_ipd_and_eye_positions(self):
        assert EYES64.half_ipd == 0.032
        assert EYES64.left_eye_x == -0.032
        assert EYES64.right_eye_x == 0.032

    @pytest.mark.parametrize("bad", [0.0, -0.01, 0.1, 0.2])
    def test_rejects_out_of_range_ipd(self, bad):
        with pytest.raises(DomainError):
            EyeGeometry(ipd=bad)


class TestScenePoint:
    def test_cyclopean_distance(self):
        p = ScenePoint(0.3, 0.4, 1.2)
        assert p.cyclopean_distance == pytest.approx(1.3, rel=1e-15)

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(DomainError):
            ScenePoint(0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            ScenePoint(0.0, 0.0, -0.5)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            ScenePoint(math.nan, 0.0, 1.0)


class TestSubtendedAngle:
    def test_reference_value_half_meter(self):
        tau = subtended_angle(ScenePoint(0, 0, 0.5), EYES64)
        assert math.degrees(tau) == pytest.approx(TAU_050_DEG, abs=1e-12)

    def test_reference_value_forty_cm(self):
        tau = subtended_angle(ScenePoint(0, 0, 0.4), EYES64)
        assert math.degrees(tau) == pytest.approx(TAU_040_DEG, abs=1e-12)

    def test_off_axis_uses_cyclopean_distance(self):
        # (0.3, 0, 0.4) has cyclopean distance 0.5 exactly
        on_axis = subtended_angle(ScenePoint(0, 0, 0.5), EYES64)
        off_axis = subtended_angle(ScenePoint(0.3, 0, 0.4), EYES64)
        assert off_axis == pytest.approx(on_axis, rel=1e-15)

    def test_round_trip_with_distance(self):
        for d in (0.2, 0.45, 0.8, 1.5, 3.0):
            tau = subtended_angle(ScenePoint(0, 0, d), EYES64)
            assert distance_from_angle(tau, EYES64) == pytest.approx(d, rel=1e-12)


class TestDistanceFromAngle:
    def test_inverse_of_reference(self):
        d = distance_from_angle(math.radians(TAU_050_DEG), EYES64)
        assert d == pytest.approx(0.5, rel=1e-12)

    def test_linear_in_ipd(self):
        tau = math.radians(5.0)
        d1 = distance_from_angle(tau, EyeGeometry(ipd=0.032))
        d2 = distance_from_angle(tau, EyeGeometry(ipd=0.064))
        assert d2 == pytest.approx(2.0 * d1, rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.pi, 4.0])
    def test_rejects_angles_outside_open_interval(self, bad):
        with pytest.raises(DomainError):
            distance_from_angle(bad, EYES64)


class TestVisualAngles:
    def test_fixated_point_has_zero_angles(self):
        fix = FixationState(ScenePoint(0, 0, 0.4), EYES64)
        pair = visual_angles(fix.fixation_point, fix, EYES64)
        assert pair.alpha_left == pytest.approx(0.0, abs=1e-15)
        assert pair.alpha_right == pytest.approx(0.0, abs=1e-15)

    def test_midline_symmetry(self):
        fix = FixationState(ScenePoint(0, 0, 0.4), EYES64)
        pair = visual_angles(ScenePoint(0, 0, 0.5), fix, EYES64)
        assert pair.alpha_left == pytest.approx(-pair.alpha_right, abs=1e-15)

    def test_farther_point_angle_difference_is_reference_delta(self):
        fix = FixationState(ScenePoint(0, 0, 0.4), EYES64)
        pair = visual_angles(ScenePoint(0, 0, 0.5), fix, EYES64)
        delta = math.degrees(pair.alpha_left - pair.alpha_right)
        assert delta == pytest.approx(DELTA_DEG, abs=1e-12)

    def test_point_at_eye_is_degenerate(self):
        fix = FixationState(ScenePoint(0, 0, 0.4), EYES64)
        with pytest.raises(DomainError):
            visual_angles(ScenePoint(-0.032, 0.0, 1e-300), fix, EYES64)

    @pytest.mark.parametrize("angle", [math.pi / 2, -math.pi / 2, 2.0])
    def test_pair_refuses_a_right_angle_or_more(self, angle):
        message = f"alpha_right must be finite with |angle| < pi/2, got {angle!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            VisualAnglePair(0.0, angle)

    def test_fixation_whose_vergence_rounds_to_zero_is_refused(self):
        # 1e20 m to the side, both lines of sight have one angle in doubles
        with pytest.raises(DomainError,
                           match=r"^vergence angle must be positive, got 0\.0$"):
            FixationState(ScenePoint(1e20, 0.0, 1.0), EYES64)


class TestDisparity:
    def test_zero_pair(self):
        assert disparity(VisualAnglePair(0.0, 0.0)) == 0.0

    def test_symmetric_pair(self):
        a = 0.01
        assert disparity(VisualAnglePair(a, -a)) == pytest.approx(2 * a)

    def test_reference_vergence_difference(self):
        phi = math.radians(TAU_040_DEG)
        tau = math.radians(TAU_050_DEG)
        delta = disparity_from_vergence(phi, tau)
        assert math.degrees(delta) == pytest.approx(DELTA_DEG, abs=1e-12)

    def test_fixated_target_zero(self):
        phi = math.radians(8.0)
        assert disparity_from_vergence(phi, phi) == 0.0

    def test_farther_target_positive(self):
        phi = subtended_angle(ScenePoint(0, 0, 0.4), EYES64)
        tau = subtended_angle(ScenePoint(0, 0, 0.6), EYES64)
        assert disparity_from_vergence(phi, tau) > 0

    def test_rejects_angles_outside_domain(self):
        with pytest.raises(DomainError):
            disparity_from_vergence(-0.1, 0.1)
        with pytest.raises(DomainError):
            disparity_from_vergence(0.1, math.pi)


def test_per_eye_route_equals_vergence_route_randomized():
    """delta from per-eye visual angles must equal the fixation's
    convergence angle minus the target's, for arbitrary lateral offsets."""
    rng = np.random.default_rng(42)
    for _ in range(500):
        ipd = rng.uniform(0.05, 0.08)
        eyes = EyeGeometry(ipd=ipd)
        fix_p = ScenePoint(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2),
                           rng.uniform(0.2, 2.0))
        target = ScenePoint(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2),
                            rng.uniform(0.2, 2.0))
        fix = FixationState(fix_p, eyes)
        route1 = disparity(visual_angles(target, fix, eyes))
        route2 = disparity_from_vergence(fix.vergence_angle,
                                         convergence_angle(target, eyes))
        assert abs(route1 - route2) < 1e-10


def test_convergence_angle_equals_subtended_on_midline():
    for d in (0.25, 0.5, 1.0, 1.8):
        p = ScenePoint(0, 0, d)
        assert convergence_angle(p, EYES64) == pytest.approx(
            subtended_angle(p, EYES64), rel=1e-13)


class TestAngleTimeSeries:
    def test_from_pairs(self):
        pairs = [VisualAnglePair(0.01 * i, -0.01 * i) for i in range(5)]
        series = AngleTimeSeries(250.0, pairs)
        assert len(series) == 5

    def test_derivatives_require_three_samples(self):
        series = AngleTimeSeries(250.0, [VisualAnglePair(0, 0),
                                         VisualAnglePair(0, 0)])
        message = r"^need >= 3 samples for temporal derivatives, got 2$"
        with pytest.raises(DomainError, match=message):
            cdot(series)
        with pytest.raises(DomainError, match=message):
            iovd(series)

    def test_requires_positive_rate(self):
        pairs = [VisualAnglePair(0, 0)] * 4
        with pytest.raises(DomainError):
            AngleTimeSeries(0.0, pairs)

    @pytest.mark.parametrize("left, right", [
        ([0.0, 0.1, 0.2], [0.0, 0.1]),
        (np.zeros((3, 1)), np.zeros((3, 1))),
    ], ids=["unequal", "2-d"])
    def test_requires_equal_length_1d_series(self, left, right):
        with pytest.raises(DomainError, match=(
                r"^left/right angle series must be equal-length 1-D$")):
            AngleTimeSeries(250.0, (left, right))


class TestTemporalDerivatives:
    def test_constant_disparity_gives_zeros(self):
        pairs = [VisualAnglePair(0.02, 0.01)] * 10
        series = AngleTimeSeries(100.0, pairs)
        np.testing.assert_allclose(cdot(series), 0.0, atol=1e-15)

    def test_linear_disparity_ramp(self):
        # alpha_L(t) = k t, alpha_R = 0 -> delta rate k everywhere
        k = 0.004
        t = np.arange(20) / 250.0
        series = AngleTimeSeries(250.0, (k * t, np.zeros_like(t)))
        np.testing.assert_allclose(cdot(series), k, rtol=1e-12)

    def test_mirror_rotation_iovd(self):
        t = np.arange(30) / 250.0
        a = 0.002 * t
        series = AngleTimeSeries(250.0, (a, -a))
        np.testing.assert_allclose(iovd(series), 2 * 0.002, rtol=1e-12)

    def test_routes_agree_on_random_series(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            series = AngleTimeSeries(
                float(rng.uniform(50, 500)),
                (rng.normal(0, 0.01, n), rng.normal(0, 0.01, n)),
            )
            np.testing.assert_allclose(cdot(series), iovd(series), atol=1e-12)
