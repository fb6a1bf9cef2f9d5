"""Vergence-offset perception model tests.

Reference values (40-digit arithmetic, ipd = 0.064 m, offset = 0.22 deg):

    target at 0.45 m:
        tau        = 8.135039133160295425639858857 deg
        tau + beta = 8.355039133160295425639858857 deg
        d_hat      = 0.438110417642508356578562652 m
        error      = -0.011889582357491643421437347 m

    viewing distances where the fixated-plane shift is exactly 2.93 cm:
        ipd 63 mm -> 0.707441033072137151464413358 m
        ipd 64 mm -> 0.712903830794738022005100271 m

A positive vergence offset makes every target look nearer, and the
mapping is exactly invertible: feeding the perceived distance back
through the model with the offset removed recovers the true distance.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from vackit.errors import DomainError
from vackit.geometry import EyeGeometry, FixationState, ScenePoint, subtended_angle
from vackit.perception import (
    BETA_BOUND_RAD,
    PerturbationParams,
    ViewingConfiguration,
    distance_error,
    effective_target_angle,
    fixated_distance_error,
    offset_as_fixation_shift,
    perceived_distance,
    perturbed_vergence,
    predict_endpoint,
)

EYES64 = EyeGeometry(ipd=0.064)
EYES63 = EyeGeometry(ipd=0.063)
BETA = math.radians(0.22)

D_HAT_045 = 0.438110417642508356578562652
ERR_045 = -0.011889582357491643421437347


def _config(target_z: float, fix_z: float = 0.4, eyes: EyeGeometry = EYES64):
    fixation = FixationState(ScenePoint(0, 0, fix_z), eyes)
    return ViewingConfiguration(eyes, fixation, ScenePoint(0, 0, target_z))


class TestPerturbationParams:
    def test_accepts_small_offsets(self):
        PerturbationParams(beta_offset=BETA)
        PerturbationParams(beta_offset=-BETA)
        PerturbationParams(beta_offset=0.0)

    def test_rejects_large_offsets(self):
        with pytest.raises(DomainError):
            PerturbationParams(beta_offset=BETA_BOUND_RAD)
        with pytest.raises(DomainError):
            PerturbationParams(beta_offset=-BETA_BOUND_RAD)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            PerturbationParams(beta_offset=math.nan)


class TestPerturbedVergence:
    @pytest.mark.parametrize("phi", [0.0, -0.1])
    def test_rejects_nonpositive_vergence(self, phi):
        message = f"vergence angle must be positive, got {phi!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            perturbed_vergence(phi, PerturbationParams(BETA))


class TestEffectiveTargetAngle:
    def test_reference_combination(self):
        phi = subtended_angle(ScenePoint(0, 0, 0.4), EYES64)
        tau = subtended_angle(ScenePoint(0, 0, 0.45), EYES64)
        delta = phi - tau
        matched = effective_target_angle(phi, delta, PerturbationParams(BETA))
        expected_deg = 8.355039133160295425639858857
        assert math.degrees(matched) == pytest.approx(expected_deg, abs=1e-12)

    def test_zero_offset_returns_target_angle(self):
        phi = math.radians(9.0)
        delta = math.radians(1.5)
        out = effective_target_angle(phi, delta, PerturbationParams(0.0))
        assert out == pytest.approx(phi - delta, abs=1e-15)

    def test_rejects_combination_leaving_domain(self):
        params = PerturbationParams(-0.01)
        with pytest.raises(DomainError):
            effective_target_angle(0.005, 0.0, params)


class TestPerceivedDistance:
    def test_reference_value(self):
        d_hat = perceived_distance(_config(0.45), PerturbationParams(BETA))
        assert d_hat == pytest.approx(D_HAT_045, abs=1e-15)

    def test_positive_offset_compresses(self):
        d_hat = perceived_distance(_config(0.45), PerturbationParams(BETA))
        assert d_hat < 0.45

    def test_negative_offset_expands(self):
        d_hat = perceived_distance(_config(0.45), PerturbationParams(-BETA))
        assert d_hat > 0.45

    def test_zero_offset_identity_on_axis(self):
        for z in (0.2, 0.45, 0.9, 1.5):
            d_hat = perceived_distance(_config(z), PerturbationParams(0.0))
            assert abs(d_hat - z) < 1e-12 * z

    def test_zero_offset_identity_off_axis(self):
        rng = np.random.default_rng(3)
        params = PerturbationParams(0.0)
        for _ in range(100):
            target = ScenePoint(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                                rng.uniform(0.2, 1.5))
            fixation = FixationState(
                ScenePoint(rng.uniform(-0.1, 0.1), 0.0, rng.uniform(0.3, 0.8)),
                EYES64)
            config = ViewingConfiguration(EYES64, fixation, target)
            d_hat = perceived_distance(config, params)
            assert abs(d_hat - target.cyclopean_distance) < 1e-12

    def test_independent_of_fixation_distance(self):
        # the offset acts on the target's own angle, so where the eyes
        # happen to fixate must not change the perceived distance
        params = PerturbationParams(BETA)
        a = perceived_distance(_config(0.45, fix_z=0.3), params)
        b = perceived_distance(_config(0.45, fix_z=0.7), params)
        assert a == pytest.approx(b, rel=1e-14)


class TestDistanceError:
    def test_reference_value(self):
        err = distance_error(_config(0.45), PerturbationParams(BETA))
        assert err == pytest.approx(ERR_045, abs=1e-15)

    def test_grows_with_distance(self):
        params = PerturbationParams(BETA)
        errs = [distance_error(_config(z), params) for z in (0.3, 0.5, 0.8)]
        assert errs[0] > errs[1] > errs[2]  # more negative farther out


class TestPredictEndpoint:
    def test_matches_perceived_distance_of_fixated_target(self):
        d_hat = predict_endpoint(0.45, PerturbationParams(BETA), EYES64)
        assert d_hat == pytest.approx(D_HAT_045, abs=1e-15)

    def test_zero_offset_is_identity(self):
        for d in (0.2, 0.35, 0.6):
            out = predict_endpoint(d, PerturbationParams(0.0), EYES64)
            assert out == pytest.approx(d, rel=1e-14)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(DomainError):
            predict_endpoint(0.0, PerturbationParams(BETA), EYES64)


class TestFixatedDistanceError:
    def test_scalar_matches_reference(self):
        err = fixated_distance_error(0.45, 0.064, BETA)
        assert float(err) == pytest.approx(ERR_045, abs=1e-15)

    def test_vectorized_against_eye_distance_table(self):
        # eye-to-target distances for the seated reach geometry,
        # with matching precomputed errors (ipd 63 mm, offset 0.22 deg)
        d = np.array([0.6103277807866851, 0.6519202405202649,
                      0.6946221994724902, 0.7382411530116700])
        expected = np.array([-0.021947235716105798, -0.024971221240677457,
                             -0.028271044744710545, -0.031844362235094779])
        err = fixated_distance_error(d, 0.063, BETA)
        np.testing.assert_allclose(err, expected, atol=1e-15)

    def test_out_of_domain_yields_inf(self):
        # a large negative offset pushes the matched angle out of range
        # for distant targets instead of raising
        err = fixated_distance_error(np.array([0.5, 1e6]), 0.064, -0.01)
        assert np.isfinite(err[0])
        assert np.isinf(err[1])


class TestOffsetAsFixationShift:
    def test_shift_reference_ipd63(self):
        shift = offset_as_fixation_shift(
            PerturbationParams(BETA), 0.707441033072137151464413358, EYES63)
        assert shift == pytest.approx(0.0293, abs=1e-10)

    def test_shift_reference_ipd64(self):
        shift = offset_as_fixation_shift(
            PerturbationParams(BETA), 0.712903830794738022005100271, EYES64)
        assert shift == pytest.approx(0.0293, abs=1e-10)

    def test_zero_offset_no_shift(self):
        shift = offset_as_fixation_shift(PerturbationParams(0.0), 0.7, EYES63)
        assert shift == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("distance", [0.0, -0.7])
    def test_rejects_nonpositive_distance(self, distance):
        message = f"fixation_distance must be positive, got {distance!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            offset_as_fixation_shift(PerturbationParams(BETA), distance, EYES63)
