"""The angle shift and its wrappers.

geometry defines the shift d -> h / tan((2*atan2(h, d) + shift) / 2) once,
in a scalar (math) form and an array (numpy) form, and every other module
wraps one of them.  The inline formulas the wrappers replaced are kept
here as references: wherever a wrapper returns, it must return the bits
its old formula gave, and the only inputs it now refuses are those whose
shifted angle leaves (0, pi), which the old formulas let through as
negative or mirrored depths.
"""

from __future__ import annotations

import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vackit import fitting
from vackit.correction import remap_depth, transform_point, transform_points
from vackit.errors import DomainError
from vackit.geometry import (
    EyeGeometry,
    ScenePoint,
    angle_at,
    angles_at,
    distance_from_angle,
    shift_distance,
    shift_distances,
    subtended_angle,
)
from vackit.kinematics import (
    EyePose,
    TargetSpec,
    Trajectory,
    lowpass_filter,
    trial_outcome,
)
from vackit.perception import (
    PerturbationParams,
    fixated_distance_error,
    offset_as_fixation_shift,
    predict_endpoint,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "vackit"

# Realistic viewing: 0.1-2 m, interpupillary distances of 45-80 mm and
# offsets up to 0.01 rad (0.57 deg).  Rounding bounds are stated here.
near_far = st.floats(0.1, 2.0)
half_ipds = st.floats(0.0225, 0.04)
small_betas = st.floats(-0.01, 0.01)
# The whole domain the wrappers accept, edges included.
distances = st.one_of(st.floats(1e-4, 100.0), st.sampled_from([1e-4, 5e-4, 100.0]))
ipds = st.floats(0.001, 0.099)
betas = st.floats(-0.0499, 0.0499)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _ulps(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(b)


def _raises(fn, *args, **kwargs) -> bool:
    try:
        fn(*args, **kwargs)
    except DomainError:
        return True
    return False


# ---------------------------------------------------------------------------
# The inline formulas the wrappers replaced.

def old_subtended_angle(point, eyes):
    return 2.0 * math.atan2(eyes.half_ipd, point.cyclopean_distance)


def old_distance_from_angle(tau, eyes):
    if not (0.0 < tau < math.pi):
        raise DomainError("subtended angle")
    return eyes.half_ipd / math.tan(tau / 2.0)


def old_remap_depth(z_view, eyes, params):
    if z_view <= 0.0:
        raise DomainError("z_view")
    tau = 2.0 * math.atan2(eyes.half_ipd, z_view)
    corrected = tau - params.beta_offset
    if corrected <= 0.0:
        raise DomainError("too distant")
    return eyes.half_ipd / math.tan(corrected / 2.0)


def old_transform_point(p, eyes, params):
    d_tilde = old_remap_depth(p.cyclopean_distance, eyes, params)
    radicand = d_tilde * d_tilde - p.x * p.x - p.y * p.y
    if radicand <= 0.0:
        raise DomainError("radicand")
    return ScenePoint(x=p.x, y=p.y, z=math.sqrt(radicand))


def old_predict_endpoint(target_distance, params, eyes):
    if target_distance <= 0.0:
        raise DomainError("target_distance")
    tau_t = 2.0 * math.atan2(eyes.half_ipd, target_distance)
    matched = tau_t + params.beta_offset
    if not (0.0 < matched < math.pi):
        raise DomainError("matched angle")
    return eyes.half_ipd / math.tan(matched / 2.0)


def old_offset_as_fixation_shift(params, fixation_distance, eyes):
    if fixation_distance <= 0.0:
        raise DomainError("fixation_distance")
    phi = 2.0 * math.atan2(eyes.half_ipd, fixation_distance)
    return fixation_distance - old_distance_from_angle(phi + params.beta_offset,
                                                       eyes)


def old_fixated_distance_error(distance, ipd, beta):
    d = np.asarray(distance, dtype=float)
    ipd_arr = np.asarray(ipd, dtype=float)
    tau = 2.0 * np.arctan2(ipd_arr / 2.0, d)
    half = (tau + beta) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        perceived = ipd_arr / 2.0 / np.tan(half)
        err = perceived - d
    bad = ~((half > 0.0) & (half < math.pi / 2.0) & np.isfinite(err))
    if np.any(bad):
        err = np.where(bad, np.inf, err)
    return err


def old_remap_points(xyz, half_ipd, beta):
    x, y, z = xyz[:, 0], xyz[:, 1], xyz[:, 2]
    d = np.sqrt(x * x + y * y + z * z)
    tau = 2.0 * np.arctan2(half_ipd, d)
    tilde = tau - beta
    ok_angle = (z > 0.0) & (tilde > 0.0) & (tilde < math.pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        d_tilde = half_ipd / np.tan(tilde / 2.0)
        radicand = d_tilde * d_tilde - x * x - y * y
    ok = ok_angle & (radicand > 0.0)
    if not ok.all():
        return xyz.copy(), int(np.argmin(ok))
    if beta == 0.0:
        return xyz.copy(), -1
    out = np.empty_like(xyz)
    out[:, 0] = x
    out[:, 1] = y
    out[:, 2] = np.sqrt(radicand)
    return out, -1


def old_arrowhead(beta, ipd_rows, d):
    tau = 2.0 * np.arctan2(ipd_rows / 2.0, d)
    v = (tau + beta) / 2.0
    csc2 = 1.0 / np.sin(v) ** 2
    d_beta = -(ipd_rows / 4.0) * csc2
    u = ipd_rows / (2.0 * d)
    dtau_dipd = 1.0 / (d * (1.0 + u * u))
    d_ipd = 0.5 / np.tan(v) - (ipd_rows / 4.0) * csc2 * dtau_dipd
    return d_beta, d_ipd


# ---------------------------------------------------------------------------
# The primitive.

class TestPrimitive:
    @settings(max_examples=200, deadline=None)
    @given(d=near_far, h=half_ipds, beta=small_betas)
    def test_shift_then_unshift_returns_distance(self, d, h, beta):
        there = shift_distance(d, h, beta)
        assert _ulps(shift_distance(there, h, -beta), d) <= 8
        there_all, ok = shift_distances(np.array([d]), h, beta)
        back, ok_back = shift_distances(there_all, h, -beta)
        assert ok[0] and ok_back[0]
        assert _ulps(float(back[0]), d) <= 8

    @settings(max_examples=200, deadline=None)
    @given(d=st.lists(distances, min_size=1, max_size=8), h=half_ipds,
           shift=st.one_of(st.floats(-3.5, 3.5),
                           st.sampled_from([0.0, -0.0, math.pi, -math.pi,
                                            math.nan, math.inf])))
    def test_ok_mask_is_false_exactly_where_scalar_raises(self, d, h, shift):
        _, ok = shift_distances(np.array(d), h, shift)
        assert ok.tolist() == [not _raises(shift_distance, x, h, shift)
                               for x in d]

    @settings(max_examples=200, deadline=None)
    @given(d=distances, h=st.floats(1e-4, 0.05))
    def test_angle_forms_agree_to_one_ulp(self, d, h):
        assert _ulps(float(angles_at(np.array([d]), h)[0]), angle_at(d, h)) <= 1

    @settings(max_examples=200, deadline=None)
    @given(d=near_far, h=half_ipds, beta=small_betas)
    def test_distance_forms_agree_where_both_valid(self, d, h, beta):
        # the forms differ only by libm rounding of atan2 and tan, which
        # the triangulation amplifies to a few ULP
        shifted, ok = shift_distances(np.array([d]), h, beta)
        assert ok[0]
        assert _ulps(float(shifted[0]), shift_distance(d, h, beta)) <= 4

    def test_domain_message_names_the_angle(self):
        with pytest.raises(DomainError,
                           match=r"^matched angle must be in \(0, pi\), got "):
            shift_distance(0.0005, 0.032, 0.04, "matched angle")
        with pytest.raises(DomainError, match=r"^shifted angle must be"):
            shift_distance(5.0, 0.032, -0.04)

    def test_warning_free_outside_the_domain(self):
        with np.errstate(all="raise"):
            shifted, ok = shift_distances(np.array([0.0, 1e-9, 0.5, np.nan]),
                                          0.032, math.pi)
        assert not ok.any()

    def test_subtended_angle_is_written_only_in_geometry(self):
        pattern = re.compile(r"2\.0 \* (math\.atan2|np\.arctan2)\(")
        owners = sorted(path.name for path in SRC.glob("*.py")
                        if pattern.search(path.read_text(encoding="utf-8")))
        assert owners == ["geometry.py"]


# ---------------------------------------------------------------------------
# Each wrapper against its old formula.

def _pin(new, old, *args, **kwargs):
    """new(*args) equals old(*args) bit for bit wherever it returns; where
    old raises, new raises too."""
    try:
        got = new(*args, **kwargs)
    except DomainError:
        return None
    want = old(*args, **kwargs)
    if isinstance(got, ScenePoint):
        assert [_bits(v) for v in (got.x, got.y, got.z)] == \
            [_bits(v) for v in (want.x, want.y, want.z)]
    else:
        assert _bits(got) == _bits(want)
    return got


class TestWrapperPins:
    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(-1.0, 1.0), y=st.floats(-1.0, 1.0), z=distances,
           ipd=ipds, beta=betas)
    def test_geometry_and_correction(self, x, y, z, ipd, beta):
        eyes, params = EyeGeometry(ipd), PerturbationParams(beta)
        point = ScenePoint(x, y, z)
        assert _bits(subtended_angle(point, eyes)) == \
            _bits(old_subtended_angle(point, eyes))
        tau = old_subtended_angle(point, eyes) + beta
        _pin(distance_from_angle, old_distance_from_angle, tau, eyes)
        _pin(remap_depth, old_remap_depth, z, eyes, params)
        _pin(transform_point, old_transform_point, point, eyes, params)

    @settings(max_examples=200, deadline=None)
    @given(d=distances, ipd=ipds, beta=betas)
    def test_perception(self, d, ipd, beta):
        eyes, params = EyeGeometry(ipd), PerturbationParams(beta)
        _pin(predict_endpoint, old_predict_endpoint, d, params, eyes)
        _pin(offset_as_fixation_shift, old_offset_as_fixation_shift,
             params, d, eyes)

    @settings(max_examples=200, deadline=None)
    @given(d=st.lists(distances, min_size=1, max_size=8), ipd=ipds,
           beta=st.floats(-3.5, 3.5))
    def test_fixated_distance_error(self, d, ipd, beta):
        ipd_rows = np.full(len(d), ipd)
        got = fixated_distance_error(np.array(d), ipd_rows, beta)
        assert got.tobytes() == \
            old_fixated_distance_error(np.array(d), ipd_rows, beta).tobytes()
        scalar = fixated_distance_error(d[0], ipd, beta)
        assert scalar.tobytes() == old_fixated_distance_error(d[0], ipd, beta).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
                                   st.one_of(distances, st.floats(-1.0, 0.0))),
                         min_size=1, max_size=8),
           half_ipd=st.floats(0.0005, 0.0495), beta=betas)
    def test_remap_points(self, rows, half_ipd, beta):
        xyz = np.array(rows)
        before = xyz.tobytes()
        want, want_bad = old_remap_points(xyz, half_ipd, beta)
        eyes, params = EyeGeometry(2.0 * half_ipd), PerturbationParams(beta)
        if want_bad >= 0:
            with pytest.raises(DomainError, match=rf"^point {want_bad} at "):
                transform_points(xyz, eyes, params)
        else:
            assert transform_points(xyz, eyes, params).tobytes() == want.tobytes()
        assert xyz.tobytes() == before

    @settings(max_examples=200, deadline=None)
    @given(d=st.lists(near_far, min_size=1, max_size=8), ipd=ipds,
           beta=betas)
    def test_arrowhead(self, d, ipd, beta):
        pidx = np.zeros(len(d), dtype=np.int64)
        got_beta, got_ipd = fitting._derivatives(np.array([beta, ipd]), pidx,
                                                 np.array(d))
        d_beta, d_ipd = old_arrowhead(beta, np.array([ipd])[pidx], np.array(d))
        assert got_beta.tobytes() == d_beta.tobytes()
        assert got_ipd.tobytes() == d_ipd.tobytes()

    @pytest.mark.parametrize("reach", [0.2, 0.35])
    def test_measured_disparity(self, reach):
        t = np.arange(int(1.0 * 250) + 1) / 250.0
        u = np.clip((t - 0.24) / 0.4, 0.0, 1.0)
        z = reach * (10 * u**3 - 15 * u**4 + 6 * u**5)
        traj = Trajectory(trial_id="t", sample_rate=250.0, t=t,
                          x=np.zeros_like(t), y=np.zeros_like(t), z=z)
        eyes, pose = EyeGeometry(0.063), EyePose()
        outcome = trial_outcome(traj, TargetSpec(trial_id="t", reach_m=reach),
                                eyes, pose)
        f = lowpass_filter(traj)
        i1 = outcome.segment.termination_index
        d_target = float(pose.eye_distance_of(0.0, 0.0, reach))
        d_hand = float(pose.eye_distance_of(f.x[i1], f.y[i1], f.z[i1]))
        old = (2.0 * math.atan2(eyes.half_ipd, d_target)
               - 2.0 * math.atan2(eyes.half_ipd, d_hand))
        assert _bits(outcome.disparity_difference) == _bits(old)


# ---------------------------------------------------------------------------
# The near-edge inputs on which the old formulas disagreed with each other.

class TestNearEdge:
    """d = 0.5 mm, ipd = 64 mm, beta = -0.04 rad: the corrected angle
    passes pi.  The old scalar remap returned a negative depth,
    transform_point a mirrored positive one, and transform_points refused
    the point."""

    EYES = EyeGeometry(0.064)
    PARAMS = PerturbationParams(-0.04)

    def test_remap_depth_raises(self):
        with pytest.raises(DomainError, match=r"^corrected angle must be in "):
            remap_depth(0.0005, self.EYES, self.PARAMS)
        assert old_remap_depth(0.0005, self.EYES, self.PARAMS) < 0

    def test_transform_point_raises(self):
        with pytest.raises(DomainError, match=r"^corrected angle must be"):
            transform_point(ScenePoint(0.0, 0.0, 0.0005), self.EYES,
                            self.PARAMS)

    def test_transform_points_refuses(self):
        with pytest.raises(DomainError, match="^point 0 at"):
            transform_points(np.array([[0.0, 0.0, 0.0005]]), self.EYES,
                             self.PARAMS)

    def test_predict_endpoint_raises(self):
        with pytest.raises(DomainError, match=r"^matched angle must be in "):
            predict_endpoint(0.0005, PerturbationParams(0.04), self.EYES)
