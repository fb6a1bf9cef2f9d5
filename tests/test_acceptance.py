"""Headline acceptance checks for the toolkit.

Each test exercises one behavior the package is built around, end to end,
and prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) so a run doubles as a checklist:

1. corrected scenes are perceived at the true cyclopean distances
   (inverse property over a parameter grid, relative error < 1e-10, < 1 s);
2. the predicted endpoint-error curve is negative and strictly decreasing
   with distance, the corrected curve is zero, and the implied disparity
   difference equals the negated offset at every distance;
3. offset and per-participant interpupillary recovery from simulated
   cohorts succeeds across seeds (beta within 0.03 deg, median
   interpupillary error within 2 mm, 19 of 20 seeds, < 30 s);
4. test-set BIC selects the with-offset model on online-guidance data and
   the zero-offset model on feedforward data (19 of 20 seeds each);
5. the kinematics pipeline recovers movement distance within 1 mm and
   peak velocity within 1%, with the required filter gains and zero
   phase shift (< 5 s);
6. a zero offset turns every perception, correction, and simulation step
   into an identity (1e-12), the two disparity-rate definitions agree
   (1e-12), and the two angle-computation routes agree (1e-10);
7. the bounded optimizer matches the closed-form linear solution
   (1e-10) and its finite-difference probe matches the analytic
   derivative (1e-5).
"""

from __future__ import annotations

import math
import time

import numpy as np

from vackit.correction import (
    MeshModel,
    predicted_correction_curve,
    remap_depth,
    transform_mesh,
    transform_point,
    transform_points,
)
from vackit.fitting import (
    DEFAULT_BETA_BOUNDS,
    DEFAULT_IPD_BOUNDS,
    FitDataset,
    ModelSpec,
    compare_models_detailed,
    fit,
    residuals,
)
from vackit.geometry import (
    AngleTimeSeries,
    EyeGeometry,
    FixationState,
    ScenePoint,
    cdot,
    convergence_angle,
    disparity,
    disparity_from_vergence,
    iovd,
    subtended_angle,
    visual_angles,
)
from vackit.kinematics import (
    EyePose,
    Trajectory,
    detect_segment,
    differentiate,
    lowpass_filter,
)
from vackit.perception import (
    PerturbationParams,
    ViewingConfiguration,
    fixated_distance_error,
    perceived_distance,
    predict_endpoint,
)
from vackit.synth import SimConfig, generate_participants, generate_trials

from lm_reference import dense_jacobian, finite_difference_jacobian

BETA_DEG = 0.22
POSE = EyePose()
SIM_IPD_BOUNDS = (0.058, 0.068)


def _report(label: str, ok: bool, detail: str = "") -> str:
    line = f"{'PASS' if ok else 'FAIL'}: {label}"
    if detail:
        line += f" [{detail}]"
    print(line)
    return line


def test_corrected_scene_recovers_true_distances():
    """Remapping then perceiving under the same offset is the identity.

    1000-point grid (lateral offsets to +-0.3 m, depths 0.2-1.5 m) crossed
    with four offsets and three interpupillary distances.  The remap runs
    through transform_points, the perception step through the fitting fast
    path, so the two sides of the identity share no code.
    """
    start = time.perf_counter()
    axis = np.linspace(-0.3, 0.3, 10)
    depths = np.linspace(0.2, 1.5, 10)
    gx, gy, gz = np.meshgrid(axis, axis, depths, indexing="ij")
    points = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    true_distance = np.linalg.norm(points, axis=1)
    worst = 0.0
    for beta_deg in (0.1, 0.22, 0.5, 0.75):
        beta = math.radians(beta_deg)
        for ipd_mm in (58, 63, 68):
            ipd = ipd_mm / 1000.0
            corrected = transform_points(points, EyeGeometry(ipd),
                                         PerturbationParams(beta))
            d_corr = np.linalg.norm(corrected, axis=1)
            perceived = d_corr + fixated_distance_error(d_corr, ipd, beta)
            rel = float(np.max(np.abs(perceived - true_distance)
                               / true_distance))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    line = _report("corrected scenes perceived at true distances", ok,
                   f"worst rel err {worst:.2e}, {elapsed:.2f}s")
    assert ok, line


def test_predicted_error_curve_shape_and_nulling():
    """Uncorrected errors grow with distance; corrected errors vanish.

    The implied disparity difference is checked in angle space: the
    predicted endpoint's subtended angle exceeds the target's by exactly
    the offset, so the sensed hand-minus-target disparity difference is
    the negated offset at every distance.  The end-of-reach value realized
    on the table plane is reported alongside for comparison.
    """
    eyes = EyeGeometry(ipd=0.063)
    params = PerturbationParams(beta_offset=math.radians(BETA_DEG))
    reaches = np.linspace(0.20, 0.35, 16)
    distances = POSE.eye_distance(reaches)
    rows = predicted_correction_curve(distances, eyes, params)
    original = np.array([row.original_error for row in rows])
    transformed = np.array([row.transformed_error for row in rows])

    curve_ok = bool(np.all(original < 0) and np.all(np.diff(original) < 0))
    nulled_ok = float(np.max(np.abs(transformed))) < 1e-12

    implied_ok = True
    for d, err in zip(distances, original):
        angle_target = subtended_angle(ScenePoint(0, 0, d), eyes)
        angle_hand = subtended_angle(ScenePoint(0, 0, d + err), eyes)
        if abs((angle_target - angle_hand) + params.beta_offset) >= 1e-12:
            implied_ok = False

    ok = curve_ok and nulled_ok and implied_ok
    line = _report(
        "predicted error curve negative, strictly decreasing, nulled by "
        "correction, implied disparity difference = -offset", ok,
        f"errors {original[0] * 1000:.1f}..{original[-1] * 1000:.1f} mm")
    table = _table_plane_disparity_differences()
    print(f"report: realized table-plane disparity difference "
          f"{table[0]:.3f}..{table[-1]:.3f} deg across 0.20-0.35 m reaches "
          f"(angular offset {-BETA_DEG:.2f} deg)")
    assert ok, line


def _table_plane_disparity_differences() -> list[float]:
    config = SimConfig(n_participants=1, repetitions=1,
                       reach_distances=(0.20, 0.25, 0.30, 0.35),
                       ipd_low=0.063, ipd_high=0.063,
                       beta=math.radians(BETA_DEG), motor_noise_sd=0.0,
                       seed=0)
    trials = generate_trials(config, generate_participants(config))
    return [math.degrees(d) for d in trials.disparity_difference.tolist()]


def _simulated_dataset(seed: int, beta_deg: float, feedback: str,
                       n_participants: int, repetitions: int):
    config = SimConfig(n_participants=n_participants,
                       repetitions=repetitions,
                       reach_distances=(0.20, 0.25, 0.30),
                       motor_noise_sd=0.005,
                       beta=math.radians(beta_deg), feedback=feedback,
                       seed=seed)
    participants = generate_participants(config)
    trials = generate_trials(config, participants)
    rows = list(zip(trials.participant_id, trials.condition,
                    trials.reach_m.tolist(), trials.distance_error.tolist()))
    return FitDataset.from_rows(rows), participants


def test_offset_and_ipd_recovery_across_seeds():
    """Cohort fits recover the configured offset and interpupillaries.

    20 seeds of 20 participants x 3 distances x 48 repetitions at 5 mm
    motor noise.  The interpupillary box is clamped to the simulated
    population range: offset and interpupillary scale a shared error
    family, so an unconstrained box leaves the pair identifiable only up
    to that scale (the wide-box fit is reported, not asserted).
    """
    start = time.perf_counter()
    spec = ModelSpec(variant="with-offset", eye_pose=POSE,
                     ipd_bounds=SIM_IPD_BOUNDS)
    good = 0
    worst_beta = 0.0
    worst_median = 0.0
    for seed in range(20):
        dataset, participants = _simulated_dataset(
            seed, BETA_DEG, "online", n_participants=20, repetitions=48)
        result = fit(dataset, spec, train_fraction=0.70, split_seed=seed)
        beta_err = abs(math.degrees(result.beta) - BETA_DEG)
        ipd_errs = [abs(result.ipd[p.participant_id] - p.ipd) * 1000
                    for p in participants]
        median_err = float(np.median(ipd_errs))
        worst_beta = max(worst_beta, beta_err)
        worst_median = max(worst_median, median_err)
        if beta_err <= 0.03 and median_err <= 2.0:
            good += 1
    elapsed = time.perf_counter() - start
    ok = good >= 19 and elapsed < 30.0
    line = _report("offset and interpupillary recovery across seeds", ok,
                   f"{good}/20 seeds, worst |beta err| {worst_beta:.4f} deg, "
                   f"worst median ipd err {worst_median:.2f} mm, "
                   f"{elapsed:.1f}s")

    wide = ModelSpec(variant="with-offset", eye_pose=POSE,
                     ipd_bounds=DEFAULT_IPD_BOUNDS)
    dataset, _ = _simulated_dataset(0, BETA_DEG, "online",
                                    n_participants=20, repetitions=48)
    wide_fit = fit(dataset, wide, train_fraction=0.70, split_seed=0)
    print(f"report: factory interpupillary box recovers beta = "
          f"{math.degrees(wide_fit.beta):.3f} deg (scale family; "
          f"not asserted)")
    assert ok, line


def test_variant_selection_tracks_guidance_mode():
    """Held-out BIC picks the offset model only when guidance can use it.

    Online-guidance cohorts are generated with the 0.22 deg offset and
    feedforward cohorts with none (open-loop endpoints carry no offset
    signature, only inflated variance), so the selection must flip.
    """
    start = time.perf_counter()

    def winner(seed: int, beta_deg: float, feedback: str) -> str:
        dataset, _ = _simulated_dataset(seed, beta_deg, feedback,
                                        n_participants=12, repetitions=24)
        rows = compare_models_detailed(
            dataset, POSE, SIM_IPD_BOUNDS, DEFAULT_BETA_BOUNDS,
            train_fraction=0.70, split_seed=seed)
        return next(row.result.variant for row in rows if row.selected)

    online = sum(winner(seed, BETA_DEG, "online") == "with-offset"
                 for seed in range(20))
    feedforward = sum(winner(seed, 0.0, "feedforward") == "zero-offset"
                      for seed in range(20))
    elapsed = time.perf_counter() - start
    ok = online >= 19 and feedforward >= 19
    line = _report("model selection tracks guidance mode", ok,
                   f"online {online}/20 with-offset, feedforward "
                   f"{feedforward}/20 zero-offset, {elapsed:.1f}s")
    assert ok, line


def _minimum_jerk_trajectory(distance: float, duration: float,
                             rest: float = 0.24,
                             fs: float = 250.0) -> Trajectory:
    n = int(round((2 * rest + duration) * fs)) + 1
    t = np.arange(n) / fs
    u = np.clip((t - rest) / duration, 0.0, 1.0)
    z = distance * (10 * u ** 3 - 15 * u ** 4 + 6 * u ** 5)
    zeros = np.zeros_like(t)
    return Trajectory(trial_id="probe", sample_rate=fs, t=t,
                      x=zeros, y=zeros, z=z)


def _tone_gain(freq: float, fs: float = 250.0) -> float:
    n = int(round(2.0 * fs)) + 1
    t = np.arange(n) / fs
    z = 0.01 * np.sin(2 * math.pi * freq * t)
    zeros = np.zeros_like(t)
    traj = Trajectory(trial_id="tone", sample_rate=fs, t=t,
                      x=zeros, y=zeros, z=z)
    out = lowpass_filter(traj, 10.0)
    keep = slice(50, -50)
    basis = np.column_stack([np.sin(2 * math.pi * freq * t[keep]),
                             np.cos(2 * math.pi * freq * t[keep])])
    coef_out, *_ = np.linalg.lstsq(basis, out.z[keep], rcond=None)
    coef_in, *_ = np.linalg.lstsq(basis, z[keep], rcond=None)
    return float(np.hypot(*coef_out) / np.hypot(*coef_in))


def test_kinematics_pipeline_oracles():
    """Filter, differentiate, segment: checked against exact profiles.

    Smooth point-to-point profiles have peak depth velocity
    1.875 * distance / duration; the pipeline must recover that peak
    within 1% and the travelled distance within 1 mm.  The 10 Hz filter
    must pass 1 Hz at >= 99%, cut 25 Hz to <= 3%, and add no phase shift.
    """
    start = time.perf_counter()

    distance_ok = True
    worst_miss = 0.0
    for distance in (0.20, 0.25):
        traj = lowpass_filter(_minimum_jerk_trajectory(distance, 0.4))
        segment = detect_segment(differentiate(traj), threshold=0.05)
        assert segment is not None
        moved = traj.z[segment.termination_index] - traj.z[segment.onset_index]
        miss = abs(moved - distance)
        worst_miss = max(worst_miss, miss)
        if miss >= 1e-3:
            distance_ok = False

    traj = lowpass_filter(_minimum_jerk_trajectory(0.25, 0.6))
    peak = float(np.max(differentiate(traj).depth))
    expected_peak = 1.875 * 0.25 / 0.6
    peak_ok = abs(peak - expected_peak) / expected_peak < 0.01

    gain_pass = _tone_gain(1.0)
    gain_stop = _tone_gain(25.0)
    gain_ok = gain_pass >= 0.99 and gain_stop <= 0.03

    sine = _minimum_jerk_trajectory(0.0, 0.4)
    t = sine.t
    probe = Trajectory(trial_id="phase", sample_rate=250.0, t=t,
                       x=np.zeros_like(t), y=np.zeros_like(t),
                       z=0.01 * np.sin(2 * math.pi * 1.0 * t))
    filtered = lowpass_filter(probe, 10.0)
    a = probe.z[50:-50] - np.mean(probe.z[50:-50])
    b = filtered.z[50:-50] - np.mean(filtered.z[50:-50])
    phase_ok = int(np.argmax(np.correlate(b, a, mode="full"))) == len(a) - 1

    elapsed = time.perf_counter() - start
    ok = (distance_ok and peak_ok and gain_ok and phase_ok
          and elapsed < 5.0)
    line = _report("kinematics pipeline oracles", ok,
                   f"worst distance miss {worst_miss * 1000:.2f} mm, peak "
                   f"err {abs(peak - expected_peak) / expected_peak:.2%}, "
                   f"gains {gain_pass:.4f}/{gain_stop:.4f}, {elapsed:.1f}s")
    assert ok, line


def test_zero_offset_identities_and_route_agreement():
    """No offset means no distortion, checked across every layer."""
    rng = np.random.default_rng(2024)
    eyes = EyeGeometry(ipd=0.063)
    none = PerturbationParams(beta_offset=0.0)
    ok = True

    # perception: perceived distance equals true cyclopean distance
    for _ in range(100):
        target = ScenePoint(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2),
                            rng.uniform(0.2, 1.5))
        fix = FixationState(ScenePoint(rng.uniform(-0.2, 0.2),
                                       rng.uniform(-0.1, 0.1),
                                       rng.uniform(0.3, 1.2)), eyes)
        config = ViewingConfiguration(eyes=eyes, fixation=fix, target=target)
        truth = math.sqrt(target.x ** 2 + target.y ** 2 + target.z ** 2)
        if abs(perceived_distance(config, none) - truth) >= 1e-12:
            ok = False
    distances = np.linspace(0.2, 1.5, 50)
    if float(np.max(np.abs(fixated_distance_error(distances, 0.063,
                                                  0.0)))) >= 1e-12:
        ok = False
    if abs(predict_endpoint(0.45, none, eyes) - 0.45) >= 1e-12:
        ok = False

    # correction: remaps are exact pass-throughs
    points = np.column_stack([rng.uniform(-0.3, 0.3, 200),
                              rng.uniform(-0.2, 0.2, 200),
                              rng.uniform(0.2, 1.5, 200)])
    if not np.array_equal(transform_points(points, eyes, none), points):
        ok = False
    if abs(remap_depth(0.45, eyes, none) - 0.45) >= 1e-12:
        ok = False
    moved = transform_point(ScenePoint(0.1, -0.05, 0.6), eyes, none)
    if (moved.x, moved.y, moved.z) != (0.1, -0.05, 0.6):
        ok = False
    mesh = MeshModel(vertices=points[:30], faces=np.array([[0, 1, 2]]))
    if not np.array_equal(transform_mesh(mesh, eyes, none).vertices,
                          mesh.vertices):
        ok = False
    for row in predicted_correction_curve([0.3, 0.5, 0.9], eyes, none):
        if abs(row.original_error) >= 1e-12 or \
                abs(row.transformed_error) >= 1e-12:
            ok = False

    # simulation: noise-free trials carry no error at all
    config = SimConfig(n_participants=3, repetitions=2, beta=0.0,
                       motor_noise_sd=0.0, seed=3)
    trials = generate_trials(config, generate_participants(config))
    # the distance error is the endpoint error too
    if max(np.abs(trials.distance_error).max(),
           np.abs(trials.disparity_difference).max()) >= 1e-12:
        ok = False

    # the two disparity-rate definitions are the same linear functional
    left = np.cumsum(rng.normal(0.0, 1e-3, 400)) + 0.12
    right = np.cumsum(rng.normal(0.0, 1e-3, 400)) + 0.05
    series = AngleTimeSeries(250.0, (left, right))
    if float(np.max(np.abs(cdot(series) - iovd(series)))) >= 1e-12:
        ok = False

    # per-eye angle route vs vergence route, randomized configurations
    worst_route = 0.0
    for _ in range(300):
        geom = EyeGeometry(ipd=rng.uniform(0.05, 0.08))
        fix = FixationState(ScenePoint(rng.uniform(-0.3, 0.3),
                                       rng.uniform(-0.2, 0.2),
                                       rng.uniform(0.2, 2.0)), geom)
        target = ScenePoint(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2),
                            rng.uniform(0.2, 2.0))
        per_eye = disparity(visual_angles(target, fix, geom))
        via_vergence = disparity_from_vergence(
            fix.vergence_angle, convergence_angle(target, geom))
        worst_route = max(worst_route, abs(per_eye - via_vergence))
    if worst_route >= 1e-10:
        ok = False

    line = _report("zero-offset identities and angle-route agreement", ok,
                   f"worst route gap {worst_route:.2e}")
    assert ok, line


def test_optimizer_matches_closed_form_and_differences():
    """The damped solver lands on the least-squares solution exactly.

    A noise-free cohort has one global optimum, at the generating offset
    and distances; the with-offset fit must recover each to 1e-10.  The
    finite-difference probe is validated against the analytic derivative
    of the endpoint-error model at an interior point.
    """
    true_beta = math.radians(BETA_DEG)
    true_ipds = {"p0": 0.0592, "p1": 0.0618, "p2": 0.0641, "p3": 0.0673}
    rows = [(pid, "original", reach,
             float(fixated_distance_error(float(POSE.eye_distance(reach)), ipd,
                                          true_beta)))
            for pid, ipd in true_ipds.items()
            for reach in (0.20, 0.25, 0.30, 0.35) for _ in range(4)]
    result = fit(FitDataset.from_rows(rows),
                 ModelSpec(eye_pose=POSE, ipd_bounds=SIM_IPD_BOUNDS))
    worst_gap = max([abs(result.beta - true_beta)]
                    + [abs(result.ipd[p] - v) for p, v in true_ipds.items()])
    fit_ok = result.converged and worst_gap < 1e-10

    rows = [(f"p{i}", "original", reach, 0.0)
            for i in range(3) for reach in (0.20, 0.25, 0.30)]
    dataset = FitDataset.from_rows(rows)
    pid_index = {pid: i for i, pid in enumerate(dataset.participants)}
    pidx = np.array([pid_index[p] for p in dataset.participant_id])
    d_eye = POSE.eye_distance(dataset.target_reach)
    x = np.concatenate([[math.radians(0.25)], [0.059, 0.064, 0.067]])
    analytic = dense_jacobian(x, pidx, d_eye)
    probed = finite_difference_jacobian(
        lambda v: residuals(v, dataset.distance_error, pidx, d_eye), x)
    jac_gap = float(np.max(np.abs(analytic - probed)))
    jac_ok = jac_gap < 1e-5

    ok = fit_ok and jac_ok
    line = _report("optimizer matches closed form and finite differences",
                   ok, f"solution gap {worst_gap:.2e}, jacobian gap "
                       f"{jac_gap:.2e}")
    assert ok, line
