"""Offset/interpupillary fitting tests.

The generative model for a fixated target at eye distance d is

    error(d; beta, ipd) = (ipd/2) / tan((angle(d, ipd) + beta)/2) - d

which couples beta and the per-participant ipd almost perfectly through
the small-angle relation error ~ -beta d^2 / ipd: scaling both by the
same factor leaves the prediction nearly unchanged.  The fits here run
with the interpupillary box clamped to the simulated range so the scale
family is cut off; recovery against the default wide box is exercised
separately in the acceptance suite, where the degeneracy is reported.

Noise-free datasets must be recovered essentially exactly; noisy cases
are deterministic given the seed and were chosen to be comfortably away
from decision boundaries.
"""

from __future__ import annotations

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from vackit.errors import DataFormatError, DomainError
from vackit.fitting import (
    COMPARISON_HEADER,
    DEFAULT_IPD_BOUNDS,
    FitDataset,
    IdentifiabilityWarning,
    ModelSpec,
    VARIANT_WITH_OFFSET,
    VARIANT_ZERO_OFFSET,
    compare_models,
    compare_models_detailed,
    fit,
    fit_result_to_dict,
    goodness_of_fit,
    jacobian,
    residuals,
    write_comparison_csv,
    write_fit_json,
)
from vackit.kinematics import EyePose
from vackit.marquardt import finite_difference_jacobian, levenberg_marquardt
from vackit.perception import fixated_distance_error

BETA = math.radians(0.22)
SIM_IPD_BOUNDS = (0.058, 0.068)
REACHES = (0.20, 0.25, 0.30)
POSE = EyePose()


def _synthetic_dataset(n_participants: int = 6, reps: int = 8,
                       beta: float = BETA, noise_sd: float = 0.0,
                       seed: int = 0, condition: str = "original"):
    """Rows drawn from the generative model; returns (dataset, true_ipds)."""
    rng = np.random.default_rng(seed)
    ipds = rng.uniform(*SIM_IPD_BOUNDS, n_participants)
    rows = []
    for i in range(n_participants):
        pid = f"p{i:02d}"
        for reach in REACHES:
            d_eye = float(POSE.eye_distance(reach))
            bias = float(fixated_distance_error(d_eye, ipds[i], beta)) \
                if beta != 0.0 else 0.0
            for _ in range(reps):
                rows.append((pid, condition, reach,
                             bias + rng.normal(0.0, noise_sd)))
    return FitDataset.from_rows(rows), dict(
        (f"p{i:02d}", float(ipds[i])) for i in range(n_participants))


class TestFitDataset:
    def test_from_rows(self):
        ds = FitDataset.from_rows([("p0", "original", 0.25, -0.02),
                                   ("p1", "original", 0.30, -0.03)])
        assert len(ds) == 2
        assert ds.participants == ["p0", "p1"]
        assert ds.conditions == ["original"]

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            FitDataset.from_rows([])

    def test_nonpositive_reach_rejected(self):
        with pytest.raises(DomainError):
            FitDataset.from_rows([("p0", "original", 0.0, -0.02)])

    def test_nonfinite_error_rejected(self):
        with pytest.raises(DomainError):
            FitDataset.from_rows([("p0", "original", 0.25, math.nan)])

    def test_select_condition(self):
        ds = FitDataset.from_rows([("p0", "original", 0.25, -0.02),
                                   ("p0", "transformed", 0.25, 0.001)])
        sub = ds.select_condition("transformed")
        assert len(sub) == 1
        with pytest.raises(DomainError):
            ds.select_condition("nope")


class TestFromCsv:
    def _write(self, path, rows, header=None):
        header = header or ("trial_id,participant_id,condition,target_reach_m,"
                            "valid,distance_error_m")
        path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        return path

    def test_reads_valid_rows(self, tmp_path):
        p = self._write(tmp_path / "o.csv", [
            "a,p0,original,0.25,1,-0.021",
            "b,p0,original,0.30,1,-0.028",
            "c,p0,original,0.30,0,",  # rejected trial: skipped
        ])
        ds = FitDataset.from_csv(p)
        assert len(ds) == 2
        np.testing.assert_allclose(ds.distance_error, [-0.021, -0.028])

    def test_missing_column_is_format_error(self, tmp_path):
        p = self._write(tmp_path / "m.csv", ["a,p0,0.25,-0.021"],
                        header="trial_id,participant_id,target_reach_m,"
                               "distance_error_m")
        with pytest.raises(DataFormatError):
            FitDataset.from_csv(p)

    def test_bad_number_is_format_error(self, tmp_path):
        p = self._write(tmp_path / "b.csv",
                        ["a,p0,original,0.25,1,wat"])
        with pytest.raises(DataFormatError):
            FitDataset.from_csv(p)

    def test_all_rows_invalid_is_format_error(self, tmp_path):
        p = self._write(tmp_path / "e.csv", ["a,p0,original,0.25,0,"])
        with pytest.raises(DataFormatError):
            FitDataset.from_csv(p)

    # The pinned messages below are those of the csv.DictReader reader:
    # a missing field reads None, extra fields sit under the key None, the
    # last of a repeated header name wins, and blank rows are not counted.

    def _error(self, path) -> tuple[str, int | None]:
        with pytest.raises(DataFormatError) as info:
            FitDataset.from_csv(path)
        return str(info.value).replace(f" [{path}:{info.value.line}]", ""), \
            info.value.line

    def test_missing_columns_reported_on_line_one(self, tmp_path):
        p = self._write(tmp_path / "m.csv", ["a,0.25"],
                        header="trial_id,target_reach_m")
        assert self._error(p) == (
            "missing columns ['condition', 'distance_error_m', "
            "'participant_id']", 1)
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        assert self._error(empty)[1] == 1

    def test_short_row_message_and_line(self, tmp_path):
        p = self._write(tmp_path / "s.csv", ["a,p0,original,0.25,1,-0.02",
                                             "b,p0,original,0.25"])
        assert self._error(p) == (
            "bad numeric fields in {'trial_id': 'b', 'participant_id': 'p0', "
            "'condition': 'original', 'target_reach_m': '0.25', "
            "'valid': None, 'distance_error_m': None}", 3)

    def test_long_row_message_and_line(self, tmp_path):
        p = self._write(tmp_path / "l.csv", ["a,p0,original,0.25,1,-0.02",
                                             "b,p0,original,0.25,1,x,extra,9"])
        assert self._error(p) == (
            "bad numeric fields in {'trial_id': 'b', 'participant_id': 'p0', "
            "'condition': 'original', 'target_reach_m': '0.25', "
            "'valid': '1', 'distance_error_m': 'x', None: ['extra', '9']}", 3)

    def test_long_row_with_good_fields_is_read(self, tmp_path):
        p = self._write(tmp_path / "l.csv", ["a,p0,original,0.25,1,-0.02,extra"])
        ds = FitDataset.from_csv(p)
        assert ds.distance_error.tolist() == [-0.02]

    def test_blank_lines_do_not_count(self, tmp_path):
        p = self._write(tmp_path / "b.csv", ["", "a,p0,original,0.25,1,-0.02",
                                             "", "", "b,p0,original,0.25,1,oops"])
        assert self._error(p) == (
            "bad numeric fields in {'trial_id': 'b', 'participant_id': 'p0', "
            "'condition': 'original', 'target_reach_m': '0.25', "
            "'valid': '1', 'distance_error_m': 'oops'}", 3)

    def test_permuted_header(self, tmp_path):
        header = ("distance_error_m,valid,condition,target_reach_m,"
                  "participant_id,trial_id")
        p = self._write(tmp_path / "p.csv", [
            "-0.02,1,original,0.25,p0,a",
            "-0.03,0,original,bad,p0,b",   # invalid: skipped unparsed
            "-0.04,,original,0.30,p1,c",
        ], header=header)
        ds = FitDataset.from_csv(p)
        assert ds.participant_id.tolist() == ["p0", "p1"]
        assert ds.target_reach.tolist() == [0.25, 0.30]
        assert ds.distance_error.tolist() == [-0.02, -0.04]
        p = self._write(tmp_path / "q.csv", ["-0.02,1,original,0.25,p0,a",
                                             "x,1,original,0.3,p0,c"],
                        header=header)
        assert self._error(p) == (
            "bad numeric fields in {'distance_error_m': 'x', 'valid': '1', "
            "'condition': 'original', 'target_reach_m': '0.3', "
            "'participant_id': 'p0', 'trial_id': 'c'}", 3)

    def test_missing_valid_column_keeps_every_row(self, tmp_path):
        header = "trial_id,participant_id,condition,target_reach_m,distance_error_m"
        p = self._write(tmp_path / "v.csv", ["a,p0,original,0.25,-0.02",
                                             "b,p0,original,0.30,-0.03"],
                        header=header)
        assert FitDataset.from_csv(p).distance_error.tolist() == [-0.02, -0.03]
        p = self._write(tmp_path / "w.csv", ["a,p0,original,0.25,-0.02",
                                             "b,p0,original,0.25,nan?"],
                        header=header)
        assert self._error(p) == (
            "bad numeric fields in {'trial_id': 'b', 'participant_id': 'p0', "
            "'condition': 'original', 'target_reach_m': '0.25', "
            "'distance_error_m': 'nan?'}", 3)

    def test_valid_field_other_than_one_skips_the_row(self, tmp_path):
        p = self._write(tmp_path / "v.csv", ["a,p0,original,0.25,1,-0.02",
                                             "b,p0,original,0.25,true,bad",
                                             "c,p0,original,0.25,0,bad",
                                             "d,p0,original,0.30,,-0.03"])
        assert FitDataset.from_csv(p).distance_error.tolist() == [-0.02, -0.03]

    def test_quoted_field_with_comma(self, tmp_path):
        p = self._write(tmp_path / "q.csv", ['a,"p0,x",original,0.25,1,-0.02'])
        assert FitDataset.from_csv(p).participant_id.tolist() == ["p0,x"]
        p = self._write(tmp_path / "r.csv", ['a,"p0,x",original,0.25,1,-0.02',
                                             'b,"p,1",original,"0,25",1,-0.02'])
        assert self._error(p) == (
            "bad numeric fields in {'trial_id': 'b', 'participant_id': 'p,1', "
            "'condition': 'original', 'target_reach_m': '0,25', "
            "'valid': '1', 'distance_error_m': '-0.02'}", 3)

    def test_repeated_header_name_last_wins(self, tmp_path):
        header = ("trial_id,participant_id,condition,target_reach_m,valid,"
                  "distance_error_m,distance_error_m")
        p = self._write(tmp_path / "d.csv", ["a,p0,original,0.25,1,oops,-0.02"],
                        header=header)
        assert FitDataset.from_csv(p).distance_error.tolist() == [-0.02]
        p = self._write(tmp_path / "e.csv", ["a,p0,original,0.25,1,oops,-0.02",
                                             "b,p0,original,0.25,1,-0.02,bad"],
                        header=header)
        assert self._error(p) == (
            "bad numeric fields in {'trial_id': 'b', 'participant_id': 'p0', "
            "'condition': 'original', 'target_reach_m': '0.25', "
            "'valid': '1', 'distance_error_m': 'bad'}", 3)
        # a short row leaves the last copy unset, even when the first is set
        p = self._write(tmp_path / "f.csv", ["a,p0,original,0.25,1,-0.02"],
                        header=header)
        assert self._error(p) == (
            "bad numeric fields in {'trial_id': 'a', 'participant_id': 'p0', "
            "'condition': 'original', 'target_reach_m': '0.25', "
            "'valid': '1', 'distance_error_m': None}", 2)


class TestSplitIndices:
    def test_every_cell_in_both_halves(self):
        ds, _ = _synthetic_dataset(n_participants=4, reps=4)
        train, test = ds.split_indices(0.7, seed=0)
        assert len(train) + len(test) == len(ds)
        assert len(np.intersect1d(train, test)) == 0
        for idx, name in ((train, "train"), (test, "test")):
            part = ds.take(idx)
            cells = set(zip(part.participant_id.tolist(),
                            part.target_reach.tolist()))
            assert len(cells) == 4 * len(REACHES), name

    def test_fraction_respected_per_cell(self):
        ds, _ = _synthetic_dataset(n_participants=3, reps=10)
        train, test = ds.split_indices(0.7, seed=1)
        # each 10-row cell splits 7/3
        assert len(train) == 3 * len(REACHES) * 7
        assert len(test) == 3 * len(REACHES) * 3

    def test_deterministic_given_seed(self):
        ds, _ = _synthetic_dataset()
        a = ds.split_indices(0.7, seed=42)
        b = ds.split_indices(0.7, seed=42)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = ds.split_indices(0.7, seed=43)
        assert not np.array_equal(a[1], c[1])

    def test_singleton_cell_goes_to_train(self):
        ds = FitDataset.from_rows([("p0", "original", 0.25, -0.02),
                                   ("p0", "original", 0.30, -0.03),
                                   ("p0", "original", 0.30, -0.031)])
        train, test = ds.split_indices(0.7, seed=0)
        assert 0 in train  # the lone 0.25 row cannot be held out

    def test_fraction_validated(self):
        ds, _ = _synthetic_dataset(n_participants=2, reps=2)
        with pytest.raises(DomainError):
            ds.split_indices(0.0)
        with pytest.raises(DomainError):
            ds.split_indices(1.0)


class TestModelSpec:
    def test_variant_checked(self):
        with pytest.raises(DomainError):
            ModelSpec(variant="offset")

    def test_bounds_checked(self):
        with pytest.raises(DomainError):
            ModelSpec(ipd_bounds=(0.08, 0.045))
        with pytest.raises(DomainError):
            ModelSpec(beta_bounds=(0.01, 0.05))


class TestGoodnessOfFit:
    def test_hand_computed_bic(self):
        observed = np.array([1.0, 2.0, 3.0, 4.0])
        predicted = np.zeros(4)
        gof = goodness_of_fit(observed, predicted, k=1)
        assert gof.rss == pytest.approx(30.0)
        assert gof.r2 == pytest.approx(1.0 - 30.0 / 5.0)
        assert gof.bic == pytest.approx(4 * math.log(30.0 / 4) + math.log(4))

    def test_perfect_fit_r2_one(self):
        observed = np.array([1.0, 2.0, 3.0])
        gof = goodness_of_fit(observed, observed, k=1)
        assert gof.rss == 0.0
        assert gof.r2 == 1.0

    def test_underdetermined_rejected(self):
        with pytest.raises(DomainError):
            goodness_of_fit(np.array([1.0, 2.0]), np.zeros(2), k=2)


class TestResidualsAndJacobian:
    def _setup(self):
        ds, _ = _synthetic_dataset(n_participants=3, reps=2,
                                   noise_sd=0.002, seed=7)
        participants = ds.participants
        pid_index = {pid: i for i, pid in enumerate(participants)}
        pidx = np.array([pid_index[p] for p in ds.participant_id])
        d_eye = POSE.eye_distance(ds.target_reach)
        return ds, pidx, d_eye

    def test_analytic_jacobian_matches_finite_differences(self):
        ds, pidx, d_eye = self._setup()
        spec = ModelSpec(ipd_bounds=SIM_IPD_BOUNDS)
        x = np.concatenate([[math.radians(0.3)], [0.060, 0.063, 0.066]])
        analytic = jacobian(x, ds, spec, pidx, d_eye)
        fd = finite_difference_jacobian(
            lambda v: residuals(v, ds, spec, pidx, d_eye), x)
        assert float(np.max(np.abs(analytic - fd))) < 1e-5

    def test_zero_offset_prediction_and_jacobian_vanish(self):
        ds, pidx, d_eye = self._setup()
        spec = ModelSpec(variant=VARIANT_ZERO_OFFSET,
                         ipd_bounds=SIM_IPD_BOUNDS)
        x = np.array([0.060, 0.063, 0.066])
        r = residuals(x, ds, spec, pidx, d_eye)
        np.testing.assert_array_equal(r, -ds.distance_error)
        np.testing.assert_array_equal(jacobian(x, ds, spec, pidx, d_eye),
                                      np.zeros((len(ds), 3)))


class TestFit:
    def test_noise_free_recovery(self):
        ds, true_ipds = _synthetic_dataset(noise_sd=0.0, seed=3)
        spec = ModelSpec(ipd_bounds=SIM_IPD_BOUNDS)
        result = fit(ds, spec, split_seed=11)
        assert result.converged
        assert abs(result.beta - BETA) < 1e-8
        for pid, true_val in true_ipds.items():
            assert abs(result.ipd[pid] - true_val) < 1e-6
        assert result.train.rss < 1e-18

    def test_split_sizes_add_up(self):
        ds, _ = _synthetic_dataset(noise_sd=0.005, seed=5)
        result = fit(ds, ModelSpec(ipd_bounds=SIM_IPD_BOUNDS), split_seed=2)
        assert result.train.n + result.test.n == len(ds)
        assert result.test.n == pytest.approx(0.3 * len(ds), rel=0.2)

    def test_zero_offset_variant_is_inert(self):
        ds, _ = _synthetic_dataset(noise_sd=0.005, seed=6)
        spec = ModelSpec(variant=VARIANT_ZERO_OFFSET,
                         ipd_bounds=SIM_IPD_BOUNDS)
        result = fit(ds, spec)
        assert result.beta == 0.0
        assert result.converged
        # nothing constrains the inert parameters, so they stay at the
        # initial value
        assert all(v == pytest.approx(0.063) for v in result.ipd.values())

    def test_single_distance_participant_warns(self):
        rows = [("p0", "original", 0.25, -0.02)] * 6
        rows += [("p1", "original", r, -0.02 - 0.01 * i)
                 for i, r in enumerate(REACHES) for _ in range(4)]
        ds = FitDataset.from_rows(rows)
        with pytest.warns(IdentifiabilityWarning, match="p0"):
            fit(ds, ModelSpec(ipd_bounds=SIM_IPD_BOUNDS))

    def test_diverse_dataset_does_not_warn(self):
        ds, _ = _synthetic_dataset(noise_sd=0.005, seed=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", IdentifiabilityWarning)
            fit(ds, ModelSpec(ipd_bounds=SIM_IPD_BOUNDS))


def _reference_fit(ds: FitDataset, spec: ModelSpec, split_seed: int = 0):
    """The fit run the plain way: LM on the dense public jacobian()."""
    participants = ds.participants
    pid_index = {pid: i for i, pid in enumerate(participants)}
    pidx = np.array([pid_index[p] for p in ds.participant_id])
    d_eye = spec.eye_pose.eye_distance(ds.target_reach)
    train, _ = ds.split_indices(seed=split_seed)
    train_ds, pidx_train, d_train = ds.take(train), pidx[train], d_eye[train]
    first = int(spec.variant == VARIANT_WITH_OFFSET)
    x0 = np.full(first + len(participants), 0.063)
    lower = np.full_like(x0, spec.ipd_bounds[0])
    upper = np.full_like(x0, spec.ipd_bounds[1])
    if first:
        x0[0] = 0.0
        lower[0], upper[0] = spec.beta_bounds
    lm = levenberg_marquardt(
        lambda x: residuals(x, train_ds, spec, pidx_train, d_train),
        lambda x: jacobian(x, train_ds, spec, pidx_train, d_train),
        x0, lower, upper)
    beta = float(lm.x[0]) if first else 0.0
    return lm, beta, dict(zip(participants, lm.x[first:].tolist()))


class TestStructuredFit:
    """fit solves on the arrowhead structure; the dense route is the
    reference it must reproduce to rounding."""

    @pytest.mark.parametrize("variant", [VARIANT_WITH_OFFSET,
                                         VARIANT_ZERO_OFFSET])
    @pytest.mark.parametrize("bounds", [DEFAULT_IPD_BOUNDS, SIM_IPD_BOUNDS,
                                        (0.061, 0.065)],
                             ids=["default", "58-68mm", "pinned"])
    @pytest.mark.parametrize("seed", [41, 42])
    def test_matches_dense_reference(self, variant, bounds, seed):
        ds, _ = _synthetic_dataset(n_participants=12, reps=6,
                                   noise_sd=0.004, seed=seed)
        spec = ModelSpec(variant=variant, ipd_bounds=bounds)
        result = fit(ds, spec, split_seed=seed)
        lm, beta, ipd = _reference_fit(ds, spec, split_seed=seed)
        assert (result.n_iter, result.converged, result.stop_reason) == \
            (lm.n_iter, lm.converged, lm.stop_reason)
        assert abs(result.beta - beta) < 1e-10
        assert result.ipd.keys() == ipd.keys()
        assert max(abs(result.ipd[p] - ipd[p]) for p in ipd) < 1e-10
        if bounds == (0.061, 0.065) and variant == VARIANT_WITH_OFFSET:
            assert sum(v in bounds for v in result.ipd.values()) >= 2

    def test_memory_is_linear_in_rows(self):
        # 1,000 participants: the dense training Jacobian alone would
        # take about 270 MB
        rng = np.random.default_rng(5)
        n_participants, reps = 1000, 16
        ipds = rng.uniform(*SIM_IPD_BOUNDS, n_participants)
        pid = np.repeat([f"p{i:04d}" for i in range(n_participants)],
                        len(REACHES) * reps)
        reach = np.tile(np.repeat(REACHES, reps), n_participants)
        error = fixated_distance_error(POSE.eye_distance(reach),
                                       np.repeat(ipds, len(REACHES) * reps),
                                       BETA) + rng.normal(0.0, 0.002, len(pid))
        ds = FitDataset(pid, np.full(len(pid), "original"), reach, error)
        spec = ModelSpec(ipd_bounds=SIM_IPD_BOUNDS)
        dense_bytes = 8 * (1 + n_participants) * len(ds.split_indices()[0])
        assert dense_bytes > 260e6

        tracemalloc.start()
        try:
            result = fit(ds, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.converged
        assert abs(result.beta - BETA) < math.radians(0.05)
        assert peak < 0.1 * dense_bytes


class TestModelComparison:
    def test_biased_condition_selects_with_offset(self):
        ds, _ = _synthetic_dataset(n_participants=8, reps=12,
                                   noise_sd=0.005, seed=21)
        rows = compare_models(ds, ipd_bounds=SIM_IPD_BOUNDS, split_seed=1)
        selected = {r.variant: r.selected for r in rows}
        assert selected[VARIANT_WITH_OFFSET]
        assert not selected[VARIANT_ZERO_OFFSET]

    def test_unbiased_condition_selects_zero_offset(self):
        ds, _ = _synthetic_dataset(n_participants=8, reps=12, beta=0.0,
                                   noise_sd=0.005, seed=22,
                                   condition="feedforward")
        rows = compare_models(ds, ipd_bounds=SIM_IPD_BOUNDS, split_seed=1)
        selected = {r.variant: r.selected for r in rows}
        assert selected[VARIANT_ZERO_OFFSET]
        assert not selected[VARIANT_WITH_OFFSET]

    def test_variants_differ_by_one_parameter(self):
        ds, _ = _synthetic_dataset(noise_sd=0.005, seed=23)
        rows = compare_models(ds, ipd_bounds=SIM_IPD_BOUNDS)
        k = {r.variant: r.k for r in rows}
        assert k[VARIANT_WITH_OFFSET] - k[VARIANT_ZERO_OFFSET] == 1

    def test_detailed_returns_every_fit(self):
        ds, _ = _synthetic_dataset(noise_sd=0.005, seed=24)
        rows, results = compare_models_detailed(ds,
                                                ipd_bounds=SIM_IPD_BOUNDS)
        assert set(results) == {("original", VARIANT_WITH_OFFSET),
                                ("original", VARIANT_ZERO_OFFSET)}
        assert len(rows) == 2

    def test_conditions_fit_independently(self):
        a, _ = _synthetic_dataset(n_participants=4, reps=6, noise_sd=0.005,
                                  seed=25, condition="original")
        b, _ = _synthetic_dataset(n_participants=4, reps=6, beta=0.0,
                                  noise_sd=0.005, seed=26,
                                  condition="feedforward")
        merged = FitDataset(
            np.concatenate([a.participant_id, b.participant_id]),
            np.concatenate([a.condition, b.condition]),
            np.concatenate([a.target_reach, b.target_reach]),
            np.concatenate([a.distance_error, b.distance_error]),
        )
        rows = compare_models(merged, ipd_bounds=SIM_IPD_BOUNDS)
        assert {r.condition for r in rows} == {"original", "feedforward"}
        assert len(rows) == 4


class TestWriters:
    def test_comparison_csv_schema(self, tmp_path):
        ds, _ = _synthetic_dataset(noise_sd=0.005, seed=30)
        rows = compare_models(ds, ipd_bounds=SIM_IPD_BOUNDS)
        path = tmp_path / "comparison.csv"
        write_comparison_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(COMPARISON_HEADER)
        assert len(lines) == 1 + len(rows)
        assert {line.split(",")[-1] for line in lines[1:]} == {"0", "1"}

    def test_fit_json_round_trip(self, tmp_path):
        ds, _ = _synthetic_dataset(noise_sd=0.0, seed=31)
        result = fit(ds, ModelSpec(ipd_bounds=SIM_IPD_BOUNDS))
        path = tmp_path / "fit.json"
        write_fit_json(result, path)
        data = json.loads(path.read_text())
        assert data["variant"] == VARIANT_WITH_OFFSET
        assert data["beta_deg"] == pytest.approx(math.degrees(result.beta))
        assert data["ipd_mm"]["p00"] == pytest.approx(
            result.ipd["p00"] * 1000.0)
        assert data == fit_result_to_dict(result) | {
            "beta_deg": data["beta_deg"]}

    def test_default_bounds_are_physical(self):
        lo, hi = DEFAULT_IPD_BOUNDS
        assert 0.04 < lo < hi < 0.09
