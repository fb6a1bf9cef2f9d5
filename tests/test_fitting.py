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
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vackit
from vackit.errors import DataFormatError, DomainError
from vackit.fitting import (
    COMPARISON_HEADER,
    DEFAULT_BETA_BOUNDS,
    DEFAULT_IPD_BOUNDS,
    FitDataset,
    IdentifiabilityWarning,
    ModelSpec,
    VARIANT_WITH_OFFSET,
    VARIANT_ZERO_OFFSET,
    compare_models_detailed,
    fit,
    fit_result_to_dict,
    goodness_of_fit,
    residuals,
    write_comparison_csv,
    write_fit_json,
)
from vackit.kinematics import EyePose
from vackit.perception import BETA_BOUND_RAD, fixated_distance_error

from lm_reference import (
    dense_jacobian,
    finite_difference_jacobian,
    levenberg_marquardt,
)
from split_reference import split_indices_rowwise

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
        assert sub.select_condition("transformed") is sub
        with pytest.raises(DomainError):
            ds.select_condition("nope")

    def test_participant_codes_are_not_an_argument(self):
        """Codes handed in could merge participants; they are always
        worked out from the ids."""
        with pytest.raises(TypeError, match="participant_code"):
            FitDataset(np.array(["p0", "p1"], dtype=object),
                       np.array(["a", "a"], dtype=object), np.array([0.2, 0.3]),
                       np.zeros(2), participant_code=np.zeros(2, np.int64))

    @pytest.mark.parametrize("ids", [
        ["p2", "p0", "p2", "p1", "p0", "p0", "p2", "p10", "p1"],
        ["b", "a", "b", "a", "b", "a"],
        ["z"],
    ], ids=["interleaved", "alternating", "one-row"])
    def test_codes_index_the_sorted_ids(self, ids):
        n = len(ids)
        ds = FitDataset(np.array(ids, dtype=object), np.full(n, "a", dtype=object),
                        np.full(n, 0.25), np.zeros(n))
        assert ds.participants == sorted(set(ids))
        assert ds.participant_code.dtype == np.int64
        assert [ds.participants[c] for c in ds.participant_code] == ids

    def test_selected_condition_renumbers_its_participants(self):
        ds = FitDataset.from_rows([("p1", "x", 0.25, 0.0), ("p0", "y", 0.25, 0.0),
                                   ("p2", "x", 0.30, 0.0), ("p1", "y", 0.30, 0.0),
                                   ("p2", "x", 0.25, 0.0)])
        sub = ds.select_condition("x")
        assert sub.participants == ["p1", "p2"]
        assert sub.participant_code.tolist() == [0, 1, 1]


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

    def test_leading_bom_is_ignored(self, tmp_path):
        # participant_id first, so a BOM kept in the header would hide it
        header = "participant_id,condition,target_reach_m,valid,distance_error_m"
        rows = ["p0,original,0.25,1,-0.021", "p1,transformed,0.30,,-0.028"]
        plain = FitDataset.from_csv(self._write(tmp_path / "plain.csv", rows,
                                                header=header))
        bom = FitDataset.from_csv(self._write(tmp_path / "bom.csv", rows,
                                              header="\ufeff" + header))
        def columns(ds):
            return (ds.participant_id.tolist(), ds.condition.tolist(),
                    ds.target_reach.tobytes(), ds.distance_error.tobytes())
        assert columns(bom) == columns(plain)
        assert bom.participant_id.tolist() == ["p0", "p1"]

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
    # a missing field reads None, extra fields sit under the key None, and
    # the last of a repeated header name wins.  The line is the physical
    # line the row ends on.

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

    def test_row_missing_only_text_fields(self, tmp_path):
        p = self._write(tmp_path / "t.csv", ["0.30,-0.03,p0,original",
                                             "0.30,-0.03,p1"],
                        header="target_reach_m,distance_error_m,"
                               "participant_id,condition")
        assert self._error(p) == (
            "bad text fields in {'target_reach_m': '0.30', "
            "'distance_error_m': '-0.03', 'participant_id': 'p1', "
            "'condition': None}", 3)

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

    def test_blank_lines_count(self, tmp_path):
        p = self._write(tmp_path / "b.csv", ["", "a,p0,original,0.25,1,-0.02",
                                             "", "", "b,p0,original,0.25,1,oops"])
        assert self._error(p) == (
            "bad numeric fields in {'trial_id': 'b', 'participant_id': 'p0', "
            "'condition': 'original', 'target_reach_m': '0.25', "
            "'valid': '1', 'distance_error_m': 'oops'}", 6)

    def test_quoted_newline_counts(self, tmp_path):
        # the quoted id spans lines 2 and 3, so the bad row is line 4
        p = self._write(tmp_path / "q.csv", ['"a\nb",p0,original,0.25,1,-0.02',
                                             "c,p0,original,0.25,1,oops"])
        assert self._error(p) == (
            "bad numeric fields in {'trial_id': 'c', 'participant_id': 'p0', "
            "'condition': 'original', 'target_reach_m': '0.25', "
            "'valid': '1', 'distance_error_m': 'oops'}", 4)

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

    @pytest.mark.parametrize("quoted", [False, True],
                             ids=["column-parse", "row-loop"])
    @pytest.mark.parametrize("reach, error, message", [
        ("0.25", "nan", "distance_error_m must be finite"),
        ("0.25", "-inf", "distance_error_m must be finite"),
        ("-0.4", "-0.02", "target_reach_m must be finite and positive"),
        ("0", "-0.02", "target_reach_m must be finite and positive"),
        ("inf", "-0.02", "target_reach_m must be finite and positive"),
    ])
    def test_non_finite_kept_row_is_format_error(self, tmp_path, quoted,
                                                 reach, error, message):
        # a kept row names itself, the file and the line, whichever reader
        # runs; a rejected row with the same values is skipped
        pid = '"p0"' if quoted else "p0"
        p = self._write(tmp_path / "n.csv", [
            f"a,{pid},original,0.25,1,-0.02",
            f"b,{pid},original,{reach},0,{error}",
            "",
            f"c,{pid},original,{reach},1,{error}",
        ])
        assert self._error(p) == (
            f"{message} in {{'trial_id': 'c', 'participant_id': 'p0', "
            f"'condition': 'original', 'target_reach_m': '{reach}', "
            f"'valid': '1', 'distance_error_m': '{error}'}}", 5)
        with pytest.raises(DataFormatError) as info:
            FitDataset.from_csv(p)
        assert info.value.path == str(p)

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


# ids whose sort order differs by case, digits and code point, and reaches
# one ulp apart, so that cell order and cell boundaries are both exercised
TRICKY_IDS = ("p1", "p10", "p2", "P1", "9", "10", "a", "B", "b", "", " p1",
              "e", "\u00e9", "\u00df", "\u03a9", "z")
TRICKY_REACHES = (0.3, 0.30000000000000004, 0.29999999999999993, 0.25, 0.5,
                  5e-324, 1e300)


@st.composite
def _split_rows(draw):
    """(participant, reach) rows in any order, in cells of 1 to 3 rows
    (more where a cell is drawn twice)."""
    cells = draw(st.lists(st.tuples(st.sampled_from(TRICKY_IDS),
                                    st.sampled_from(TRICKY_REACHES),
                                    st.integers(1, 3)),
                          min_size=1, max_size=12))
    return draw(st.permutations([(pid, reach) for pid, reach, n in cells
                                 for _ in range(n)]))


class TestSplitIndices:
    @settings(max_examples=300, deadline=None)
    @given(rows=_split_rows(),
           fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           seed=st.integers(0, 2 ** 64))
    def test_matches_rowwise_reference(self, rows, fraction, seed):
        ds = FitDataset.from_rows([(pid, "original", reach, 0.0)
                                   for pid, reach in rows])
        got = ds.split_indices(fraction, seed)
        want = split_indices_rowwise(ds, fraction, seed)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)

    def test_every_cell_in_both_halves(self):
        ds, _ = _synthetic_dataset(n_participants=4, reps=4)
        train, test = ds.split_indices(0.7, seed=0)
        assert len(train) + len(test) == len(ds)
        assert len(np.intersect1d(train, test)) == 0
        for idx, name in ((train, "train"), (test, "test")):
            cells = set(zip(ds.participant_id[idx].tolist(),
                            ds.target_reach[idx].tolist()))
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

    @pytest.mark.parametrize("bounds", [
        (0.058, math.inf), (0.058, 0.1), (0.058, 0.3), (-math.inf, 0.068),
        (0.0, 0.068), (math.nan, 0.068), (0.058, math.nan)])
    def test_ipd_bounds_inside_eye_geometry(self, bounds):
        # EyeGeometry refuses an IPD of 0.1 m or more
        with pytest.raises(DomainError, match="interpupillary bounds"):
            ModelSpec(ipd_bounds=bounds)

    @pytest.mark.parametrize("bounds", [
        (-math.inf, 0.01), (-0.01, math.inf), (-0.01, math.nan),
        (-0.01, math.nextafter(BETA_BOUND_RAD, 1.0)),
        (-math.nextafter(BETA_BOUND_RAD, 1.0), 0.01)])
    def test_beta_bounds_inside_the_offset_bound(self, bounds):
        with pytest.raises(DomainError, match="offset bounds"):
            ModelSpec(beta_bounds=bounds)

    def test_widest_bounds_accepted(self):
        spec = ModelSpec(ipd_bounds=(1e-9, math.nextafter(0.1, 0.0)),
                         beta_bounds=(-BETA_BOUND_RAD, BETA_BOUND_RAD))
        assert spec.beta_bounds == DEFAULT_BETA_BOUNDS


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
        x = np.concatenate([[math.radians(0.3)], [0.060, 0.063, 0.066]])
        analytic = dense_jacobian(x, pidx, d_eye)
        fd = finite_difference_jacobian(
            lambda v: residuals(v, ds.distance_error, pidx, d_eye), x)
        assert float(np.max(np.abs(analytic - fd))) < 1e-5

    def test_zero_offset_prediction_and_jacobian_vanish(self):
        # zero prediction on every row: each split's RSS is its observed
        # sum of squares, and with nothing to solve no iteration runs
        ds, _, _ = self._setup()
        spec = ModelSpec(variant=VARIANT_ZERO_OFFSET,
                         ipd_bounds=SIM_IPD_BOUNDS)
        result = fit(ds, spec)
        train, test = ds.split_indices()
        for gof, rows in ((result.train, train), (result.test, test)):
            observed = ds.distance_error[rows]
            assert gof.rss == float(observed @ observed)
        assert (result.n_iter, result.converged, result.stop_reason) == \
            (0, True, "closed_form")


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
        assert (result.n_iter, result.stop_reason) == (0, "closed_form")
        # nothing constrains the inert parameters, so they stay at the
        # initial value, clipped into the bounds
        assert all(v == pytest.approx(0.063) for v in result.ipd.values())
        for bounds, start in (((0.065, 0.070), 0.065), ((0.050, 0.060), 0.060)):
            clipped = fit(ds, replace(spec, ipd_bounds=bounds))
            assert set(clipped.ipd.values()) == {start}

    def test_single_distance_participant_warns(self):
        rows = [("p0", "original", 0.25, -0.02)] * 6
        rows += [("p1", "original", r, -0.02 - 0.01 * i)
                 for i, r in enumerate(REACHES) for _ in range(4)]
        ds = FitDataset.from_rows(rows)
        with pytest.warns(IdentifiabilityWarning, match="p0"):
            fit(ds, ModelSpec(ipd_bounds=SIM_IPD_BOUNDS))

    def test_single_row_reaches_do_not_warn(self):
        # one-row cells all go to training, so two of them separate p0
        rows = [("p0", "original", 0.25, -0.02), ("p0", "original", 0.30, -0.03)]
        rows += [("p1", "original", r, -0.02 - 0.01 * i)
                 for i, r in enumerate(REACHES) for _ in range(8)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", IdentifiabilityWarning)
            fit(FitDataset.from_rows(rows), ModelSpec(ipd_bounds=SIM_IPD_BOUNDS))

    def test_cli_fit_leaves_numpy_ma_unloaded(self, tmp_path):
        ds, _ = _synthetic_dataset(n_participants=3, reps=4, noise_sd=0.002)
        lines = ["participant_id,condition,target_reach_m,distance_error_m"]
        lines += [f"{p},{c},{r!r},{e!r}" for p, c, r, e in zip(
            ds.participant_id, ds.condition, ds.target_reach.tolist(),
            ds.distance_error.tolist())]
        outcomes = tmp_path / "outcomes.csv"
        outcomes.write_text("\n".join(lines) + "\n", encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(vackit.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
        code = ("import sys; from vackit.cli import main; "
                f"rc = main(['fit', '--input', {str(outcomes)!r}, "
                f"'--out', {str(tmp_path / 'fit')!r}]); "
                "print(rc, 'numpy.ma' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines()[-1] == "0 False", out.stderr

    def test_diverse_dataset_does_not_warn(self):
        ds, _ = _synthetic_dataset(noise_sd=0.005, seed=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", IdentifiabilityWarning)
            fit(ds, ModelSpec(ipd_bounds=SIM_IPD_BOUNDS))

    @pytest.mark.parametrize("variant", [VARIANT_WITH_OFFSET,
                                         VARIANT_ZERO_OFFSET])
    def test_notes_are_the_warnings_in_participant_order(self, variant):
        # p2 comes first in the rows, but the notes follow the sorted ids
        rows = [("p2", "original", 0.30, -0.03)] * 6
        rows += [("p1", "original", r, -0.02 - 0.01 * i)
                 for i, r in enumerate(REACHES) for _ in range(4)]
        rows += [("p0", "original", 0.25, -0.02)] * 6
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fit(FitDataset.from_rows(rows),
                         ModelSpec(variant=variant, ipd_bounds=SIM_IPD_BOUNDS))
        assert all(w.category is IdentifiabilityWarning for w in caught)
        assert result.notes == tuple(str(w.message) for w in caught)
        assert result.notes == tuple(
            f"participant {pid!r} has fewer than two distinct reach "
            f"distances in the training rows; the offset and that "
            f"participant's interpupillary distance are not separable"
            for pid in ("p0", "p2"))

    @pytest.mark.parametrize("variant", [VARIANT_WITH_OFFSET,
                                         VARIANT_ZERO_OFFSET])
    def test_no_notes_when_every_participant_has_two_reaches(self, variant):
        diverse, _ = _synthetic_dataset(noise_sd=0.005, seed=8)
        # one-row cells all go to training, so two of them separate p0
        rows = [("p0", "original", 0.25, -0.02),
                ("p0", "original", 0.30, -0.03)]
        rows += [("p1", "original", r, -0.02 - 0.01 * i)
                 for i, r in enumerate(REACHES) for _ in range(8)]
        for ds in (diverse, FitDataset.from_rows(rows)):
            spec = ModelSpec(variant=variant, ipd_bounds=SIM_IPD_BOUNDS)
            with warnings.catch_warnings():
                warnings.simplefilter("error", IdentifiabilityWarning)
                assert fit(ds, spec).notes == ()


def _reference_fit(ds: FitDataset, spec: ModelSpec, split_seed: int = 0):
    """The fit run the plain way: the dense reference LM on the dense
    Jacobian; the zero-offset residual is minus the observed errors, with a
    zero Jacobian."""
    participants = ds.participants
    pid_index = {pid: i for i, pid in enumerate(participants)}
    pidx = np.array([pid_index[p] for p in ds.participant_id])
    d_eye = spec.eye_pose.eye_distance(ds.target_reach)
    train, _ = ds.split_indices(seed=split_seed)
    obs_train, pidx_train, d_train = \
        ds.distance_error[train], pidx[train], d_eye[train]
    first = int(spec.variant == VARIANT_WITH_OFFSET)
    x0 = np.full(first + len(participants), 0.063)
    lower = np.full_like(x0, spec.ipd_bounds[0])
    upper = np.full_like(x0, spec.ipd_bounds[1])
    if first:
        x0[0] = 0.0
        lower[0], upper[0] = spec.beta_bounds
        lm = levenberg_marquardt(
            lambda x: residuals(x, obs_train, pidx_train, d_train),
            lambda x: dense_jacobian(x, pidx_train, d_train),
            x0, lower, upper)
    else:
        lm = levenberg_marquardt(
            lambda x: -obs_train,
            lambda x: np.zeros((len(obs_train), len(x))),
            x0, lower, upper)
    beta = float(lm.x[0]) if first else 0.0
    return lm, beta, dict(zip(participants, lm.x[first:].tolist()))


class TestStructuredFit:
    """fit solves on the arrowhead structure; the dense route is the
    reference it must reproduce to rounding.  The zero-offset variant is
    not solved, and its inert distances are where the reference leaves
    them."""

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
        assert result.ipd.keys() == ipd.keys()
        if variant == VARIANT_ZERO_OFFSET:
            assert (result.n_iter, result.converged, result.stop_reason) == \
                (0, True, "closed_form")
            assert lm.stop_reason == "step_tolerance"
            assert (result.beta, result.ipd) == (0.0, ipd)
            return
        assert (result.n_iter, result.converged, result.stop_reason) == \
            (lm.n_iter, lm.converged, lm.stop_reason)
        assert abs(result.beta - beta) < 1e-10
        assert max(abs(result.ipd[p] - ipd[p]) for p in ipd) < 1e-10
        if bounds == (0.061, 0.065):
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
        rows = compare_models_detailed(ds, ipd_bounds=SIM_IPD_BOUNDS,
                                       split_seed=1)
        selected = {r.result.variant: r.selected for r in rows}
        assert selected[VARIANT_WITH_OFFSET]
        assert not selected[VARIANT_ZERO_OFFSET]

    def test_unbiased_condition_selects_zero_offset(self):
        ds, _ = _synthetic_dataset(n_participants=8, reps=12, beta=0.0,
                                   noise_sd=0.005, seed=22,
                                   condition="feedforward")
        rows = compare_models_detailed(ds, ipd_bounds=SIM_IPD_BOUNDS,
                                       split_seed=1)
        selected = {r.result.variant: r.selected for r in rows}
        assert selected[VARIANT_ZERO_OFFSET]
        assert not selected[VARIANT_WITH_OFFSET]

    def test_variants_differ_by_one_parameter(self):
        ds, _ = _synthetic_dataset(noise_sd=0.005, seed=23)
        rows = compare_models_detailed(ds, ipd_bounds=SIM_IPD_BOUNDS)
        k = {r.result.variant: r.result.k for r in rows}
        assert k[VARIANT_WITH_OFFSET] - k[VARIANT_ZERO_OFFSET] == 1

    def test_detailed_returns_every_fit(self):
        ds, _ = _synthetic_dataset(noise_sd=0.005, seed=24)
        rows = compare_models_detailed(ds, ipd_bounds=SIM_IPD_BOUNDS)
        assert [(r.condition, r.result.variant) for r in rows] == [
            ("original", VARIANT_WITH_OFFSET), ("original", VARIANT_ZERO_OFFSET)]

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
        rows = compare_models_detailed(merged, ipd_bounds=SIM_IPD_BOUNDS)
        assert {r.condition for r in rows} == {"original", "feedforward"}
        assert len(rows) == 4

    def test_both_variants_of_a_condition_carry_the_same_notes(self):
        # p0 keeps one reach in "original", p1 in "feedforward"
        rows = []
        for condition, single in (("original", "p0"), ("feedforward", "p1")):
            for pid in ("p0", "p1", "p2"):
                reaches = REACHES[:1] if pid == single else REACHES
                rows += [(pid, condition, r, -0.02 - 0.01 * i)
                         for i, r in enumerate(reaches) for _ in range(6)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IdentifiabilityWarning)
            detailed = compare_models_detailed(FitDataset.from_rows(rows),
                                               ipd_bounds=SIM_IPD_BOUNDS)
        notes: dict[str, list] = {}
        for row in detailed:
            notes.setdefault(row.condition, []).append(row.result.notes)
        assert {c: len(n) for c, n in notes.items()} == \
            {"original": 2, "feedforward": 2}
        for condition, single in (("original", "p0"), ("feedforward", "p1")):
            first, second = notes[condition]
            assert first == second
            assert len(first) == 1 and first[0].startswith(
                f"participant {single!r} has fewer than two")


class TestWriters:
    def test_comparison_csv_schema(self, tmp_path):
        ds, _ = _synthetic_dataset(noise_sd=0.005, seed=30)
        rows = compare_models_detailed(ds, ipd_bounds=SIM_IPD_BOUNDS)
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

    def test_fit_json_leaves_the_notes_out(self, tmp_path):
        rows = [("p0", "original", 0.25, -0.02)] * 6
        rows += [("p1", "original", r, -0.02 - 0.01 * i)
                 for i, r in enumerate(REACHES) for _ in range(4)]
        with pytest.warns(IdentifiabilityWarning):
            result = fit(FitDataset.from_rows(rows),
                         ModelSpec(ipd_bounds=SIM_IPD_BOUNDS))
        assert result.notes
        assert "notes" not in fit_result_to_dict(result)
        write_fit_json(result, tmp_path / "fit.json")
        assert "notes" not in json.loads((tmp_path / "fit.json").read_text())

    def test_default_bounds_are_physical(self):
        lo, hi = DEFAULT_IPD_BOUNDS
        assert 0.04 < lo < hi < 0.09
