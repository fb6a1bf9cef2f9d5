"""Pipeline-wide robustness properties, driven through ``cli.main``.

Each example runs the command line in process on drawn inputs inside the
documented domains, and checks the exit-code contract (0 success, 1 usage
or domain error, 2 data error) together with what the run reports: every
stderr line is a ``vackit: `` line, never a traceback, and a failed run
says why in exactly one error line.

The ``analyze`` slice simulates a small cohort with trajectories at a
drawn sample rate, noise and timing, analyzes it with a drawn cutoff (at
or above some rates' Nyquist frequency), and checks that every trial gets
one outcomes row and every valid row finite measures.

The ``fit`` slice simulates one or two small cohorts without trajectories,
joins their outcomes as one file, and fits it with a drawn variant, drawn
bounds and a drawn eye pose, which may put the eye at a target's depth.
A one-iteration cap on the solver is drawn too, so that fits that did not
converge are common.

The noise-free recovery slice simulates a cohort at motor noise 0 and
fits it under an IPD box equal to the simulated IPD range, and checks
that the offset and every IPD come back.

The ``predict`` slice draws an offset, an IPD and a distance list, each
inside or outside its domain (zero, negative, subnormal, huge, nan and
infinite values, empty and malformed list entries), and checks that a
run that succeeds writes one finite row per distance.

The ``transform`` slice draws an OBJ mesh or a points CSV (tabs, CRLF
line ends, negative face references, quads, a byte-order mark, and
coordinates at or behind the eye) and an offset and IPD as ``predict``
draws them, and checks that a run that succeeds writes one vertex or
point per input one.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from vackit import fitting
from vackit.cli import main
from vackit.meshio import read_obj, read_points_csv

REACHES = (0.15, 0.20, 0.25, 0.30, 0.35)
ERROR_PREFIXES = ("vackit: error: ", "vackit: data error: ")


def _run(argv: list[str]) -> tuple[int, str, str]:
    """main(argv) with its exit code, stdout and stderr; a warning that
    escapes main would reach stderr as a line of its own, so none may."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as escaped, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in escaped] == []
    return code, out.getvalue(), err.getvalue()


def _check_report(code: int, err: str) -> None:
    """The exit-code contract: 0, 1 or 2, only ``vackit: `` lines on
    stderr, and exactly one error line when the run failed."""
    assert code in (0, 1, 2)
    assert all(line.startswith("vackit: ") for line in err.splitlines()), err
    errors = [line for line in err.splitlines()
              if line.startswith(ERROR_PREFIXES)]
    assert len(errors) == (1 if code else 0), err


def _write_json(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


MEASURES = ("movement_distance_m", "distance_error_m", "endpoint_error_m",
            "disparity_difference_rad")
EYE_POSE = {"behind_m": 0.30, "above_m": 0.35, "lateral_m": 0.0, "ipd_mm": 63}


def _simulate_configs() -> st.SearchStrategy[dict]:
    """A small simulate config with trajectories, inside the documented
    domains."""
    return st.fixed_dictionaries({
        "condition": st.sampled_from(["original", "transformed"]),
        "feedback": st.sampled_from(["online", "feedforward"]),
        "reach_distances_m": st.lists(st.sampled_from(REACHES), min_size=1,
                                      max_size=3, unique=True),
        "repetitions": st.integers(1, 3),
        "n_participants": st.integers(1, 3),
        "sample_rate_hz": st.floats(100.0, 500.0),
        "trajectory_noise_sd_mm": st.sampled_from([0.0, 0.2, 2.0, 10.0]),
        "movement_duration_s": st.sampled_from([0.1, 0.4, 1.0]),
        "rest_padding_s": st.sampled_from([0.2, 0.24, 0.5]),
        "seed": st.integers(0, 2 ** 16),
    })


class TestAnalyzeRobustness:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cohort=_simulate_configs(),
           cutoff=st.sampled_from([None, 6.0, 45.0, 60.0, 100.0]))
    def test_every_trial_gets_a_row_with_finite_measures(self, cohort,
                                                          cutoff):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            sim = tmp / "sim"
            code, _, err = _run(["simulate", "--config", _write_json(
                tmp / "sim.json", cohort), "--out", str(sim)])
            assert (code, err) == (0, "")
            argv = ["analyze", "--input", str(sim / "trajectories.csv"),
                    "--targets", str(sim / "targets.json"),
                    "--eye-pose", _write_json(tmp / "pose.json", EYE_POSE),
                    "--out", str(tmp / "analysis")]
            if cutoff is not None:
                argv += ["--cutoff-hz", str(cutoff)]
            code, _, err = _run(argv)
            _check_report(code, err)
            if code:
                return
            with (tmp / "analysis" / "outcomes.csv").open(
                    encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == (cohort["n_participants"]
                                 * len(cohort["reach_distances_m"])
                                 * cohort["repetitions"])
            for row in rows:
                if row["valid"] == "1":
                    assert all(math.isfinite(float(row[key]))
                               for key in MEASURES), row


@st.composite
def _fit_runs(draw) -> tuple[list[dict], dict]:
    """One simulate config per condition of the joined outcomes file, and
    the fit config."""
    reaches = draw(st.lists(st.sampled_from(REACHES), min_size=1, max_size=3,
                            unique=True))
    conditions = draw(st.lists(st.sampled_from(["original", "transformed"]),
                               min_size=1, max_size=2, unique=True))
    cohorts = [{
        "condition": condition,
        "feedback": draw(st.sampled_from(["online", "feedforward"])),
        "response_mixture": draw(st.sampled_from(
            [None, [0.8, 0.1, 0.1], [0.0, 1.0, 0.0], [0.2, 0.0, 1.0]])),
        "reach_distances_m": reaches,
        "repetitions": draw(st.integers(1, 3)),
        "n_participants": draw(st.integers(1, 12)),
        "seed": draw(st.integers(0, 2 ** 16)),
        "write_trajectories": False,
    } for condition in conditions]
    # bounds that exit 1 are drawn, but seldom enough that most fits run
    config = {}
    if draw(st.booleans()):
        config["ipd_bounds_mm"] = draw(st.sampled_from(
            [[45, 80], [58, 68], [63, 63.5], [45, 80], [58, 68], [68, 58]]))
    if draw(st.booleans()):
        config["beta_bounds_deg"] = draw(st.sampled_from(
            [[-2.0, 2.0], [-0.1, 0.5], [-0.5, 0.05], [0.1, 0.5]]))
    if draw(st.integers(0, 3)) == 0:
        # behind_m = -reach with no height puts the eye on that target
        behind, above = draw(st.sampled_from(
            [(0.30, 0.35)] + [(-reach, 0.0) for reach in reaches]))
        config["eye_pose"] = {"behind_m": behind, "above_m": above,
                              "lateral_m": 0.0}
    return cohorts, config


class TestFitRobustness:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(run=_fit_runs(),
           variant=st.sampled_from(["both", "with-offset", "zero-offset"]),
           max_iter=st.sampled_from([1, fitting.MAX_ITER]))
    def test_fit_reports_what_it_wrote(self, run, variant, max_iter):
        cohorts, config = run
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            lines: list[str] = []
            for i, cohort in enumerate(cohorts):
                sim = tmp / f"sim{i}"
                code, _, err = _run(["simulate", "--config", _write_json(
                    tmp / f"sim{i}.json", cohort), "--out", str(sim)])
                assert (code, err) == (0, "")
                text = (sim / "outcomes.csv").read_text(encoding="utf-8")
                lines += text.splitlines(keepends=True)[1 if lines else 0:]
            outcomes = tmp / "outcomes.csv"
            outcomes.write_text("".join(lines), encoding="utf-8")
            outdir = tmp / "fits"
            default_max_iter = fitting.MAX_ITER
            fitting.MAX_ITER = max_iter
            try:
                code, out, err = _run([
                    "fit", "--input", str(outcomes), "--variant", variant,
                    "--config", _write_json(tmp / "fit.json", config),
                    "--out", str(outdir)])
            finally:
                fitting.MAX_ITER = default_max_iter
            _check_report(code, err)
            if code:
                return

            def converged(condition: str, fit_variant: str) -> bool:
                path = outdir / f"fit_{condition}_{fit_variant}.json"
                return json.loads(path.read_text(encoding="utf-8"))["converged"]

            if variant == "both":
                with (outdir / "comparison.csv").open(
                        encoding="utf-8", newline="") as fh:
                    for row in csv.DictReader(fh):
                        if row["selected"] == "1":
                            assert converged(row["condition"], row["variant"])
            reported = [c["condition"] for c in cohorts]
            assert len(out.splitlines()) == len(reported)
            for line in out.splitlines():
                head, text = line.split(": ", 1)
                condition = head.removeprefix("condition ")
                assert condition in reported
                fit_variant = text.split()[1] if variant == "both" else variant
                assert line.endswith(" (not converged)") == \
                    (not converged(condition, fit_variant))


@st.composite
def _noise_free_cohorts(draw) -> dict:
    """A simulate config at motor noise 0 with an offset of 0.01 to 2
    degrees either way, and IPDs drawn uniform or normal (clipped onto
    their range's ends) in a range 0.5 to 10 mm wide inside 45-80 mm.  Two
    to six participants reach two to four distances two to four times
    each, so both splits hold more rows than the fit has parameters."""
    low = draw(st.floats(45.0, 70.0))
    high = low + draw(st.floats(0.5, 10.0))
    config = {
        "n_participants": draw(st.integers(2, 6)),
        "seed": draw(st.integers(0, 2 ** 16)),
        "beta_deg": draw(st.floats(0.01, 2.0)) * draw(st.sampled_from([1, -1])),
        "motor_noise_sd_mm": 0,
        "reach_distances_m": draw(st.lists(st.sampled_from(REACHES),
                                           min_size=2, max_size=4,
                                           unique=True)),
        "repetitions": draw(st.integers(2, 4)),
        "ipd_low_mm": low,
        "ipd_high_mm": high,
        "write_trajectories": False,
    }
    if draw(st.booleans()):
        config |= {"ipd_distribution": "normal",
                   "ipd_mean_mm": draw(st.floats(low, high)),
                   "ipd_sd_mm": draw(st.floats(0.0, 5.0))}
    return config


class TestNoiseFreeRecovery:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cohort=_noise_free_cohorts())
    def test_fit_recovers_the_offset_and_every_ipd(self, cohort):
        """At motor noise 0, under an IPD box equal to the simulated IPD
        range, the with-offset fit recovers the offset within 1e-4 deg and
        each IPD within 1e-6 m.  The offset stays at least 0.01 deg from
        0: at 0 the model's errors do not depend on the IPDs."""
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            sim = tmp / "sim"
            code, _, err = _run(["simulate", "--config", _write_json(
                tmp / "sim.json", cohort), "--out", str(sim)])
            assert (code, err) == (0, "")
            config = {"ipd_bounds_mm": [cohort["ipd_low_mm"],
                                        cohort["ipd_high_mm"]]}
            code, _, err = _run([
                "fit", "--input", str(sim / "outcomes.csv"),
                "--variant", "with-offset",
                "--config", _write_json(tmp / "fit.json", config),
                "--out", str(tmp / "fits")])
            _check_report(code, err)
            assert (code, err) == (0, "")
            result = json.loads((tmp / "fits" / "fit_original_with-offset.json")
                                .read_text(encoding="utf-8"))
            with (sim / "participants.csv").open(encoding="utf-8",
                                                  newline="") as fh:
                truth = {row["participant_id"]: float(row["ipd_m"])
                         for row in csv.DictReader(fh)}
        assert result["converged"]
        assert abs(result["beta_deg"] - cohort["beta_deg"]) <= 1e-4
        assert result["ipd_m"].keys() == truth.keys()
        for pid, ipd in truth.items():
            assert abs(result["ipd_m"][pid] - ipd) <= 1e-6, pid


def _surface_floats(low: float, high: float) -> st.SearchStrategy[float]:
    """Floats inside [low, high], and values at or past every edge."""
    return st.floats(low, high) | st.sampled_from(
        [0.0, -0.0, 5e-324, -1e-300, low, high, 2 * high, -high, 1e308,
         math.nan, math.inf, -math.inf])


class TestPredictRobustness:
    @settings(max_examples=300, deadline=None)
    @given(beta=_surface_floats(-3.0, 3.0), ipd=_surface_floats(40.0, 100.0),
           distances=st.lists(_surface_floats(1e-4, 100.0).map(repr)
                              | st.sampled_from(["", " ", "abc", "1,5"]),
                              max_size=4))
    def test_curve_or_one_error_line(self, beta, ipd, distances):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "curve.csv"
            # "=" keeps a value that starts with "-" from reading as a flag
            code, stdout, err = _run([
                "predict", f"--beta-deg={beta!r}", f"--ipd-mm={ipd!r}",
                f"--distances={','.join(distances)}", f"--out={out}"])
            _check_report(code, err)
            if code:
                return
            with out.open(encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            assert len(rows) == len(stdout.splitlines())
            assert len(rows) == len([d for d in ",".join(distances).split(",")
                                     if d.strip()])
            assert all(math.isfinite(float(value)) for row in rows
                       for value in row), rows


def _coordinates() -> st.SearchStrategy[str]:
    """A coordinate as a file spells it: mostly a plausible scene value,
    sometimes zero, huge or non-finite."""
    return (st.floats(-3.0, 3.0).map(repr)
            | st.sampled_from(["0", "-0.0", "1e308", "nan", "-inf", "5e-324"]))


@st.composite
def _transform_inputs(draw) -> tuple[str, str, int]:
    """(suffix, text, vertices or points in it): an OBJ mesh of triangles
    and quads with positive or negative references in each token form, or
    a points CSV; fields split by spaces or tabs, LF or CRLF line ends,
    and maybe a byte-order mark."""
    n = draw(st.integers(1, 6))
    rows = [[draw(_coordinates()) for _ in range(3)] for _ in range(n)]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    if draw(st.booleans()):
        sep = draw(st.sampled_from([" ", "\t", "  "]))
        lines = [sep.join(["v", *row]) for row in rows]
        for _ in range(draw(st.integers(0, 3))):
            refs = []
            for _ in range(draw(st.sampled_from([3, 4]))):
                ref = draw(st.integers(1, n))
                ref = ref - n - 1 if draw(st.booleans()) else ref
                refs.append(draw(st.sampled_from(["{}", "{}/1", "{}//1",
                                                  "{}/1/1"])).format(ref))
            lines.append(sep.join(["f", *refs]))
        suffix = ".obj"
    else:
        pad = draw(st.sampled_from(["", " ", "\t"]))
        lines = ["x,y,z", *(",".join(pad + value for value in row)
                            for row in rows)]
        suffix = ".csv"
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    return suffix, ("\ufeff" if draw(st.booleans()) else "") + text, n


class TestTransformRobustness:
    @settings(max_examples=200, deadline=None)
    @given(given_input=_transform_inputs(), beta=_surface_floats(-3.0, 3.0),
           ipd=_surface_floats(40.0, 100.0), literal=st.booleans())
    # a field over csv's limit, which csv.reader refuses
    @example(given_input=(".csv", "x,y,z\n" + "1" * 200_001 + ",0,0.5\n", 1),
             beta=0.22, ipd=63.0, literal=False)
    def test_copy_or_one_error_line(self, given_input, beta, ipd, literal):
        suffix, text, n = given_input
        with tempfile.TemporaryDirectory() as tmp:
            source, out = Path(tmp) / f"in{suffix}", Path(tmp) / f"out{suffix}"
            source.write_bytes(text.encode("utf-8"))
            argv = ["transform", f"--in={source}", f"--out={out}",
                    f"--beta-deg={beta!r}", f"--ipd-mm={ipd!r}"]
            code, stdout, err = _run(argv + ["--compat-literal-half-angle"]
                                     * literal)
            _check_report(code, err)
            if code:
                return
            assert stdout == f"transformed {n} points -> {out}\n"
            copy = (read_obj(out).vertices if suffix == ".obj"
                    else read_points_csv(out))
            assert copy.shape == (n, 3)
