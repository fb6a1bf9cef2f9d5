"""Command-line entry point.

Subcommands wire the library into reproducible pipelines:

  simulate   seeded synthetic experiment -> CSV dataset
  analyze    trajectory CSV -> per-trial outcomes + summary
  fit        outcomes CSV -> offset-model fits and model comparison
  transform  OBJ mesh or point CSV -> depth-corrected copy
  predict    closed-form endpoint-error curve -> CSV

Unit conventions at this surface: angles in degrees, interpupillary
distances and speeds in millimeters, reach/viewing distances in meters.
Files exchanged between subcommands are strictly SI.  Every run writes a
manifest echoing the resolved configuration, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path

from . import __version__
from .correction import _remap_in_place, predicted_correction_curve
from .errors import DataFormatError, DomainError, FitError
from .fitting import (
    DEFAULT_TRAIN_FRACTION,
    VARIANTS,
    ComparisonRow,
    FitDataset,
    IdentifiabilityWarning,
    ModelSpec,
    compare_models_detailed,
    fit as fit_model,
    write_comparison_csv,
    write_fit_json,
)
from .geometry import IPD_BOUND_M, EyeGeometry
from .kinematics import (
    DEFAULT_CUTOFF_HZ,
    DEFAULT_THRESHOLD,
    AnalyzedTrial,
    EyePose,
    TargetSpec,
    analyze_trials,
    outcome_columns,
    read_trajectories_csv,
    write_outcomes_csv,
    write_summary_csv,
)
from .meshio import _ENCODING, read_obj, read_points_csv, write_obj, write_points_csv
from .perception import BETA_BOUND_RAD, PerturbationParams
from .synth import (
    SimConfig,
    _trajectory_blocks,
    generate_participants,
    generate_trials,
    write_dataset,
)

CONFIG_ENV_VAR = "VACKIT_CONFIG"
PREDICT_HEADER = "distance_m,original_error_m,transformed_error_m"


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits 1 on usage errors (2 is for data errors)."""

    def error(self, message: str) -> None:  # noqa: D102 - argparse override
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_json(path: str | Path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding=_ENCODING)
    except OSError as exc:
        raise DataFormatError(str(exc), str(path)) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(exc.msg, str(path), exc.lineno) from exc
    if not isinstance(data, dict):
        raise DataFormatError("top-level JSON value must be an object", str(path))
    return data


def _reject_unknown(data: dict, known: set[str], context: str) -> None:
    unknown = sorted(set(data) - known)
    if unknown:
        raise DomainError(f"unknown {context} field(s): {', '.join(unknown)}")


def _convert(value, conv, context: str, key: str):
    """conv(value), reporting a value of the wrong type or form as a
    DomainError that names the field."""
    try:
        return conv(value)
    except DomainError:  # a nested object's error already names its field
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"bad {context} field {key}: {exc}") from None


def _fields(data, table: dict, context: str) -> dict:
    """A JSON object's fields as {attribute: converted value}, by a table of
    key -> (attribute, converter); unknown keys are refused.

    Raises:
        TypeError: If data is not a JSON object.
    """
    if not isinstance(data, dict):
        raise TypeError(f"expected a JSON object, got {data!r}")
    _reject_unknown(data, set(table), context)
    return {table[key][0]: _convert(value, table[key][1], context, key)
            for key, value in data.items()}


def _json_float(value) -> float:
    """A JSON number: no string to parse, no true or false."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {json.dumps(value)}")
    return float(value)


def _mm(value) -> float:
    return _json_float(value) / 1000.0


def _floats(value) -> tuple[float, ...]:
    return tuple(map(_json_float, value))


def _optional_float(value) -> float | None:
    return None if value is None else _json_float(value)


def _json_int(value) -> int:
    """A JSON integer: no fraction to truncate, no true or false."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {json.dumps(value)}")
    return value


def _json_bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {json.dumps(value)}")
    return value


_EYE_POSE_FIELDS = {key: (key, _json_float)
                    for key in ("behind_m", "above_m", "lateral_m")}


def _eye_pose_from_dict(data) -> EyePose:
    return EyePose(**_fields(data, _EYE_POSE_FIELDS, "eye_pose"))


# simulate config key -> (SimConfig attribute, converter from surface units);
# write_trajectories is the run's own switch, not a SimConfig field
_SIM_FIELDS = {
    "n_participants": ("n_participants", _json_int),
    "seed": ("seed", _json_int),
    "condition": ("condition", str),
    "feedback": ("feedback", str),
    "ipd_distribution": ("ipd_distribution", str),
    "repetitions": ("repetitions", _json_int),
    "ipd_low_mm": ("ipd_low", _mm),
    "ipd_high_mm": ("ipd_high", _mm),
    "ipd_mean_mm": ("ipd_mean", _mm),
    "ipd_sd_mm": ("ipd_sd", _mm),
    "beta_deg": ("beta", lambda v: math.radians(_json_float(v))),
    "motor_noise_sd_mm": ("motor_noise_sd", _mm),
    "trajectory_noise_sd_mm": ("trajectory_noise_sd", _mm),
    "reach_distances_m": ("reach_distances", _floats),
    "movement_duration_s": ("movement_duration", _json_float),
    "sample_rate_hz": ("sample_rate", _json_float),
    "rest_padding_s": ("rest_padding", _json_float),
    "feedforward_variance_factor": ("feedforward_variance_factor", _json_float),
    "response_mixture": ("response_mixture",
                         lambda v: None if v is None else _floats(v)),
    "eye_pose": ("eye_pose", _eye_pose_from_dict),
    "write_trajectories": ("write_trajectories", _json_bool),
}


def _sim_config_from_dict(data: dict) -> tuple[SimConfig, bool]:
    """Translate a surface-unit config JSON into a SimConfig.

    Returns the config plus whether trajectories should be written.
    """
    kwargs = _fields(data, _SIM_FIELDS, "simulate config")
    write_trajectories = kwargs.pop("write_trajectories", True)
    defaults = SimConfig()
    config = replace(defaults, **kwargs) if kwargs else defaults
    return config, write_trajectories


def _default_config_path(explicit: str | None) -> str | None:
    if explicit is not None:
        return explicit
    return os.environ.get(CONFIG_ENV_VAR)


def _write_manifest(path: Path, subcommand: str, config: dict,
                    outputs: list[str]) -> None:
    manifest = {
        "tool": "vackit",
        "version": __version__,
        "subcommand": subcommand,
        "config": config,
        "outputs": sorted(outputs),
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _cmd_simulate(args: argparse.Namespace) -> int:
    config_path = _default_config_path(args.config)
    data = _load_json(config_path) if config_path else {}
    config, write_traj = _sim_config_from_dict(data)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    participants = generate_participants(config)
    trials = generate_trials(config, participants)
    # written a block at a time, so memory does not grow with the cohort
    trajectories = _trajectory_blocks(config, trials, participants) \
        if write_traj else None
    outdir = Path(args.out)
    written = write_dataset(outdir, participants, trials, trajectories)
    resolved = dict(data)
    resolved["seed"] = config.seed
    _write_manifest(outdir / "manifest.json", "simulate", {
        "config_file": config_path, "config": resolved, "out": str(outdir),
    }, [Path(p).name for p in written.values()])
    print(f"simulated {len(participants)} participants, {len(trials)} trials "
          f"-> {outdir}")
    return 0


def _parse_axes(text: str) -> list[tuple[str, float]]:
    """Parse an axis map like "x,y,z" or "x,-z,y" into (axis, sign) pairs."""
    tokens = [tok.strip() for tok in text.split(",")]
    axes = []
    for tok in tokens:
        sign = 1.0
        if tok.startswith("-"):
            sign, tok = -1.0, tok[1:]
        if tok not in ("x", "y", "z"):
            raise DomainError(f"--axes entries must be x, y or z, got {tok!r}")
        axes.append((tok, sign))
    if len(axes) != 3 or len({a for a, _ in axes}) != 3:
        raise DomainError(f"--axes must name each of x, y, z once, got {text!r}")
    return axes


def _remap_rows(xyz, axes: list[tuple[str, float]]) -> None:
    """Permute and sign xyz's rows in place as axes maps them, one row of scratch."""
    held, scratch = list("xyz"), xyz[0].copy()
    for i, (axis, sign) in enumerate(axes):
        j = held.index(axis)  # swap rows i and j through scratch
        scratch[...] = xyz[j]
        xyz[j] = xyz[i]
        xyz[i] = scratch
        held[i], held[j] = held[j], held[i]
        xyz[i] *= sign


_TARGET_FIELDS = {
    "reach_m": ("reach_m", _json_float),
    "participant_id": ("participant_id", str),
    "condition": ("condition", str),
    "x_m": ("x_m", _json_float),
    "y_m": ("y_m", _json_float),
    "go_cue_time_s": ("go_cue_time_s", _optional_float),
    "ipd_m": ("ipd_m", _optional_float),
}


def _targets_from_json(data: dict) -> dict[str, TargetSpec]:
    targets = {}
    for trial_id, entry in data.items():
        if not isinstance(entry, dict) or "reach_m" not in entry:
            raise DomainError(f"target entry {trial_id!r} needs a reach_m field")
        targets[trial_id] = TargetSpec(
            trial_id=trial_id,
            **_fields(entry, _TARGET_FIELDS, f"target {trial_id!r}"))
    return targets


def _cmd_analyze(args: argparse.Namespace) -> int:
    pose_fields = _fields(_load_json(args.eye_pose),
                          {**_EYE_POSE_FIELDS, "ipd_mm": ("ipd", _mm)},
                          "eye-pose")
    if "ipd" not in pose_fields:
        raise DomainError("eye-pose file needs an ipd_mm field")
    eyes = EyeGeometry(ipd=pose_fields.pop("ipd"))
    pose = EyePose(**pose_fields)
    targets = _targets_from_json(_load_json(args.targets))
    trajectories, rejected = read_trajectories_csv(args.input)
    if args.axes != "x,y,z":
        _remap_rows(trajectories.xyz, _parse_axes(args.axes))
    threshold = args.threshold_mmps / 1000.0
    analyzed = analyze_trials(trajectories, targets, eyes, pose,
                              cutoff=args.cutoff_hz, threshold=threshold)
    analyzed += [AnalyzedTrial(target=targets.get(out.trial_id, TargetSpec(
        trial_id=out.trial_id, reach_m=math.nan)), outcome=out) for out in rejected]
    analyzed.sort(key=lambda item: item.outcome.trial_id)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_outcomes_csv(outcome_columns(analyzed), outdir / "outcomes.csv")
    write_summary_csv(analyzed, outdir / "summary.csv")
    _write_manifest(outdir / "manifest.json", "analyze", {
        "input": args.input, "targets": args.targets, "eye_pose": args.eye_pose,
        "cutoff_hz": args.cutoff_hz, "threshold_mmps": args.threshold_mmps,
        "axes": args.axes, "out": str(outdir),
    }, ["outcomes.csv", "summary.csv"])
    n_valid = sum(1 for item in analyzed if item.outcome.valid)
    print(f"analyzed {len(analyzed)} trials ({n_valid} valid) -> {outdir}")
    return 0


def _ipd_bounds(value) -> tuple[float, float]:
    """ipd_bounds_mm in metres, inside (0, IPD_BOUND_M) as EyeGeometry holds."""
    lo, hi = bounds = tuple(x / 1000.0 for x in _floats(value))
    if not 0.0 < lo < hi < IPD_BOUND_M:
        raise ValueError(f"must satisfy 0 < low < high < {IPD_BOUND_M * 1000:g} "
                         f"mm, got {value}")
    return bounds


def _beta_bounds(value) -> tuple[float, float]:
    """beta_bounds_deg in radians, straddling zero within BETA_BOUND_RAD as
    PerturbationParams holds; degrees(BETA_BOUND_RAD) converts to just past
    that bound, so it is clipped onto it."""
    lo, hi = _floats(value)
    limit = math.degrees(BETA_BOUND_RAD)
    if not (-limit <= lo and math.radians(lo) < 0.0 < math.radians(hi) and hi <= limit):
        raise ValueError(f"must straddle zero within +-{limit!r} deg, got {value}")
    return max(math.radians(lo), -BETA_BOUND_RAD), min(math.radians(hi), BETA_BOUND_RAD)


# fit config key -> (ModelSpec attribute, converter from surface units)
_FIT_FIELDS = {
    "ipd_bounds_mm": ("ipd_bounds", _ipd_bounds),
    "beta_bounds_deg": ("beta_bounds", _beta_bounds),
    "eye_pose": ("eye_pose", _eye_pose_from_dict),
}


def _cmd_fit(args: argparse.Namespace) -> int:
    config_path = _default_config_path(args.config)
    data = _load_json(config_path) if config_path else {}
    model = _fields(data, _FIT_FIELDS, "fit config")
    dataset = FitDataset.from_csv(args.input)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs: list[str] = []
    # in (condition, variant) order; a single variant's fit is the one its
    # condition reports, so it is marked selected
    rows: list[ComparisonRow] = []
    for condition in dataset.conditions:
        subset = dataset.select_condition(condition)
        # the notes are printed from the results below, not as warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IdentifiabilityWarning)
            if args.variant == "both":
                rows += compare_models_detailed(
                    subset, **model, train_fraction=args.split,
                    split_seed=args.seed)
            else:
                rows.append(ComparisonRow(condition, fit_model(
                    subset, ModelSpec(variant=args.variant, **model),
                    train_fraction=args.split, split_seed=args.seed), True))
        # both variants of a condition carry the same notes
        for note in rows[-1].result.notes:
            print(f"vackit: warning: condition {condition}: {note}",
                  file=sys.stderr)
    if args.variant == "both":
        write_comparison_csv(rows, outdir / "comparison.csv")
        outputs.append("comparison.csv")
    for row in rows:
        result = row.result
        name = f"fit_{row.condition}_{result.variant}.json"
        write_fit_json(result, outdir / name)
        outputs.append(name)
        if not result.converged:
            print(f"vackit: warning: condition {row.condition}: "
                  f"{result.variant} fit did not converge (stop_reason "
                  f"{result.stop_reason} after {result.n_iter} iterations)",
                  file=sys.stderr)
        if row.selected:
            text = (f"selected {result.variant} (test BIC "
                    f"{result.test.bic:.1f})" if args.variant == "both" else
                    f"beta = {math.degrees(result.beta):+.4f} deg "
                    f"(test r2 {result.test.r2:.3f})")
            print(f"condition {row.condition}: {text}"
                  f"{'' if result.converged else ' (not converged)'}")
    _write_manifest(outdir / "manifest.json", "fit", {
        "input": args.input, "config_file": config_path, "config": data,
        "variant": args.variant, "split": args.split, "seed": args.seed,
        "out": str(outdir),
    }, outputs)
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    eyes = EyeGeometry(ipd=args.ipd_mm / 1000.0)
    params = PerturbationParams(beta_offset=math.radians(args.beta_deg))
    in_path = Path(args.input)
    out_path = Path(args.out)
    literal = args.compat_literal_half_angle
    suffix = in_path.suffix.lower()
    # the array read is remapped in place: the call holds one copy of it
    if suffix == ".obj":
        mesh = read_obj(in_path)
        _remap_in_place(mesh.vertices, eyes, params, kind="vertex",
                        literal_half_angle=literal)
        write_obj(mesh, out_path)
        n = len(mesh.vertices)
    elif suffix == ".csv":
        points = read_points_csv(in_path)
        _remap_in_place(points, eyes, params, literal_half_angle=literal)
        write_points_csv(points, out_path)
        n = len(points)
    else:
        raise DomainError(
            f"--in must be an .obj or .csv file, got {in_path.name!r}"
        )
    _write_manifest(Path(str(out_path) + ".manifest.json"), "transform", {
        "in": str(in_path), "out": str(out_path), "beta_deg": args.beta_deg,
        "ipd_mm": args.ipd_mm,
        "compat_literal_half_angle": args.compat_literal_half_angle,
    }, [out_path.name])
    print(f"transformed {n} points -> {out_path}")
    return 0


def _parse_distances(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise DomainError(f"--distances must be comma-separated meters, got "
                          f"{text!r}") from None
    if not values or not all(0 < v < math.inf for v in values):
        raise DomainError(f"--distances must be positive finite meters, got "
                          f"{text!r}")
    return values


def _cmd_predict(args: argparse.Namespace) -> int:
    eyes = EyeGeometry(ipd=args.ipd_mm / 1000.0)
    params = PerturbationParams(beta_offset=math.radians(args.beta_deg))
    distances = _parse_distances(args.distances)
    rows = predicted_correction_curve(distances, eyes, params)
    out_path = Path(args.out)
    lines = [PREDICT_HEADER]
    for row in rows:
        lines.append(f"{row.distance!r},{row.original_error!r},"
                     f"{row.transformed_error!r}")
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(Path(str(out_path) + ".manifest.json"), "predict", {
        "beta_deg": args.beta_deg, "ipd_mm": args.ipd_mm,
        "distances": args.distances, "out": str(out_path),
    }, [out_path.name])
    for row in rows:
        print(f"{row.distance:.3f} m: original {row.original_error * 1000:+.2f} mm, "
              f"transformed {row.transformed_error * 1000:+.2f} mm")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vackit",
                     description="Binocular distance-distortion toolkit")
    parser.add_argument("--version", action="version",
                        version=f"vackit {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic experiment")
    p.add_argument("--config", help=f"config JSON (default: ${CONFIG_ENV_VAR})")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="analyze reaching trajectories")
    p.add_argument("--input", required=True, help="trajectory CSV")
    p.add_argument("--targets", required=True, help="per-trial target JSON")
    p.add_argument("--eye-pose", required=True,
                   help="eye pose + ipd_mm JSON")
    p.add_argument("--cutoff-hz", type=float, default=DEFAULT_CUTOFF_HZ)
    p.add_argument("--threshold-mmps", type=float,
                   default=DEFAULT_THRESHOLD * 1000.0)
    p.add_argument("--axes", default="x,y,z",
                   help="axis map for foreign data, e.g. x,-z,y")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("fit", help="fit offset models to outcome data")
    p.add_argument("--input", required=True, help="outcomes CSV")
    p.add_argument("--variant", choices=(*VARIANTS, "both"), default="both")
    p.add_argument("--split", type=float, default=DEFAULT_TRAIN_FRACTION,
                   help="train fraction")
    p.add_argument("--seed", type=int, default=0, help="split seed")
    p.add_argument("--config",
                   help=f"bounds/eye-pose JSON (default: ${CONFIG_ENV_VAR})")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("transform", help="depth-correct a mesh or point list")
    p.add_argument("--in", dest="input", required=True,
                   help="input .obj or .csv")
    p.add_argument("--out", required=True, help="output file")
    p.add_argument("--beta-deg", type=float, required=True)
    p.add_argument("--ipd-mm", type=float, required=True)
    p.add_argument("--compat-literal-half-angle", action="store_true",
                   help="apply the offset to the half angle (no inverse "
                        "guarantee; comparison only)")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("predict", help="predicted endpoint-error curve")
    p.add_argument("--beta-deg", type=float, required=True)
    p.add_argument("--ipd-mm", type=float, required=True)
    p.add_argument("--distances", required=True,
                   help="comma-separated meters, e.g. 0.45,0.50,0.55")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=_cmd_predict)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataFormatError, OSError) as exc:
        print(f"vackit: data error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, FitError, ValueError) as exc:
        print(f"vackit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
