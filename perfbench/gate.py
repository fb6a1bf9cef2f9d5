"""Output correctness gate.

Every CLI call's outputs pass three checks before any timing is reported:

* an oracle written here, independent of the program's code: row counts,
  the analyzed movement distances against the simulator's ground truth,
  the offset recovered by the fit, and the inverse geometry of every
  transformed point;
* bytes equal to the first iteration of the same run (the traced pass
  included), which catches nondeterminism;
* at the default seed, sha256 equal to the references in reference.json.

Fit outputs (`comparison.csv`, `fit_*.json`) are compared by value instead
of by bytes: the selected variant per condition, the converged flags, and
beta, the IPDs and the RSS within FIT_TOLERANCE.  Whether their bytes are
identical is reported separately.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import SAMPLES_PER_TRIAL, SCENE_BETA_DEG, SCENE_IPD_MM, \
    TRIALS_PER_PARTICIPANT, Call, Plan

FIT_TOLERANCE = {"beta_deg": 0.002, "ipd_mm": 0.05, "rss_rel": 1e-6}
TRUE_BETA_DEG = 0.22
# Analyzed movement distance may differ from the simulated one by the
# filter and segmentation; measured differences stay within about 1 mm.
MOVEMENT_TOLERANCE_M = 0.003
MIN_VALID_RATIO = 0.95
ANGLE_TOLERANCE_RAD = 1e-12


class GateError(Exception):
    """An output failed a correctness check."""


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def is_fit_value_file(rel: str) -> bool:
    name = rel.rsplit("/", 1)[-1]
    return name == "comparison.csv" or (name.startswith("fit_")
                                        and name.endswith(".json"))


def call_files(workdir: Path, call: Call) -> list[str]:
    """Relative paths of every file a call wrote, sorted."""
    files = []
    for out in call.outputs:
        path = workdir / out
        if path.is_dir():
            files.extend(p.relative_to(workdir).as_posix()
                         for p in path.rglob("*") if p.is_file())
        elif path.is_file():
            files.append(out)
        else:
            raise GateError(f"{call.name}: missing output {out}")
    return sorted(files)


def snapshot(workdir: Path, call: Call) -> dict:
    """Hashes of a call's outputs plus the parsed fit values, if any."""
    files = call_files(workdir, call)
    hashes = {rel: sha256(workdir / rel) for rel in files}
    fit = None
    if call.subcommand == "fit":
        try:
            fit = fit_values(workdir / call.outputs[0])
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise GateError(f"{call.name}: unreadable fit output: {exc!r}") from exc
    return {"hashes": hashes, "fit": fit}


def fit_values(fitdir: Path) -> dict:
    values: dict = {"selected": {}, "fits": {}}
    with (fitdir / "comparison.csv").open(encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["selected"] == "1":
                values["selected"][row["condition"]] = row["variant"]
    for path in sorted(fitdir.glob("fit_*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        values["fits"][path.name] = {
            "converged": data["converged"], "n_iter": data["n_iter"],
            "beta_deg": data["beta_deg"], "ipd_mm": data["ipd_mm"],
            "rss_train": data["train"]["rss"], "rss_test": data["test"]["rss"],
        }
    return values


def compare_fit(got: dict, want: dict, label: str) -> None:
    """Raise GateError unless two fit_values agree within FIT_TOLERANCE."""
    if got["selected"] != want["selected"]:
        raise GateError(f"{label}: selected {got['selected']} != {want['selected']}")
    if sorted(got["fits"]) != sorted(want["fits"]):
        raise GateError(f"{label}: fit files {sorted(got['fits'])} differ")
    for name, g in got["fits"].items():
        w = want["fits"][name]
        if g["converged"] != w["converged"]:
            raise GateError(f"{label}: {name} converged {g['converged']} != "
                            f"{w['converged']}")
        if abs(g["beta_deg"] - w["beta_deg"]) > FIT_TOLERANCE["beta_deg"]:
            raise GateError(f"{label}: {name} beta {g['beta_deg']} != "
                            f"{w['beta_deg']}")
        if sorted(g["ipd_mm"]) != sorted(w["ipd_mm"]):
            raise GateError(f"{label}: {name} participants differ")
        worst = max(abs(g["ipd_mm"][p] - w["ipd_mm"][p]) for p in g["ipd_mm"])
        if worst > FIT_TOLERANCE["ipd_mm"]:
            raise GateError(f"{label}: {name} IPD differs by {worst} mm")
        for key in ("rss_train", "rss_test"):
            if not math.isclose(g[key], w[key], rel_tol=FIT_TOLERANCE["rss_rel"]):
                raise GateError(f"{label}: {name} {key} {g[key]} != {w[key]}")


def compare_snapshots(got: dict, want: dict, label: str) -> bool:
    """Raise on any difference; return whether the fit bytes are identical."""
    if sorted(got["hashes"]) != sorted(want["hashes"]):
        raise GateError(f"{label}: output files {sorted(got['hashes'])} != "
                        f"{sorted(want['hashes'])}")
    fit_identical = True
    for rel, digest in got["hashes"].items():
        if digest == want["hashes"][rel]:
            continue
        if is_fit_value_file(rel):
            fit_identical = False
        else:
            raise GateError(f"{label}: {rel} sha256 differs")
    if got["fit"] is not None:
        compare_fit(got["fit"], want["fit"], label)
    return fit_identical


# ---- oracles --------------------------------------------------------------

def read_rows(path: Path) -> list[dict]:
    """All rows of a CSV file as dicts keyed by its header."""
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _check_manifest(path: Path, subcommand: str, outputs: list[str]) -> None:
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if manifest.get("subcommand") != subcommand:
        raise GateError(f"{path}: subcommand {manifest.get('subcommand')!r}")
    if sorted(manifest.get("outputs", [])) != sorted(outputs):
        raise GateError(f"{path}: outputs {manifest.get('outputs')} != {outputs}")


def _oracle_simulate(workdir: Path, call: Call, plan: Plan) -> None:
    outdir = workdir / call.outputs[0]
    n = plan.expect["participants"][call.outputs[0]]
    trials = n * TRIALS_PER_PARTICIPANT
    names = ["outcomes.csv", "participants.csv", "targets.json"]
    if plan.expect["trajectories"]:
        names.append("trajectories.csv")
    _check_manifest(outdir / "manifest.json", "simulate", names)
    if len(read_rows(outdir / "participants.csv")) != n:
        raise GateError(f"{call.name}: participants.csv row count")
    outcomes = read_rows(outdir / "outcomes.csv")
    if len(outcomes) != trials or any(r["valid"] != "1" for r in outcomes):
        raise GateError(f"{call.name}: outcomes.csv should hold {trials} valid rows")
    targets = json.loads((outdir / "targets.json").read_text(encoding="utf-8"))
    if sorted(targets) != sorted(r["trial_id"] for r in outcomes):
        raise GateError(f"{call.name}: targets.json and outcomes.csv disagree")
    if plan.expect["trajectories"]:
        with (outdir / "trajectories.csv").open("rb") as fh:
            lines = sum(block.count(b"\n")
                        for block in iter(lambda: fh.read(1 << 20), b""))
        if lines != 1 + trials * SAMPLES_PER_TRIAL:
            raise GateError(f"{call.name}: trajectories.csv has {lines} lines")


def _oracle_analyze(workdir: Path, call: Call, plan: Plan) -> None:
    outdir = workdir / call.outputs[0]
    _check_manifest(outdir / "manifest.json", "analyze",
                    ["outcomes.csv", "summary.csv"])
    truth = {r["trial_id"]: float(r["movement_distance_m"])
             for r in read_rows(workdir / plan.expect["ground_truth"])}
    rows = read_rows(outdir / "outcomes.csv")
    if sorted(r["trial_id"] for r in rows) != sorted(truth):
        raise GateError(f"{call.name}: trial ids differ from the simulated ones")
    valid = [r for r in rows if r["valid"] == "1"]
    if len(valid) < MIN_VALID_RATIO * len(rows):
        raise GateError(f"{call.name}: only {len(valid)}/{len(rows)} valid")
    worst = max(abs(float(r["movement_distance_m"]) - truth[r["trial_id"]])
                for r in valid)
    if worst > MOVEMENT_TOLERANCE_M:
        raise GateError(f"{call.name}: movement distance off by {worst} m")
    if len(read_rows(outdir / "summary.csv")) != 4:
        raise GateError(f"{call.name}: summary.csv should hold 4 rows")


def _oracle_fit(workdir: Path, call: Call, plan: Plan) -> None:
    outdir = workdir / call.outputs[0]
    conditions = plan.expect["conditions"]
    names = ["comparison.csv"] + [f"fit_{c}_{v}.json" for c in conditions
                                  for v in ("with-offset", "zero-offset")]
    _check_manifest(outdir / "manifest.json", "fit", names)
    values = fit_values(outdir)
    if sorted(values["selected"]) != conditions:
        raise GateError(f"{call.name}: one selected variant per condition "
                        f"expected, got {values['selected']}")
    if values["selected"]["original"] != "with-offset":
        raise GateError(f"{call.name}: original condition should select the "
                        f"offset model")
    beta = values["fits"]["fit_original_with-offset.json"]["beta_deg"]
    if not (0.5 * TRUE_BETA_DEG < beta < 1.5 * TRUE_BETA_DEG):
        raise GateError(f"{call.name}: recovered beta {beta} deg, true "
                        f"{TRUE_BETA_DEG} deg")


def _remap_oracle(src: np.ndarray, dst: np.ndarray, label: str) -> None:
    """The corrected point keeps x, y and subtends the angle tau - beta."""
    if src.shape != dst.shape:
        raise GateError(f"{label}: shape {dst.shape} != {src.shape}")
    if not np.array_equal(src[:, :2], dst[:, :2]):
        raise GateError(f"{label}: lateral coordinates changed")
    h = SCENE_IPD_MM / 2000.0
    tau = 2.0 * np.arctan2(h, np.linalg.norm(src, axis=1))
    tau_new = 2.0 * np.arctan2(h, np.linalg.norm(dst, axis=1))
    err = np.max(np.abs(tau_new - (tau - math.radians(SCENE_BETA_DEG))))
    if not err < ANGLE_TOLERANCE_RAD:
        raise GateError(f"{label}: corrected angle off by {err} rad")


def _read_obj(path: Path) -> tuple[np.ndarray, list[str], list[str]]:
    verts, normals, faces = [], [], []
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("v "):
                verts.append(line.split()[1:4])
            elif line.startswith("vn "):
                normals.append(line.strip())
            elif line.startswith("f "):
                faces.append(line)
    return np.array(verts, dtype=np.float64), normals, faces


def _oracle_transform(workdir: Path, call: Call, plan: Plan) -> None:
    out = workdir / call.outputs[0]
    _check_manifest(workdir / call.outputs[1], "transform", [out.name])
    src_path = workdir / call.args[call.args.index("--in") + 1]
    if out.suffix == ".obj":
        src, src_normals, _ = _read_obj(src_path)
        dst, normals, faces = _read_obj(out)
        if len(src) != plan.expect["vertices"] or normals != src_normals:
            raise GateError(f"{call.name}: vertices or normals not preserved")
        if len(faces) != plan.expect["triangles"]:
            raise GateError(f"{call.name}: {len(faces)} triangles")
    else:
        src = np.loadtxt(src_path, delimiter=",", skiprows=1, ndmin=2)
        dst = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        if len(src) != plan.expect["points"]:
            raise GateError(f"{call.name}: {len(src)} points")
    _remap_oracle(src, dst, call.name)


ORACLES = {"simulate": _oracle_simulate, "analyze": _oracle_analyze,
           "fit": _oracle_fit, "transform": _oracle_transform}


def oracle(workdir: Path, call: Call, plan: Plan) -> None:
    try:
        ORACLES[call.subcommand](workdir, call, plan)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise GateError(f"{call.name}: unreadable output: {exc!r}") from exc
