"""Workload definitions: seeded inputs and the CLI calls that consume them.

A workload is a list of steps run from a fixed working directory.  A step
is either a `Call` (one timed `vackit` CLI invocation) or a `Prep`
(untimed benchmark work between calls, such as concatenating CSVs).
Inputs live in `../in/` relative to that directory and outputs in `out/`,
so every manifest the program writes records the same relative paths in
every iteration and in the traced pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_SEED = 0
SCALES = ("full", "tiny")

# Sizes per scale.  "full" is what the driver measures; "tiny" keeps the
# self-test quick.  See README.md for why each size was chosen.
REACH_PARTICIPANTS = {"full": 12, "tiny": 2}
COHORT_PARTICIPANTS = {"full": 250, "tiny": 20}
# fit_cohort simulates and fits this many cohorts per pass, each from its
# own seed, so one run's figure does not hang on one cohort's iteration count
COHORTS = 2
SCENE_GRID = {"full": 300, "tiny": 12}
SCENE_POINTS = {"full": 90_000, "tiny": 400}

TRIALS_PER_PARTICIPANT = 4 * 12      # default reach distances x repetitions
SAMPLES_PER_TRIAL = 221              # (0.24 + 0.4 + 0.24) s at 250 Hz, plus 1
SCENE_BETA_DEG = 0.22
SCENE_IPD_MM = 63.0
# The cohort fit bounds the IPDs to the simulated range.  With the default
# 45-80 mm bounds the original-condition fit creeps along the beta-IPD
# ridge for some seeds (8 to 200 iterations), which makes fit time vary
# several-fold from seed to seed.
COHORT_FIT_CONFIG = {"ipd_bounds_mm": [58, 68]}


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what it writes (relative to the work dir)."""

    name: str
    subcommand: str
    args: tuple[str, ...]
    outputs: tuple[str, ...]

    @property
    def argv(self) -> list[str]:
        return [self.subcommand, *self.args]


@dataclass(frozen=True)
class Prep:
    """Untimed benchmark work between calls."""

    name: str
    run: Callable[[Path], None]


@dataclass
class Plan:
    """A workload instance: its generated inputs and steps."""

    workload: str
    scale: str
    seed: int
    items: int                      # trials or points processed per pass
    item_unit: str                  # "trials" or "points"
    inputs: dict[str, Path] = field(default_factory=dict)
    steps: list = field(default_factory=list)
    # facts the output gate checks, e.g. expected row counts
    expect: dict = field(default_factory=dict)

    @property
    def calls(self) -> list[Call]:
        return [s for s in self.steps if isinstance(s, Call)]


def _write_json(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def _reach_pipeline(indir: Path, seed: int, scale: str) -> Plan:
    n = REACH_PARTICIPANTS[scale]
    plan = Plan("reach_pipeline", scale, seed, n * TRIALS_PER_PARTICIPANT,
                "trials")
    plan.inputs["sim.json"] = _write_json(
        indir / "sim.json", {"n_participants": n, "seed": seed})
    plan.inputs["eye_pose.json"] = _write_json(
        indir / "eye_pose.json", {"ipd_mm": 63.0})
    plan.steps = [
        Call("simulate", "simulate",
             ("--config", "../in/sim.json", "--out", "out/sim"), ("out/sim",)),
        Call("analyze", "analyze",
             ("--input", "out/sim/trajectories.csv",
              "--targets", "out/sim/targets.json",
              "--eye-pose", "../in/eye_pose.json", "--out", "out/analysis"),
             ("out/analysis",)),
        Call("fit", "fit",
             ("--input", "out/analysis/outcomes.csv", "--variant", "both",
              "--out", "out/fit"), ("out/fit",)),
    ]
    plan.expect = {"participants": {"out/sim": n}, "trajectories": True,
                   "ground_truth": "out/sim/outcomes.csv",
                   "conditions": ["original"]}
    return plan


def concat_outcomes(sources: list[str], target: str) -> Callable[[Path], None]:
    """Prep step: join outcome CSVs, keeping the first header only."""

    def run(workdir: Path) -> None:
        parts = []
        for i, src in enumerate(sources):
            text = (workdir / src).read_text(encoding="utf-8")
            parts.append(text if i == 0 else text.split("\n", 1)[1])
        (workdir / target).write_text("".join(parts), encoding="utf-8")

    return run


def _fit_cohort(indir: Path, seed: int, scale: str) -> Plan:
    n = COHORT_PARTICIPANTS[scale]
    plan = Plan("fit_cohort", scale, seed,
                COHORTS * 2 * n * TRIALS_PER_PARTICIPANT, "trials")
    plan.inputs["fit.json"] = _write_json(indir / "fit.json", COHORT_FIT_CONFIG)
    plan.expect = {"participants": {}, "trajectories": False,
                   "conditions": ["original", "transformed"]}
    for k in range(COHORTS):
        base = {"n_participants": n, "seed": seed * COHORTS + k,
                "write_trajectories": False}
        configs = {"original": {**base, "condition": "original"},
                   "transformed": {**base, "condition": "transformed",
                                   "response_mixture": [0.8, 0.1, 0.1]}}
        sims = []
        for condition, config in configs.items():
            name = f"sim_{condition}_{k}"
            plan.inputs[f"{name}.json"] = _write_json(indir / f"{name}.json", config)
            plan.steps.append(Call(f"simulate_{condition}_{k}", "simulate",
                                   ("--config", f"../in/{name}.json",
                                    "--out", f"out/{name}"), (f"out/{name}",)))
            plan.expect["participants"][f"out/{name}"] = n
            sims.append(f"out/{name}/outcomes.csv")
        plan.steps += [
            Prep(f"concat_{k}", concat_outcomes(sims, f"out/cohort_{k}.csv")),
            Call(f"fit_{k}", "fit",
                 ("--input", f"out/cohort_{k}.csv", "--variant", "both",
                  "--config", "../in/fit.json", "--out", f"out/fit_{k}"),
                 (f"out/fit_{k}",)),
        ]
    return plan


def _scene_obj_text(rng: np.random.Generator, grid: int) -> str:
    """A grid x grid quad mesh of a wavy surface 0.4-0.9 m in front."""
    u = np.linspace(-1.0, 1.0, grid)
    gx, gy = np.meshgrid(u * 0.3, u * 0.2)
    gz = (0.65 + 0.08 * np.sin(3.0 * gx + rng.uniform(0, np.pi))
          * np.cos(4.0 * gy) + rng.uniform(-0.01, 0.01, gx.shape))
    verts = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()]).tolist()
    lines = ["# perfbench scene", *(f"v {x!r} {y!r} {z!r}" for x, y, z in verts),
             "vn 0.0 0.0 -1.0"]
    for r in range(grid - 1):
        for c in range(grid - 1):
            a = r * grid + c + 1
            lines.append(f"f {a}//1 {a + 1}//1 {a + grid + 1}//1 {a + grid}//1")
    return "\n".join(lines) + "\n"


def _scene_points_text(rng: np.random.Generator, n: int) -> str:
    pts = np.column_stack([rng.uniform(-0.4, 0.4, n), rng.uniform(-0.3, 0.3, n),
                           rng.uniform(0.3, 2.5, n)]).tolist()
    return "x,y,z\n" + "".join(f"{x!r},{y!r},{z!r}\n" for x, y, z in pts)


def _scene_transform(indir: Path, seed: int, scale: str) -> Plan:
    grid, n_points = SCENE_GRID[scale], SCENE_POINTS[scale]
    plan = Plan("scene_transform", scale, seed, grid * grid + n_points, "points")
    rng = np.random.default_rng(seed)
    plan.inputs["scene.obj"] = indir / "scene.obj"
    plan.inputs["scene.obj"].write_text(_scene_obj_text(rng, grid),
                                        encoding="utf-8")
    plan.inputs["points.csv"] = indir / "points.csv"
    plan.inputs["points.csv"].write_text(_scene_points_text(rng, n_points),
                                         encoding="utf-8")
    common = ("--beta-deg", repr(SCENE_BETA_DEG), "--ipd-mm", repr(SCENE_IPD_MM))
    plan.steps = [
        Call("transform_obj", "transform",
             ("--in", "../in/scene.obj", "--out", "out/scene.obj", *common),
             ("out/scene.obj", "out/scene.obj.manifest.json")),
        Call("transform_points", "transform",
             ("--in", "../in/points.csv", "--out", "out/points.csv", *common),
             ("out/points.csv", "out/points.csv.manifest.json")),
    ]
    plan.expect = {"vertices": grid * grid,
                   "triangles": 2 * (grid - 1) ** 2, "points": n_points}
    return plan


WORKLOADS = {
    "reach_pipeline": _reach_pipeline,
    "fit_cohort": _fit_cohort,
    "scene_transform": _scene_transform,
}


def make_plan(workload: str, indir: Path, seed: int, scale: str = "full") -> Plan:
    """Generate the workload's inputs under indir and return its plan."""
    indir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](indir, seed, scale)
