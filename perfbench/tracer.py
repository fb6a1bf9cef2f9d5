"""Tracing of one CLI call: spans at each layer of `vackit`.

forkserver.py installs a `Tracer` in the forked child before it calls
`vackit.cli.main(argv)`.  Each public name is wrapped where its caller
looks it up (for example `vackit.cli.analyze_trials`,
`vackit.kinematics.lowpass_filter`, `vackit.backends.sustained_run_start`),
so the program's own code runs unchanged.  Spans (name, start, end,
parent) and per-name quantities are kept in memory and written out by
`Tracer.dump` when the call ends.  A name the program no longer has is
skipped, and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.spans: list[list] = []          # [name, start, end, parent]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

    def wrap(self, name: str, fn, measure=None):
        """Return fn wrapped in a span; measure(tracer, name, args, result)
        adds counts after each call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][2] = time.perf_counter()
            if measure is not None:
                measure(self, name, args, result)
            return result

        return traced


def _file_bytes(position: int):
    """Size of the file named by positional argument `position`."""
    def measure(tracer: Tracer, name: str, args, result) -> None:
        tracer.add(f"{name}.bytes", os.path.getsize(args[position]))
    return measure


def _len_of(key: str, get):
    def measure(tracer: Tracer, name: str, args, result) -> None:
        tracer.add(f"{name}.{key}", len(get(args, result)))
    return measure


def _jacobian(tracer: Tracer, name: str, args, result) -> None:
    rows, cols = result.shape
    tracer.add("fitting.jacobian.bytes_computed", result.nbytes)
    tracer.add("marquardt.normal_eq_flops_computed", 2 * rows * cols * cols)


def _fit(tracer: Tracer, name: str, args, result) -> None:
    condition = str(args[0].condition[0])
    tracer.add(f"marquardt.n_iter.{condition}.{result.variant}", result.n_iter)
    tracer.add(f"marquardt.converged.{condition}.{result.variant}",
               int(result.converged))
    tracer.add("marquardt.iterations", result.n_iter)


# (module where callers look the name up, attribute, span name, measure)
TARGETS = [
    ("vackit.cli", "generate_participants", "synth.generate_participants", None),
    ("vackit.cli", "generate_trials", "synth.generate_trials", None),
    ("vackit.cli", "generate_trajectories", "synth.generate_trajectories", None),
    ("vackit.cli", "write_dataset", "synth.write_dataset", None),
    ("vackit.synth", "predict_endpoint", "perception.predict_endpoint", None),
    ("vackit.synth", "write_trajectories_csv",
     "kinematics.write_trajectories_csv", _file_bytes(1)),
    ("vackit.synth", "write_outcomes_csv", "kinematics.write_outcomes_csv", None),
    ("vackit.cli", "read_trajectories_csv", "kinematics.read_trajectories_csv",
     _file_bytes(0)),
    ("vackit.cli", "analyze_trials", "kinematics.analyze_trials", None),
    ("vackit.kinematics", "trial_outcome", "kinematics.trial_outcome", None),
    ("vackit.kinematics", "lowpass_filter", "kinematics.lowpass_filter", None),
    ("vackit.kinematics", "differentiate", "kinematics.differentiate", None),
    ("vackit.kinematics", "detect_segment", "kinematics.detect_segment", None),
    ("vackit.backends", "sustained_run_start", "backends.sustained_run_start",
     None),
    ("vackit.cli", "write_outcomes_csv", "kinematics.write_outcomes_csv", None),
    ("vackit.cli", "write_summary_csv", "kinematics.write_summary_csv", None),
    ("vackit.fitting.FitDataset", "from_csv", "fitting.FitDataset.from_csv",
     _len_of("rows", lambda args, result: result)),
    ("vackit.fitting.FitDataset", "split_indices",
     "fitting.FitDataset.split_indices", None),
    ("vackit.cli", "compare_models_detailed", "fitting.compare_models_detailed",
     None),
    ("vackit.cli", "fit_model", "fitting.fit", _fit),
    ("vackit.fitting", "fit", "fitting.fit", _fit),
    ("vackit.fitting", "residuals", "fitting.residuals", None),
    ("vackit.fitting", "jacobian", "fitting.jacobian", _jacobian),
    ("vackit.fitting", "levenberg_marquardt", "marquardt.levenberg_marquardt",
     None),
    ("vackit.fitting", "fixated_distance_error",
     "perception.fixated_distance_error", None),
    ("vackit.cli", "write_comparison_csv", "fitting.write_comparison_csv", None),
    ("vackit.cli", "write_fit_json", "fitting.write_fit_json", None),
    ("vackit.cli", "read_obj", "meshio.read_obj", _file_bytes(0)),
    ("vackit.cli", "write_obj", "meshio.write_obj", _file_bytes(1)),
    ("vackit.cli", "read_points_csv", "meshio.read_points_csv", _file_bytes(0)),
    ("vackit.cli", "write_points_csv", "meshio.write_points_csv", _file_bytes(1)),
    ("vackit.cli", "transform_mesh", "correction.transform_mesh",
     _len_of("vertices", lambda args, result: args[0].vertices)),
    ("vackit.backends", "remap_points", "backends.remap_points",
     _len_of("points", lambda args, result: args[0])),
]


def _resolve(path: str):
    """Import a module, or a class inside one ("pkg.mod.Class")."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr, None)


def install(tracer: Tracer) -> None:
    for owner_path, attr, span, measure in TARGETS:
        owner = _resolve(owner_path)
        if owner is None or attr not in vars(owner):
            continue
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(span, raw.__func__, measure))
        else:
            wrapped = tracer.wrap(span, raw, measure)
        setattr(owner, attr, wrapped)

