"""End-to-end benchmark of the vackit CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload reach_pipeline --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each was chosen):

  reach_pipeline   simulate (with trajectories) -> analyze -> fit
  fit_cohort       per cohort: simulate x2 (no trajectories), concatenate
                   -> fit; two cohorts per pass
  scene_transform  transform of a quad-grid OBJ and of a points CSV

The benchmark generates the workload's inputs from --seed, times
`import vackit.cli` in fresh interpreters (set-up), then repeats the
workload's CLI calls for up to --seconds (at least once).  The calls run
one at a time (a closed loop with a single client), each in a fresh
process forked from a server that has already imported `vackit.cli`
(forkserver.py).  A fixed calibration kernel runs before the first call
of a pass and after every call; each call's time is also given in units
of the mean of the calibrations on either side of it, which takes out
most of the drift in the shared machine's speed.  Every call's outputs
pass the gate in gate.py before any number is printed.  With --trace 1
it also runs one traced pass (tracer.py) on the same inputs and reports
per-layer metrics instead of end-to-end ones.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it are a readable report.  Exit status: 0 when
every check passed, 1 when one failed, 2 when the program to benchmark
is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
from workloads import DEFAULT_SEED, SCALES, WORKLOADS, Call, Prep, Plan, make_plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 5
CALL_TIMEOUT_S = 150


@dataclass
class CallResult:
    call: Call
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    cal_s: float            # mean of the calibrations just before and after
    error: str = ""


@dataclass
class Tally:
    """CLI calls attempted and failed, plus failures outside any call."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def problem(self, message: str) -> None:
        self.errors.append(message)
        print(f"perfbench: FAILED: {message}", file=sys.stderr)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problem(message)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], cwd: Path, env: dict[str, str],
              log: Path) -> tuple[int, float, float, float]:
    """Run one child to completion: (exit code, wall s, cpu s, peak RSS MB).

    A child still running after CALL_TIMEOUT_S is killed, so a hung call
    fails instead of stalling the run.
    """
    with log.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


class CliServer:
    """The fork server (forkserver.py) that runs this run's CLI calls.

    One server serves every call of a run, one call at a time.  close()
    ends it and waits for it; use the server as a context manager so that
    this happens on every way out.
    """

    def __init__(self, env: dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "forkserver.py")], cwd=WORK, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=(WORK / "forkserver.stderr").open("wb"), text=True)
        self.environment = self._reply()

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            err = (WORK / "forkserver.stderr").read_text(errors="replace")
            raise RuntimeError(f"fork server ended: {err.strip()[-500:]}")
        return json.loads(line)

    def call(self, argv: list[str], cwd: Path, log: Path,
             spans: Path | None = None) -> dict:
        request = {"argv": argv, "cwd": str(cwd), "log": str(log),
                   "spans": None if spans is None else str(spans),
                   "timeout_s": CALL_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def calibrate(self, workdir: Path) -> float:
        reply = self.call(None, workdir, workdir / "calibration.stderr")
        if reply["code"] != 0:
            raise RuntimeError(f"calibration exited {reply['code']}")
        return reply["wall_s"]

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=CALL_TIMEOUT_S + 10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "CliServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_pass(plan: Plan, workdir: Path, server: CliServer,
             spans_dir: Path | None = None) -> list[CallResult]:
    """Run every step of the plan once; stop at the first failed call."""
    shutil.rmtree(workdir / "out", ignore_errors=True)
    (workdir / "out").mkdir(parents=True)
    # flush earlier writes now, so their writeback does not land in a timed call
    os.sync()
    results = []
    before = server.calibrate(workdir)
    for step in plan.steps:
        if isinstance(step, Prep):
            step.run(workdir)
            continue
        log = workdir / f"{step.name}.stderr"
        spans = None if spans_dir is None else spans_dir / f"{step.name}.json"
        reply = server.call(step.argv, workdir, log, spans)
        error = log.read_text(encoding="utf-8", errors="replace").strip()
        after = server.calibrate(workdir)
        results.append(CallResult(step, reply["code"], reply["wall_s"],
                                  reply["cpu_s"], reply["rss_mb"],
                                  (before + after) / 2, error))
        before = after
        if reply["code"] != 0:
            break
    return results


def environment(server: CliServer, tally: Tally) -> dict:
    """Versions and machine facts, so results from elsewhere are not mixed."""
    record = dict(server.environment)
    if not Path(record["vackit_file"]).resolve().is_relative_to(ROOT / "src"):
        tally.problem(f"vackit imported from {record['vackit_file']}, not this checkout")
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        sha = git.stdout.strip() or None
    record.update({
        "git_sha": sha,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    })
    return record


def measure_setup(env: dict[str, str], tally: Tally) -> list[float]:
    """Wall time of `import vackit.cli` in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        code, wall, _, _ = run_child([sys.executable, "-c", "import vackit.cli"],
                                     WORK, env, WORK / "setup.stderr")
        if code != 0:
            tally.problem(f"import vackit.cli exited {code}")
        times.append(wall)
    return times


def load_reference(plan: Plan) -> dict | None:
    if plan.seed != DEFAULT_SEED or not REFERENCE.exists():
        return None
    refs = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return refs.get(plan.workload, {}).get(plan.scale)


def input_hashes(plan: Plan) -> dict[str, str]:
    return {name: gate.sha256(path) for name, path in sorted(plan.inputs.items())}


def gate_pass(plan: Plan, workdir: Path, results: list[CallResult],
              baseline: dict, reference: dict | None, tally: Tally,
              strict: bool = False) -> bool:
    """Check one pass's outputs; fill baseline on the first pass.

    Returns whether the fit outputs were byte-identical to the baseline and
    reference.  With strict (the traced pass), every byte must match the
    baseline, and the return value says whether all did.
    """
    identical = True
    for res in results:
        tally.attempted += 1
        name = res.call.name
        if res.code != 0:
            tally.fail(f"{name} exited {res.code}: {res.error[-500:]}")
            continue
        try:
            snap = gate.snapshot(workdir, res.call)
            if name not in baseline:
                gate.oracle(workdir, res.call, plan)
                if reference is not None:
                    want = reference["outputs"].get(name)
                    if want is None:
                        raise gate.GateError(f"{name}: no reference recorded")
                    identical &= gate.compare_snapshots(snap, want,
                                                        f"{name} vs reference")
                baseline[name] = snap
            elif strict:
                if snap["hashes"] != baseline[name]["hashes"]:
                    identical = False
                    raise gate.GateError(f"{name}: traced outputs differ from "
                                         f"untraced outputs")
            else:
                identical &= gate.compare_snapshots(snap, baseline[name],
                                                    f"{name} vs first pass")
        except gate.GateError as exc:
            tally.fail(str(exc))
    return identical


def summarize(passes: list[list[CallResult]]) -> dict[str, float]:
    """End-to-end figures: per call, the median over the passes; then the
    sum over the calls.  Peak RSS is the largest of any call."""
    m = {"wall_s": 0.0, "cpu_s": 0.0, "wall_cal": 0.0, "cpu_cal": 0.0,
         "calibration_s": 0.0, "simulate_s": 0.0, "analyze_s": 0.0,
         "fit_s": 0.0, "transform_s": 0.0}
    for calls in zip(*passes):
        def median(value) -> float:
            return statistics.median(value(r) for r in calls)
        wall = median(lambda r: r.wall_s)
        m["wall_s"] += wall
        m[f"{calls[0].call.subcommand}_s"] += wall
        m["cpu_s"] += median(lambda r: r.cpu_s)
        m["wall_cal"] += median(lambda r: r.wall_s / r.cal_s)
        m["cpu_cal"] += median(lambda r: r.cpu_s / r.cal_s)
        m["calibration_s"] += median(lambda r: r.cal_s)
    m["peak_rss_mb"] = max(r.rss_mb for results in passes for r in results)
    return m


def span_metrics(spans_dir: Path) -> dict[str, float]:
    """Self time and call count per span name, plus recorded quantities."""
    out: dict[str, float] = {}
    for path in sorted(spans_dir.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        spans = data["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), inner in zip(spans, child_time):
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - inner)
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        for key, value in data["counts"].items():
            out[key] = out.get(key, 0) + value
    residual_calls = out.get("fitting.residuals.calls", 0)
    if residual_calls:
        out["marquardt.accepted_ratio"] = out.get("marquardt.iterations", 0) / residual_calls
    return out


def outcome_counts(workdir: Path, plan: Plan) -> dict[str, float]:
    """Valid ratio and rejections per reason from the analyze output."""
    out: dict[str, float] = {}
    for call in plan.calls:
        if call.subcommand != "analyze":
            continue
        rows = gate.read_rows(workdir / call.outputs[0] / "outcomes.csv")
        out["kinematics.valid_ratio"] = sum(r["valid"] == "1" for r in rows) / len(rows)
        for r in rows:
            if r["valid"] != "1":
                key = "kinematics.rejected." + r["rejection_reason"].replace(" ", "_")
                out[key] = out.get(key, 0) + 1
    return out


def report(title: str, rows: list[tuple[str, float, str, str]]) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:48s} {value:>14.6g} {unit:8s} {note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="vackit CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="input size; tiny is for the self-test")
    parser.add_argument("--record-reference", action="store_true",
                        help=f"store output hashes as the references for "
                             f"seed {DEFAULT_SEED}")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "vackit" / "cli.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no vackit sources or BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    if args.record_reference and args.seed != DEFAULT_SEED:
        parser.error(f"references are recorded at seed {DEFAULT_SEED}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    env = child_env()
    tally = Tally()
    with CliServer(env) as server:
        env_record = environment(server, tally)
        plan = make_plan(args.workload, WORK / "in", args.seed, args.scale)
        inputs = input_hashes(plan)
        reference = None if args.record_reference else load_reference(plan)
        if args.seed == DEFAULT_SEED and not args.record_reference:
            if reference is None:
                tally.problem(f"no reference recorded for {plan.workload}/{plan.scale}")
            elif reference["inputs"] != inputs:
                tally.problem("generated inputs differ from the recorded ones")

        setup = measure_setup(env, tally)

        untraced = WORK / "untraced"
        baseline: dict = {}
        iterations: list[list[CallResult]] = []
        fit_identical = True
        # Repeat passes while the next one, judged by the median pass so far,
        # still ends within --seconds; the first pass always runs.
        start = time.perf_counter()
        pass_times: list[float] = []
        while True:
            results = run_pass(plan, untraced, server)
            fit_identical &= gate_pass(plan, untraced, results, baseline, reference,
                                       tally)
            if tally.errors:
                break
            iterations.append(results)
            elapsed = time.perf_counter() - start
            pass_times.append(elapsed - sum(pass_times))
            if elapsed + statistics.median(pass_times) > args.seconds:
                break

        if args.record_reference and not tally.failed:
            refs = json.loads(REFERENCE.read_text(encoding="utf-8")) \
                if REFERENCE.exists() else {}
            refs.setdefault(plan.workload, {})[plan.scale] = {
                "inputs": inputs, "outputs": baseline}
            REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")

        e2e: dict[str, float] = {}
        if iterations:
            e2e = summarize(iterations)
            e2e["setup_s"] = statistics.median(setup)
            e2e["items_per_s"] = plan.items / e2e["wall_s"]
        e2e["error_rate"] = tally.failed / max(tally.attempted, 1)

        layer: dict[str, float] = {}
        if args.trace and iterations:
            traced = WORK / "traced"
            spans_dir = traced / "spans"
            spans_dir.mkdir(parents=True)
            results = run_pass(plan, traced, server, spans_dir)
            traced_identical = gate_pass(plan, traced, results, baseline, None,
                                         tally, strict=True)
            if len(results) == len(plan.calls):
                layer = span_metrics(spans_dir)
                layer.update(outcome_counts(traced, plan))
                layer["trace.overhead_s"] = sum(r.wall_s for r in results) - e2e["wall_s"]
            for key in ("simulate_s", "analyze_s", "fit_s", "transform_s"):
                layer[f"cli.{key[:-2]}.wall_s"] = e2e[key]
            layer["gate.fit_bytes_identical"] = float(fit_identical)
            layer["trace.outputs_identical"] = float(traced_identical)
            e2e["error_rate"] = tally.failed / max(tally.attempted, 1)

    correct = not tally.errors and bool(iterations) and \
        (not args.trace or bool(layer))
    print(f"perfbench {plan.workload} seed={plan.seed} scale={plan.scale} "
          f"iterations={len(iterations)} closed loop, 1 client")
    print("environment " + json.dumps(env_record, sort_keys=True))
    print("inputs " + json.dumps(inputs, sort_keys=True))
    print("wall_s per iteration " + json.dumps(
        [round(sum(r.wall_s for r in results), 4) for results in iterations]))
    print("wall_cal per iteration " + json.dumps(
        [round(sum(r.wall_s / r.cal_s for r in results), 4)
         for results in iterations]))
    print("setup_s per import " + json.dumps([round(t, 4) for t in setup]))
    item_name = f"{plan.item_unit}_per_s"
    e2e_units = {"setup_s": "s", "wall_cal": "cal", "cpu_cal": "cal",
                 "calibration_s": "s", "wall_s": "s", "cpu_s": "s", "simulate_s": "s",
                 "analyze_s": "s", "fit_s": "s", "transform_s": "s",
                 "peak_rss_mb": "MB", "items_per_s": "1/s",
                 "error_rate": "ratio"}
    report("end-to-end (per call, median over iterations, summed over calls; "
           "setup over "
           f"{SETUP_REPEATS} imports)", [
               (item_name if k == "items_per_s" else k, e2e.get(k, 0.0), u,
                f"{plan.items} {plan.item_unit} per pass / wall_s"
                if k == "items_per_s" else "")
               for k, u in e2e_units.items()])
    if layer:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        report("per-layer (one traced pass; self time excludes child spans)",
               [(k, v, units.get(k, ""), "") for k, v in sorted(layer.items())])
    print(f"gate: fit outputs byte-identical: {fit_identical}; "
          f"attempted {tally.attempted}, failed {tally.failed}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layer if args.trace else e2e
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
