"""Self-test of the benchmark at a tiny size (about a minute).

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Checks that:

* every workload passes its gate at the tiny size with tracing on, and its
  result line carries exactly the per-layer metrics of BENCHMARK.json;
* an untraced run carries exactly the end-to-end metrics, and its report
  names every end-to-end metric, with its unit;
* changing one byte of any byte-compared output fails the gate, a fit value
  moved beyond the tolerance fails it, and a changed last digit of a fit
  value is reported as not byte-identical;
* a CLI call that exits non-zero counts as a failed call.

Exits 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import gate
import run
from workloads import DEFAULT_SEED, WORKLOADS, Call, make_plan

REPORT_NAMES = ["setup_s", "wall_cal", "cpu_cal", "calibration_s", "wall_s",
                "cpu_s", "simulate_s", "analyze_s", "fit_s", "transform_s",
                "peak_rss_mb", "error_rate"]
THROUGHPUT = {"reach_pipeline": "trials_per_s", "fit_cohort": "trials_per_s",
              "scene_transform": "points_per_s"}


class Checks:
    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            self.failures.append(what)


def bench(workload: str, trace: int) -> tuple[int, str, dict]:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--scale", "tiny", "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return proc.returncode, proc.stdout, result


def check_runs(checks: Checks, spec: dict) -> None:
    layer_names = sorted(m["name"] for m in spec["per_layer"])
    e2e = spec["end_to_end"]
    for workload in WORKLOADS:
        print(f"{workload}, tiny, traced")
        code, _, result = bench(workload, 1)
        checks.expect(code == 0 and result.get("correct") is True
                      and result.get("failed") == 0, "gate passes")
        checks.expect(sorted(result.get("metrics", {})) == layer_names,
                      "result holds exactly the per-layer metrics")
    print("scene_transform, tiny, untraced")
    code, stdout, result = bench("scene_transform", 0)
    checks.expect(code == 0 and result.get("correct") is True, "gate passes")
    metrics = result.get("metrics", {})
    checks.expect(sorted(metrics) == sorted(m["name"] for m in e2e)
                  and all(metrics[m["name"]]["unit"] == m["unit"] for m in e2e),
                  "result holds exactly the end-to-end metrics with units")
    report = stdout.splitlines()[:-1]
    for name in REPORT_NAMES + [THROUGHPUT["scene_transform"]]:
        checks.expect(any(line.split()[:1] == [name] and len(line.split()) >= 3
                          for line in report), f"report names {name} with a unit")


def flip_byte(path) -> bytes:
    """Change the file's last digit; return the original bytes."""
    data = path.read_bytes()
    mutated = bytearray(data)
    at = max(data.rfind(str(d).encode()) for d in range(10))
    mutated[at] = ord("0") + (mutated[at] - ord("0") + 1) % 10
    path.write_bytes(bytes(mutated))
    return data


def check_gate(checks: Checks) -> None:
    """Mutate the outputs of fresh tiny passes and expect the gate to object."""
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir(parents=True)
    with run.CliServer(run.child_env()) as server:
        check_mutations(checks, server)


def check_mutations(checks: Checks, server: run.CliServer) -> None:
    for workload in WORKLOADS:
        print(f"{workload}, tiny, gate mutations")
        for sub in ("in", "untraced"):
            shutil.rmtree(run.WORK / sub, ignore_errors=True)
        plan = make_plan(workload, run.WORK / "in", DEFAULT_SEED, "tiny")
        workdir = run.WORK / "untraced"
        results = run.run_pass(plan, workdir, server)
        tally = run.Tally()
        baseline: dict = {}
        run.gate_pass(plan, workdir, results, baseline, None, tally)
        checks.expect(tally.attempted == len(plan.calls) and not tally.errors,
                      "unchanged outputs pass")
        for call in plan.calls:
            for rel in gate.call_files(workdir, call):
                path = workdir / rel
                original = flip_byte(path)
                try:
                    identical = gate.compare_snapshots(
                        gate.snapshot(workdir, call), baseline[call.name], rel)
                    caught = gate.is_fit_value_file(rel) and not identical
                except gate.GateError:
                    caught = True
                finally:
                    path.write_bytes(original)
                checks.expect(caught, f"one changed byte in {rel} is caught")
            if call.subcommand == "fit":
                path = workdir / call.outputs[0] / "fit_original_with-offset.json"
                original = path.read_bytes()
                data = json.loads(original)
                data["beta_deg"] += 10 * gate.FIT_TOLERANCE["beta_deg"]
                path.write_text(json.dumps(data), encoding="utf-8")
                try:
                    gate.compare_snapshots(gate.snapshot(workdir, call),
                                           baseline[call.name], "beta moved")
                    caught = False
                except gate.GateError:
                    caught = True
                finally:
                    path.write_bytes(original)
                checks.expect(caught, "beta moved beyond the tolerance is caught")

    print("non-zero exit")
    broken = Call("transform_missing", "transform",
                  ("--in", "../in/missing.obj", "--out", "out/x.obj",
                   "--beta-deg", "0.22", "--ipd-mm", "63"), ("out/x.obj",))
    plan.steps = [broken]
    results = run.run_pass(plan, workdir, server)
    tally = run.Tally()
    run.gate_pass(plan, workdir, results, {}, None, tally)
    checks.expect(results[0].code != 0 and tally.attempted == 1
                  and tally.failed == 1, "a non-zero exit counts as a failed call")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    checks = Checks()
    check_runs(checks, spec)
    check_gate(checks)
    shutil.rmtree(run.WORK, ignore_errors=True)
    print(f"selftest: {len(checks.failures)} failure(s)")
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
