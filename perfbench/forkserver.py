"""Fork server: import `vackit.cli` once, then run each CLI call in a fork.

Started by run.py as `python3 forkserver.py` with the program's `src/` on
PYTHONPATH.  It speaks one JSON object per line:

* on start it writes the environment record (versions, backend);
* for each request {"argv", "cwd", "log", "spans", "timeout_s"} it forks
  a child that runs `vackit.cli.main(argv)` in `cwd`, with standard output
  on /dev/null and standard error in `log`, and replies
  {"code", "wall_s", "cpu_s", "rss_mb"} once the child has exited;
  with "argv" null the child runs the fixed calibration kernel instead;
* it exits at the end of its input.

Every call therefore runs in a fresh process, as a CLI call does, but
without paying the interpreter start and `import vackit.cli` again:
run.py measures that cost on its own, as `setup_s`.  The wall time spans
fork to exit; CPU time and peak RSS are the child's, from `os.wait4`.
With "spans" set, the child records spans with tracer.py and writes them
there.  A child still running after "timeout_s" is killed.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import sys
import threading
import time
import traceback

import vackit.cli

import tracer


def environment() -> dict:
    import numpy
    import scipy
    try:
        from vackit.backends import active_backend
        backend = active_backend()
    except (ImportError, ValueError) as exc:
        backend = repr(exc)
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numba": numba_version,
            "active_backend": backend, "vackit_file": vackit.cli.__file__}


def calibration() -> None:
    """Fixed work of the kinds the program does: format, parse, numpy."""
    import numpy as np
    rng = np.random.default_rng(0)
    values = rng.standard_normal(40_000)
    for _ in range(3):
        text = "".join(f"{v!r},{v * 0.5!r}\n" for v in values.tolist())
        parsed = np.array([float(f) for line in text.splitlines()
                           for f in line.split(",")])
        np.convolve(parsed, np.hanning(31), mode="same").cumsum()


def child(request: dict) -> None:
    """Run one CLI call in the forked child; never returns."""
    code = 1
    try:
        os.chdir(request["cwd"])
        devnull = os.open(os.devnull, os.O_RDWR)
        log = os.open(request["log"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                      0o644)
        os.dup2(devnull, 0)
        os.dup2(devnull, 1)
        os.dup2(log, 2)
        if request["argv"] is None:
            calibration()
            os._exit(0)
        main = vackit.cli.main
        spans = request.get("spans")
        if spans:
            recorder = tracer.Tracer()
            tracer.install(recorder)
            main = recorder.wrap("cli.main", main)
        code = main(request["argv"])
        if spans:
            recorder.dump(spans)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except BaseException:
        traceback.print_exc()
        code = 1
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


def serve(request: dict) -> dict:
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        child(request)
    watchdog = threading.Timer(request["timeout_s"], os.kill,
                               (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        watchdog.cancel()
        watchdog.join()
    wall = time.perf_counter() - start
    return {"code": os.waitstatus_to_exitcode(status), "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def main() -> int:
    print(json.dumps(environment()), flush=True)
    for line in sys.stdin:
        print(json.dumps(serve(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
