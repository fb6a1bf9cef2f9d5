"""Reference sustained-run scan for the run-start tests.

kinematics._run_starts takes the runs of True of every row of a block as
[begin, end) pairs in one pass; this is the one-series sliding-window scan
it replaced, which tests every min_run-long window and then, separately,
the run at the tail.  Its index for each row must match this one's
exactly.
"""

from __future__ import annotations

import numpy as np


def sustained_run_start_windows(flags: np.ndarray, min_run: int, start: int = 0,
                                accept_tail: bool = False) -> int:
    """Start of the first all-True window of min_run samples from start, or
    with accept_tail of the True run that ends the array; -1 for none."""
    flags = np.ascontiguousarray(flags, dtype=np.bool_)
    if min_run < 1:
        raise ValueError(f"min_run must be >= 1, got {min_run}")
    n = len(flags)
    if start >= n:
        return -1
    window = flags[start:]
    if min_run <= len(window):
        hits = np.lib.stride_tricks.sliding_window_view(window, min_run).all(axis=1)
        idx = np.flatnonzero(hits)
        if idx.size:
            return start + int(idx[0])
    if accept_tail and window[-1]:
        tail_len = int(np.argmin(window[::-1])) if not window.all() else len(window)
        return start + len(window) - tail_len
    return -1
