"""Array kernels of the package's hot loops.

Batch depth remapping of vertex arrays and the hysteresis scan used by
movement segmentation, both in vectorized numpy.
"""

from __future__ import annotations

import numpy as np

from .geometry import shift_distances

__all__ = [
    "remap_points",
    "sustained_run_start",
]


def remap_points(xyz: np.ndarray, half_ipd: float,
                 beta: float) -> tuple[np.ndarray, int]:
    """Depth-remap an (N, 3) vertex array in the cyclopean view frame.

    For each vertex the cyclopean distance is triangulated, the subtended
    angle reduced by beta, and the depth re-solved keeping x and y fixed.
    A zero beta copies the input bitwise (after domain checks) so that a
    no-op transform cannot drift by rounding.

    Args:
        xyz: Vertex array, shape (N, 3), float64.
        half_ipd: Half the interpupillary distance in meters.
        beta: Vergence offset in radians.

    Returns:
        (out, first_bad): the transformed array and -1, or the untouched
        input and the index of the first vertex whose corrected angle or
        radicand left its domain.
    """
    xyz = np.ascontiguousarray(xyz, dtype=np.float64)
    beta = float(beta)
    x, y, z = xyz[:, 0], xyz[:, 1], xyz[:, 2]
    d_tilde, ok = shift_distances(np.sqrt(x * x + y * y + z * z),
                                  float(half_ipd), -beta)
    with np.errstate(invalid="ignore"):
        radicand = d_tilde * d_tilde - x * x - y * y
    ok &= (z > 0.0) & (radicand > 0.0)
    if not ok.all():
        return xyz.copy(), int(np.argmin(ok))
    if beta == 0.0:
        return xyz.copy(), -1
    out = np.empty_like(xyz)
    out[:, 0] = x
    out[:, 1] = y
    out[:, 2] = np.sqrt(radicand)
    return out, -1


def sustained_run_start(flags: np.ndarray, min_run: int, start: int = 0,
                        accept_tail: bool = False) -> int:
    """Index of the first run of True lasting at least min_run samples.

    Args:
        flags: Boolean array to scan.
        min_run: Required run length in samples.
        start: First index considered; runs are evaluated from here even if
            the condition already held earlier.
        accept_tail: Count a run truncated by the end of the array as
            sustained (used for movement termination, where the recording
            simply stops while the hand is at rest).

    Returns:
        Start index of the run, or -1 if none qualifies.
    """
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
