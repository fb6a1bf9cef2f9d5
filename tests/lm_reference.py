"""Reference damped least squares for the fit tests.

fitting.levenberg_marquardt forms each step from the arrowhead structure
of the fit's Jacobian; this is the generic loop on a dense Jacobian and a
dense solve of the normal equations that it replaced, with the same
constants and stop rule.  Its iterates must match the structured ones to
rounding.  The dense Jacobian builder and the central-difference probe
that validates the analytic derivatives live here too.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from vackit.errors import FitError
from vackit.fitting import (
    FTOL,
    LAMBDA_INIT,
    LAMBDA_MAX,
    LAMBDA_MIN,
    MAX_EXTEND,
    MAX_ITER,
    XTOL,
    _derivatives,
)

# Central-difference step of finite_difference_jacobian, relative to |x_j|
# (absolute below 1).
FD_REL_STEP = 1e-7


class LMResult(NamedTuple):
    x: np.ndarray
    rss: float
    n_iter: int
    converged: bool
    stop_reason: str


def _rss(r: np.ndarray) -> float:
    if not np.all(np.isfinite(r)):
        return float("inf")
    return float(r @ r)


def levenberg_marquardt(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    max_iter: int = MAX_ITER,
) -> LMResult:
    """Bounded Levenberg-Marquardt with a dense Jacobian and a dense solve
    of (J'J + diag(damping)) step = -J'r; a singular system counts as a
    rejected step."""
    x = np.clip(np.asarray(x0, dtype=np.float64), lower, upper)
    r = residual(x)
    rss = _rss(r)
    if not np.isfinite(rss):
        raise FitError("residual is not finite at the starting point")
    lam = LAMBDA_INIT
    n_iter = 0
    converged = False
    reason = "max_iter"
    for n_iter in range(1, max_iter + 1):
        J = jacobian(x)
        A = J.T @ J
        g = J.T @ r
        diag = np.diag(A)
        scale = np.where(diag > 0, diag, 1.0)
        while True:
            try:
                step = np.linalg.solve(A + np.diag(lam * scale), -g)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and np.all(np.isfinite(step)):
                x_new = np.clip(x + step, lower, upper)
                if np.max(np.abs(x_new - x)) < XTOL:
                    converged = True
                    reason = "step_tolerance"
                    break
                r_new = residual(x_new)
                rss_new = _rss(r_new)
                if rss_new < rss:
                    k = 1
                    while k < MAX_EXTEND:
                        x_ext = np.clip(x + (2 * k) * step, lower, upper)
                        r_ext = residual(x_ext)
                        rss_ext = _rss(r_ext)
                        if rss_ext < rss_new:
                            x_new, r_new, rss_new = x_ext, r_ext, rss_ext
                            k *= 2
                        else:
                            break
                    reduction = (rss - rss_new) / rss if rss > 0 else 0.0
                    x, r, rss = x_new, r_new, rss_new
                    lam = max(lam / 10.0, LAMBDA_MIN)
                    if reduction < FTOL:
                        converged = True
                        reason = "rss_tolerance"
                    break
            lam *= 10.0
            if lam > LAMBDA_MAX:
                return LMResult(x=x, rss=rss, n_iter=n_iter, converged=False,
                                stop_reason="damping_limit")
        if converged:
            break
    return LMResult(x=x, rss=rss, n_iter=n_iter, converged=converged,
                    stop_reason=reason)


def arrowhead_dense(d_beta: np.ndarray, d_ipd: np.ndarray, pidx: np.ndarray,
                    n_groups: int) -> np.ndarray:
    """The rows x (1 + n_groups) matrix with d_beta in column 0 and d_ipd
    in column 1 + pidx of each row."""
    rows = len(d_ipd)
    J = np.zeros((rows, 1 + n_groups), dtype=np.float64)
    J[:, 0] = d_beta
    J[np.arange(rows), 1 + pidx] = d_ipd
    return J


def dense_jacobian(x: np.ndarray, pidx: np.ndarray,
                   eye_distance: np.ndarray) -> np.ndarray:
    """fitting.residuals' analytic Jacobian as a dense rows x len(x) array."""
    return arrowhead_dense(*_derivatives(x, pidx, eye_distance), pidx,
                           len(x) - 1)


def finite_difference_jacobian(
    residual: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
) -> np.ndarray:
    """Central-difference Jacobian, for validating analytic derivatives."""
    x = np.asarray(x, dtype=np.float64)
    r0 = residual(x)
    J = np.empty((len(r0), len(x)), dtype=np.float64)
    for j in range(len(x)):
        h = FD_REL_STEP * max(abs(x[j]), 1.0)
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        J[:, j] = (residual(xp) - residual(xm)) / (2.0 * h)
    return J
