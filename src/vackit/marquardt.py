"""Damped least squares with box constraints.

A small Levenberg-Marquardt implementation on the normal equations with
Marquardt's diagonal scaling, written against callables so the residual
and Jacobian stay decoupled from any particular model.  A Jacobian is
either a dense array or an ArrowheadJacobian, whose normal equations are
formed and solved in O(rows + groups) without a dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FitError

__all__ = ["ArrowheadJacobian", "LMResult", "levenberg_marquardt",
           "finite_difference_jacobian"]

LAMBDA_INIT = 1e-3
LAMBDA_MAX = 1e8
LAMBDA_MIN = 1e-14
FTOL = 1e-10
XTOL = 1e-12
# Central-difference step of finite_difference_jacobian, relative to |x_j|
# (absolute below 1).
FD_REL_STEP = 1e-7
MAX_ITER = 200
# Accepted steps are extended by repeated doubling while the residual keeps
# improving; long flat valleys otherwise take hundreds of tiny steps.
MAX_EXTEND = 1024


@dataclass(frozen=True)
class LMResult:
    """Solution of a damped least-squares run."""

    x: np.ndarray
    rss: float
    n_iter: int
    converged: bool
    stop_reason: str


@dataclass(frozen=True)
class ArrowheadJacobian:
    """Jacobian with an optional dense first column and one entry per row.

    Row i has column[i] in column 0 (when column is set) and entry[i] in
    the column of its group, group[i], counted after the dense column.
    J'J is then an arrowhead: one dense corner row and column plus a
    diagonal, one element per group.
    """

    column: np.ndarray | None
    entry: np.ndarray
    group: np.ndarray
    n_groups: int

    def dense(self) -> np.ndarray:
        """The same Jacobian as a rows x (1 + n_groups) or rows x n_groups
        array."""
        rows = len(self.entry)
        first = 0 if self.column is None else 1
        J = np.zeros((rows, first + self.n_groups), dtype=np.float64)
        if self.column is not None:
            J[:, 0] = self.column
        J[np.arange(rows), first + self.group] = self.entry
        return J

    def normal_equations(self, r: np.ndarray):
        """diag(J'J) and the damped solve, as _normal_equations.

        With g = J'r, a = column.column, and w, c the per-group sums of
        entry^2 and column*entry, the damped step is a Schur complement on
        the dense column: for D = w + damping[1:],
          step_0 = (-g_0 + sum(c*g_p/D)) / (a + damping_0 - sum(c^2/D)),
          step_p = (-g_p - c*step_0) / D.
        Both cost O(rows + n_groups); no dense matrix is formed.
        """
        w = np.bincount(self.group, self.entry * self.entry, self.n_groups)
        g_groups = np.bincount(self.group, self.entry * r, self.n_groups)
        if self.column is None:
            return w, lambda damping: -g_groups / (w + damping)
        a = float(self.column @ self.column)
        g0 = float(self.column @ r)
        c = np.bincount(self.group, self.column * self.entry, self.n_groups)

        def solve(damping: np.ndarray) -> np.ndarray:
            D = w + damping[1:]
            c_over_d = c / D
            # the Schur denominator is positive but can round to zero at
            # the smallest damping; the loop rejects the non-finite step
            # and raises the damping, as after a singular dense solve
            with np.errstate(divide="ignore", invalid="ignore"):
                step0 = (-g0 + c_over_d @ g_groups) / (a + damping[0] - c_over_d @ c)
            return np.concatenate(([step0], (-g_groups - c * step0) / D))

        return np.concatenate(([a], w)), solve


def _normal_equations(J: np.ndarray | ArrowheadJacobian, r: np.ndarray):
    """(diag(J'J), solve), where solve(damping) is the step of
    (J'J + diag(damping)) step = -J'r."""
    if isinstance(J, ArrowheadJacobian):
        return J.normal_equations(r)
    A = J.T @ J
    g = J.T @ r
    return np.diag(A), lambda damping: np.linalg.solve(A + np.diag(damping), -g)


def _rss(r: np.ndarray) -> float:
    if not np.all(np.isfinite(r)):
        return float("inf")
    return float(r @ r)


def levenberg_marquardt(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray | ArrowheadJacobian],
    x0: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    max_iter: int = MAX_ITER,
) -> LMResult:
    """Minimize sum(residual(x)**2) subject to lower <= x <= upper.

    Trial points are projected onto the box, the damping factor is scaled
    by diag(J'J) (unit scale where a diagonal entry vanishes), and rejected
    steps raise the damping tenfold.  Stops, converged, when an accepted
    step reduces the residual sum of squares by a relative factor below
    FTOL (1e-10), or when the projected step is below XTOL (1e-12) in the
    infinity norm; both are module constants.  jacobian returns a dense
    array or an ArrowheadJacobian.

    Raises:
        FitError: If the starting residual is not finite, or the damping
            factor exceeds 1e8 without an acceptable step.
    """
    x = np.clip(np.asarray(x0, dtype=np.float64), lower, upper)
    r = residual(x)
    rss = _rss(r)
    if not np.isfinite(rss):
        raise FitError(f"residual is not finite at the starting point {x!r}")
    lam = LAMBDA_INIT
    n_iter = 0
    converged = False
    reason = "max_iter"
    for n_iter in range(1, max_iter + 1):
        diag, solve = _normal_equations(jacobian(x), r)
        scale = np.where(diag > 0, diag, 1.0)
        while True:
            try:
                step = solve(lam * scale)
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
                raise FitError(
                    f"damping factor exceeded {LAMBDA_MAX:g} after {n_iter} "
                    f"iterations (rss={rss:.6g})"
                )
        if converged:
            break
    return LMResult(x=x, rss=rss, n_iter=n_iter, converged=converged,
                    stop_reason=reason)


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
