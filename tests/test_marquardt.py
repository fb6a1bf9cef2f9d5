"""Damped least-squares solver tests.

fitting.levenberg_marquardt solves problems whose Jacobian is an
arrowhead: each row depends on a shared first parameter and on the one
parameter of its own group.  A linear residual of that shape has the
closed-form minimizer given by the normal equations, which the solver
must reproduce to 1e-10 whatever the starting point.  The remaining tests
probe the box projection, the step-extension behavior in flat valleys,
the stopping taxonomy, the central-difference Jacobian used to validate
analytic derivatives, and the Schur-complement step against the dense
solve.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vackit.errors import FitError
from vackit.fitting import _normal_equations, levenberg_marquardt

import lm_reference
from lm_reference import arrowhead_dense, finite_difference_jacobian


def _linear_problem(seed: int, n_groups: int = 3, per_group: int = 10):
    """A residual column*x[0] + entry*x[1 + group] - b: (problem, dense A, b)."""
    rng = np.random.default_rng(seed)
    group = np.repeat(np.arange(n_groups), per_group)
    column = rng.normal(0, 1, len(group))
    entry = rng.normal(0, 1, len(group))
    b = rng.normal(0, 1, len(group))
    A = arrowhead_dense(column, entry, group, n_groups)
    problem = dict(residual=lambda x: column * x[0] + entry * x[1 + group] - b,
                   derivatives=lambda x: (column, entry), pidx=group)
    return problem, A, b


def _box(n: int, half_width: float = 10.0):
    return dict(lower=np.full(n, -half_width), upper=np.full(n, half_width))


class TestLinearLeastSquares:
    def test_matches_closed_form(self):
        problem, A, b = _linear_problem(seed=0)
        x, _, converged, _ = levenberg_marquardt(**problem, x0=np.zeros(4),
                                                 **_box(4))
        expected, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert converged
        assert float(np.max(np.abs(x - expected))) < 1e-10

    def test_start_point_irrelevant(self):
        problem, A, b = _linear_problem(seed=1)
        expected, *_ = np.linalg.lstsq(A, b, rcond=None)
        for x0 in (np.full(4, 5.0), np.full(4, -5.0), np.arange(4.0)):
            x, *_ = levenberg_marquardt(**problem, x0=x0, **_box(4))
            assert float(np.max(np.abs(x - expected))) < 1e-10

    def test_rss_matches_projection_residual(self):
        problem, A, b = _linear_problem(seed=2)
        x, *_ = levenberg_marquardt(**problem, x0=np.zeros(4), **_box(4))
        expected, *_ = np.linalg.lstsq(A, b, rcond=None)
        r = problem["residual"](x)
        assert float(r @ r) == pytest.approx(
            float(np.sum((A @ expected - b) ** 2)), rel=1e-12)


class TestNonlinearFits:
    def test_exponential_decay_recovery(self):
        # amplitude as the shared parameter, the rate as group 0's
        t = np.linspace(0, 2, 40)
        true = np.array([1.7, 0.9])
        y = true[0] * np.exp(-true[1] * t)

        def residual(x):
            return x[0] * np.exp(-x[1] * t) - y

        def derivatives(x):
            return np.exp(-x[1] * t), -x[0] * t * np.exp(-x[1] * t)

        x, _, converged, _ = levenberg_marquardt(
            residual, derivatives, np.zeros(len(t), dtype=np.int64),
            x0=np.array([1.0, 0.1]), lower=np.array([0.0, 0.0]),
            upper=np.array([10.0, 10.0]))
        assert converged
        np.testing.assert_allclose(x, true, rtol=1e-8)

    def test_quartic_valley_converges_quickly(self):
        # r = (x - 5)^2 has a fourth-order minimum; plain Gauss-Newton
        # halves the distance per iteration, so the accepted-step
        # doubling must show up as a materially lower count.  The group
        # parameter does not enter the residual.
        def residual(x):
            return np.array([(x[0] - 5.0) ** 2])

        def derivatives(x):
            return np.array([2.0 * (x[0] - 5.0)]), np.zeros(1)

        x, n_iter, _, _ = levenberg_marquardt(
            residual, derivatives, np.zeros(1, dtype=np.int64),
            x0=np.array([-200.0, 0.0]), **_box(2, 1e4))
        assert x[0] == pytest.approx(5.0, abs=1e-3)
        assert float(residual(x) @ residual(x)) < 1e-12
        assert n_iter < 40


def _separate(target_0: float, target_1: float, weight_0: float = 1.0):
    """Two rows: weight_0 * (x[0] - target_0) and x[1] - target_1."""
    return dict(
        residual=lambda x: np.array([weight_0 * (x[0] - target_0),
                                     x[1] - target_1]),
        derivatives=lambda x: (np.array([weight_0, 0.0]), np.array([0.0, 1.0])),
        pidx=np.zeros(2, dtype=np.int64),
    )


class TestBoxConstraints:
    def test_solution_clipped_to_boundary(self):
        # unconstrained minimum at (2, 2) lies outside the box
        x, _, converged, _ = levenberg_marquardt(
            **_separate(2.0, 2.0), x0=np.array([0.5, 0.5]),
            lower=np.zeros(2), upper=np.ones(2))
        assert converged
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=0, atol=1e-12)

    def test_start_point_projected_into_box(self):
        x, *_ = levenberg_marquardt(
            **_separate(0.5, 0.5), x0=np.array([99.0, -99.0]),
            lower=np.zeros(2), upper=np.ones(2))
        np.testing.assert_allclose(x, [0.5, 0.5], rtol=0, atol=1e-10)

    def test_iterates_never_leave_box(self):
        problem = _separate(3.0, -4.0, weight_0=10.0)
        seen = []

        def residual(x):
            seen.append(x.copy())
            return problem["residual"](x)

        _, _, converged, _ = levenberg_marquardt(
            residual, problem["derivatives"], problem["pidx"],
            x0=np.zeros(2), **_box(2, 1.0))
        assert converged
        visited = np.array(seen)
        assert np.all(visited >= -1.0) and np.all(visited <= 1.0)


class TestStoppingTaxonomy:
    def test_zero_gradient_stops_on_step_tolerance(self):
        # constant residual: J'J = 0 falls back to unit scaling and the
        # solve returns a null step immediately
        x, n_iter, converged, reason = levenberg_marquardt(
            residual=lambda x: np.array([1.0, 2.0]),
            derivatives=lambda x: (np.zeros(2), np.zeros(2)),
            pidx=np.zeros(2, dtype=np.int64),
            x0=np.array([0.3, -0.2]), **_box(2, 1.0))
        assert converged
        assert reason == "step_tolerance"
        assert n_iter == 1
        assert x.tolist() == [0.3, -0.2]

    def test_flat_improvement_stops_on_rss_tolerance(self):
        problem, _, _ = _linear_problem(seed=3)
        _, _, converged, reason = levenberg_marquardt(
            **problem, x0=np.zeros(4), **_box(4))
        assert converged
        assert reason == "rss_tolerance"

    def test_nonfinite_start_raises(self):
        with pytest.raises(FitError, match="not finite"):
            levenberg_marquardt(
                residual=lambda x: np.array([np.nan]),
                derivatives=lambda x: (np.ones(1), np.ones(1)),
                pidx=np.zeros(1, dtype=np.int64),
                x0=np.zeros(2), **_box(2, 1.0))

    def test_damping_blowup_stops_unconverged(self):
        # a deliberately wrong derivative sends every proposal uphill, so
        # no damping level ever yields an acceptable step: the loop stops
        # at the last accepted point, here the start, as the dense
        # reference does
        problem = dict(residual=lambda x: np.array([abs(x[0]) + 1.0]),
                       x0=np.zeros(2), **_box(2))
        x, n_iter, converged, reason = levenberg_marquardt(
            derivatives=lambda x: (np.ones(1), np.zeros(1)),
            pidx=np.zeros(1, dtype=np.int64), **problem)
        assert (n_iter, converged, reason) == (1, False, "damping_limit")
        assert x.tolist() == [0.0, 0.0]
        dense = lm_reference.levenberg_marquardt(
            jacobian=lambda x: np.array([[1.0, 0.0]]), **problem)
        assert (dense.n_iter, dense.converged, dense.stop_reason) == \
            (n_iter, converged, reason)
        assert dense.x.tolist() == x.tolist()


class TestFiniteDifferenceJacobian:
    def test_matches_analytic_on_smooth_model(self):
        def residual(x):
            return np.array([
                np.sin(x[0] * x[1]),
                x[0] ** 2 - x[1],
                np.exp(0.5 * x[1]),
            ])

        x = np.array([0.7, 1.3])
        analytic = np.array([
            [x[1] * np.cos(x[0] * x[1]), x[0] * np.cos(x[0] * x[1])],
            [2 * x[0], -1.0],
            [0.0, 0.5 * np.exp(0.5 * x[1])],
        ])
        fd = finite_difference_jacobian(residual, x)
        np.testing.assert_allclose(fd, analytic, rtol=1e-6, atol=1e-9)

    def test_linear_model_to_cancellation_limit(self):
        # central differences at rel_step 1e-7 leave subtraction noise of
        # order eps/h ~ 1e-9 on O(1) entries
        problem, A, _ = _linear_problem(seed=5)
        fd = finite_difference_jacobian(problem["residual"], np.ones(4))
        np.testing.assert_allclose(fd, A, rtol=1e-6, atol=5e-9)


class TestArrowheadJacobian:
    @settings(max_examples=200, deadline=None)
    @given(n_groups=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           log_lam=st.floats(-3.0, 3.0), data=st.data())
    def test_damped_solve_equals_dense(self, n_groups, seed, log_lam, data):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 6, n_groups).sum())
        group = np.concatenate([np.arange(n_groups),
                                rng.integers(0, n_groups, rows - n_groups)])
        entry = rng.normal(0.0, 1.0, rows)
        # one group without derivative falls back to unit scale
        entry[group == data.draw(st.integers(0, n_groups - 1))] = 0.0
        column = rng.normal(0.0, 1.0, rows)
        r = rng.normal(0.0, 1.0, rows)

        dense = arrowhead_dense(column, entry, group, n_groups)
        A = dense.T @ dense
        diag, solve = _normal_equations(column, entry, group, n_groups, r)
        np.testing.assert_allclose(diag, np.diag(A), rtol=1e-13, atol=1e-13)
        assert np.any(diag == 0.0)
        damping = 10.0 ** log_lam * np.where(diag > 0, diag, 1.0)
        step = solve(damping)
        expected = np.linalg.solve(A + np.diag(damping), -(dense.T @ r))
        # compare in the damping's scaled norm, where the system's
        # condition number is at most (1 + n_groups + lam) / lam
        w = np.sqrt(damping)
        np.testing.assert_allclose(
            w * step, w * expected, rtol=0,
            atol=1e-9 * max(float(np.linalg.norm(w * expected)), 1e-300))

    def test_solver_takes_arrowhead_or_dense_alike(self):
        # the structured loop takes the dense reference loop's iterates
        problem, A, b = _linear_problem(seed=9, n_groups=5, per_group=6)
        box = _box(6)
        x, n_iter, converged, reason = levenberg_marquardt(
            **problem, x0=np.zeros(6), **box)
        dense = lm_reference.levenberg_marquardt(
            problem["residual"], lambda x: A, np.zeros(6), **box)
        assert (n_iter, converged, reason) == \
            (dense.n_iter, dense.converged, dense.stop_reason)
        np.testing.assert_allclose(x, dense.x, rtol=0, atol=1e-12)
