"""Damped least-squares solver tests.

A linear residual A x - b has the closed-form minimizer given by the
normal equations, which the solver must reproduce to 1e-10 whatever the
starting point.  The remaining tests probe the box projection, the
step-extension behavior in flat valleys, the stopping taxonomy, the
central-difference Jacobian used to validate analytic derivatives, and
the arrowhead Jacobian's damped solve against the dense one.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vackit.errors import FitError
from vackit.marquardt import (
    ArrowheadJacobian,
    LMResult,
    finite_difference_jacobian,
    levenberg_marquardt,
)


def _linear_problem(seed: int, n: int = 30, p: int = 4):
    rng = np.random.default_rng(seed)
    A = rng.normal(0, 1, (n, p))
    b = rng.normal(0, 1, n)
    return A, b


class TestLinearLeastSquares:
    def test_matches_closed_form(self):
        A, b = _linear_problem(seed=0)
        result = levenberg_marquardt(
            residual=lambda x: A @ x - b,
            jacobian=lambda x: A,
            x0=np.zeros(4),
            lower=np.full(4, -10.0),
            upper=np.full(4, 10.0),
        )
        expected, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert result.converged
        assert float(np.max(np.abs(result.x - expected))) < 1e-10

    def test_start_point_irrelevant(self):
        A, b = _linear_problem(seed=1)
        expected, *_ = np.linalg.lstsq(A, b, rcond=None)
        for x0 in (np.full(4, 5.0), np.full(4, -5.0), np.arange(4.0)):
            result = levenberg_marquardt(
                residual=lambda x: A @ x - b,
                jacobian=lambda x: A,
                x0=x0,
                lower=np.full(4, -10.0),
                upper=np.full(4, 10.0),
            )
            assert float(np.max(np.abs(result.x - expected))) < 1e-10

    def test_rss_matches_projection_residual(self):
        A, b = _linear_problem(seed=2)
        result = levenberg_marquardt(
            residual=lambda x: A @ x - b,
            jacobian=lambda x: A,
            x0=np.zeros(4),
            lower=np.full(4, -10.0),
            upper=np.full(4, 10.0),
        )
        expected, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert result.rss == pytest.approx(float(np.sum((A @ expected - b) ** 2)),
                                           rel=1e-12)


class TestNonlinearFits:
    def test_exponential_decay_recovery(self):
        t = np.linspace(0, 2, 40)
        true = np.array([1.7, 0.9])
        y = true[0] * np.exp(-true[1] * t)

        def residual(x):
            return x[0] * np.exp(-x[1] * t) - y

        def jacobian(x):
            return np.column_stack([np.exp(-x[1] * t),
                                    -x[0] * t * np.exp(-x[1] * t)])

        result = levenberg_marquardt(residual, jacobian,
                                     x0=np.array([1.0, 0.1]),
                                     lower=np.array([0.0, 0.0]),
                                     upper=np.array([10.0, 10.0]))
        assert result.converged
        np.testing.assert_allclose(result.x, true, rtol=1e-8)

    def test_quartic_valley_converges_quickly(self):
        # r = (x - 5)^2 has a fourth-order minimum; plain Gauss-Newton
        # halves the distance per iteration, so the accepted-step
        # doubling must show up as a materially lower count
        def residual(x):
            return np.array([(x[0] - 5.0) ** 2])

        def jacobian(x):
            return np.array([[2.0 * (x[0] - 5.0)]])

        result = levenberg_marquardt(residual, jacobian,
                                     x0=np.array([-200.0]),
                                     lower=np.array([-1e4]),
                                     upper=np.array([1e4]))
        assert result.x[0] == pytest.approx(5.0, abs=1e-3)
        assert result.rss < 1e-12
        assert result.n_iter < 40


class TestBoxConstraints:
    def test_solution_clipped_to_boundary(self):
        # unconstrained minimum at x = 2 lies outside the box
        result = levenberg_marquardt(
            residual=lambda x: x - 2.0,
            jacobian=lambda x: np.eye(1),
            x0=np.array([0.5]),
            lower=np.array([0.0]),
            upper=np.array([1.0]),
        )
        assert result.converged
        assert result.x[0] == pytest.approx(1.0, abs=1e-12)

    def test_start_point_projected_into_box(self):
        result = levenberg_marquardt(
            residual=lambda x: x - 0.5,
            jacobian=lambda x: np.eye(1),
            x0=np.array([99.0]),
            lower=np.array([0.0]),
            upper=np.array([1.0]),
        )
        assert result.x[0] == pytest.approx(0.5, abs=1e-10)

    def test_iterates_never_leave_box(self):
        seen = []

        def residual(x):
            seen.append(x.copy())
            return np.array([10.0 * (x[0] - 3.0), x[1] + 4.0])

        result = levenberg_marquardt(
            residual,
            jacobian=lambda x: np.diag([10.0, 1.0]),
            x0=np.array([0.0, 0.0]),
            lower=np.array([-1.0, -1.0]),
            upper=np.array([1.0, 1.0]),
        )
        assert result.converged
        visited = np.array(seen)
        assert np.all(visited >= -1.0) and np.all(visited <= 1.0)


class TestStoppingTaxonomy:
    def test_zero_gradient_stops_on_step_tolerance(self):
        # constant residual: J'J = 0 falls back to unit scaling and the
        # solve returns a null step immediately
        result = levenberg_marquardt(
            residual=lambda x: np.array([1.0, 2.0]),
            jacobian=lambda x: np.zeros((2, 1)),
            x0=np.array([0.3]),
            lower=np.array([-1.0]),
            upper=np.array([1.0]),
        )
        assert result.converged
        assert result.stop_reason == "step_tolerance"
        assert result.n_iter == 1
        assert result.x[0] == 0.3

    def test_flat_improvement_stops_on_rss_tolerance(self):
        A, b = _linear_problem(seed=3)
        result = levenberg_marquardt(
            residual=lambda x: A @ x - b,
            jacobian=lambda x: A,
            x0=np.zeros(4),
            lower=np.full(4, -10.0),
            upper=np.full(4, 10.0),
        )
        assert result.stop_reason in ("rss_tolerance", "step_tolerance")

    def test_nonfinite_start_raises(self):
        with pytest.raises(FitError):
            levenberg_marquardt(
                residual=lambda x: np.array([np.nan]),
                jacobian=lambda x: np.eye(1),
                x0=np.array([0.0]),
                lower=np.array([-1.0]),
                upper=np.array([1.0]),
            )

    def test_damping_blowup_raises(self):
        # a deliberately wrong Jacobian sends every proposal uphill, so
        # no damping level ever yields an acceptable step
        def residual(x):
            return np.array([abs(x[0]) + 1.0])

        with pytest.raises(FitError) as exc:
            levenberg_marquardt(
                residual,
                jacobian=lambda x: np.array([[1.0]]),
                x0=np.array([0.0]),
                lower=np.array([-10.0]),
                upper=np.array([10.0]),
            )
        assert "damping" in str(exc.value)

    def test_result_is_plain_record(self):
        A, b = _linear_problem(seed=4)
        result = levenberg_marquardt(
            residual=lambda x: A @ x - b,
            jacobian=lambda x: A,
            x0=np.zeros(4),
            lower=np.full(4, -10.0),
            upper=np.full(4, 10.0),
        )
        assert isinstance(result, LMResult)
        assert result.n_iter >= 1


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
        A, b = _linear_problem(seed=5)
        fd = finite_difference_jacobian(lambda x: A @ x - b, np.ones(4))
        np.testing.assert_allclose(fd, A, rtol=1e-6, atol=5e-9)


class TestArrowheadJacobian:
    @settings(max_examples=200, deadline=None)
    @given(n_groups=st.integers(1, 40), with_column=st.booleans(),
           seed=st.integers(0, 2**32 - 1), log_lam=st.floats(-3.0, 3.0),
           data=st.data())
    def test_damped_solve_equals_dense(self, n_groups, with_column, seed,
                                       log_lam, data):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 6, n_groups).sum())
        group = np.concatenate([np.arange(n_groups),
                                rng.integers(0, n_groups, rows - n_groups)])
        entry = rng.normal(0.0, 1.0, rows)
        # one group without derivative falls back to unit scale
        entry[group == data.draw(st.integers(0, n_groups - 1))] = 0.0
        column = rng.normal(0.0, 1.0, rows) if with_column else None
        J = ArrowheadJacobian(column, entry, group, n_groups)
        r = rng.normal(0.0, 1.0, rows)

        dense = J.dense()
        A = dense.T @ dense
        diag, solve = J.normal_equations(r)
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

    def test_dense_layout(self):
        J = ArrowheadJacobian(np.array([1.0, 2.0, 3.0]),
                              np.array([4.0, 5.0, 6.0]), np.array([1, 0, 1]), 3)
        np.testing.assert_array_equal(J.dense(), [[1.0, 0.0, 4.0, 0.0],
                                                  [2.0, 5.0, 0.0, 0.0],
                                                  [3.0, 0.0, 6.0, 0.0]])
        no_column = ArrowheadJacobian(None, J.entry, J.group, 3)
        np.testing.assert_array_equal(no_column.dense(), J.dense()[:, 1:])

    def test_solver_takes_arrowhead_or_dense_alike(self):
        rng = np.random.default_rng(9)
        group = np.repeat(np.arange(5), 6)
        column = rng.normal(0.0, 1.0, len(group))
        entry = rng.normal(0.0, 1.0, len(group))
        J = ArrowheadJacobian(column, entry, group, 5)
        b = rng.normal(0.0, 1.0, len(group))
        kwargs = dict(residual=lambda x: J.dense() @ x - b, x0=np.zeros(6),
                      lower=np.full(6, -10.0), upper=np.full(6, 10.0))
        arrow = levenberg_marquardt(jacobian=lambda x: J, **kwargs)
        dense = levenberg_marquardt(jacobian=lambda x: J.dense(), **kwargs)
        assert (arrow.n_iter, arrow.converged, arrow.stop_reason) == \
            (dense.n_iter, dense.converged, dense.stop_reason)
        np.testing.assert_allclose(arrow.x, dense.x, rtol=0, atol=1e-12)
