"""Envelope stationarity, gap series, bound terms, and error metrics."""
import math

import numpy as np
import pytest

from osgd.analysis import (ConvergenceError, MoreauConfig, _subgradient_solve,
                           concentration_term, moreau_grad_norm,
                           optimality_gap, reference_optimum,
                           relative_improvement, zero_one_error)
from osgd.coeffs import gamma_weights
from osgd.objectives import FeedforwardModel, Objective
from osgd.ordered_loss import (loss_profile, lq_subgradient,
                               lq_value_and_subgradient,
                               ordered_empirical_loss)


def quadratic_objective():
    """Single sample, squared loss, no regularizer: L_q(theta) = theta^2 / 2."""
    obj = Objective(FeedforwardModel(1, 1, bias=False), "squared")
    X, y = np.array([[1.0]]), np.array([0])
    return obj, X, y, gamma_weights(1, 1, 1)


class TestMoreau:
    def test_closed_form_prox_of_quadratic(self):
        obj, X, y, gamma = quadratic_objective()
        cfg = MoreauConfig(rho_hat=1.0, inner_tol=1e-10)
        got = moreau_grad_norm(obj, np.array([2.0]), X, y, gamma, cfg)
        # prox minimizer is rho*theta/(1+rho) = 1, envelope grad norm = 1
        assert got == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("rho", [0.5, 2.0, 4.0])
    def test_rho_scaling_follows_closed_form(self, rho):
        obj, X, y, gamma = quadratic_objective()
        cfg = MoreauConfig(rho_hat=rho, inner_tol=1e-10)
        theta = np.array([2.0])
        got = moreau_grad_norm(obj, theta, X, y, gamma, cfg)
        assert got == pytest.approx(rho * 2.0 / (1.0 + rho), abs=1e-6)

    def test_zero_at_prox_fixed_point(self):
        # Learnable labels: the minimizer sits at a smooth point, so the
        # gradient-norm certificate is meaningful.
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 3))
        y = (X @ np.array([1.5, -0.5, 0.3]) > 0.0).astype(int)
        obj = Objective(FeedforwardModel(3, 1, bias=False),
                        "binary-cross-entropy", l2=0.05)
        gamma = gamma_weights(30, 10, 3)
        theta_star, _, cert = reference_optimum(obj, X, y, gamma)
        assert cert < 1e-6
        # strong convexity turns the certificate into a value bound
        assert cert ** 2 / (2 * obj.l2) < 1e-10
        cfg = MoreauConfig(rho_hat=2.0, inner_tol=1e-9)
        assert moreau_grad_norm(obj, theta_star, X, y, gamma, cfg) <= 1e-5

    def test_nonnegative_everywhere(self):
        obj, X, y, gamma = quadratic_objective()
        cfg = MoreauConfig(rho_hat=1.5, inner_tol=1e-9)
        for t in (-3.0, -0.1, 0.0, 0.4, 7.0):
            assert moreau_grad_norm(obj, np.array([t]), X, y, gamma, cfg) >= 0.0

    def test_budget_exhaustion_raises(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((12, 3))
        y = rng.integers(0, 2, 12)
        obj = Objective(FeedforwardModel(3, 1, bias=False),
                        "binary-cross-entropy", l2=0.01)
        gamma = gamma_weights(12, 4, 2)
        cfg = MoreauConfig(rho_hat=1.0, inner_tol=1e-16, inner_max_iter=3)
        with pytest.raises(ConvergenceError) as err:
            moreau_grad_norm(obj, rng.standard_normal(3), X, y, gamma, cfg)
        assert err.value.iterations == 3


class TestOptimalityGap:
    def test_constant_history_at_star(self):
        np.testing.assert_array_equal(optimality_gap([1.5, 1.5, 1.5], 1.5),
                                      np.zeros(3))

    def test_decreasing_history(self):
        history = [5.0, 4.0, 3.0]
        np.testing.assert_allclose(optimality_gap(history, 1.0),
                                   [4.0, 3.0, 2.0])

    def test_running_minimum_is_nonincreasing(self):
        rng = np.random.default_rng(0)
        gaps = optimality_gap(rng.uniform(1, 5, 100), 0.5)
        assert np.all(np.diff(gaps) <= 0.0)


class TestConcentrationTerm:
    def test_q_equals_s_standard_bound(self):
        for n, delta in [(100, 0.1), (5000, 0.01)]:
            want = math.sqrt(math.log(1.0 / delta) / (2.0 * n))
            assert concentration_term(1.0, 64, 64, n, delta) == pytest.approx(
                want, rel=1e-14)

    def test_vanishes_as_delta_approaches_one(self):
        assert concentration_term(1.0, 64, 4, 1000, 1.0 - 1e-12) < 1e-6

    def test_frozen_reference_value(self):
        # 16 * sqrt(ln(20) / 2000), computed with the standard library.
        want = 16.0 * math.sqrt(math.log(20.0) / 2000.0)
        got = concentration_term(1.0, 64, 4, 1000, 0.05)
        assert got == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(0.6192364096327919, rel=1e-12)

    def test_monotonicity_over_parameter_grid(self):
        base = concentration_term(1.0, 32, 8, 500, 0.05)
        assert concentration_term(1.0, 32, 8, 2000, 0.05) < base   # larger n
        assert concentration_term(1.0, 32, 16, 500, 0.05) < base   # larger q
        assert concentration_term(1.0, 64, 8, 500, 0.05) > base    # larger s
        assert concentration_term(2.0, 32, 8, 500, 0.05) > base    # larger M

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            concentration_term(-1.0, 4, 2, 10, 0.1)
        with pytest.raises(ValueError):
            concentration_term(1.0, 4, 2, 10, 1.0)
        with pytest.raises(ValueError):
            concentration_term(1.0, 4, 8, 10, 0.1)


class TestZeroOneError:
    def test_perfect_classifier(self):
        # theta spreads classes along the sign of x
        obj = Objective(FeedforwardModel(1, 1, bias=False),
                        "binary-cross-entropy")
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        assert zero_one_error(obj, np.array([1.0]), X, y) == 0.0

    def test_constant_predictor_chance_level(self):
        for K in (2, 4, 5):
            obj = Objective(FeedforwardModel(3, K, bias=False),
                            "multinomial-cross-entropy")
            X = np.random.default_rng(K).standard_normal((K * 20, 3))
            y = np.repeat(np.arange(K), 20)
            err = zero_one_error(obj, np.zeros(obj.model.n_params), X, y)
            assert err == pytest.approx(100.0 * (K - 1) / K, abs=1e-12)

    def test_hand_counted_ten_example_fixture(self):
        # logits (x, 0, -x): predicts 0 for x > 0, 2 for x < 0, 0 at x = 0
        obj = Objective(FeedforwardModel(1, 3, bias=False),
                        "multinomial-cross-entropy")
        theta = np.array([1.0, 0.0, -1.0])
        X = np.array([[1.0], [2.0], [-1.0], [-2.0], [0.0],
                      [3.0], [-3.0], [0.5], [-0.5], [4.0]])
        y = np.array([0, 1, 2, 0, 0, 0, 2, 2, 2, 1])
        # predictions: 0 0 2 2 0 0 2 0 2 0 -> wrong at rows 1, 3, 7, 9
        assert zero_one_error(obj, theta, X, y) == pytest.approx(40.0)


class TestRelativeImprovement:
    def test_reference_row_semeion_logistic(self):
        assert relative_improvement(10.76, 9.31) == pytest.approx(13.48,
                                                                  abs=5e-3)

    def test_equal_errors_give_zero(self):
        assert relative_improvement(7.5, 7.5) == 0.0

    def test_reference_row_rounded_inputs(self):
        # From two-decimal inputs the quotient lands near 4.7; the reference
        # 4.60 was derived from unrounded inputs and differs only by their rounding.
        got = relative_improvement(8.04, 7.66)
        assert got == pytest.approx(4.726, abs=5e-3)
        assert abs(got - 4.60) < 0.2

    def test_zero_baseline_is_missing(self):
        assert relative_improvement(0.0, 1.0) is None


class TestSolverForwards:
    """The coarse phase takes value and subgradient from one forward."""

    @staticmethod
    def instance(seed=4, n=12):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 3))
        y = rng.integers(0, 2, n)
        obj = Objective(FeedforwardModel(3, 1, bias=False),
                        "binary-cross-entropy", l2=0.01)
        return obj, X, y, gamma_weights(n, 4, 2)

    @staticmethod
    def two_forward_coarse_phase(obj, X, y, gamma, beta0, base_lr, iters):
        """The coarse phase with separate value and subgradient calls."""
        def value(b):
            return ordered_empirical_loss(loss_profile(obj, b, X, y), gamma)

        beta = np.array(beta0, dtype=np.float64)
        best_val, best_beta = value(beta), beta.copy()
        guard, lr, restarts = 10.0 * abs(best_val) + 1e3, base_lr, 0
        for k in range(iters):
            beta = beta - (lr / math.sqrt(k + 1.0)) * lq_subgradient(
                obj, beta, X, y, gamma)
            val = value(beta)
            if not np.isfinite(val) or val > guard:
                lr, beta, restarts = lr * 0.5, best_beta.copy(), restarts + 1
                continue
            if val < best_val:
                best_val, best_beta = val, beta.copy()
        return best_beta, best_val, restarts

    @pytest.mark.parametrize("base_lr,restarts", [(0.5, 0), (3e5, 9)])
    def test_coarse_phase_bitwise_two_forward_form(self, base_lr, restarts):
        obj, X, y, gamma = self.instance()
        beta0 = np.random.default_rng(1).standard_normal(3)
        want_beta, want_val, seen = self.two_forward_coarse_phase(
            obj, X, y, gamma, beta0, base_lr, 60)
        assert seen == restarts
        # a zero min-norm subgradient ends the polish phase before it steps
        beta, val, _ = _subgradient_solve(
            lambda b: ordered_empirical_loss(loss_profile(obj, b, X, y), gamma),
            lambda b: lq_value_and_subgradient(obj, b, X, y, gamma),
            np.zeros_like, beta0, base_lr=base_lr, step_tol=0.0, grad_tol=0.0,
            max_iter=60, context="test", coarse_iters=60)
        assert val == want_val
        assert beta.tobytes() == want_beta.tobytes()

    def test_reference_optimum_forward_count(self, monkeypatch):
        obj, X, y, gamma = self.instance()
        calls = []
        forward = FeedforwardModel.forward

        def counted(self, theta, X):
            calls.append(len(X))
            return forward(self, theta, X)

        monkeypatch.setattr(FeedforwardModel, "forward", counted)
        theta_star, _, cert = reference_optimum(obj, X, y, gamma,
                                                coarse_iters=100)
        # 1 at the start, 1 per coarse iteration, 1 for the min-norm
        # subgradient at theta* = 0, where all 12 losses tie and each tied
        # row adds a one-row gradient (214 forwards with separate calls)
        assert calls.count(12) == 102
        assert calls.count(1) == 12 and len(calls) == 114
        assert not theta_star.any() and cert < 1e-6
