"""Envelope stationarity, gap series, bound terms, and error metrics."""
import hashlib
import math

import numpy as np
import pytest

from osgd import analysis
from osgd.analysis import (ConvergenceError, _subgradient_solve,
                           concentration_term, moreau_grad_norm,
                           optimality_gap, reference_optimum,
                           relative_improvement, zero_one_error)
from osgd.coeffs import gamma_weights
from osgd.data import gen_clusters_2d, gen_rings_2d
from osgd.objectives import FeedforwardModel, Objective
from osgd.ordered_loss import lq_subgradient, ordered_empirical_loss


def quadratic_objective():
    """Single sample, squared loss, no regularizer: L_q(theta) = theta^2 / 2."""
    obj = Objective(FeedforwardModel(1, 1, bias=False), "squared")
    X, y = np.array([[1.0]]), np.array([0])
    return obj, X, y, gamma_weights(1, 1, 1)


class TestMoreau:
    def test_closed_form_prox_of_quadratic(self):
        obj, X, y, gamma = quadratic_objective()
        got = moreau_grad_norm(obj, np.array([2.0]), X, y, gamma,
                               rho_hat=1.0, inner_tol=1e-10)
        # prox minimizer is rho*theta/(1+rho) = 1, envelope grad norm = 1
        assert got == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("rho", [0.5, 2.0, 4.0])
    def test_rho_scaling_follows_closed_form(self, rho):
        obj, X, y, gamma = quadratic_objective()
        theta = np.array([2.0])
        got = moreau_grad_norm(obj, theta, X, y, gamma, rho_hat=rho,
                               inner_tol=1e-10)
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
        assert moreau_grad_norm(obj, theta_star, X, y, gamma, rho_hat=2.0,
                                inner_tol=1e-9) <= 1e-5

    def test_nonnegative_everywhere(self):
        obj, X, y, gamma = quadratic_objective()
        for t in (-3.0, -0.1, 0.0, 0.4, 7.0):
            assert moreau_grad_norm(obj, np.array([t]), X, y, gamma,
                                    rho_hat=1.5, inner_tol=1e-9) >= 0.0

    @pytest.mark.parametrize("settings,match", [
        ({"rho_hat": 0.0}, r"^rho_hat must be positive and finite, got 0.0$"),
        ({"rho_hat": -1.0},
         r"^rho_hat must be positive and finite, got -1.0$"),
        ({"rho_hat": 1.0, "inner_tol": 0.0},
         r"^inner_tol must be positive and finite, got 0.0$"),
        ({"rho_hat": math.nan},
         r"^rho_hat must be positive and finite, got nan$"),
        ({"rho_hat": math.inf},
         r"^rho_hat must be positive and finite, got inf$"),
        ({"rho_hat": 1.0, "inner_tol": math.nan},
         r"^inner_tol must be positive and finite, got nan$"),
        ({"rho_hat": 1.0, "inner_tol": math.inf},
         r"^inner_tol must be positive and finite, got inf$"),
    ], ids=["zero-rho", "negative-rho", "zero-tol", "nan-rho", "inf-rho",
            "nan-tol", "inf-tol"])
    def test_bad_settings_rejected(self, settings, match, monkeypatch):
        def unreached(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(analysis, "_subgradient_solve", unreached)
        obj, X, y, gamma = quadratic_objective()
        with pytest.raises(ValueError, match=match):
            moreau_grad_norm(obj, np.array([2.0]), X, y, gamma, **settings)

    @pytest.mark.parametrize("budget,rule", [
        (0, "must be at least 1"), (-3, "must be at least 1"),
        (2.5, "must be an integer"), (True, "must be an integer")])
    def test_bad_budget_rejected(self, budget, rule, monkeypatch):
        def unreached(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(analysis, "_subgradient_solve", unreached)
        obj, X, y, gamma = quadratic_objective()
        with pytest.raises(ValueError, match=rf"^inner_max_iter {rule}, "
                                             rf"got {budget!r}$"):
            moreau_grad_norm(obj, np.array([2.0]), X, y, gamma, rho_hat=1.0,
                             inner_max_iter=budget)

    def test_budget_exhaustion_raises(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((12, 3))
        y = rng.integers(0, 2, 12)
        obj = Objective(FeedforwardModel(3, 1, bias=False),
                        "binary-cross-entropy", l2=0.01)
        gamma = gamma_weights(12, 4, 2)
        with pytest.raises(ConvergenceError) as err:
            moreau_grad_norm(obj, rng.standard_normal(3), X, y, gamma,
                             rho_hat=1.0, inner_tol=1e-16, inner_max_iter=3)
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

    def test_nan_entries_are_skipped(self):
        np.testing.assert_array_equal(
            optimality_gap([np.nan, 0.5, np.nan, 0.7, 0.2], 0.0),
            [np.nan, 0.5, 0.5, 0.5, 0.2])

    @pytest.mark.parametrize("star", [math.nan, math.inf, -math.inf])
    def test_non_finite_star_rejected(self, star):
        with pytest.raises(ValueError, match=rf"^lq_star must be finite, "
                                             rf"got {star!r}$"):
            optimality_gap([1.0, 0.5], star)


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

    @pytest.mark.parametrize("M,match", [
        (math.nan, r"^M must be finite, got nan$"),
        (math.inf, r"^M must be finite, got inf$"),
        (-1.0, r"^M must be nonnegative, got -1.0$")],
        ids=["nan", "inf", "negative"])
    def test_bad_M_named(self, M, match):
        with pytest.raises(ValueError, match=match):
            concentration_term(M, 4, 2, 10, 0.1)

    @pytest.mark.parametrize("s,q,n", [(4.0, 2, 10), (4, True, 10),
                                       (4, 2, "10")])
    def test_non_integer_sizes_rejected(self, s, q, n):
        with pytest.raises(ValueError, match=r"^n, s, q must be integers, "
                                             r"got \("):
            concentration_term(1.0, s, q, n, 0.1)


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
            return ordered_empirical_loss(obj.per_example_losses(b, X, y),
                                          obj.regularizer(b)[0], gamma)

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
        # an infinite grad_tol ends the polish phase before it steps
        beta, val, _ = _subgradient_solve(
            obj, X, y, gamma, beta0, base_lr=base_lr, step_tol=0.0,
            grad_tol=np.inf, max_iter=60, context="test", coarse_iters=60)
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

    def test_polish_forwards_each_point_once(self, monkeypatch):
        obj, X, y, gamma = TestOverflowingCoarseStep.instance()
        thetas = []
        forward = FeedforwardModel.forward

        def recorded(self, theta, rows):
            if len(rows) == len(X):  # not the tied rows' one-row gradients
                thetas.append(theta.tobytes())
            return forward(self, theta, rows)

        monkeypatch.setattr(FeedforwardModel, "forward", recorded)
        reference_optimum(obj, X, y, gamma)
        # only the coarse phase's best iterate is forwarded twice: in the
        # coarse phase, and for its tie-mixed subgradient; an accepted
        # polish trial's forward also gives its subgradient
        assert len(thetas) - len(set(thetas)) == 1

    def test_coarse_phase_stops_once_its_iterate_stands(self, monkeypatch):
        obj, X, y, gamma = self.instance()
        thetas = []
        forward = FeedforwardModel.forward

        def recorded(self, theta, rows):
            if len(rows) == len(X):
                thetas.append(theta.tobytes())
            return forward(self, theta, rows)

        monkeypatch.setattr(FeedforwardModel, "forward", recorded)
        moreau_grad_norm(obj, np.ones(3), X, y, gamma, rho_hat=1.0)
        # running all 1,500 coarse steps took 1,562 forwards, 1,322 of a
        # theta already forwarded; the 42 repeats left are polish trials
        # at coarse iterates and the best iterate's min-norm subgradient
        assert len(thetas) == 282
        assert len(thetas) - len(set(thetas)) == 42


class TestOverflowingCoarseStep:
    """A coarse iterate whose loss overflows halves the step size and
    restarts from the best iterate; it does not end the solve."""

    @staticmethod
    def instance():
        rng = np.random.default_rng(0)
        X = rng.standard_normal((12, 3))
        y = rng.integers(0, 2, 12)
        obj = Objective(FeedforwardModel(3, 1, bias=False), "squared", l2=0.1)
        return obj, X, y, gamma_weights(12, 4, 2)

    def test_reference_optimum_restarts_after_overflow(self):
        obj, X, y, gamma = self.instance()
        _, val_star, cert_star = reference_optimum(obj, X, y, gamma)
        assert cert_star < 1e-6
        with np.errstate(over="ignore", invalid="ignore"):
            theta, val, cert = reference_optimum(obj, X, y, gamma,
                                                 base_lr=1e160)
        assert np.isfinite(theta).all() and math.isfinite(val)
        # l2 = 0.1 makes L_q strongly convex: cert bounds the gap
        assert val_star - 1e-9 <= val <= val_star + cert ** 2 / (2 * 0.1)

    @pytest.mark.parametrize("setting,value,rule", [
        ("base_lr", math.nan, "positive and finite"),
        ("base_lr", math.inf, "positive and finite"),
        ("base_lr", -1.0, "positive and finite"),
        ("base_lr", 0.0, "positive and finite"),
        ("grad_tol", -1.0, "nonnegative"),
        ("grad_tol", math.nan, "nonnegative"),
        ("max_iter", 0, "at least 1"),
        ("max_iter", 2.5, "an integer"),
        ("coarse_iters", -5, "nonnegative"),
        ("coarse_iters", 1.5, "an integer")])
    def test_bad_settings_rejected(self, setting, value, rule):
        obj, X, y, gamma = self.instance()
        with pytest.raises(ValueError,
                           match=rf"^{setting} must be {rule}, got {value!r}$"):
            reference_optimum(obj, X, y, gamma, **{setting: value})

    def test_overflowing_start_rejected(self):
        obj, X, y, gamma = self.instance()
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="not finite at the start"):
            reference_optimum(obj, X, y, gamma,
                              theta0=np.array([1e300, 0.0, 0.0]))


def test_stalled_polish_returns_cert_above_grad_tol():
    """A polish that finds no float decrease returns its iterate as is and
    raises nothing, so cert is what tells the caller (ROADMAP item 9's
    seed-10 squared-loss instance)."""
    rng = np.random.default_rng(10)
    X = rng.standard_normal((14, 3))
    y = rng.integers(0, 2, 14)
    obj = Objective(FeedforwardModel(3, 1, bias=False), "squared", l2=0.1)
    theta, val, cert = reference_optimum(obj, X, y, gamma_weights(14, 5, 2),
                                         grad_tol=1e-9)
    assert np.isfinite(theta).all() and math.isfinite(val)
    assert cert > 1e-9


class TestSolverPin:
    """Every output bit of both solvers on the instances the other tests
    and acceptance 4 and 6 use, hashed: theta*, L_q* and the certificate
    of ``reference_optimum``, and the value of ``moreau_grad_norm``."""

    PINNED = "ec9ed7a0cc3c9654039fce8924a57fc463f9bbb7c3dd31c91a33eac302142263"

    def test_solver_outputs_are_pinned(self):
        h = hashlib.sha256()

        def add(*values):
            for v in values:
                h.update(np.asarray(v, dtype=np.float64).tobytes())

        # acceptance 4: the clusters instance at base_lr = 1
        ds = gen_clusters_2d(0)
        obj = Objective(FeedforwardModel(2, 1, bias=True),
                        "binary-cross-entropy", l2=0.01)
        add(*reference_optimum(obj, ds.features, ds.labels,
                               gamma_weights(200, 20, 5), base_lr=1.0))
        # the 12x3 squared-loss instance, with and without overflow
        obj, X, y, gamma = TestOverflowingCoarseStep.instance()
        for base_lr in (0.5, 1e160):
            with np.errstate(over="ignore", invalid="ignore"):
                add(*reference_optimum(obj, X, y, gamma, base_lr=base_lr))
        # the 30x3 instance of TestMoreau, and its envelope at theta*
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 3))
        y = (X @ np.array([1.5, -0.5, 0.3]) > 0.0).astype(int)
        obj = Objective(FeedforwardModel(3, 1, bias=False),
                        "binary-cross-entropy", l2=0.05)
        gamma = gamma_weights(30, 10, 3)
        theta_star, value, cert = reference_optimum(obj, X, y, gamma)
        add(theta_star, value, cert, moreau_grad_norm(
            obj, theta_star, X, y, gamma, rho_hat=2.0, inner_tol=1e-9))
        # acceptance 6: the rings MLP at its initial points
        rings = gen_rings_2d(0)
        sub = np.random.default_rng(123).choice(rings.n, size=100,
                                                replace=False)
        X, y = rings.features[sub], rings.labels[sub]
        obj = Objective(FeedforwardModel(2, 1, hidden=(8,), activation="tanh"),
                        "binary-cross-entropy", l2=1e-4)
        for seed in range(3):
            theta0 = obj.init_params(np.random.default_rng(seed))
            add(moreau_grad_norm(obj, theta0, X, y, gamma_weights(100, 20, 5),
                                 rho_hat=10.0, inner_tol=1e-7,
                                 inner_max_iter=30_000))
        assert h.hexdigest() == self.PINNED
