"""Update rules, schedules, the adaptive q rule, and trajectory equivalences."""
import math
from types import SimpleNamespace

import numpy as np
import pytest

from osgd.coeffs import gamma_weights
from osgd.objectives import FeedforwardModel, Objective
from osgd.optimizers import (DivergenceError, ScheduleSpec, adam_step,
                             adaptive_q_update, init_state,
                             minibatch_sgd_step, ordered_adam_step, osgd_step,
                             schedule_lr)
from osgd.ordered_loss import lq_subgradient
from osgd.selection import sample_minibatch, topq_positions


class ConstantGradObjective:
    """Stub whose per-sample gradient is a fixed vector; losses are distinct."""

    def __init__(self, g):
        self.g = np.asarray(g, dtype=np.float64)

    def taped_batch(self, theta, X, y):
        # the mean of any set of copies of g is g
        return SimpleNamespace(losses=np.arange(len(X), dtype=np.float64),
                               mean_grad=lambda positions: self.g.copy())

    def regularizer(self, theta):
        return 0.0, np.zeros_like(theta)


def logistic_setup(seed, n=40, d=4, l2=1e-3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = rng.integers(0, 2, n)
    obj = Objective(FeedforwardModel(d, 1, bias=False),
                    "binary-cross-entropy", l2=l2)
    theta = obj.init_params(rng)
    return obj, theta, X, y, rng


def two_forward_step(theta, obj, X, y, batch, q, lr):
    """Reference plain step: one forward for the losses of the batch, a
    second, fresh forward on the kept rows for their gradient."""
    losses = obj.per_example_losses(theta, X[batch], y[batch])
    kept = batch[topq_positions(losses, q)]
    _, reg_grad = obj.regularizer(theta)
    g = obj.weighted_grad(theta, X[kept], y[kept], np.full(q, 1.0 / q))
    return theta - lr * (g + reg_grad)


# name -> (d_in, model, loss); 256-d inputs are binary pixels
STEP_MODELS = {
    "mlp-tanh": (2, FeedforwardModel(2, 1, (16, 16), "tanh"),
                 "binary-cross-entropy"),
    "mlp-sigmoid": (2, FeedforwardModel(2, 1, (16, 16), "sigmoid"), "squared"),
    "mlp-relu": (2, FeedforwardModel(2, 1, (16, 16), "relu"),
                 "binary-cross-entropy"),
    "linear-256-10": (256, FeedforwardModel(256, 10),
                      "multinomial-cross-entropy"),
    "linear-256-1": (256, FeedforwardModel(256, 1), "binary-cross-entropy"),
}


@pytest.mark.parametrize("q", [1, 3, 5, 63, 64])
@pytest.mark.parametrize("name", sorted(STEP_MODELS))
def test_step_bit_identical_to_two_forward_reference(name, q):
    d, model, loss = STEP_MODELS[name]
    rng = np.random.default_rng(17)
    n = 226  # batches of 64, 64, then partial batches of 40 and 58 rows
    X = rng.standard_normal((n, d)) if d == 2 else \
        (rng.random((n, d)) < 0.3).astype(np.float64)
    obj = Objective(model, loss, l2=1e-3)
    y = rng.integers(0, obj.n_classes, n)
    theta = obj.init_params(rng)
    state, ref = init_state(theta.copy(), q=q, lr=0.1), theta.copy()
    perm = rng.permutation(n)
    for lo, hi in [(0, 64), (64, 128), (128, 168), (168, 226)]:
        batch = np.sort(perm[lo:hi])
        q_eff = min(q, len(batch))
        ref = two_forward_step(ref, obj, X, y, batch, q_eff, 0.1)
        osgd_step(state, obj, X, y, batch, q_eff)
        assert state.theta.tobytes() == ref.tobytes(), (lo, hi, q_eff)


class TestOsgdStep:
    def test_single_plain_step_formula(self):
        obj, theta, X, y, _ = logistic_setup(0)
        batch = np.array([3, 7, 11, 20])
        q = 2
        losses = obj.per_example_losses(theta, X[batch], y[batch])
        top = batch[np.argsort(-losses, kind="stable")[:q]]
        top = np.sort(top)
        _, reg = obj.regularizer(theta)
        g_tilde = obj.weighted_grad(theta, X[top], y[top],
                                    np.full(q, 1.0 / q)) + reg
        state = init_state(theta, q=q, lr=0.1)
        osgd_step(state, obj, X, y, batch, q)
        np.testing.assert_array_equal(state.theta, theta - 0.1 * g_tilde)
        assert state.step_count == 1

    def test_q_equals_s_bit_identical_to_sgd(self):
        obj, theta, X, y, _ = logistic_setup(1)
        a = init_state(theta.copy(), q=5, lr=0.05)
        b = init_state(theta.copy(), q=5, lr=0.05)
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(50):
            batch_a = sample_minibatch(rng_a, 40, 5)
            batch_b = sample_minibatch(rng_b, 40, 5)
            osgd_step(a, obj, X, y, batch_a, q=5, momentum=0.9)
            minibatch_sgd_step(b, obj, X, y, batch_b, momentum=0.9)
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_momentum_two_steps_heavy_ball(self):
        g = np.array([1.0, -2.0, 0.5])
        obj = ConstantGradObjective(g)
        X, y = np.zeros((4, 3)), np.zeros(4, dtype=int)
        theta0 = np.array([0.0, 0.0, 0.0])
        state = init_state(theta0.copy(), q=2, lr=0.1)
        batch = np.array([0, 1, 2])
        osgd_step(state, obj, X, y, batch, q=2, momentum=0.9)
        osgd_step(state, obj, X, y, batch, q=2, momentum=0.9)
        expected = theta0 - 0.1 * (1.0 * g) - 0.1 * (1.9 * g)
        np.testing.assert_allclose(state.theta, expected, rtol=1e-14)

    def test_q_larger_than_batch_rejected(self):
        obj, theta, X, y, _ = logistic_setup(2)
        state = init_state(theta, q=4, lr=0.1)
        with pytest.raises(ValueError):
            osgd_step(state, obj, X, y, np.array([0, 1, 2]), q=4)

    def test_divergence_raises_with_step_index(self):
        obj = Objective(FeedforwardModel(1, 1, bias=False), "squared")
        X, y = np.array([[1.0]]), np.array([0])
        state = init_state(np.array([1e200]), q=1, lr=0.1)
        with pytest.raises(DivergenceError) as err:
            osgd_step(state, obj, X, y, np.array([0]), q=1)
        assert err.value.step == 0


class TestOrderedAdam:
    def test_q_equals_s_matches_plain_adam(self):
        obj, theta, X, y, _ = logistic_setup(3)
        a = init_state(theta.copy(), q=6, lr=0.01)
        b = init_state(theta.copy(), q=6, lr=0.01)
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(30):
            ordered_adam_step(a, obj, X, y, sample_minibatch(rng_a, 40, 6), q=6)
            adam_step(b, obj, X, y, sample_minibatch(rng_b, 40, 6))
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_first_step_is_signlike(self):
        g = np.array([5.0, -3.0, 0.25])
        obj = ConstantGradObjective(g)
        X, y = np.zeros((3, 3)), np.zeros(3, dtype=int)
        state = init_state(np.zeros(3), q=3, lr=0.01)
        ordered_adam_step(state, obj, X, y, np.array([0, 1, 2]), q=3)
        np.testing.assert_allclose(state.theta, -0.01 * np.sign(g), rtol=1e-6)

    def test_two_step_hand_unrolled_quadratic(self):
        obj = Objective(FeedforwardModel(1, 1, bias=False), "squared")
        X, y = np.array([[1.0]]), np.array([0])
        eta, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        state = init_state(np.array([2.0]), q=1, lr=eta)
        ordered_adam_step(state, obj, X, y, np.array([0]), q=1)
        ordered_adam_step(state, obj, X, y, np.array([0]), q=1)

        th = 2.0
        g1 = th
        m, v = (1 - b1) * g1, (1 - b2) * g1 * g1
        th -= eta * (m / (1 - b1)) / (math.sqrt(v / (1 - b2)) + eps)
        g2 = th
        m, v = b1 * m + (1 - b1) * g2, b2 * v + (1 - b2) * g2 * g2
        th -= eta * (m / (1 - b1 ** 2)) / (math.sqrt(v / (1 - b2 ** 2)) + eps)
        assert state.theta[0] == pytest.approx(th, rel=1e-13)


class TestAdaptiveQ:
    @pytest.mark.parametrize("acc,s,expected", [
        (0.50, 64, 64), (0.79, 64, 64),
        (0.80, 64, 32), (0.89, 64, 32),
        (0.90, 64, 16), (0.92, 64, 16),
        (0.95, 64, 8), (0.994, 64, 8),
        (0.995, 64, 4), (0.996, 64, 4), (1.0, 64, 4),
        (0.92, 8, 2), (0.996, 8, 1),
        (0.996, 1, 1),
    ])
    def test_threshold_table(self, acc, s, expected):
        assert adaptive_q_update(acc, s) == expected

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            adaptive_q_update(0.5, 0)


class TestSchedules:
    def test_step_decay_drop(self):
        spec = ScheduleSpec(kind="step-decay", base_lr=0.01,
                            decay_epochs=(10,), decay_factor=0.1)
        assert schedule_lr(spec, 9, 1234) == pytest.approx(0.01)
        assert schedule_lr(spec, 10, 1234) == pytest.approx(0.001)
        assert schedule_lr(spec, 50, 0) == pytest.approx(0.001)

    def test_step_decay_multiple_drops(self):
        spec = ScheduleSpec(kind="step-decay", base_lr=1.0,
                            decay_epochs=(2, 5), decay_factor=0.5)
        assert schedule_lr(spec, 6, 0) == pytest.approx(0.25)

    def test_inverse_sqrt(self):
        spec = ScheduleSpec(kind="inverse-sqrt", base_lr=1.0)
        assert schedule_lr(spec, 0, 99) == pytest.approx(0.1)

    def test_constant(self):
        spec = ScheduleSpec(kind="constant", base_lr=0.3)
        for step in (0, 10, 10_000):
            assert schedule_lr(spec, 0, step) == 0.3

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            ScheduleSpec(kind="linear", base_lr=0.1)


class TestStatisticalProperties:
    def test_monte_carlo_mean_matches_analytic_subgradient(self):
        n, d, s, q, trials = 10, 3, 4, 2, 100_000
        rng = np.random.default_rng(31)
        X = rng.standard_normal((n, d))
        y = rng.integers(0, 2, n)
        obj = Objective(FeedforwardModel(d, 1, bias=False),
                        "binary-cross-entropy", l2=0.05)
        theta = rng.standard_normal(d)
        losses = obj.per_example_losses(theta, X, y)
        assert np.unique(losses).size == n

        per_sample = np.stack([obj.per_sample_grad(theta, X[i], int(y[i]))
                               for i in range(n)])
        _, reg = obj.regularizer(theta)
        batches = np.argsort(rng.random((trials, n)), axis=1)[:, :s]
        keys = losses[batches]
        sel = np.take_along_axis(batches, np.argsort(-keys, axis=1)[:, :q],
                                 axis=1)
        draws = per_sample[sel].mean(axis=1) + reg
        mc_mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(trials)
        analytic = lq_subgradient(obj, theta, X, y, gamma_weights(n, s, q))
        assert np.all(np.abs(mc_mean - analytic) <= 3.0 * se + 1e-12)

    def test_update_norm_bound_along_run(self):
        obj, theta, X, y, rng = logistic_setup(8, n=60, d=5, l2=1e-3)
        g1 = float(np.linalg.norm(X, axis=1).max())
        state = init_state(theta, q=3, lr=0.1)
        max_theta_norm = float(np.linalg.norm(state.theta))
        norms = []
        for _ in range(200):
            max_theta_norm = max(max_theta_norm,
                                 float(np.linalg.norm(state.theta)))
            batch = sample_minibatch(rng, 60, 8)
            osgd_step(state, obj, X, y, batch, q=3)
            norms.append(state.last_grad_norm)
        g2 = obj.l2 * max_theta_norm
        bound = 2.0 * (g1 ** 2 + g2 ** 2)
        assert all(gn ** 2 <= bound + 1e-9 for gn in norms)


def test_convex_descent_on_quadratic():
    # Strongly convex squared loss; inverse-sqrt steps should decrease the
    # ordered loss over time and approach the (zero-parameter) optimum.
    rng = np.random.default_rng(12)
    n, d, s, q = 60, 4, 10, 3
    X = rng.standard_normal((n, d))
    y = np.zeros(n, dtype=int)
    obj = Objective(FeedforwardModel(d, 1, bias=False), "squared", l2=0.1)
    gamma = gamma_weights(n, s, q)
    state = init_state(rng.standard_normal(d) * 2.0, q=q, lr=0.5)
    spec = ScheduleSpec(kind="inverse-sqrt", base_lr=0.5)
    from osgd.ordered_loss import loss_profile, ordered_empirical_loss
    values = []
    for step in range(2000):
        state.lr_current = schedule_lr(spec, 0, step)
        batch = sample_minibatch(rng, n, s)
        osgd_step(state, obj, X, y, batch, q)
        if step % 100 == 0:
            values.append(ordered_empirical_loss(
                loss_profile(obj, state.theta, X, y), gamma))
    assert values[-1] < values[0] * 0.05
    assert values[-1] < min(values[:5])
