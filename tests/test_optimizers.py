"""Update rules, schedules, the adaptive q rule, and trajectory equivalences."""
import math
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from osgd import optimizers
from osgd.coeffs import gamma_weights
from osgd.objectives import _ACTIVATIONS, FeedforwardModel, Objective
from osgd.optimizers import (DivergenceError, ScheduleSpec, adam,
                             adaptive_q_update, heavy_ball, init_state,
                             osgd_step, schedule_lr)
from osgd.ordered_loss import lq_subgradient
from osgd.selection import sample_minibatch, topq_positions

MOMENTUM_09 = partial(heavy_ball, momentum=0.9)


class ConstantGradObjective:
    """Stub whose per-sample gradient is a fixed vector; losses are distinct."""

    l2 = 0.0

    def __init__(self, g):
        self.g = np.asarray(g, dtype=np.float64)

    def taped_batch(self, theta, X, y):
        # the mean of any set of copies of g is g
        return SimpleNamespace(losses=np.arange(len(X), dtype=np.float64),
                               mean_grad=lambda positions=None: self.g.copy())


def logistic_setup(seed, n=40, d=4, l2=1e-3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = rng.integers(0, 2, n)
    obj = Objective(FeedforwardModel(d, 1, bias=False),
                    "binary-cross-entropy", l2=l2)
    theta = obj.init_params(rng)
    return obj, theta, X, y, rng


def minibatch_grad(obj, theta, X, y, batch):
    """Reference minibatch SGD direction: the mean gradient of every row of
    the batch plus the regularizer gradient."""
    return (obj.weighted_grad(theta, X[batch], y[batch],
                              np.full(len(batch), 1.0 / len(batch)))
            + obj.l2 * theta)


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


class TestTrimmedStepReference:
    """The step equals, byte for byte, one written out with fancy-index
    gathers, (arange, y) label pairs, the arithmetic sign -(2y - 1), a
    zero-filled gradient written block by block, and ``g + l2 * theta``.
    The q values are ones at which a BLAS matmul over the kept rows can
    pick other kernels than one over the whole batch."""

    @staticmethod
    def forward(model, theta, X):
        layout, act = model.layout(), _ACTIVATIONS[model.activation][0]
        widths = (model.d_in, *model.hidden, model.d_out)
        H, tape = X, []
        for i in range(len(widths) - 1):
            W = theta[layout[f"W{i}"]].reshape(widths[i + 1], widths[i])
            Z = H @ W.T
            Z += theta[layout[f"b{i}"]]
            tape.append((H, W))
            H = act(Z) if i < len(widths) - 2 else Z
        return H, tape

    @staticmethod
    def backward(model, G, tape):
        layout, dact = model.layout(), _ACTIVATIONS[model.activation][1]
        grad = np.zeros(model.n_params)
        for i in range(len(tape) - 1, -1, -1):
            H_in, W = tape[i]
            np.matmul(G.T, H_in, out=grad[layout[f"W{i}"]].reshape(W.shape))
            G.sum(axis=0, out=grad[layout[f"b{i}"]])
            if i > 0:
                G = (G @ W) * dact(H_in)
        return grad

    @staticmethod
    def loss_terms(kind, A, y):
        """Per-row losses and logit gradients of the logits A."""
        at = (np.arange(A.shape[0]), y)
        if kind == "binary-cross-entropy":
            neg_t = -(2.0 * y - 1.0)
            z = neg_t * A[:, 0]
            return np.logaddexp(0.0, z), (neg_t * expit(z))[:, None]
        if kind == "multinomial-cross-entropy":
            mx = A.max(axis=1, keepdims=True)
            E = np.exp(A - mx)
            Z = E.sum(axis=1, keepdims=True)
            P = E / Z
            P[at] -= 1.0
            return (mx + np.log(Z)).ravel() - A[at], P
        if kind == "multiclass-hinge":
            margins = 1.0 + A - A[at][:, None]
            margins[at] = 0.0
            D = (margins > 0.0).astype(np.float64)
            D[at] = -D.sum(axis=1)
            return np.maximum(margins, 0.0).sum(axis=1), D
        R = A - np.eye(A.shape[1])[y]
        return 0.5 * (R ** 2).sum(axis=1), R

    def step(self, obj, theta, X, y, batch, q, lr):
        model, Xb, yb = obj.model, X[batch], y[batch]
        A, tape = self.forward(model, theta, Xb)
        losses, G = self.loss_terms(obj.loss, A, yb)
        if q < len(batch):
            positions = np.sort(np.argsort(-losses, kind="stable")[:q])
            A, tape = self.forward(model, theta, Xb[positions])
            _, G = self.loss_terms(obj.loss, A, yb[positions])
        g = self.backward(model, G * (1.0 / q), tape)
        g = g + obj.l2 * theta
        return theta - lr * g

    @pytest.mark.parametrize("q", [1, 2, 3, 5, 7, 63, 64])
    @pytest.mark.parametrize("model,loss,gaussian", [
        (FeedforwardModel(2, 1, (16, 16), "tanh"), "binary-cross-entropy",
         True),
        (FeedforwardModel(256, 10), "multinomial-cross-entropy", False),
        (FeedforwardModel(256, 10), "multiclass-hinge", False),
        (FeedforwardModel(256, 10), "squared", False),
        (FeedforwardModel(256, 10), "multinomial-cross-entropy", True),
        (FeedforwardModel(2, 1, (16, 16), "relu"), "binary-cross-entropy",
         True)],
        ids=["bce-mlp", "mce-linear", "hinge-linear", "squared-linear",
             "mce-linear-gaussian", "bce-relu-mlp"])
    def test_theta_bytes_equal_the_reference(self, model, loss, gaussian, q):
        """Binary pixels make every multiplication exact, so a fused
        multiply-add and a multiply then an add agree on them; Gaussian
        features tell the two apart."""
        rng = np.random.default_rng(q)
        n, d_in = 168, model.d_in  # batches of 64 and 64, a tail of 40
        X = rng.standard_normal((n, d_in)) if gaussian else \
            (rng.random((n, d_in)) < 0.3).astype(np.float64)
        obj = Objective(model, loss, l2=1e-3)
        y = obj._checked_labels(rng.integers(0, obj.n_classes, n))
        theta = obj.init_params(rng)
        state, ref = init_state(theta.copy(), q=q, lr=0.1), theta.copy()
        perm = rng.permutation(n)
        for lo, hi in [(0, 64), (64, 128), (128, 168)]:
            batch = np.sort(perm[lo:hi])
            q_eff = min(q, len(batch))
            ref = self.step(obj, ref, X, y, batch, q_eff, 0.1)
            osgd_step(state, obj, X, y, batch, q_eff)
            assert state.theta.tobytes() == ref.tobytes(), (lo, hi, q_eff)

    @pytest.mark.parametrize("m", [1000, 1279])
    @pytest.mark.parametrize("model", [
        FeedforwardModel(2, 1, (16, 16), "tanh"), FeedforwardModel(256, 10)],
        ids=["tanh-mlp", "linear"])
    def test_evaluation_size_products_equal_the_reference(self, model, m):
        """Forward and backward over evaluation-size row counts, where
        OpenBLAS leaves its small-matrix kernels."""
        rng = np.random.default_rng(m)
        X = rng.standard_normal((m, model.d_in))
        theta = model.init_params(rng)
        G = rng.standard_normal((m, model.d_out))
        A, tape = model.forward(theta, X)
        want_A, want_tape = self.forward(model, theta, X)
        assert A.tobytes() == want_A.tobytes()
        assert model.backward(theta, G, tape).tobytes() == \
            self.backward(model, G, want_tape).tobytes()


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
        ref, buf = theta.copy(), np.zeros_like(theta)
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(50):
            batch_a = sample_minibatch(rng_a, 40, 5)
            batch_b = sample_minibatch(rng_b, 40, 5)
            osgd_step(a, obj, X, y, batch_a, q=5, update=MOMENTUM_09)
            # plain minibatch SGD with heavy-ball momentum 0.9
            buf = 0.9 * buf + minibatch_grad(obj, ref, X, y, batch_b)
            ref = ref - 0.05 * buf
        assert a.theta.tobytes() == ref.tobytes()

    def test_momentum_two_steps_heavy_ball(self):
        g = np.array([1.0, -2.0, 0.5])
        obj = ConstantGradObjective(g)
        X, y = np.zeros((4, 3)), np.zeros(4, dtype=int)
        theta0 = np.array([0.0, 0.0, 0.0])
        state = init_state(theta0.copy(), q=2, lr=0.1)
        batch = np.array([0, 1, 2])
        osgd_step(state, obj, X, y, batch, q=2, update=MOMENTUM_09)
        osgd_step(state, obj, X, y, batch, q=2, update=MOMENTUM_09)
        expected = theta0 - 0.1 * (1.0 * g) - 0.1 * (1.9 * g)
        np.testing.assert_allclose(state.theta, expected, rtol=1e-14)

    def test_q_larger_than_batch_rejected(self):
        obj, theta, X, y, _ = logistic_setup(2)
        state = init_state(theta, q=4, lr=0.1)
        with pytest.raises(ValueError):
            osgd_step(state, obj, X, y, np.array([0, 1, 2]), q=4)

    @pytest.mark.parametrize("lr", [0.0, -0.1, math.nan, math.inf, -math.inf])
    def test_init_state_rejects_bad_learning_rate(self, lr):
        with pytest.raises(ValueError, match="positive and finite"):
            init_state(np.zeros(3), q=1, lr=lr)

    def test_divergence_raises_with_step_index(self):
        obj = Objective(FeedforwardModel(1, 1, bias=False), "squared")
        X, y = np.array([[1.0]]), np.array([0])
        state = init_state(np.array([1e200]), q=1, lr=0.1)
        # outside the runner's np.errstate, the overflow warns first
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(DivergenceError) as err:
                osgd_step(state, obj, X, y, np.array([0]), q=1)
        assert err.value.step == 0


STEP_UPDATES = {"osgd": heavy_ball, "oadam": adam}


class TestStepSetUp:
    """What a step computes once, and what it no longer computes at all."""

    @staticmethod
    def counting(monkeypatch):
        calls = {"forward": 0, "backward": 0, "regularizer": 0,
                 "check_labels": 0, "topq_positions": 0}

        def count(owner, name, key=None):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[key or name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        count(FeedforwardModel, "forward")
        count(FeedforwardModel, "backward")
        count(Objective, "regularizer")
        count(Objective, "_check_labels", "check_labels")
        count(optimizers, "topq_positions")
        return calls

    @pytest.mark.parametrize("kind", sorted(STEP_UPDATES))
    @pytest.mark.parametrize("q,forwards,selections", [(8, 1, 0), (3, 2, 1)])
    def test_calls_per_step(self, monkeypatch, kind, q, forwards, selections):
        _, model, loss = STEP_MODELS["mlp-tanh"]
        rng = np.random.default_rng(5)
        X, obj = rng.standard_normal((20, 2)), Objective(model, loss, l2=1e-3)
        y = rng.integers(0, 2, 20)
        state = init_state(obj.init_params(rng), q=q, lr=0.1)
        calls = self.counting(monkeypatch)
        osgd_step(state, obj, X, y, np.arange(0, 16, 2), q=q,
                  update=STEP_UPDATES[kind])
        assert calls == {"forward": forwards, "backward": 1, "regularizer": 0,
                         "check_labels": 1, "topq_positions": selections}

    @pytest.mark.parametrize("kind", sorted(STEP_UPDATES))
    @pytest.mark.parametrize("q", [2, 4])
    def test_out_of_range_label_in_batch_rejected(self, kind, q):
        obj, theta, X, y, _ = logistic_setup(6)
        y = y.copy()
        y[5] = 2
        state = init_state(theta, q=q, lr=0.1)
        update = STEP_UPDATES[kind]
        osgd_step(state, obj, X, y, np.array([0, 1, 2, 3]), q=q, update=update)
        with pytest.raises(ValueError, match="label out of range"):
            osgd_step(state, obj, X, y, np.array([2, 5, 7, 9]), q=q,
                      update=update)

    def test_state_keeps_no_gradient_norm(self):
        obj, theta, X, y, _ = logistic_setup(6)
        state = init_state(theta, q=2, lr=0.1)
        osgd_step(state, obj, X, y, np.array([0, 1, 2, 3]), q=2)
        assert not hasattr(state, "last_grad_norm")


# name -> (wrapper call, the osgd_step call it stands for); each wrapper is
# kept only for the benchmark's tracer, which patches it by name
WRAPPERS = {
    "minibatch_sgd_step": (
        lambda st, obj, X, y, b: optimizers.minibatch_sgd_step(
            st, obj, X, y, b, update=MOMENTUM_09),
        lambda st, obj, X, y, b: osgd_step(st, obj, X, y, b, len(b),
                                           update=MOMENTUM_09)),
    "ordered_adam_step": (
        lambda st, obj, X, y, b: optimizers.ordered_adam_step(
            st, obj, X, y, b, 3),
        lambda st, obj, X, y, b: osgd_step(st, obj, X, y, b, 3, update=adam)),
    "adam_step": (
        lambda st, obj, X, y, b: optimizers.adam_step(st, obj, X, y, b),
        lambda st, obj, X, y, b: osgd_step(st, obj, X, y, b, len(b),
                                           update=adam)),
}


@pytest.mark.parametrize("name", sorted(WRAPPERS))
def test_tracer_only_wrapper_is_bit_equal_to_osgd_step(name):
    wrapper, step = WRAPPERS[name]
    obj, theta, X, y, rng = logistic_setup(13)
    a = init_state(theta.copy(), q=3, lr=0.05)
    b = init_state(theta.copy(), q=3, lr=0.05)
    for _ in range(20):
        batch = sample_minibatch(rng, 40, 6)
        wrapper(a, obj, X, y, batch)
        step(b, obj, X, y, batch)
    assert a.step_count == b.step_count == 20
    assert a.theta.tobytes() == b.theta.tobytes()


class TestOrderedAdam:
    def test_q_equals_s_matches_plain_adam(self):
        obj, theta, X, y, _ = logistic_setup(3)
        a = init_state(theta.copy(), q=6, lr=0.01)
        ref, m, v = theta.copy(), np.zeros_like(theta), np.zeros_like(theta)
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
        for t in range(1, 31):
            osgd_step(a, obj, X, y, sample_minibatch(rng_a, 40, 6), q=6,
                      update=adam)
            # plain minibatch Adam at its default moments
            g = minibatch_grad(obj, ref, X, y, sample_minibatch(rng_b, 40, 6))
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            ref = ref - 0.01 * (m / (1.0 - 0.9 ** t)) / (
                np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
        assert a.theta.tobytes() == ref.tobytes()

    def test_first_step_is_signlike(self):
        g = np.array([5.0, -3.0, 0.25])
        obj = ConstantGradObjective(g)
        X, y = np.zeros((3, 3)), np.zeros(3, dtype=int)
        state = init_state(np.zeros(3), q=3, lr=0.01)
        osgd_step(state, obj, X, y, np.array([0, 1, 2]), q=3, update=adam)
        np.testing.assert_allclose(state.theta, -0.01 * np.sign(g), rtol=1e-6)

    def test_two_step_hand_unrolled_quadratic(self):
        obj = Objective(FeedforwardModel(1, 1, bias=False), "squared")
        X, y = np.array([[1.0]]), np.array([0])
        eta, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        state = init_state(np.array([2.0]), q=1, lr=eta)
        osgd_step(state, obj, X, y, np.array([0]), q=1, update=adam)
        osgd_step(state, obj, X, y, np.array([0]), q=1, update=adam)

        th = 2.0
        g1 = th
        m, v = (1 - b1) * g1, (1 - b2) * g1 * g1
        th -= eta * (m / (1 - b1)) / (math.sqrt(v / (1 - b2)) + eps)
        g2 = th
        m, v = b1 * m + (1 - b1) * g2, b2 * v + (1 - b2) * g2 * g2
        th -= eta * (m / (1 - b1 ** 2)) / (math.sqrt(v / (1 - b2 ** 2)) + eps)
        assert state.theta[0] == pytest.approx(th, rel=1e-13)


    def test_bound_moments_reach_the_rule(self):
        obj = Objective(FeedforwardModel(1, 1, bias=False), "squared")
        X, y = np.array([[1.0]]), np.array([0])
        eta, b1, b2, eps = 0.1, 0.5, 0.9, 1e-3
        update = partial(adam, beta1=b1, beta2=b2, eps=eps)
        state = init_state(np.array([2.0]), q=1, lr=eta)
        osgd_step(state, obj, X, y, np.array([0]), q=1, update=update)
        osgd_step(state, obj, X, y, np.array([0]), q=1, update=update)

        th, m, v = 2.0, 0.0, 0.0
        for t in (1, 2):
            g = th
            m, v = b1 * m + (1 - b1) * g, b2 * v + (1 - b2) * g * g
            th -= eta * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t))
                                               + eps)
        assert state.step_count == 2
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

    @settings(max_examples=200, deadline=None)
    @given(acc=st.floats(0.0, 1.0) | st.just(math.nan),
           s=st.integers(1, 4096))
    def test_q_stays_in_one_to_s(self, acc, s):
        # so the runner needs no clamp of its own, for a NaN accuracy too
        assert 1 <= adaptive_q_update(acc, s) <= s


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

        def recording(state, g):  # plain SGD, noting each direction's norm
            norms.append(float(np.linalg.norm(g)))
            heavy_ball(state, g)

        for _ in range(200):
            max_theta_norm = max(max_theta_norm,
                                 float(np.linalg.norm(state.theta)))
            batch = sample_minibatch(rng, 60, 8)
            osgd_step(state, obj, X, y, batch, q=3, update=recording)
        assert len(norms) == 200
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
                *loss_profile(obj, state.theta, X, y), gamma))
    assert values[-1] < values[0] * 0.05
    assert values[-1] < min(values[:5])
