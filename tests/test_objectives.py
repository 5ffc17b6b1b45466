"""Loss values, gradient correctness, and regularizer identities."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import expit

from osgd.objectives import (_ACTIVATIONS, LOSS_KINDS, FeedforwardModel,
                             Objective, make_model, regularizer_value_grad)


def finite_difference_grad(obj, theta, x, y):
    """Central differences with h = 1e-6 * (1 + |theta_i|)."""
    fd = np.zeros_like(theta)
    for i in range(theta.size):
        h = 1e-6 * (1.0 + abs(theta[i]))
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        fd[i] = (obj.per_sample_loss(up, x, y)
                 - obj.per_sample_loss(down, x, y)) / (2.0 * h)
    return fd


@pytest.mark.parametrize("name,derivative_at_input", [
    ("relu", lambda z: (z > 0.0).astype(np.float64)),
    ("tanh", lambda z: 1.0 - np.tanh(z) ** 2),
    ("sigmoid", lambda z: expit(z) * (1.0 - expit(z))),
])
def test_derivative_from_output_is_bitwise_derivative_at_input(
        name, derivative_at_input):
    # backward reads act(z) from the tape; it must give the same bits as
    # evaluating the derivative at z
    act, dact = _ACTIVATIONS[name]
    z = np.concatenate([5.0 * np.random.default_rng(3).standard_normal(1000),
                        [0.0, -0.0, 1e-300, 40.0, -40.0, 800.0, -800.0]])
    assert dact(act(z)).tobytes() == derivative_at_input(z).tobytes()


def away_from_kinks(obj, theta, x, y, margin=1e-3):
    """Reject points near a relu or hinge kink, where derivatives jump."""
    if obj.model.hidden and obj.model.activation == "relu":
        _, tape = obj.model.forward(theta, np.atleast_2d(x))
        for _, Z in tape[:-1]:
            if np.abs(Z).min() < margin:
                return False
    if obj.loss == "multiclass-hinge":
        A = obj.model.logits(theta, np.atleast_2d(x))[0]
        margins = 1.0 + A - A[y]
        margins[y] = 1.0
        if np.abs(margins).min() < margin:
            return False
    return True


def all_combos():
    """Every valid (model kind, activation, loss) combination."""
    combos = []
    for loss in LOSS_KINDS:
        d_out = 1 if loss == "binary-cross-entropy" else 3
        combos.append(("linear", "tanh", loss, d_out))
        for act in ("relu", "tanh", "sigmoid"):
            combos.append(("mlp", act, loss, d_out))
    return combos


class TestLossValues:
    def test_cross_entropy_uniform_logits(self):
        for K in (2, 5, 10):
            model = make_model("linear", d_in=4, d_out=K)
            obj = Objective(model, "multinomial-cross-entropy")
            theta = np.zeros(model.n_params)
            x = np.random.default_rng(0).standard_normal(4)
            assert obj.per_sample_loss(theta, x, 1 % K) == pytest.approx(
                math.log(K), rel=1e-12)

    def test_hinge_at_zero_logits(self):
        for K in (2, 4, 7):
            model = make_model("linear", d_in=3, d_out=K)
            obj = Objective(model, "multiclass-hinge")
            theta = np.zeros(model.n_params)
            assert obj.per_sample_loss(theta, np.ones(3), K - 1) == pytest.approx(
                K - 1.0, rel=1e-12)

    def test_binary_logistic_at_zero(self):
        model = make_model("linear", d_in=3, d_out=1)
        obj = Objective(model, "binary-cross-entropy")
        theta = np.zeros(model.n_params)
        for y in (0, 1):
            assert obj.per_sample_loss(theta, np.ones(3), y) == pytest.approx(
                math.log(2.0), rel=1e-12)

    def test_classification_losses_nonnegative(self):
        rng = np.random.default_rng(5)
        for loss in ("multinomial-cross-entropy", "multiclass-hinge",
                     "binary-cross-entropy"):
            d_out = 1 if loss == "binary-cross-entropy" else 4
            model = make_model("linear", d_in=3, d_out=d_out)
            obj = Objective(model, loss)
            for _ in range(20):
                theta = rng.standard_normal(model.n_params)
                x = rng.standard_normal(3)
                y = int(rng.integers(0, 2 if d_out == 1 else d_out))
                assert obj.per_sample_loss(theta, x, y) >= 0.0

    def test_label_out_of_range_rejected(self):
        model = make_model("linear", d_in=2, d_out=3)
        obj = Objective(model, "multinomial-cross-entropy")
        with pytest.raises(ValueError, match="label out of range"):
            obj.per_sample_loss(np.zeros(model.n_params), np.ones(2), 3)


class TestGradients:
    @pytest.mark.parametrize("kind,act,loss,d_out", all_combos())
    def test_finite_difference_agreement(self, kind, act, loss, d_out):
        rng = np.random.default_rng(hash((kind, act, loss)) % 2**32)
        model = make_model(kind, d_in=4, d_out=d_out,
                           hidden=(6, 5) if kind == "mlp" else (),
                           activation=act)
        obj = Objective(model, loss)
        checked = 0
        while checked < 10:
            theta = rng.standard_normal(model.n_params) * 0.7
            x = rng.standard_normal(4)
            y = int(rng.integers(0, 2 if d_out == 1 else d_out))
            if not away_from_kinks(obj, theta, x, y):
                continue
            fd = finite_difference_grad(obj, theta, x, y)
            if np.linalg.norm(fd) < 1e-3:
                # saturated/dead point: central differences bottom out near
                # 1e-9 absolute, so a relative comparison is meaningless
                continue
            g = obj.per_sample_grad(theta, x, y)
            err = np.linalg.norm(g - fd) / np.linalg.norm(fd)
            assert err <= 1e-5, (kind, act, loss, err)
            checked += 1

    def test_logistic_gradient_at_origin(self):
        model = FeedforwardModel(d_in=4, d_out=1, bias=False)
        obj = Objective(model, "binary-cross-entropy")
        x = np.array([0.3, -1.2, 2.0, 0.7])
        for label, sign in ((1, 1.0), (0, -1.0)):
            g = obj.per_sample_grad(np.zeros(4), x, label)
            np.testing.assert_allclose(g, -0.5 * sign * x, rtol=1e-12)

    def test_squared_loss_closed_form(self):
        model = FeedforwardModel(d_in=3, d_out=1, bias=False)
        obj = Objective(model, "squared")
        rng = np.random.default_rng(9)
        theta = rng.standard_normal(3)
        x = rng.standard_normal(3)
        y = 1
        g = obj.per_sample_grad(theta, x, y)
        np.testing.assert_allclose(g, (theta @ x - y) * x, rtol=1e-12)

    def test_weighted_grad_is_weighted_sum(self):
        model = make_model("mlp", d_in=3, d_out=2, hidden=(4,), activation="tanh")
        obj = Objective(model, "multinomial-cross-entropy")
        rng = np.random.default_rng(11)
        theta = rng.standard_normal(model.n_params)
        X = rng.standard_normal((5, 3))
        y = rng.integers(0, 2, 5)
        w = rng.uniform(0.1, 1.0, 5)
        combined = obj.weighted_grad(theta, X, y, w)
        manual = sum(w[i] * obj.per_sample_grad(theta, X[i], int(y[i]))
                     for i in range(5))
        np.testing.assert_allclose(combined, manual, rtol=1e-12)


class TestRegularizer:
    def test_zero_coefficient(self):
        val, grad = regularizer_value_grad(0.0, np.array([3.0, -4.0]))
        assert val == 0.0
        np.testing.assert_array_equal(grad, np.zeros(2))

    def test_closed_form(self):
        val, grad = regularizer_value_grad(2.0, np.array([1.0, -1.0]))
        assert val == pytest.approx(2.0)
        np.testing.assert_allclose(grad, [2.0, -2.0])

    @settings(max_examples=50, deadline=None)
    @given(st.floats(1e-3, 10), st.lists(st.floats(-5, 5), min_size=1,
                                         max_size=8))
    def test_value_gradient_identity(self, l2, theta):
        theta = np.array(theta)
        val, grad = regularizer_value_grad(l2, theta)
        assert val == pytest.approx(float(grad @ grad) / (2.0 * l2), rel=1e-9,
                                    abs=1e-12)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            regularizer_value_grad(-0.1, np.ones(2))


class TestAnalyticProperties:
    def test_logistic_gradient_norm_bounded_by_input_norm(self):
        rng = np.random.default_rng(21)
        model = FeedforwardModel(d_in=5, d_out=1, bias=False)
        obj = Objective(model, "binary-cross-entropy")
        X = rng.standard_normal((200, 5)) * 2.0
        cap = float(np.linalg.norm(X, axis=1).max())
        for _ in range(10):
            theta = rng.standard_normal(5) * 3.0
            for i in range(0, 200, 17):
                g = obj.per_sample_grad(theta, X[i], int(rng.integers(0, 2)))
                assert np.linalg.norm(g) <= cap + 1e-12

    @pytest.mark.parametrize("loss", ["binary-cross-entropy"])
    def test_midpoint_convexity_linear_scalar(self, loss):
        rng = np.random.default_rng(13)
        model = FeedforwardModel(d_in=4, d_out=1, bias=False)
        obj = Objective(model, loss)
        for _ in range(50):
            ta, tb = rng.standard_normal(4), rng.standard_normal(4)
            x = rng.standard_normal(4)
            y = int(rng.integers(0, 2))
            mid = obj.per_sample_loss((ta + tb) / 2.0, x, y)
            avg = 0.5 * (obj.per_sample_loss(ta, x, y)
                         + obj.per_sample_loss(tb, x, y))
            assert mid <= avg + 1e-12

    @pytest.mark.parametrize("loss", ["multinomial-cross-entropy",
                                      "multiclass-hinge"])
    def test_midpoint_convexity_linear_multiclass(self, loss):
        rng = np.random.default_rng(17)
        model = FeedforwardModel(d_in=4, d_out=3, bias=True)
        obj = Objective(model, loss)
        for _ in range(50):
            ta = rng.standard_normal(model.n_params)
            tb = rng.standard_normal(model.n_params)
            x = rng.standard_normal(4)
            y = int(rng.integers(0, 3))
            mid = obj.per_sample_loss((ta + tb) / 2.0, x, y)
            avg = 0.5 * (obj.per_sample_loss(ta, x, y)
                         + obj.per_sample_loss(tb, x, y))
            assert mid <= avg + 1e-12


class TestModelStructure:
    def test_layout_covers_every_parameter(self):
        model = make_model("mlp", d_in=3, d_out=2, hidden=(5, 4),
                           activation="relu")
        layout = model.layout()
        covered = np.zeros(model.n_params, dtype=int)
        for sl in layout.values():
            covered[sl] += 1
        assert (covered == 1).all()

    def test_init_within_fan_in_bounds(self):
        model = make_model("mlp", d_in=9, d_out=2, hidden=(16,))
        theta = model.init_params(np.random.default_rng(0))
        layout = model.layout()
        assert np.abs(theta[layout["W0"]]).max() <= 1.0 / 3.0
        assert np.abs(theta[layout["W1"]]).max() <= 0.25

    def test_init_is_seed_deterministic(self):
        model = make_model("linear", d_in=6, d_out=3)
        a = model.init_params(np.random.default_rng(5))
        b = model.init_params(np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_mlp_requires_hidden_widths(self):
        with pytest.raises(ValueError):
            make_model("mlp", d_in=3, d_out=2)
