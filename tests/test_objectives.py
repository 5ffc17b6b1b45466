"""Loss values, gradient correctness, and regularizer identities."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import expit

from osgd.objectives import (_ACTIVATIONS, LOSS_KINDS, FeedforwardModel,
                             Objective, _logit_grads, _loss_terms, make_model)


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

    def test_labels_checked_whole_are_a_read_only_copy(self, monkeypatch):
        model = make_model("linear", d_in=2, d_out=3)
        obj = Objective(model, "multinomial-cross-entropy")
        y = np.array([0, 1, 2, 1, 0])
        labels = obj._checked_labels(y)
        y[0] = 7  # the copy keeps the checked values
        assert labels.tolist() == [0, 1, 2, 1, 0]
        with pytest.raises(ValueError, match="read-only"):
            labels[0] = 7
        with pytest.raises(ValueError, match="label out of range"):
            obj._checked_labels(y)
        checks = []
        monkeypatch.setattr(Objective, "_check_labels",
                            lambda self, y: checks.append(y) or y)
        theta, X = np.zeros(model.n_params), np.ones((2, 2))
        taped = obj.taped_batch(theta, X, labels[[1, 2]])
        assert checks == [] and type(taped._y) is np.ndarray
        obj.taped_batch(theta, X, np.array([1, 2]))
        assert len(checks) == 1


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


def regularizer(l2, theta):
    return Objective(FeedforwardModel(2, 1), "binary-cross-entropy",
                     l2=l2).regularizer(theta)


class TestRegularizer:
    def test_zero_coefficient(self):
        val, grad = regularizer(0.0, np.array([3.0, -4.0]))
        assert val == 0.0
        np.testing.assert_array_equal(grad, np.zeros(2))

    def test_closed_form(self):
        val, grad = regularizer(2.0, np.array([1.0, -1.0]))
        assert val == pytest.approx(2.0)
        np.testing.assert_allclose(grad, [2.0, -2.0])

    @settings(max_examples=50, deadline=None)
    @given(st.floats(1e-3, 10), st.lists(st.floats(-5, 5), min_size=1,
                                         max_size=8))
    def test_value_gradient_identity(self, l2, theta):
        theta = np.array(theta)
        val, grad = regularizer(l2, theta)
        assert val == pytest.approx(float(grad @ grad) / (2.0 * l2), rel=1e-9,
                                    abs=1e-12)

    @pytest.mark.parametrize("l2", [-0.1, float("nan"), float("inf")])
    def test_objective_rejects_bad_coefficient(self, l2):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            Objective(FeedforwardModel(2, 1), "binary-cross-entropy", l2=l2)


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


class TestBoundViews:
    """The model keeps the layer views of the last theta array it saw."""

    @staticmethod
    def setup(seed=0):
        rng = np.random.default_rng(seed)
        model = make_model("mlp", d_in=3, d_out=2, hidden=(5, 4),
                           activation="tanh")
        X = rng.standard_normal((7, 3))
        G = rng.standard_normal((7, 2))
        return model, model.init_params(rng), X, G

    @staticmethod
    def fresh(model, theta, X, G):
        """Logits and gradient from a new model that never saw theta."""
        other = make_model("mlp", d_in=model.d_in, d_out=model.d_out,
                           hidden=model.hidden, activation=model.activation)
        logits, tape = other.forward(theta.copy(), X)
        return logits, other.backward(theta.copy(), G, tape)

    def test_same_array_reuses_views(self):
        model, theta, X, _ = self.setup()
        assert model._layers(theta) is model._layers(theta)
        assert model._layers(theta.copy()) is not model._layers(theta)

    def test_in_place_updates_show_through(self):
        model, theta, X, G = self.setup(1)
        model.forward(theta, X)
        for k in range(5):
            theta -= 0.1 * (k + 1) * np.sin(theta + k)
            logits, tape = model.forward(theta, X)
            want_logits, want_grad = self.fresh(model, theta, X, G)
            assert logits.tobytes() == want_logits.tobytes()
            assert model.backward(theta, G, tape).tobytes() == \
                want_grad.tobytes()

    def test_new_arrays_never_get_stale_views(self):
        model, theta, X, G = self.setup(2)
        for k in range(50):
            # the caller drops the array seen last before making the next
            model.forward(theta - 0.05 * np.cos(theta * (k + 1)), X)
            other = theta + 0.05 * np.sin(theta * (k + 1))
            logits, tape = model.forward(other, X)
            want_logits, want_grad = self.fresh(model, other, X, G)
            assert logits.tobytes() == want_logits.tobytes()
            assert model.backward(other, G, tape).tobytes() == \
                want_grad.tobytes()

    @staticmethod
    def reference(model, theta, X, G):
        """Forward and backward with fresh views and fresh result arrays."""
        act, dact = _ACTIVATIONS[model.activation]
        layout, n_layers = model.layout(), len(model.hidden) + 1
        widths = (model.d_in, *model.hidden, model.d_out)
        layers = [(theta[layout[f"W{i}"]].reshape(widths[i + 1], widths[i]),
                   theta[layout[f"b{i}"]] if model.bias else None)
                  for i in range(n_layers)]
        H, tape = X, []
        for i, (W, b) in enumerate(layers):
            Z = H @ W.T
            if b is not None:
                Z = Z + b
            tape.append(H)
            H = act(Z) if i < n_layers - 1 else Z
        grad = np.zeros(model.n_params)
        for i in range(n_layers - 1, -1, -1):
            grad[layout[f"W{i}"]] = (G.T @ tape[i]).ravel()
            if model.bias:
                grad[layout[f"b{i}"]] = G.sum(axis=0)
            if i > 0:
                G = (G @ layers[i][0]) * dact(tape[i])
        return H, grad

    @pytest.mark.parametrize("shape", [(2, 1, (16, 16), "tanh", True),
                                       (2, 1, (16, 16), "relu", True),
                                       (256, 10, (), "tanh", True),
                                       (7, 3, (9, 4), "sigmoid", False)])
    def test_bitwise_equal_to_fresh_arrays_reference(self, shape):
        d_in, d_out, hidden, activation, bias = shape
        model = FeedforwardModel(d_in, d_out, hidden, activation, bias)
        rng = np.random.default_rng(9)
        theta = model.init_params(rng)
        for m in (1, 3, 5, 8, 40, 63, 64):
            X = rng.standard_normal((m, d_in))
            G = rng.standard_normal((m, d_out))
            logits, tape = model.forward(theta, X)
            want_logits, want_grad = self.reference(model, theta, X, G)
            assert logits.tobytes() == want_logits.tobytes()
            assert model.backward(theta, G, tape).tobytes() == \
                want_grad.tobytes()
            theta -= 0.01 * want_grad

    def test_views_of_another_array_with_equal_values_are_not_shared(self):
        model, theta, X, _ = self.setup(3)
        twin = theta.copy()
        model.forward(theta, X)
        twin[:] = 0.0
        assert model.logits(twin, X).tobytes() == \
            self.fresh(model, twin, X, np.zeros((7, 2)))[0].tobytes()
        assert model.logits(theta, X).tobytes() == \
            self.fresh(model, theta, X, np.zeros((7, 2)))[0].tobytes()


def ref_loss_values(kind, A, y):
    """Reference: per-row losses, every piece computed afresh."""
    rows = np.arange(A.shape[0])
    if kind == "multinomial-cross-entropy":
        mx = A.max(axis=1, keepdims=True)
        lse = (mx + np.log(np.exp(A - mx).sum(axis=1, keepdims=True))).ravel()
        return lse - A[rows, y]
    if kind == "multiclass-hinge":
        margins = 1.0 + A - A[rows, y][:, None]
        margins[rows, y] = 0.0
        return np.maximum(margins, 0.0).sum(axis=1)
    if kind == "binary-cross-entropy":
        t = 2.0 * y - 1.0
        return np.logaddexp(0.0, -t * A[:, 0])
    T = y.astype(np.float64)[:, None] if A.shape[1] == 1 else \
        np.eye(A.shape[1])[y]
    return 0.5 * ((A - T) ** 2).sum(axis=1)


def ref_logit_grads(kind, A, y):
    """Reference: per-row logit gradients, every piece computed afresh."""
    rows = np.arange(A.shape[0])
    if kind == "multinomial-cross-entropy":
        mx = A.max(axis=1, keepdims=True)
        E = np.exp(A - mx)
        P = E / E.sum(axis=1, keepdims=True)
        P[rows, y] -= 1.0
        return P
    if kind == "multiclass-hinge":
        margins = 1.0 + A - A[rows, y][:, None]
        margins[rows, y] = 0.0
        D = (margins > 0.0).astype(np.float64)
        D[rows, y] = -D.sum(axis=1)
        return D
    if kind == "binary-cross-entropy":
        t = 2.0 * y - 1.0
        return (-t * expit(-t * A[:, 0]))[:, None]
    T = y.astype(np.float64)[:, None] if A.shape[1] == 1 else \
        np.eye(A.shape[1])[y]
    return A - T


LOSS_SHAPES = [("multinomial-cross-entropy", 10), ("multiclass-hinge", 3),
               ("binary-cross-entropy", 1), ("squared", 1), ("squared", 4)]


class TestSharedLossPieces:
    """One per-kind pass gives the losses and the pieces the gradient
    reuses, bitwise equal to computing each from scratch."""

    @pytest.mark.parametrize("kind,d_out", LOSS_SHAPES)
    @pytest.mark.parametrize("m", [1, 3, 8, 40, 64])
    def test_losses_and_logit_grads_bitwise(self, kind, d_out, m):
        rng = np.random.default_rng(m * d_out)
        A = 3.0 * rng.standard_normal((m, d_out))
        y = rng.integers(0, max(d_out, 2), m)
        if kind == "multiclass-hinge":
            A[0] = 0.0  # margins exactly at the kink
        losses, pieces = _loss_terms(kind, A, y)
        assert losses.tobytes() == ref_loss_values(kind, A, y).tobytes()
        grads = _logit_grads(kind, pieces)
        assert grads.tobytes() == ref_logit_grads(kind, A, y).tobytes()
        no_losses, pieces = _loss_terms(kind, A, y, with_losses=False)
        assert no_losses is None
        assert _logit_grads(kind, pieces).tobytes() == grads.tobytes()

    @pytest.mark.parametrize("kind,d_out", LOSS_SHAPES)
    @pytest.mark.parametrize("m", [1, 5, 64])
    def test_taped_batch_gradients_bitwise(self, kind, d_out, m):
        rng = np.random.default_rng(7 * m + d_out)
        model = FeedforwardModel(6, d_out, (5,), "tanh")
        obj = Objective(model, kind)
        theta = obj.init_params(rng)
        X = rng.standard_normal((m, 6))
        y = rng.integers(0, max(d_out, 2), m)

        def reference(rows, weights):
            A, tape = model.forward(theta, X[rows])
            G = ref_logit_grads(kind, A, y[rows])
            G *= weights[:, None]
            return model.backward(theta, G, tape)

        taped = obj.taped_batch(theta, X, y)
        everyone = np.arange(m)
        uniform = reference(everyone, np.full(m, 1.0 / m))
        weights = rng.random(m)
        assert taped.mean_grad().tobytes() == uniform.tobytes()
        assert taped.grad(weights).tobytes() == \
            reference(everyone, weights).tobytes()
        # the shared pieces are read, never written
        assert taped.mean_grad().tobytes() == uniform.tobytes()
        if m > 1:
            kept = np.array([0, m - 1])
            assert taped.mean_grad(kept).tobytes() == \
                reference(kept, np.full(2, 0.5)).tobytes()

    @pytest.mark.parametrize("kind", ["binary-cross-entropy", "squared"])
    def test_scalar_output_kinds_build_no_row_index(self, kind, monkeypatch):
        calls = []
        arange = np.arange
        monkeypatch.setattr(np, "arange",
                            lambda *a, **k: calls.append(a) or arange(*a, **k))
        A = np.linspace(-2.0, 2.0, 8)[:, None]
        y = np.array([0, 1] * 4)
        _logit_grads(kind, _loss_terms(kind, A, y)[1])
        assert calls == []
