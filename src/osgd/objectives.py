"""Per-sample losses, predictors, and their (sub-)gradients.

A predictor maps an input vector to pre-activation outputs (logits); the
loss compares logits against an integer class label.  Parameters live in a
single flat float64 vector so optimizers never need to know the model
structure.  Gradients are exact: closed form at the logits, reverse-mode
accumulation through the layers.

Subgradient conventions at kinks are fixed so that every operation is
deterministic: max(0, .) and relu use derivative 0 at exactly 0.
"""
from __future__ import annotations

import numpy as np
from scipy.special import expit

LOSS_KINDS = (
    "multinomial-cross-entropy",
    "multiclass-hinge",
    "binary-cross-entropy",
    "squared",
)

# (activation, its derivative written in terms of the activation's output
# h, so backward reads h from the tape instead of evaluating it again)
_ACTIVATIONS = {
    "relu": (
        lambda z: np.maximum(z, 0.0),
        lambda h: (h > 0.0).astype(np.float64),
    ),
    "tanh": (
        np.tanh,
        lambda h: 1.0 - h ** 2,
    ),
    "sigmoid": (
        expit,
        lambda h: h * (1.0 - h),
    ),
}


class FeedforwardModel:
    """Fully connected predictor: affine layers with an elementwise activation.

    ``hidden=()`` gives a plain linear model.  The last layer is affine with
    no activation (logits).  Parameters are packed layer by layer as
    W0, b0, W1, b1, ... into one flat vector.
    """

    def __init__(self, d_in, d_out, hidden=(), activation="tanh", bias=True):
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}; "
                             f"choose from {sorted(_ACTIVATIONS)}")
        self.d_in = int(d_in)
        self.d_out = int(d_out)
        self.hidden = tuple(int(h) for h in hidden)
        self.activation = activation
        self.bias = bool(bias)
        widths = (self.d_in, *self.hidden, self.d_out)
        self._shapes = [(widths[i + 1], widths[i]) for i in range(len(widths) - 1)]
        self._slices = {}
        off = 0
        for i, (out, inp) in enumerate(self._shapes):
            self._slices[f"W{i}"] = slice(off, off + out * inp)
            off += out * inp
            if self.bias:
                self._slices[f"b{i}"] = slice(off, off + out)
                off += out
        self.n_params = off

    @property
    def kind(self):
        return "linear" if not self.hidden else "mlp"

    def layout(self):
        """Map from parameter-block name to its slice of the flat vector."""
        return dict(self._slices)

    def init_params(self, rng):
        """Uniform init in +-1/sqrt(fan_in) per layer, weights and biases."""
        theta = np.empty(self.n_params, dtype=np.float64)
        for i, (out, inp) in enumerate(self._shapes):
            bound = 1.0 / np.sqrt(inp)
            theta[self._slices[f"W{i}"]] = rng.uniform(-bound, bound, out * inp)
            if self.bias:
                theta[self._slices[f"b{i}"]] = rng.uniform(-bound, bound, out)
        return theta

    def _unpack(self, theta):
        layers = []
        for i, (out, inp) in enumerate(self._shapes):
            W = theta[self._slices[f"W{i}"]].reshape(out, inp)
            b = theta[self._slices[f"b{i}"]] if self.bias else None
            layers.append((W, b))
        return layers

    def forward(self, theta, X):
        """Logits for every row of X plus the tape needed for backward."""
        act, _ = _ACTIVATIONS[self.activation]
        layers = self._unpack(theta)
        last = len(layers) - 1
        H = X
        tape = []
        for i, (W, b) in enumerate(layers):
            Z = H @ W.T
            if b is not None:
                Z = Z + b
            tape.append((H, Z))
            H = act(Z) if i < last else Z
        return H, tape

    def logits(self, theta, X):
        return self.forward(theta, X)[0]

    def backward(self, theta, G, tape):
        """Flat parameter gradient of sum_i <G_i, logits_i>.

        G is the (m, d_out) gradient at the logits; per-example loss
        weights must already be folded into its rows.  Walks the forward
        tape in reverse, accumulating each layer's weight and bias blocks.
        """
        _, dact = _ACTIVATIONS[self.activation]
        layers = self._unpack(theta)
        grad = np.zeros(self.n_params, dtype=np.float64)
        for i in range(len(layers) - 1, -1, -1):
            H_in, _ = tape[i]
            grad[self._slices[f"W{i}"]] = (G.T @ H_in).ravel()
            if self.bias:
                grad[self._slices[f"b{i}"]] = G.sum(axis=0)
            if i > 0:
                W, _ = layers[i]
                G = (G @ W) * dact(H_in)  # H_in = act(Z) of layer i - 1
        return grad


def make_model(kind, d_in, d_out, hidden=(), activation="tanh", bias=True):
    if kind == "linear":
        return FeedforwardModel(d_in, d_out, hidden=(), bias=bias)
    if kind == "mlp":
        if not hidden:
            raise ValueError("mlp model needs at least one hidden width")
        return FeedforwardModel(d_in, d_out, hidden=hidden,
                                activation=activation, bias=bias)
    raise ValueError(f"unknown model kind {kind!r}")


def _loss_values(kind, A, y):
    m = A.shape[0]
    rows = np.arange(m)
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
    if kind == "squared":
        T = _squared_targets(A.shape[1], y)
        return 0.5 * ((A - T) ** 2).sum(axis=1)
    raise ValueError(f"unknown loss kind {kind!r}")


def _loss_logit_grads(kind, A, y):
    m = A.shape[0]
    rows = np.arange(m)
    if kind == "multinomial-cross-entropy":
        mx = A.max(axis=1, keepdims=True)
        E = np.exp(A - mx)
        P = E / E.sum(axis=1, keepdims=True)
        P[rows, y] -= 1.0
        return P
    if kind == "multiclass-hinge":
        margins = 1.0 + A - A[rows, y][:, None]
        margins[rows, y] = 0.0
        D = (margins > 0.0).astype(np.float64)  # 0 at the kink
        D[rows, y] = -D.sum(axis=1)
        return D
    if kind == "binary-cross-entropy":
        t = 2.0 * y - 1.0
        return (-t * expit(-t * A[:, 0]))[:, None]
    if kind == "squared":
        return A - _squared_targets(A.shape[1], y)
    raise ValueError(f"unknown loss kind {kind!r}")


def _squared_targets(d_out, y):
    if d_out == 1:
        return y.astype(np.float64)[:, None]
    return np.eye(d_out, dtype=np.float64)[y]


def regularizer_value_grad(l2, theta):
    """L2 penalty R(theta) = (l2/2) ||theta||^2 and its gradient l2 * theta."""
    if l2 < 0:
        raise ValueError(f"l2 coefficient must be nonnegative, got {l2}")
    theta = np.asarray(theta, dtype=np.float64)
    return 0.5 * l2 * float(theta @ theta), l2 * theta


class Objective:
    """A predictor, a per-sample loss, and an L2 regularizer.

    Per-sample quantities never include the regularizer; it enters only
    through :meth:`regularizer`, mirroring the additive split of the full
    training objective.
    """

    def __init__(self, model, loss, l2=0.0):
        if loss not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {loss!r}; choose from {LOSS_KINDS}")
        if l2 < 0:
            raise ValueError(f"l2 coefficient must be nonnegative, got {l2}")
        if loss == "binary-cross-entropy" and model.d_out != 1:
            raise ValueError("binary-cross-entropy needs a scalar-output model")
        if loss in ("multinomial-cross-entropy", "multiclass-hinge") and model.d_out < 2:
            raise ValueError(f"{loss} needs at least two output units")
        self.model = model
        self.loss = loss
        self.l2 = float(l2)

    @property
    def n_classes(self):
        return 2 if self.model.d_out == 1 else self.model.d_out

    def init_params(self, rng):
        return self.model.init_params(rng)

    def _check_labels(self, y):
        y = np.asarray(y)
        if y.size and (y.min() < 0 or y.max() >= self.n_classes):
            raise ValueError(
                f"label out of range [0, {self.n_classes}): "
                f"min={y.min()}, max={y.max()}"
            )
        return y

    def per_example_losses(self, theta, X, y):
        y = self._check_labels(y)
        A = self.model.logits(theta, np.atleast_2d(X))
        return _loss_values(self.loss, A, y)

    def losses_and_predictions(self, theta, X, y):
        """Per-example losses and predicted classes from one forward pass."""
        y = self._check_labels(y)
        A = self.model.logits(theta, np.atleast_2d(X))
        return _loss_values(self.loss, A, y), self._predict(A)

    def taped_batch(self, theta, X, y):
        """Forward the batch once; see :class:`TapedBatch`."""
        return TapedBatch(self, theta, X, y)

    def per_sample_loss(self, theta, x, y):
        return float(self.per_example_losses(theta, np.atleast_2d(x), np.atleast_1d(y))[0])

    def weighted_grad(self, theta, X, y, weights):
        """sum_i weights[i] * grad of loss_i, in one reverse pass."""
        y = self._check_labels(y)
        A, tape = self.model.forward(theta, np.atleast_2d(X))
        return self._grad_from_tape(theta, A, tape, y, weights)

    def _grad_from_tape(self, theta, A, tape, y, weights):
        G = _loss_logit_grads(self.loss, A, y)
        G *= np.asarray(weights, dtype=np.float64)[:, None]
        return self.model.backward(theta, G, tape)

    def mean_grad(self, theta, X, y):
        m = np.atleast_2d(X).shape[0]
        return self.weighted_grad(theta, X, y, np.full(m, 1.0 / m))

    def per_sample_grad(self, theta, x, y):
        return self.weighted_grad(theta, np.atleast_2d(x), np.atleast_1d(y), np.ones(1))

    def regularizer(self, theta):
        return regularizer_value_grad(self.l2, theta)

    def predictions(self, theta, X):
        """Predicted class per row; logit ties go to the smaller class index."""
        return self._predict(self.model.logits(theta, np.atleast_2d(X)))

    def _predict(self, A):
        if self.model.d_out == 1:
            return (A[:, 0] > 0.0).astype(np.int64)
        return A.argmax(axis=1)


class TapedBatch:
    """Per-row losses of one forward pass over a batch, with its tape.

    :meth:`mean_grad` differentiates the mean loss over a subset of the
    rows, reusing the tape when the subset is the whole batch.
    """

    def __init__(self, obj, theta, X, y):
        self._obj, self._theta = obj, theta
        self._X, self._y = np.atleast_2d(X), obj._check_labels(y)
        self._logits, self._tape = obj.model.forward(theta, self._X)
        self.losses = _loss_values(obj.loss, self._logits, self._y)

    def mean_grad(self, positions):
        """Gradient of the mean loss over the rows at ``positions``.

        ``positions`` are distinct and ascending.  A strict subset gets a
        fresh forward on its own rows instead of a slice of the tape: BLAS
        picks its kernels by row count, so rows sliced from an m-row matmul
        can differ in the last bits from a matmul over the subset alone
        (OpenBLAS: 256->10 and 16->1 layers at subset sizes that are not a
        multiple of 4), and trajectories are defined by the subset forward.
        """
        q = len(positions)
        weights = np.full(q, 1.0 / q)
        if q == self.losses.shape[0]:
            return self._obj._grad_from_tape(self._theta, self._logits,
                                             self._tape, self._y, weights)
        return self._obj.weighted_grad(self._theta, self._X[positions],
                                       self._y[positions], weights)
