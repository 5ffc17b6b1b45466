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

from . import _special

LOSS_KINDS = (
    "multinomial-cross-entropy",
    "multiclass-hinge",
    "binary-cross-entropy",
    "squared",
)

MODEL_KINDS = ("linear", "mlp")

# (activation, its derivative written in terms of the activation's output
# h, so backward reads h from the tape instead of evaluating it again).
# A sigmoid model binds scipy's expit itself when it is built.
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
        lambda z: _special.expit(z),
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
        self._act, self._dact = _ACTIVATIONS[activation]
        if activation == "sigmoid":
            self._act = _special.expit  # loads scipy.special, if not yet
        widths = (self.d_in, *self.hidden, self.d_out)
        # per layer: (weight slice, weight shape, bias slice or None)
        blocks = []
        off = 0
        for inp, out in zip(widths[:-1], widths[1:]):
            w = slice(off, off + out * inp)
            off += out * inp
            b = None
            if self.bias:
                b = slice(off, off + out)
                off += out
            blocks.append((w, (out, inp), b))
        self._blocks = tuple(blocks)
        self.n_params = off
        self._bound = (None, None)  # (theta array, its layer views)

    @property
    def kind(self):
        return "linear" if not self.hidden else "mlp"

    def layout(self):
        """Map from parameter-block name (W0, b0, W1, ...) to its slice."""
        out = {}
        for i, (w, _, b) in enumerate(self._blocks):
            out[f"W{i}"] = w
            if b is not None:
                out[f"b{i}"] = b
        return out

    def init_params(self, rng):
        """Uniform init in +-1/sqrt(fan_in) per layer, weights and biases."""
        theta = np.empty(self.n_params, dtype=np.float64)
        for w, (out, inp), b in self._blocks:
            bound = 1.0 / np.sqrt(inp)
            theta[w] = rng.uniform(-bound, bound, out * inp)
            if b is not None:
                theta[b] = rng.uniform(-bound, bound, out)
        return theta

    def _layers(self, theta):
        """(W, W.T, b) views into theta per layer, b None without biases.

        The views of the last theta array seen are kept and reused while
        the same array object comes back.  They alias its memory, so they
        follow in-place updates (an optimizer state's theta is only ever
        updated in place); any other array gets fresh views.
        """
        bound_theta, layers = self._bound
        if theta is not bound_theta:
            layers = []
            for w, shape, b in self._blocks:
                W = theta[w].reshape(shape)
                layers.append((W, W.T, None if b is None else theta[b]))
            self._bound = (theta, layers)
        return layers

    def forward(self, theta, X):
        """Logits for every row of X plus the tape needed for backward."""
        act = self._act
        layers = self._layers(theta)
        last = len(layers) - 1
        H = X
        tape = []
        for i, (_, WT, b) in enumerate(layers):
            Z = H @ WT
            if b is not None:
                Z += b
            tape.append((H, Z))
            H = act(Z) if i < last else Z
        return H, tape

    def logits(self, theta, X):
        return self.forward(theta, X)[0]

    def backward(self, theta, G, tape):
        """Flat parameter gradient of sum_i <G_i, logits_i>.

        G is the (m, d_out) gradient at the logits; per-example loss
        weights must already be folded into its rows.  Walks the forward
        tape in reverse, forming each layer's weight and bias blocks, and
        joins them in packing order with one ``concatenate``.
        """
        dact = self._dact
        layers = self._layers(theta)
        blocks = []  # b_L, W_L, ..., b_0, W_0
        for i in range(len(layers) - 1, -1, -1):
            H_in, _ = tape[i]
            if self.bias:
                blocks.append(np.add.reduce(G, axis=0))  # G.sum, unwrapped
            blocks.append((G.T @ H_in).ravel())
            if i > 0:
                W = layers[i][0]
                G = (G @ W) * dact(H_in)  # H_in = act(Z) of layer i - 1
        blocks.reverse()
        return np.concatenate(blocks)


def make_model(kind, d_in, d_out, hidden=(), activation="tanh", bias=True):
    if kind == "linear":
        return FeedforwardModel(d_in, d_out, hidden=(), bias=bias)
    if kind == "mlp":
        if not hidden:
            raise ValueError("mlp model needs at least one hidden width")
        return FeedforwardModel(d_in, d_out, hidden=hidden,
                                activation=activation, bias=bias)
    raise ValueError(f"unknown model kind {kind!r}")


# -(2y - 1) for the labels y = 0, 1: the binary cross-entropy sign
_BCE_SIGN = np.array([1.0, -1.0])


def _loss_terms(kind, A, y, with_losses=True):
    """Per-row losses of the logits A, and the pieces of them that the
    logit gradient (:func:`_logit_grads`) reuses.  Without ``with_losses``
    only the pieces are built, and None stands in for the losses.

    ``y`` holds checked integer labels.  The binary cross-entropy sign
    -(2y - 1) is read from a table: for y in {0, 1} that arithmetic gives
    exactly 1.0 or -1.0, so the table gives the same bits with one call
    instead of three.
    """
    if kind == "multinomial-cross-entropy":
        at = (np.arange(A.shape[0]), y)  # each row's label entry
        mx = A.max(axis=1, keepdims=True)
        E = np.exp(A - mx)
        Z = E.sum(axis=1, keepdims=True)
        losses = (mx + np.log(Z)).ravel() - A[at] if with_losses else None
        return losses, (at, E, Z)
    if kind == "multiclass-hinge":
        at = (np.arange(A.shape[0]), y)
        margins = 1.0 + A - A[at][:, None]
        margins[at] = 0.0
        losses = (np.maximum(margins, 0.0).sum(axis=1) if with_losses
                  else None)
        return losses, (at, margins)
    if kind == "binary-cross-entropy":
        neg_t = _BCE_SIGN.take(y)
        z = neg_t * A[:, 0]
        return (np.logaddexp(0.0, z) if with_losses else None), (neg_t, z)
    if kind == "squared":
        R = A - _squared_targets(A.shape[1], y)
        return (0.5 * (R ** 2).sum(axis=1) if with_losses else None), R
    raise ValueError(f"unknown loss kind {kind!r}")


def _logit_grads(kind, pieces):
    """Per-row loss gradients at the logits from :func:`_loss_terms`'s
    pieces.  The result may be one of the pieces: never write into it."""
    if kind == "multinomial-cross-entropy":
        at, E, Z = pieces
        P = E / Z
        P[at] -= 1.0
        return P
    if kind == "multiclass-hinge":
        at, margins = pieces
        D = (margins > 0.0).astype(np.float64)  # 0 at the kink
        D[at] = -D.sum(axis=1)
        return D
    if kind == "binary-cross-entropy":
        neg_t, z = pieces
        return (neg_t * _special.expit(z))[:, None]
    if kind == "squared":
        return pieces
    raise ValueError(f"unknown loss kind {kind!r}")


def _rows(X):
    """X as a 2-D array of rows; a 2-D array passes as it is."""
    if isinstance(X, np.ndarray) and X.ndim == 2:
        return X
    return np.atleast_2d(X)


def _squared_targets(d_out, y):
    if d_out == 1:
        return y.astype(np.float64)[:, None]
    return np.eye(d_out, dtype=np.float64)[y]


class Objective:
    """A predictor, a per-sample loss, and an L2 regularizer.

    Per-sample quantities never include the regularizer; it enters only
    through :meth:`regularizer`, mirroring the additive split of the full
    training objective.
    """

    def __init__(self, model, loss, l2=0.0):
        if loss not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {loss!r}; choose from {LOSS_KINDS}")
        if not 0 <= l2 < np.inf:  # also rejects nan
            raise ValueError(f"l2 coefficient must be finite and nonnegative, "
                             f"got {l2}")
        if loss == "binary-cross-entropy" and model.d_out != 1:
            raise ValueError("binary-cross-entropy needs a scalar-output model")
        if loss in ("multinomial-cross-entropy", "multiclass-hinge") and model.d_out < 2:
            raise ValueError(f"{loss} needs at least two output units")
        if loss == "binary-cross-entropy":
            _special.expit  # its gradient's; loads scipy.special here, not in a step
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
        if y.dtype.kind not in "biu":  # the losses index by label
            raise ValueError(f"labels must be integers, got dtype {y.dtype}")
        if y.size and (y.min() < 0 or y.max() >= self.n_classes):
            raise ValueError(
                f"label out of range [0, {self.n_classes}): "
                f"min={y.min()}, max={y.max()}"
            )
        return y

    def _checked_labels(self, y):
        """A read-only copy of the labels ``y``, checked once as a whole.

        This objective takes it, and rows drawn from it (``labels[batch]``
        or ``labels.take(batch)``, which keep its type), without checking
        them again.  It is checked against this objective's classes only.
        """
        labels = self._check_labels(np.array(y)).view(_CheckedLabels)
        labels.setflags(write=False)
        return labels

    def _labels(self, y):
        """``y`` as a plain array, checked unless it comes from
        :meth:`_checked_labels`."""
        if type(y) is _CheckedLabels:
            return y.view(np.ndarray)
        return self._check_labels(y)

    def per_example_losses(self, theta, X, y):
        y = self._labels(y)
        A = self.model.logits(theta, _rows(X))
        return _loss_terms(self.loss, A, y)[0]

    def losses_and_predictions(self, theta, X, y):
        """Per-example losses and predicted classes from one forward pass."""
        y = self._labels(y)
        A = self.model.logits(theta, _rows(X))
        return _loss_terms(self.loss, A, y)[0], self._predict(A)

    def taped_batch(self, theta, X, y):
        """Forward the batch once; see :class:`TapedBatch`."""
        return TapedBatch(self, theta, X, y)

    def per_sample_loss(self, theta, x, y):
        return float(self.per_example_losses(theta, np.atleast_2d(x), np.atleast_1d(y))[0])

    def weighted_grad(self, theta, X, y, weights):
        """sum_i weights[i] * grad of loss_i, in one reverse pass."""
        y = self._labels(y)
        A, tape = self.model.forward(theta, _rows(X))
        _, pieces = _loss_terms(self.loss, A, y, with_losses=False)
        weights = np.asarray(weights, dtype=np.float64)[:, None]
        return self._grad_from_tape(theta, tape, pieces, weights)

    def _grad_from_tape(self, theta, tape, pieces, scale):
        """Backward of the logit gradients from ``pieces``
        (:func:`_loss_terms`), each row multiplied by ``scale``: an (m, 1)
        column of per-row weights, or one number for every row."""
        return self.model.backward(
            theta, _logit_grads(self.loss, pieces) * scale, tape)

    def per_sample_grad(self, theta, x, y):
        return self.weighted_grad(theta, np.atleast_2d(x), np.atleast_1d(y), np.ones(1))

    def regularizer(self, theta):
        """L2 penalty R(theta) = (l2/2) ||theta||^2 and its gradient l2 * theta."""
        theta = np.asarray(theta, dtype=np.float64)
        return 0.5 * self.l2 * float(theta @ theta), self.l2 * theta

    def predictions(self, theta, X):
        """Predicted class per row; logit ties go to the smaller class index."""
        return self._predict(self.model.logits(theta, _rows(X)))

    def _predict(self, A):
        if self.model.d_out == 1:
            return (A[:, 0] > 0.0).astype(np.int64)
        return A.argmax(axis=1)


class _CheckedLabels(np.ndarray):
    """Class labels that an :class:`Objective` checked as a whole
    (:meth:`Objective._checked_labels`); indexing and ``take`` keep the
    type."""


class TapedBatch:
    """Per-row losses of one forward pass over a batch, with its tape.

    The batch labels are checked when the batch is taped, unless they
    were drawn from labels the objective checked whole
    (:meth:`Objective._checked_labels`).  :meth:`mean_grad` differentiates
    the mean loss over a subset of the rows, reusing the tape when the
    subset is the whole batch.
    """

    def __init__(self, obj, theta, X, y):
        self._obj, self._theta = obj, theta
        self._X, self._y = _rows(X), obj._labels(y)
        logits, self._tape = obj.model.forward(theta, self._X)
        self.losses, self._pieces = _loss_terms(obj.loss, logits, self._y)

    def mean_grad(self, positions=None):
        """Gradient of the mean loss over the rows at ``positions``.

        ``positions`` are distinct and ascending; None means every row,
        which reuses the tape and the loss pieces.  A strict subset gets a
        fresh forward on its own rows instead of a slice of the tape: BLAS
        picks its kernels by row count, so rows sliced from an m-row matmul
        can differ in the last bits from a matmul over the subset alone
        (OpenBLAS: 256->10 and 16->1 layers at subset sizes that are not a
        multiple of 4), and trajectories are defined by the subset forward.
        The kept rows and labels are gathered with ``take``, which copies
        the same rows as fancy indexing with less dispatch per call.  The
        subset's labels were checked with the batch's.  The uniform weight
        1/q is applied as one number, bitwise the same as a column of q
        copies of it.
        """
        m = self.losses.shape[0]
        q = m if positions is None else len(positions)
        if q == m:
            return self._obj._grad_from_tape(self._theta, self._tape,
                                             self._pieces, 1.0 / q)
        obj, theta = self._obj, self._theta
        logits, tape = obj.model.forward(theta,
                                         self._X.take(positions, axis=0))
        _, pieces = _loss_terms(obj.loss, logits, self._y.take(positions),
                                with_losses=False)
        return obj._grad_from_tape(theta, tape, pieces, 1.0 / q)

    def grad(self, weights):
        """sum_i weights[i] * grad of loss_i over every row, from the tape."""
        return self._obj._grad_from_tape(
            self._theta, self._tape, self._pieces,
            np.asarray(weights, dtype=np.float64)[:, None])
