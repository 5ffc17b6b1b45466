"""Per-sample losses, predictors, and their (sub-)gradients.

A predictor maps an input vector to pre-activation outputs (logits); the
loss compares logits against an integer class label.  Parameters live in a
single flat float64 vector so optimizers never need to know the model
structure.  Gradients are exact: closed form at the logits, reverse-mode
accumulation through the layers.

Subgradient conventions at kinks are fixed so that every operation is
deterministic: max(0, .) and relu use derivative 0 at exactly 0.

Each loss kind is one function in the table ``_LOSSES``, whose keys are
``LOSS_KINDS``.  On the logits A and the checked labels y it forms once
what the per-row losses and their logit gradients share, and returns
``(losses, grads)``, a callable that forms each.  Neither writes into
what the other reads, but ``grads`` may return a shared array: never
write into its result.  :class:`TapedBatch` is the table's one reader.

A model forwards one parameter vector theta of shape (P,), or a stack of
S of them, shape (S, P), in one pass: the stack's logits are (S, m,
d_out) and its losses (S, m).  Row k equals, bit for bit, the result for
theta[k] alone (OpenBLAS 0.3.31; the tests pin it).  Gradients take one
theta.

Products have two forms, and :meth:`FeedforwardModel.forward` picks one
from theta's rank once per call: the layer loop tests nothing, and one
theta's forward makes no numpy call for the stack's sake.  For one theta
every product is written ``a.dot(b)``, not ``a @ b``.  On 2-D and 1-D
float64 operands both reach the same BLAS ``dgemm``/``ddot`` call, so
the bits are the same, but ``@`` is the ``matmul`` generalized ufunc,
whose dispatch costs 0.6-0.9 us more per small product and 3.5 us more
for a k = 1 outer product (numpy 2.4): a large share of a step whose
matrices have a few hundred entries.  A stack is forwarded with
``np.matmul``, which broadcasts X over the stack and multiplies each
stacked matrix on its own, in one call per layer instead of S.
``np.einsum`` is never used: it may sum in another order.  No product
here takes an array with its own transpose (``A.dot(A.T)``): numpy
routes that to ``syrk``, which rounds differently from ``dgemm`` on a
copy.
"""
from __future__ import annotations

import numpy as np

from . import _special

MODEL_KINDS = ("linear", "mlp")

# (activation, its derivative written in terms of the activation's output
# h, so backward reads h from the tape instead of evaluating it again).
# A sigmoid model with hidden layers binds scipy's expit itself when it
# is built; a linear model never applies its activation.
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
ACTIVATION_KINDS = tuple(_ACTIVATIONS)


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
        if activation == "sigmoid" and self.hidden:
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

    def _stacked_layers(self, thetas):
        """(W, W transposed, b) views into the (S, P) stack ``thetas`` per
        layer: (S, out, in), (S, in, out) and (S, 1, out), b None without
        biases.  They are made afresh on every call."""
        S = len(thetas)
        layers = []
        for w, shape, b in self._blocks:
            W = thetas[:, w].reshape(S, *shape)
            layers.append((W, W.transpose(0, 2, 1),
                           None if b is None else thetas[:, b][:, None, :]))
        return layers

    def forward(self, theta, X):
        """Logits for every row of X plus the tape needed for backward.

        ``theta`` is one parameter vector (P,), giving (m, d_out) logits,
        or a stack (S, P), giving (S, m, d_out) logits and a stacked tape;
        X is (m, d_in) either way and is shared by the stack.
        """
        act = self._act
        if theta.ndim == 1:
            layers, product = self._layers(theta), np.ndarray.dot
        else:
            layers, product = self._stacked_layers(theta), np.matmul
        last = len(layers) - 1
        H = X
        tape = []
        for i, (_, WT, b) in enumerate(layers):
            Z = product(H, WT)
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
            blocks.append(G.T.dot(H_in).ravel())
            if i > 0:
                W = layers[i][0]
                G = G.dot(W) * dact(H_in)  # H_in = act(Z) of layer i - 1
        blocks.reverse()
        return np.concatenate(blocks)


# -(2y - 1) for the labels y = 0, 1, the binary cross-entropy sign: that
# arithmetic gives exactly 1.0 or -1.0, so the table gives the same bits
# with one call instead of three
_BCE_SIGN = np.array([1.0, -1.0])


def _multinomial_cross_entropy(A, y):
    at = (np.arange(A.shape[0]), y)  # each row's label entry
    mx = A.max(axis=1, keepdims=True)
    E = np.exp(A - mx)
    Z = E.sum(axis=1, keepdims=True)

    def grads():
        P = E / Z
        P[at] -= 1.0
        return P
    return lambda: (mx + np.log(Z)).ravel() - A[at], grads


def _multiclass_hinge(A, y):
    at = (np.arange(A.shape[0]), y)
    margins = 1.0 + A - A[at][:, None]
    margins[at] = 0.0

    def grads():
        D = (margins > 0.0).astype(np.float64)  # 0 at the kink
        D[at] = -D.sum(axis=1)
        return D
    return lambda: np.maximum(margins, 0.0).sum(axis=1), grads


def _binary_cross_entropy(A, y):
    neg_t = _BCE_SIGN.take(y)
    z = neg_t * A[:, 0]
    return (lambda: np.logaddexp(0.0, z),
            lambda: (neg_t * _special.expit(z))[:, None])


def _squared(A, y):  # the target is the label, or its one-hot row
    R = A - (y.astype(np.float64)[:, None] if A.shape[1] == 1 else
             np.eye(A.shape[1], dtype=np.float64)[y])
    return lambda: 0.5 * (R ** 2).sum(axis=1), lambda: R


_LOSSES = {
    "multinomial-cross-entropy": _multinomial_cross_entropy,
    "multiclass-hinge": _multiclass_hinge,
    "binary-cross-entropy": _binary_cross_entropy,
    "squared": _squared,
}
LOSS_KINDS = tuple(_LOSSES)


def _rows(X):
    """X as a 2-D array of rows; a 2-D array passes as it is."""
    if isinstance(X, np.ndarray) and X.ndim == 2:
        return X
    return np.atleast_2d(X)


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

    def per_example_losses(self, theta, X, y):
        return self.taped_batch(theta, X, y).losses

    def losses_and_predictions(self, theta, X, y):
        """Per-example losses and predicted classes from one forward pass."""
        taped = self.taped_batch(theta, X, y)
        return taped.losses, self._predict(taped.logits)

    def taped_batch(self, theta, X, y):
        """Forward the batch once; see :class:`TapedBatch`.  The labels are
        checked here, unless they were drawn from labels this objective
        checked whole (:meth:`_checked_labels`), and passed on plain."""
        y = y.view(np.ndarray) if type(y) is _CheckedLabels else \
            self._check_labels(y)
        return TapedBatch(self, theta, _rows(X), y)

    def per_sample_loss(self, theta, x, y):
        if np.ndim(theta) != 1:
            raise ValueError(f"per_sample_loss takes one parameter vector "
                             f"of shape (P,), got shape {np.shape(theta)}")
        return float(self.per_example_losses(theta, np.atleast_2d(x), np.atleast_1d(y))[0])

    def weighted_grad(self, theta, X, y, weights):
        """sum_i weights[i] * grad of loss_i, in one reverse pass."""
        return self.taped_batch(theta, X, y).grad(weights)

    def per_sample_grad(self, theta, x, y):
        return self.weighted_grad(theta, np.atleast_2d(x), np.atleast_1d(y), np.ones(1))

    def regularizer(self, theta):
        """L2 penalty R(theta) = (l2/2) ||theta||^2 and its gradient l2 * theta."""
        theta = np.asarray(theta, dtype=np.float64)
        return 0.5 * self.l2 * float(theta.dot(theta)), self.l2 * theta

    def predictions(self, theta, X):
        """Predicted class per row; logit ties go to the smaller class index."""
        return self._predict(self.model.logits(theta, _rows(X)))

    def _predict(self, A):
        """Classes from (m, d_out) logits, or (S, m) from a stack's."""
        if self.model.d_out == 1:
            return (A[..., 0] > 0.0).astype(np.int64)
        return A.argmax(axis=-1)


class _CheckedLabels(np.ndarray):
    """Class labels that an :class:`Objective` checked as a whole
    (:meth:`Objective._checked_labels`); indexing and ``take`` keep the
    type."""


class TapedBatch:
    """One forward pass over a batch: its logits, its tape, and the
    callables that form its losses and logit gradients.

    Every :class:`Objective` entry point that reads losses or gradients
    forwards through this class (:meth:`Objective.taped_batch`), the one
    reader of the loss table ``_LOSSES``: its kind's function runs once,
    on the logits.  :attr:`losses` is formed when first read, so a
    gradient-only use never forms it.  :meth:`mean_grad` differentiates
    the mean loss over a subset of the rows, reusing the tape when the
    subset is every row.

    A stack of S parameter vectors is forwarded for its losses alone:
    its (S, m, d_out) logits are scored at once as S*m rows by the same
    table function, with the labels tiled, into (S, m) losses, and
    :meth:`mean_grad` and :meth:`grad` raise ``NotImplementedError``.
    """

    def __init__(self, obj, theta, X, y):
        """``X`` is a 2-D array of rows and ``y`` holds checked labels."""
        self._obj, self._theta, self._X, self._y = obj, theta, X, y
        A, self._tape = obj.model.forward(theta, X)
        self.logits, self._losses = A, None
        if theta.ndim == 1:
            self._form_losses, self._logit_grads = _LOSSES[obj.loss](A, y)
        else:  # a stack, for its losses alone
            form_losses, _ = _LOSSES[obj.loss](A.reshape(-1, A.shape[2]),
                                               np.tile(y, len(theta)))
            self._losses = form_losses().reshape(A.shape[:2])
            self._logit_grads = None

    @property
    def losses(self):
        """Per-row losses: (m,) for one parameter vector, formed when
        first read, or (S, m) for a stack of S."""
        if self._losses is None:
            self._losses = self._form_losses()
        return self._losses

    def mean_grad(self, positions=None):
        """Gradient of the mean loss over the rows at ``positions``.

        ``positions`` are distinct and ascending; None means every row,
        which reuses the tape and what the loss table formed.  A strict
        subset gets a fresh forward on its own rows, a batch of its own
        whose losses are never formed, instead of a slice of the tape: BLAS
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
        m = len(self._y)
        q = m if positions is None else len(positions)
        if q == m:
            return self._grad(1.0 / q)
        kept = TapedBatch(self._obj, self._theta,
                          self._X.take(positions, axis=0),
                          self._y.take(positions))
        return kept._grad(1.0 / q)

    def grad(self, weights):
        """sum_i weights[i] * grad of loss_i over every row, from the tape."""
        return self._grad(np.asarray(weights, dtype=np.float64)[:, None])

    def _grad(self, scale):
        """Backward of the logit gradients, each row multiplied by
        ``scale``: an (m, 1) column of per-row weights, or one number for
        every row."""
        if self._logit_grads is None:
            raise NotImplementedError(
                "gradients take one parameter vector, not a stack")
        return self._obj.model.backward(
            self._theta, self._logit_grads() * scale, self._tape)
