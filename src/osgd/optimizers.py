"""Top-q minibatch optimizers, learning-rate schedules, and the adaptive q rule.

:func:`osgd_step` is the one step: an estimator fed to an update rule.
It forwards the drawn batch once, keeps the q largest-loss members (ties
toward the smaller index), and forms the top-q direction g, their
average gradient plus the regularizer gradient ``l2 * theta`` (whose
value it does not compute).  ``update(state, g)`` applies g:
:func:`heavy_ball` (plain SGD when momentum is 0) or :func:`adam`, whose
buffers live on :class:`OptimizerState`; the runner binds the rule and
its hyperparameters once per run.  With q equal to the batch size this
is exactly minibatch SGD / Adam, so every caller, baselines included,
takes this one step and the q = s trajectories are bit-identical by
construction.

At q = s there is no selection, and backward reuses the batch forward's
tape.  At q < s the kept rows get a fresh forward of their own: a BLAS
matmul over q rows may use other kernels than one over the whole batch,
so slicing the batch forward would change the last bits of the
trajectory (see :class:`osgd.objectives.TapedBatch`).

A step is a few dozen numpy calls on matrices of a few hundred entries,
so the fixed cost of each call, not arithmetic, sets its time.  It
gathers the batch rows and labels with ``ndarray.take``, which copies the
same rows as fancy indexing at a quarter of its dispatch cost on 2-column
rows, and keeps the type of the runner's checked labels.  It adds the
regularizer gradient in place to the fresh gradient that backward
returns: the same sums, without a new array.  The model keeps the layer
views of the last theta array it saw, and the state's theta is only
updated in place, so those views serve every step of a run.  A step
checks its batch's labels once, unless they are the runner's read-only,
already checked train labels (``Objective._checked_labels``).  The
runner silences numpy's overflow warnings around its epoch loop, so a
direct step call whose loss overflows may warn before it raises
:class:`DivergenceError`.
Products are written ``.dot``, not ``@``: the same BLAS call with less
dispatch than the ``matmul`` ufunc (see :mod:`osgd.objectives`, also for
why no product takes an array with its own transpose).

The unbiasedness property (the expected update equals a subgradient of
the rank-weighted loss) concerns g and so the plain SGD rule.  Heavy-ball
with momentum > 0 and Adam apply the same g as empirical extensions and
carry no analogous guarantee.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._settings import (NONNEG_ENTRIES, POSITIVE_FINITE, Section, one_of,
                        setting)
from .selection import topq_positions


class DivergenceError(RuntimeError):
    """Raised when a non-finite loss appears; carries the failing step index."""

    def __init__(self, step, message="non-finite loss"):
        super().__init__(f"{message} at step {step}")
        self.step = step


@dataclass
class OptimizerState:
    """Parameter vector plus method-specific buffers.

    ``momentum_buf`` is allocated lazily for momentum SGD; ``m``/``v`` for
    Adam.  ``step_count`` counts applied updates and doubles as Adam's
    bias-correction timestep.
    """

    theta: np.ndarray
    q_current: int
    lr_current: float
    momentum_buf: np.ndarray | None = None
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    step_count: int = 0


def init_state(theta, q, lr) -> OptimizerState:
    if q < 1:
        raise ValueError(f"q must be at least 1, got {q}")
    if not (lr > 0 and math.isfinite(lr)):
        raise ValueError(
            f"learning rate must be positive and finite, got {lr}")
    return OptimizerState(theta=np.array(theta, dtype=np.float64),
                          q_current=int(q), lr_current=float(lr))


def heavy_ball(state, g, momentum=0.0) -> None:
    """theta <- theta - lr * g, through a heavy-ball buffer if momentum > 0."""
    if momentum > 0.0:
        if state.momentum_buf is None:
            state.momentum_buf = np.zeros_like(state.theta)
        state.momentum_buf *= momentum
        state.momentum_buf += g
        state.theta -= state.lr_current * state.momentum_buf
    else:
        state.theta -= state.lr_current * g


def adam(state, g, beta1=0.9, beta2=0.999, eps=1e-8) -> None:
    """The Adam update of g, bias-corrected at timestep step_count + 1."""
    if state.m is None:
        state.m = np.zeros_like(state.theta)
        state.v = np.zeros_like(state.theta)
    state.m *= beta1
    state.m += (1.0 - beta1) * g
    state.v *= beta2
    state.v += (1.0 - beta2) * g * g
    t = state.step_count + 1
    m_hat = state.m / (1.0 - beta1 ** t)
    v_hat = state.v / (1.0 - beta2 ** t)
    state.theta -= state.lr_current * m_hat / (np.sqrt(v_hat) + eps)


def osgd_step(state, obj, X, y, batch, q, update=heavy_ball) -> OptimizerState:
    """One ordered step: the top-q direction g of ``batch``, fed to
    ``update(state, g)``."""
    m = len(batch)
    if q > m:
        raise ValueError(f"q={q} exceeds batch size {m}")
    theta = state.theta
    taped = obj.taped_batch(theta, X.take(batch, axis=0), y.take(batch))
    if not np.isfinite(taped.losses).all():
        raise DivergenceError(state.step_count)
    # At q = m every row is kept: no selection, backward reuses the tape.
    g = taped.mean_grad(None if q == m else topq_positions(taped.losses, q))
    g += obj.l2 * theta  # the regularizer's gradient; its value is unused
    update(state, g)
    state.step_count += 1
    return state


# Tracer only, deleted with ROADMAP 1a: the benchmark patches these three.
def minibatch_sgd_step(state, obj, X, y, batch,
                       update=heavy_ball) -> OptimizerState:
    """Baseline step: the ordered step with q equal to the batch size."""
    return osgd_step(state, obj, X, y, batch, len(batch), update=update)


def ordered_adam_step(state, obj, X, y, batch, q) -> OptimizerState:
    """The ordered step through :func:`adam` with its default moments."""
    return osgd_step(state, obj, X, y, batch, q, update=adam)


def adam_step(state, obj, X, y, batch) -> OptimizerState:
    """Baseline Adam step: ordered Adam with q equal to the batch size."""
    return osgd_step(state, obj, X, y, batch, len(batch), update=adam)


def adaptive_q_update(train_acc: float, s: int) -> int:
    """Shrink q by powers of two as training accuracy crosses fixed thresholds.

    q = s below 80% accuracy, then s/2, s/4, s/8 at 80/90/95%, and s/16 at
    99.5%, floored and clamped to at least 1.  Meant to be applied at the
    end of each epoch.
    """
    if s < 1:
        raise ValueError(f"batch size must be at least 1, got {s}")
    if train_acc < 0.80:
        q = s
    elif train_acc < 0.90:
        q = s // 2
    elif train_acc < 0.95:
        q = s // 4
    elif train_acc < 0.995:
        q = s // 8
    else:
        q = s // 16
    return max(q, 1)


@dataclass(frozen=True)
class ScheduleSpec(Section):
    """Learning-rate schedule: step-decay, inverse-sqrt, or constant."""

    _prefix = "opt.schedule."
    kind: str = setting("constant",
                        one_of(("step-decay", "inverse-sqrt", "constant")))
    base_lr: float = setting(0.01, POSITIVE_FINITE)
    decay_epochs: tuple[int, ...] = setting((), NONNEG_ENTRIES)
    decay_factor: float = setting(0.1, (lambda v: 0.0 < v <= 1.0,
                                        "must lie in (0, 1]"))


def schedule_lr(spec: ScheduleSpec, epoch: int, step: int) -> float:
    """Learning rate at the given (epoch, global step) pair."""
    if epoch < 0 or step < 0:
        raise ValueError("epoch and step must be nonnegative")
    if spec.kind == "step-decay":
        passed = sum(1 for e in spec.decay_epochs if epoch >= e)
        return spec.base_lr * spec.decay_factor ** passed
    if spec.kind == "inverse-sqrt":
        return spec.base_lr / np.sqrt(step + 1.0)
    return spec.base_lr
