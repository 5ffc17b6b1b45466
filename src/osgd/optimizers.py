"""Top-q minibatch optimizers, learning-rate schedules, and the adaptive q rule.

Each step computes the per-sample losses of the drawn batch, keeps the q
largest-loss members (ties toward the smaller index), and applies the
average gradient of the kept members plus the regularizer gradient.  With
q equal to the batch size this is exactly minibatch SGD / Adam: the
baseline step functions delegate to the ordered ones, and the runner runs
the baselines as the ordered step at q = s, so the q = s trajectories are
bit-identical by construction.

A step forwards the batch once.  When q equals the batch length, backward
reuses that forward's tape.  When q is smaller, the kept rows get a fresh
forward of their own: a BLAS matmul over q rows may use other kernels than
one over the whole batch, so slicing the batch forward would change the
last bits of the trajectory (see :class:`osgd.objectives.TapedBatch`).
At q = s there is no selection: every row is kept.

What a run never changes is set up once.  The model resolves its layer
blocks and activation when it is built and keeps the layer views of the
last theta array it saw; the state's theta is only updated in place, so
those views serve every step of a run.  The runner checks its train
labels once per run and hands the steps that read-only copy
(``Objective._checked_labels``); any other label array is checked per
batch, once (not again for the kept rows).  The runner also silences
numpy's overflow warnings once around its epoch loop, so a direct step
call whose loss overflows may warn before it raises
:class:`DivergenceError`.  A step adds ``l2 * theta`` as the
regularizer's gradient without computing its value, and stores
``last_grad_norm`` as ``sqrt(g @ g)``, bitwise ``np.linalg.norm(g)``.

The unbiasedness property (the expected update equals a subgradient of
the rank-weighted loss) concerns the plain update rule.  The momentum and
Adam variants reuse the same top-q direction as empirical extensions and
carry no analogous guarantee.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    last_grad_norm: float = field(default=float("nan"))


def init_state(theta, q, lr) -> OptimizerState:
    if q < 1:
        raise ValueError(f"q must be at least 1, got {q}")
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    return OptimizerState(theta=np.array(theta, dtype=np.float64),
                          q_current=int(q), lr_current=float(lr))


def _topq_update_direction(state, obj, X, y, batch, q):
    batch = np.asarray(batch)
    m = batch.shape[0]
    if q > m:
        raise ValueError(f"q={q} exceeds batch size {m}")
    theta = state.theta
    taped = obj.taped_batch(theta, X[batch], y[batch])
    if not np.isfinite(taped.losses).all():
        raise DivergenceError(state.step_count)
    if q == m:  # every row is kept: no selection, backward reuses the tape
        g = taped.mean_grad()
    else:
        g = taped.mean_grad(topq_positions(taped.losses, q))
    return g + obj.l2 * theta  # the regularizer's gradient; its value is unused


def osgd_step(state, obj, X, y, batch, q, momentum=0.0) -> OptimizerState:
    """One ordered-SGD update: theta <- theta - lr * g (heavy-ball if momentum > 0)."""
    g = _topq_update_direction(state, obj, X, y, batch, q)
    state.last_grad_norm = math.sqrt(g @ g)  # = np.linalg.norm(g)
    if momentum > 0.0:
        if state.momentum_buf is None:
            state.momentum_buf = np.zeros_like(state.theta)
        state.momentum_buf *= momentum
        state.momentum_buf += g
        state.theta -= state.lr_current * state.momentum_buf
    else:
        state.theta -= state.lr_current * g
    state.step_count += 1
    return state


def minibatch_sgd_step(state, obj, X, y, batch, momentum=0.0) -> OptimizerState:
    """Baseline SGD step: ordered step with q equal to the batch size."""
    return osgd_step(state, obj, X, y, batch, q=len(batch), momentum=momentum)


def ordered_adam_step(state, obj, X, y, batch, q,
                      beta1=0.9, beta2=0.999, eps=1e-8) -> OptimizerState:
    """One ordered-Adam update: top-q direction fed through standard Adam moments."""
    g = _topq_update_direction(state, obj, X, y, batch, q)
    state.last_grad_norm = math.sqrt(g @ g)  # = np.linalg.norm(g)
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
    state.step_count = t
    return state


def adam_step(state, obj, X, y, batch,
              beta1=0.9, beta2=0.999, eps=1e-8) -> OptimizerState:
    """Baseline Adam step: ordered Adam with q equal to the batch size."""
    return ordered_adam_step(state, obj, X, y, batch, q=len(batch),
                             beta1=beta1, beta2=beta2, eps=eps)


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
