"""Shared pytest hooks, fixtures and helpers: acceptance criteria print
one summary line each; a synthetic stand-in for the Semeion digits; every
test starts with no stored q = s prefix; the reference oracles and loops
that more than one test file compares against."""
from fractions import Fraction
from functools import partial
from itertools import combinations

import numpy as np
import pytest

from osgd import coeffs, harness
from osgd.config import build_objective
from osgd.data import Dataset
from osgd.objectives import LOSS_KINDS
from osgd.optimizers import adam, heavy_ball, init_state, osgd_step, schedule_lr


@pytest.fixture(autouse=True)
def empty_prefix_store():
    """Each test computes its runs: none resumes from a prefix stored by an
    earlier test, so counting and monkeypatching tests see every step."""
    harness._prefix_store.clear()


ACCEPTANCE_RESULTS = {}

# Settings and second spellings the config no longer takes, as override
# text, each with the whole error message it gets.
REMOVED_SETTINGS = {
    "eval_every = 2": "unknown config keys: ['eval_every']",
    "model.bias = false": "unknown config keys: ['model.bias']",
    "data.stratified = false": "unknown config keys: ['data.stratified']",
    "opt.beta1 = 0.8": "unknown config keys: ['opt.beta1']",
    "opt.beta2 = 0.99": "unknown config keys: ['opt.beta2']",
    "opt.eps = 1e-6": "unknown config keys: ['opt.eps']",
    "opt.lr = 0.5": "unknown config keys: ['opt.lr']",
    "opt.q = fixed:8":
        "opt.q must be an integer or 'adaptive', got 'fixed:8'",
}


def stand_in_digits(seed=0, n=1593):
    """Semeion-shaped stand-in: n x 256 binary pixels, 10 classes."""
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((10, 256))
    X = (rng.random((n, 256)) < 0.3).astype(np.float64)
    y = (X @ W.T + 2.0 * rng.standard_normal((n, 10))).argmax(axis=1)
    return Dataset(features=X, labels=y, n_classes=10)


@pytest.fixture
def gamma_sum_off_by_one(monkeypatch):
    """``coeffs.gamma_weight_numerators`` with N_1 one too large, so that
    sum(gamma) != q, at the identity check's sizes (n >= 12) only: the
    enumeration (n <= 6) and unbiasedness (n = 8) checks keep the true
    weights."""
    numerators = coeffs.gamma_weight_numerators

    def off_by_one(n, s, q):
        nums, den = numerators(n, s, q)
        if n >= 12:
            nums[0] += 1
        return nums, den

    monkeypatch.setattr(coeffs, "gamma_weight_numerators", off_by_one)


def enumerate_rank_frequencies(n, s, q):
    """Test-local oracle: selection frequency of each rank over all s-subsets.

    Ranks are positions 0..n-1; the sample with rank r is treated as having
    the r-th largest loss, ties impossible.  Counts how often each rank is
    among the q largest-loss members of the subset.
    """
    counts = [0] * n
    total = 0
    for subset in combinations(range(n), s):
        total += 1
        for rank in subset[:q]:  # ascending rank = descending loss
            counts[rank] += 1
    return [Fraction(c, total) for c in counts]


def baseline_theta(cfg, ds, seed, kind):
    """Final theta of a loop of the baseline step (``osgd_step`` at q equal
    to the batch length, through heavy-ball for ``"sgd"`` and Adam for
    ``"adam"``) over the batches the runner draws for ``cfg`` at ``seed``
    on the split dataset ``ds``."""
    obj = build_objective(cfg, ds)
    X, y = ds.split("train")
    s = min(cfg.opt.batch_size, len(y))
    rng = np.random.default_rng(seed)
    state = init_state(obj.init_params(rng), s, cfg.opt.schedule.base_lr)
    update = (partial(heavy_ball, momentum=cfg.opt.momentum) if kind == "sgd"
              else adam)
    for epoch in range(cfg.epochs):
        for batch in harness._epoch_batches(rng, len(y), s, cfg.opt.batching):
            state.lr_current = schedule_lr(cfg.opt.schedule, epoch,
                                           state.step_count)
            osgd_step(state, obj, X, y, batch, len(batch), update=update)
    return state.theta


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
    """Every valid (model kind, activation, loss, output width) combination."""
    combos = []
    for loss in LOSS_KINDS:
        d_out = 1 if loss == "binary-cross-entropy" else 3
        combos.append(("linear", "tanh", loss, d_out))
        for act in ("relu", "tanh", "sigmoid"):
            combos.append(("mlp", act, loss, d_out))
    return combos


def record_acceptance(number, status, detail=""):
    ACCEPTANCE_RESULTS[number] = (status, detail)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        status, detail = ACCEPTANCE_RESULTS[number]
        line = f"[ACCEPTANCE {number:>2}] {status}"
        if detail:
            line += f" - {detail}"
        terminalreporter.write_line(line)
