"""Shared pytest hooks and fixtures: acceptance criteria print one summary
line each; a synthetic stand-in for the Semeion digits; every test starts
with no stored q = s prefix."""
import numpy as np
import pytest

from osgd import harness
from osgd.data import Dataset


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
