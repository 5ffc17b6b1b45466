"""scipy.special is imported only by the paths that use it.

Each case runs in a fresh interpreter, since a module once imported stays
in ``sys.modules``.  Runs without binary cross-entropy, a sigmoid or the
float gamma path never import it; the ones that need it import it when
they are built or called, before any step.
"""
import os
import subprocess
import sys

import pytest

import osgd

SRC = os.path.dirname(os.path.dirname(os.path.abspath(osgd.__file__)))

ONE_EPOCH_RUN = """
from osgd.config import DataConfig, ModelConfig, RunConfig
from osgd.harness import run_experiment
cfg = RunConfig(data=DataConfig(kind="rings"), model=ModelConfig({model}),
                loss_kind={loss!r}, epochs=1)
assert not run_experiment(cfg).runs[0].failed
"""


def loads_scipy_special(code):
    """Whether running ``code`` in a fresh interpreter imports scipy.special."""
    script = (f"import sys\nsys.path.insert(0, {SRC!r})\n{code}\n"
              f"print('scipy.special' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()[-1] == "True"


@pytest.mark.parametrize("code", [
    "import osgd",
    ONE_EPOCH_RUN.format(model='kind="linear"',
                         loss="multinomial-cross-entropy"),
    ONE_EPOCH_RUN.format(model='kind="linear"', loss="multiclass-hinge"),
    ONE_EPOCH_RUN.format(model='kind="mlp", hidden=(4,), activation="relu"',
                         loss="squared"),
    "from osgd.coeffs import gamma_weights\ngamma_weights(200, 64, 8)",
    "from osgd.coeffs import gamma_vector\ngamma_vector(10_000, 64, 8)",
    "from osgd import cli\ntry:\n    cli.main(['--help'])\n"
    "except SystemExit:\n    pass",
], ids=["import", "linear-multinomial", "linear-hinge", "relu-mlp-squared",
        "gamma-weights", "gamma-vector-exact", "cli-help"])
def test_paths_without_scipy_never_import_it(code):
    assert not loads_scipy_special(code)


@pytest.mark.parametrize("code", [
    "from osgd.objectives import FeedforwardModel, Objective\n"
    "Objective(FeedforwardModel(2, 1), 'binary-cross-entropy')",
    "from osgd.objectives import FeedforwardModel\n"
    "FeedforwardModel(2, 1, hidden=(4,), activation='sigmoid')",
    "from osgd.coeffs import gamma_weights_float\n"
    "gamma_weights_float(50, 10, 3)",
], ids=["bce-objective", "sigmoid-model", "gamma-weights-float"])
def test_paths_with_scipy_import_it_when_built_or_called(code):
    assert loads_scipy_special(code)
