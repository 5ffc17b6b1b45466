"""scipy.special is imported only by the paths that use it, a bare
``import osgd`` exposes the listed public names, the library's products
are written ``.dot``, never ``@``, batches are forwarded on one path, one
loop runs a config's seeds, and only ``run_single`` touches the store of
q = s prefixes (the q = s self-check may empty it).

Each case runs in a fresh interpreter, since a module once imported stays
in ``sys.modules``.  Runs without binary cross-entropy, a sigmoid or the
float gamma path never import it; the ones that need it import it when
they are built or called, before any step.
"""
import ast
import glob
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


# The package's public names after a bare ``import osgd``.  The list is
# the checked record of their number: a change that adds or removes a
# public name edits it.
PUBLIC_NAMES = [
    "ConvergenceError", "DataConfig", "Dataset", "DivergenceError",
    "ExperimentResult", "FeedforwardModel", "FormatError", "GammaCurve",
    "GammaWeights", "ModelConfig", "MoreauConfig", "Objective",
    "OptConfig", "OptimizerState", "ResourceError", "RunConfig",
    "RunRecord", "RunResult", "ScheduleSpec", "adam_step",
    "adaptive_q_update", "analysis", "beta_cdf", "build_dataset",
    "build_objective", "coeffs", "concentration_term", "config", "data",
    "expected_step_bruteforce", "gamma_asymptotic", "gamma_rescaled_curve",
    "gamma_weights", "gamma_weights_float", "gen_clusters_2d",
    "gen_rings_2d", "harness", "init_state", "load_cache", "load_config",
    "load_idx", "load_semeion", "loss_profile", "lq_subgradient",
    "make_model", "minibatch_sgd_step", "moreau_grad_norm", "objectives",
    "optimality_gap", "optimizers", "ordered_adam_step",
    "ordered_empirical_loss", "ordered_loss", "osgd_step", "q_argmax",
    "rank_by_loss", "rank_selection_counts", "reference_optimum",
    "relative_improvement", "run_experiment", "run_single",
    "run_verification_suite", "sample_minibatch", "save_cache",
    "schedule_lr", "selection", "split_dataset", "sweep_q",
    "zero_one_error",
]


def test_public_names_are_the_listed_ones():
    script = (f"import sys\nsys.path.insert(0, {SRC!r})\nimport osgd\n"
              f"print(*(n for n in dir(osgd) if not n.startswith('_')))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert sorted(proc.stdout.split()) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 69


def trees_in(directory):
    """(file name, parsed module) for every .py file of ``directory``."""
    for path in sorted(glob.glob(os.path.join(directory, "*.py"))):
        with open(path) as fh:
            yield os.path.basename(path), ast.parse(fh.read(), filename=path)


def library_trees():
    return trees_in(os.path.join(SRC, "osgd"))


def test_library_products_are_written_dot():
    found = []
    for name, tree in library_trees():
        found += [f"{name}:{node.lineno}"
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.MatMult)]  # a @ b, a @= b
    assert not found, (
        f"`@` at {', '.join(found)}: `.dot` is the library's one product "
        f"form (same BLAS call, less dispatch than the matmul gufunc)")


def nodes_by_scope(node, scope=()):
    """(names of the enclosing classes and functions, node) for every node
    under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)):
            yield from nodes_by_scope(child, scope + (child.name,))
            continue
        yield scope, child
        yield from nodes_by_scope(child, scope)


def calls_by_scope(node):
    """(names of the enclosing classes and functions, call) for every call
    under ``node``."""
    for scope, child in nodes_by_scope(node):
        if isinstance(child, ast.Call):
            yield scope, child


LOSS_PIECE_FUNCTIONS = {"_loss_pieces", "_losses_from_pieces", "_logit_grads"}


def test_batches_are_forwarded_on_one_path():
    found = []
    for name, tree in library_trees():
        for scope, call in calls_by_scope(tree):
            func, where = call.func, (name, *scope)
            if (isinstance(func, ast.Name) and func.id in LOSS_PIECE_FUNCTIONS
                    and where[:2] != ("objectives.py", "TapedBatch")):
                found.append(f"{name}:{call.lineno} calls {func.id}")
            if (isinstance(func, ast.Attribute) and func.attr == "forward"
                    and where[:2] != ("objectives.py", "TapedBatch")
                    and where != ("objectives.py", "FeedforwardModel",
                                  "logits")):
                found.append(f"{name}:{call.lineno} calls .forward(")
    assert not found, (
        f"{', '.join(found)}: one forward path: only TapedBatch forms the "
        f"loss pieces, and only TapedBatch and FeedforwardModel.logits call "
        f".forward(")


def test_one_seed_loop_and_one_split_rule():
    found = []
    scripts = trees_in(os.path.join(os.path.dirname(SRC), "scripts"))
    for name, tree in [*library_trees(), *scripts]:
        for scope, node in nodes_by_scope(tree):
            where = (name, *scope)
            if (isinstance(node, (ast.For, ast.comprehension))
                    and isinstance(node.iter, ast.Attribute)
                    and node.iter.attr == "seeds"
                    and where != ("harness.py", "run_experiment")):
                found.append(f"{name}:{node.iter.lineno} iterates .seeds")
            if (isinstance(node, ast.Call)
                    and "split_dataset" in (getattr(node.func, "id", None),
                                            getattr(node.func, "attr", None))
                    and where != ("config.py", "DataConfig", "split")):
                found.append(f"{name}:{node.lineno} calls split_dataset")
    assert not found, (
        f"{', '.join(found)}: one seed loop and one split rule: only "
        f"harness.run_experiment iterates a config's seeds, and only "
        f"DataConfig.split calls split_dataset")


def test_only_run_single_reads_or_writes_the_prefix_store():
    found = []
    scripts = trees_in(os.path.join(os.path.dirname(SRC), "scripts"))
    for name, tree in [*library_trees(), *scripts]:
        for scope, node in nodes_by_scope(tree):
            where = (name, *scope)
            if "_prefix_store" not in (getattr(node, "id", None),
                                       getattr(node, "attr", None)):
                continue
            defined = (where == ("harness.py",)
                       and isinstance(node.ctx, ast.Store))
            if not defined and where[:2] not in (
                    ("harness.py", "run_single"),
                    ("harness.py", "_check_qs_equivalence")):
                found.append(f"{name}:{node.lineno}")
    assert not found, (
        f"_prefix_store at {', '.join(found)}: only harness.run_single reads "
        f"or writes the store of q = s prefixes, and the q = s self-check "
        f"empties it")
