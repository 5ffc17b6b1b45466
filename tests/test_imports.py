"""scipy.special is imported only by the paths that use it, a bare
``import osgd`` exposes the listed public names, the library's products
are written ``.dot``, never ``@`` (``np.matmul`` only for a stack of
parameter vectors, in ``FeedforwardModel``), batches are forwarded on one
path (only ``TapedBatch`` reads the loss table), one loop runs a config's
seeds, only ``osgd.data`` reads a dataset's split indices, only
``run_single`` touches the store of q = s prefixes (the q = s self-check
may empty it), the enumeration oracle names nothing from
``osgd.coeffs``, one ``argsort`` ranks every selection, with
``q_argmax`` running ``topq_positions``, no module imports a private
name of a sibling, the names kept only for the benchmark's tracer are
its targets, stubs that raise and called by nothing, one function writes
every CSV file, one function writes the size rule ``1 <= q <= s <= n``,
and only ``osgd.coeffs`` forms the rationals of gamma.

Each case runs in a fresh interpreter, since a module once imported stays
in ``sys.modules``.  Runs without binary cross-entropy, a sigmoid hidden
layer or the float gamma path never import it; the ones that need it
import it when they are built or called, before any step.
"""
import ast
import glob
import importlib.util
import os
import re
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
    ONE_EPOCH_RUN.format(model='kind="linear", activation="sigmoid"',
                         loss="squared"),
    ONE_EPOCH_RUN.format(model='kind="mlp", hidden=(4,), activation="relu"',
                         loss="squared"),
    "from osgd.coeffs import gamma_weights\ngamma_weights(200, 64, 8)",
    "from osgd.coeffs import gamma_vector\ngamma_vector(10_000, 64, 8)",
    "from osgd import cli\ntry:\n    cli.main(['--help'])\n"
    "except SystemExit:\n    pass",
    "from osgd import cli\nassert cli.main(['verify', 'unbiasedness', "
    "'--n', '200000', '--s', '2', '--q', '1']) == 2",
], ids=["import", "linear-multinomial", "linear-hinge",
        "linear-sigmoid-squared", "relu-mlp-squared",
        "gamma-weights", "gamma-vector-exact", "cli-help",
        "unbiasedness-past-the-cap"])
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


def test_unknown_special_name_is_an_attribute_error():
    from osgd import _special
    with pytest.raises(AttributeError, match=r"^module 'osgd._special' has "
                                             r"no attribute 'erf'$"):
        _special.erf


# The package's public names after a bare ``import osgd``.  The list is
# the checked record of their number: a change that adds or removes a
# public name edits it.
PUBLIC_NAMES = [
    "ConvergenceError", "DataConfig", "Dataset", "DivergenceError",
    "ExperimentResult", "FeedforwardModel", "FormatError", "GammaCurve",
    "GammaWeights", "ModelConfig", "Objective",
    "OptConfig", "OptimizerState", "ResourceError", "RunConfig",
    "RunRecord", "RunResult", "ScheduleSpec",
    "adaptive_q_update", "analysis", "beta_cdf", "build_dataset",
    "build_objective", "coeffs", "concentration_term", "config", "data",
    "expected_step_bruteforce", "gamma_asymptotic", "gamma_rescaled_curve",
    "gamma_weights", "gamma_weights_float", "gen_clusters_2d",
    "gen_rings_2d", "harness", "init_state", "load_config",
    "load_idx", "load_semeion", "lq_subgradient",
    "moreau_grad_norm", "objectives",
    "optimality_gap", "optimizers",
    "ordered_empirical_loss", "ordered_loss", "osgd_step", "q_argmax",
    "rank_by_loss", "rank_selection_counts", "reference_optimum",
    "relative_improvement", "run_experiment", "run_single",
    "run_verification_suite", "sample_minibatch",
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
    assert len(PUBLIC_NAMES) == 61


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
        for scope, node in nodes_by_scope(tree):
            if (isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.MatMult)):  # a @ b, a @= b
                found.append(f"`@` at {name}:{node.lineno}")
            form = getattr(node, "attr", getattr(node, "id", None))
            if form == "einsum" or (form == "matmul" and (name, *scope)[:2]
                                    != ("objectives.py", "FeedforwardModel")):
                found.append(f"{form} at {name}:{node.lineno}")
    assert not found, (
        f"{', '.join(found)}: a product is `.dot` for one theta (same BLAS "
        f"call, less dispatch than the matmul gufunc) and `np.matmul` for a "
        f"stack of them, only in objectives.FeedforwardModel, where theta's "
        f"rank picks the form; `np.einsum` may sum in another order")


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


def loss_table(objectives):
    """The names of the per-kind functions in ``objectives._LOSSES``, and
    the ids of the nodes of the module-level statements that define the
    table and ``LOSS_KINDS``, which read it."""
    names, defining = set(), set()
    for node in objectives.body:
        targets = [getattr(t, "id", None) for t in
                   getattr(node, "targets", ())]
        if targets == ["_LOSSES"]:
            names = {value.id for value in node.value.values}
        if targets in (["_LOSSES"], ["LOSS_KINDS"]):
            defining.update(map(id, ast.walk(node)))
    return names, defining


def test_batches_are_forwarded_on_one_path():
    trees = dict(library_trees())
    table, defining = loss_table(trees["objectives.py"])
    assert len(table) == 4
    found = []
    for name, tree in trees.items():
        for scope, node in nodes_by_scope(tree):
            where = (name, *scope)
            read = getattr(node, "id", None) or getattr(node, "attr", None)
            if id(node) in defining:
                continue
            if read in table or (read == "_LOSSES" and where[:2] != (
                    "objectives.py", "TapedBatch")):
                found.append(f"{name}:{node.lineno} reads {read}")
            func = getattr(node, "func", None)
            if (isinstance(func, ast.Attribute) and func.attr == "forward"
                    and where[:2] != ("objectives.py", "TapedBatch")
                    and where != ("objectives.py", "FeedforwardModel",
                                  "logits")):
                found.append(f"{name}:{node.lineno} calls .forward(")
    assert not found, (
        f"{', '.join(found)}: one forward path: only TapedBatch reads the "
        f"loss table _LOSSES (besides LOSS_KINDS, its keys), no code calls "
        f"a table function by name, and only TapedBatch and "
        f"FeedforwardModel.logits call .forward(")


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


def test_only_data_reads_dataset_splits():
    scripts = trees_in(os.path.join(os.path.dirname(SRC), "scripts"))
    found = [f"{name}:{node.lineno}"
             for name, tree in [*library_trees(), *scripts]
             if name != "data.py" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "splits"]
    assert not found, (
        f".splits read at {', '.join(found)}: only osgd.data reads a "
        f"dataset's split indices; the rest read rows through "
        f"Dataset.split, which also holds the rule for data without splits")


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


ENUMERATION_ORACLE = {"rank_selection_counts", "_subset_blocks", "_lex_subsets"}


def coeffs_names(trees):
    """The names ``osgd.coeffs`` defines at module level, the module's own
    name, and the names ``ordered_loss`` imports from it."""
    names = {"coeffs"}
    for node in trees["coeffs.py"].body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    for node in ast.walk(trees["ordered_loss.py"]):
        if isinstance(node, ast.ImportFrom) and node.module == "coeffs":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_enumeration_oracle_never_reads_the_gamma_formula():
    trees = dict(library_trees())
    ordered_loss, names = trees["ordered_loss.py"], coeffs_names(trees)
    defined = {node.name for node in ordered_loss.body
               if isinstance(node, ast.FunctionDef)}
    assert ENUMERATION_ORACLE <= defined
    found = []
    for scope, node in nodes_by_scope(ordered_loss):
        if not scope or scope[0] not in ENUMERATION_ORACLE:
            continue
        read = {getattr(node, "id", None), getattr(node, "attr", None),
                getattr(node, "asname", None)}
        for dotted in (getattr(node, "module", None),
                       getattr(node, "name", None)):
            if isinstance(dotted, str):  # import paths: osgd.coeffs
                read.update(dotted.split("."))
        found += [f"{scope[0]} names {name} at line {node.lineno}"
                  for name in sorted(read & names)]
    assert not found, (
        f"{', '.join(found)}: the enumeration counts selections by brute "
        f"force and is the oracle for the gamma formula, so it reads "
        f"nothing from osgd.coeffs")


def test_one_argsort_ranks_every_selection():
    selection = dict(library_trees())["selection.py"]
    sorts = [(scope, call.lineno) for scope, call in calls_by_scope(selection)
             if "argsort" in (getattr(call.func, "id", None),
                              getattr(call.func, "attr", None))]
    assert [scope for scope, _ in sorts] == [("_rank_order",)], (
        f"argsort calls at {sorts}: the one rank order (values descending, "
        f"ties toward the smaller position) is selection._rank_order's "
        f"argsort, and every selection and ranking reads it")
    q_argmax = next(node for node in selection.body
                    if isinstance(node, ast.FunctionDef)
                    and node.name == "q_argmax")
    assert any(isinstance(node, ast.Name) and node.id == "topq_positions"
               for node in ast.walk(q_argmax)), (
        "q_argmax must select with topq_positions, the step's own "
        "selection, so the checks that call it certify what trains")


PRIVATE_MODULES = {"_settings", "_special"}  # the package's private helpers


def test_no_module_imports_a_private_name_of_a_sibling():
    found = []
    for name, tree in library_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0:  # absolute: only osgd's own modules count
                if module != "osgd" and not module.startswith("osgd."):
                    continue
                module = module[len("osgd."):]
            if module in PRIVATE_MODULES:
                continue
            found += [f"{name}:{node.lineno} imports {alias.name}"
                      + (f" from {module}" if module else "")
                      for alias in node.names
                      if alias.name.startswith("_")
                      and alias.name not in PRIVATE_MODULES]
    assert not found, (
        f"{', '.join(found)}: an underscore name is private to its module; "
        f"a sibling reads a public name (only the private modules "
        f"{sorted(PRIVATE_MODULES)} are shared whole)")


# Kept only because the benchmark's tracer patches them by name, each a
# stub that raises: name -> (its module, the stub's message).  Also kept:
# ordered_loss's import of q_argmax and config's import of load_cache.
STEP_STUB = "every step is osgd_step"
CACHE_STUB = "osgd has no binary dataset cache"
TRACER_ONLY = {
    "minibatch_sgd_step": ("optimizers", STEP_STUB),
    "ordered_adam_step": ("optimizers", STEP_STUB),
    "adam_step": ("optimizers", STEP_STUB),
    "loss_profile": ("ordered_loss",
                     "Objective.per_example_losses, Objective.regularizer"),
    "save_cache": ("data", CACHE_STUB),
    "load_cache": ("data", CACHE_STUB),
}
TRACER_IMPORTS = {("config.py", "load_cache")}  # (importer, name) kept


def tracer_targets():
    """(owner's ``__name__``, attribute) for each target that
    ``bench/tracing.py::trace_targets`` lists, read from the file as it is."""
    path = os.path.join(os.path.dirname(SRC), "bench", "tracing.py")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {(owner.__name__, attr)
            for owner, attr, _ in tracing.trace_targets()}


@pytest.mark.parametrize("name", sorted(TRACER_ONLY))
def test_tracer_only_name_is_a_traced_stub_that_raises(name):
    module, message = TRACER_ONLY[name]
    assert (f"osgd.{module}", name) in tracer_targets(), (
        f"{module}.{name} is no longer a tracer target: drop it from "
        f"TRACER_ONLY, and from osgd.{module} with ROADMAP 1a")
    stub = getattr(importlib.import_module(f"osgd.{module}"), name)
    with pytest.raises(NotImplementedError, match=f"^{re.escape(message)}$"):
        stub()


def test_no_module_calls_a_tracer_only_name():
    found = []
    scripts = trees_in(os.path.join(os.path.dirname(SRC), "scripts"))
    for name, tree in [*library_trees(), *scripts]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                found += [f"{name}:{node.lineno} imports {alias.name}"
                          for alias in node.names
                          if (alias.name in TRACER_ONLY
                              and (name, alias.name) not in TRACER_IMPORTS)
                          or (alias.name == "q_argmax"
                              and (node.module or "").endswith("ordered_loss"))]
            if isinstance(node, ast.Attribute) and (
                    node.attr in TRACER_ONLY
                    or (node.attr == "q_argmax"
                        and getattr(node.value, "id", None) == "ordered_loss")):
                found.append(f"{name}:{node.lineno} reads .{node.attr}")
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and (node.func.id in TRACER_ONLY
                         or (node.func.id == "q_argmax"
                             and name == "ordered_loss.py"))):
                found.append(f"{name}:{node.lineno} calls {node.func.id}")
    assert not found, (
        f"{', '.join(found)}: {sorted(TRACER_ONLY)}, ordered_loss's "
        f"q_argmax import and config's load_cache import stay only for the "
        f"benchmark's tracer; the package and the scripts step with "
        f"osgd_step, select with selection.q_argmax and read no cache")


def test_only_write_csv_makes_a_csv_writer():
    found = []
    scripts = trees_in(os.path.join(os.path.dirname(SRC), "scripts"))
    for name, tree in [*library_trees(), *scripts]:
        for scope, call in calls_by_scope(tree):
            func = call.func
            made = (getattr(func, "attr", None) if isinstance(
                func, ast.Attribute) and getattr(func.value, "id", None)
                == "csv" else getattr(func, "id", None))
            if made in ("writer", "DictWriter") and (name, *scope) != (
                    "harness.py", "write_csv"):
                found.append(f"{name}:{call.lineno} in "
                             f"{'.'.join(scope) or 'module'}")
    assert not found, (
        f"csv writers at {', '.join(found)}: every CSV file of the package "
        f"and the scripts is written by harness.write_csv")


def test_only_coeffs_forms_gamma_rationals():
    found = []
    for name, tree in library_trees():
        if name == "coeffs.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [f"{name}:{node.lineno} imports {alias.name}"
                          for alias in node.names if alias.name == "fractions"]
            elif isinstance(node, ast.ImportFrom) and (
                    node.module == "fractions"
                    or any(alias.name == "gcd" for alias in node.names)):
                found.append(f"{name}:{node.lineno} imports from "
                             f"{node.module}")
            elif isinstance(node, ast.Call) and "gcd" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                found.append(f"{name}:{node.lineno} calls gcd")
    assert not found, (
        f"{', '.join(found)}: osgd.coeffs chooses how gamma is computed and "
        f"is the one module that forms its rationals; a caller reads "
        f"gamma_weights(...).exact")


def is_size_chain(node):
    """Whether ``node`` is the comparison ``1 <= q <= s <= n``."""
    return (isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Constant) and node.left.value == 1
            and all(isinstance(op, ast.LtE) for op in node.ops)
            and [getattr(c, "id", None) for c in node.comparators]
            == ["q", "s", "n"])


def test_one_size_check():
    found = [(name, *scope) for name, tree in library_trees()
             for scope, node in nodes_by_scope(tree) if is_size_chain(node)]
    assert found == [("_settings.py", "check_sizes")], (
        f"1 <= q <= s <= n in {found}: every oracle checks its sizes with "
        f"_settings.check_sizes, the one place that writes the rule")
