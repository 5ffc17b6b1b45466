"""Experiment runner: seeded multi-run sweeps, per-epoch metrics, summaries.

Each seed owns one random generator (numpy PCG64 seeded with the run
seed) consumed in a fixed order: parameter init first, then batch
construction step by step.  Re-running a config with the same seed list
therefore reproduces every metric bit-identically; only the wall-time
column varies.

Runs that share the seed, the data and every setting but the q rule and
the names (``opt.kind`` counting only as its update rule, heavy-ball or
Adam) share their q = s prefix: until train accuracy would take adaptive
q below s (80% for s >= 2), every run that starts at q = s takes the
q = s step on the same batches.  The prefix ends at the end of the first
epoch with such an accuracy.  The first such run of a process stores a
snapshot there (optimizer state, generator state, records, that epoch's
train accuracy); a later one restores it and trains on with its own q
rule, bit-identically to a fresh run.  A run whose prefix lasts to its
last epoch stores nothing, so a resumed run computes at least one
epoch, and a run at a fixed q below s neither reads nor stores one.
"""
from __future__ import annotations

import copy
import csv
import hashlib
import time
from dataclasses import dataclass, fields, replace
from functools import lru_cache, partial
from typing import get_type_hints

import numpy as np

from . import analysis, coeffs, objectives, optimizers, ordered_loss, selection
from .config import (BASELINE_KINDS, DataConfig, ModelConfig, OptConfig,
                     RunConfig, build_dataset, build_objective)
from .data import Dataset, gen_clusters_2d
from .optimizers import DivergenceError, adaptive_q_update, schedule_lr

SUMMARY_COLUMNS = ("config_id", "mean_test_err", "std_test_err",
                   "rel_improvement_pct")


@dataclass(frozen=True)
class RunRecord:
    """One per-epoch metrics row; train_acc is a fraction in [0, 1].

    ``q`` and ``lr`` are the values in effect during the epoch (lr from
    its final step); losses and errors are measured at the epoch's end.

    With shuffle batching an epoch ends on a partial batch of n mod s rows
    when s does not divide the n train rows (40 on the rings data at
    s = 64, 8 on the clusters data), and that step keeps min(q, rows) of
    them.  ``train_ordered_loss`` is L_q with the gamma weights of the
    configured s = min(opt.batch_size, n), so it describes the full-size
    batches, not the partial one.

    A record of a q = s prefix restored from another run (see the module
    docstring) keeps the ``epoch_seconds`` it was first measured with.
    """

    seed: int
    epoch: int
    step: int
    q: int
    lr: float
    train_avg_loss: float
    train_ordered_loss: float
    train_acc: float
    test_error_pct: float
    epoch_seconds: float


RECORD_COLUMNS = tuple(f.name for f in fields(RunRecord))


@dataclass
class RunResult:
    seed: int
    records: list
    failed: bool = False
    error: str = ""
    final_theta: np.ndarray | None = None
    reused_epochs: int = 0  # leading epochs restored from a stored prefix

    @property
    def final_test_error(self):
        return self.records[-1].test_error_pct if self.records else float("nan")


@dataclass
class ExperimentResult:
    config: RunConfig
    runs: list

    @property
    def records(self):
        return [rec for run in self.runs for rec in run.records]

    def summary(self):
        """Mean/std of final test errors over completed seeds.

        Standard deviation is the sample standard deviation (ddof=1), 0.0
        for a single completed seed and nan for none.
        """
        finals = [run.final_test_error for run in self.runs if not run.failed]
        mean = float(np.mean(finals)) if finals else float("nan")
        std = (float(np.std(finals, ddof=1)) if len(finals) > 1
               else 0.0 if finals else float("nan"))
        return {
            "config_id": self.config.name,
            "mean_test_err": mean,
            "std_test_err": std,
            "final_test_errors": finals,
            "failed_seeds": [run.seed for run in self.runs if run.failed],
        }


# Snapshots of q = s prefixes, keyed by _prefix_key; read and written by
# run_single only (the q = s self-check empties it), oldest dropped first
# past _PREFIX_STORE_SIZE entries.
_PREFIX_STORE_SIZE = 64
_prefix_store = {}


@lru_cache(maxsize=64)
def _gamma_approx(n, s, q):
    # Only the float vector is cached, not the n rationals.
    return coeffs.GammaWeights(n=n, s=s, q=q, exact=None,
                               approx=coeffs.gamma_vector(n, s, q))


def _epoch_batches(rng, n, s, mode):
    if mode == "shuffle":
        perm = rng.permutation(n)
        # chunks sorted ascending so the tie rule sees original index order:
        # the n // s full chunks in one call, the n mod s tail on its own
        k = n // s
        batches = list(np.sort(perm[:k * s].reshape(k, s), axis=1))
        if n % s:
            batches.append(np.sort(perm[k * s:]))
        return batches
    # iid: fresh uniform s-subset per step, floor(n/s) steps per epoch
    return [selection.sample_minibatch(rng, n, s) for _ in range(max(1, n // s))]


def _evaluate_epoch(obj, state, Xtr, ytr, Xte, yte, s):
    """Epoch-end metrics from one forward over the train set, plus one over
    the test set unless ``Xte`` is None.

    ``Xte`` None means the test split holds the train split's rows; the
    test error is then the train error, from the same predictions.
    """
    losses, train_preds = obj.losses_and_predictions(state.theta, Xtr, ytr)
    reg_value, _ = obj.regularizer(state.theta)
    if not (np.isfinite(losses).all() and np.isfinite(reg_value)):
        raise DivergenceError(state.step_count,
                              "non-finite training objective in evaluation")
    avg = float(losses.mean()) + reg_value
    ordered = ordered_loss.ordered_empirical_loss(
        losses, reg_value, _gamma_approx(Xtr.shape[0], s, state.q_current))
    train_err = analysis.error_pct(train_preds, ytr)
    test_err = (train_err if Xte is None
                else analysis.zero_one_error(obj, state.theta, Xte, yte))
    return avg, ordered, 1.0 - train_err / 100.0, test_err


def _prefix_key(cfg, family, seed, n_classes, arrays):
    """What fixes a run's q = s prefix: every setting but the names, the
    seed list and the q rule (``opt.kind`` only as its update ``family``),
    the run seed, the class count, and a sha256 over the dtype, shape and
    bytes of ``arrays`` (a None entry stands for the train rows)."""
    settings = replace(cfg, name="", outdir="", seeds=(0,),
                       opt=replace(cfg.opt, kind=family, q="adaptive"))
    digest = hashlib.sha256()
    for arr in arrays:
        if arr is None:
            digest.update(b"train rows")
            continue
        arr = np.ascontiguousarray(arr)
        digest.update(f"{arr.dtype.str}{arr.shape}".encode())
        digest.update(memoryview(arr))
    return settings, seed, n_classes, digest.hexdigest()


def run_single(cfg: RunConfig, dataset: Dataset, seed: int) -> RunResult:
    """Train one seed of the configured experiment and log per-epoch rows.

    The train labels are checked once, the update rule is bound once from
    ``cfg.opt``, and numpy's overflow warnings are silenced once around the
    epoch loop, where a non-finite loss raises :class:`DivergenceError`
    instead.  A dataset without splits trains and tests on every row.

    A run that starts at q = s either resumes from the stored snapshot of
    its q = s prefix (see the module docstring) or stores one, at the end
    of the first epoch before its last whose train accuracy would take
    the adaptive rule below s.
    """
    dataset = dataset.with_default_splits()
    obj = build_objective(cfg, dataset)
    Xtr, ytr = dataset.split("train")
    ytr = obj._checked_labels(ytr)
    # a test split on the train rows (test_fraction = 0) is not forwarded
    # again: evaluation reuses the train predictions
    if np.array_equal(dataset.splits["train"], dataset.splits["test"]):
        Xte = yte = None
    else:
        Xte, yte = dataset.split("test")
    n_tr = Xtr.shape[0]
    opt = cfg.opt
    s = min(opt.batch_size, n_tr)
    adaptive = opt.q == "adaptive" and opt.kind not in BASELINE_KINDS
    if opt.kind in ("osgd", "sgd"):
        family = "sgd"
        update = partial(optimizers.heavy_ball, momentum=opt.momentum)
    else:
        family = "adam"
        update = optimizers.adam

    rng = np.random.default_rng(seed)
    key = (_prefix_key(cfg, family, seed, dataset.n_classes,
                       (Xtr, ytr, Xte, yte))
           if opt.initial_q(s) == s else None)
    snapshot = _prefix_store.get(key)
    if snapshot is None:
        start, records = 0, []
        state = optimizers.init_state(obj.init_params(rng), opt.initial_q(s),
                                      opt.schedule.base_lr)
    else:
        start, state, rng_state, records, train_acc = copy.deepcopy(snapshot)
        rng.bit_generator.state = rng_state
        if adaptive:
            state.q_current = adaptive_q_update(train_acc, s)
        key = None  # the prefix is stored already

    def epoch_end(epoch, elapsed):
        avg, ordered, train_acc, test_err = _evaluate_epoch(
            obj, state, Xtr, ytr, Xte, yte, s)
        records.append(RunRecord(
            seed=seed, epoch=epoch, step=state.step_count,
            q=state.q_current, lr=state.lr_current, train_avg_loss=avg,
            train_ordered_loss=ordered, train_acc=train_acc,
            test_error_pct=test_err, epoch_seconds=elapsed))
        return train_acc

    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if cfg.epochs == 0:
                epoch_end(0, 0.0)
            for epoch in range(start, cfg.epochs):
                t0 = time.perf_counter()
                for batch in _epoch_batches(rng, n_tr, s, opt.batching):
                    state.lr_current = schedule_lr(opt.schedule, epoch,
                                                   state.step_count)
                    optimizers.osgd_step(state, obj, Xtr, ytr, batch,
                                         min(state.q_current, len(batch)),
                                         update=update)
                elapsed = time.perf_counter() - t0
                train_acc = epoch_end(epoch, elapsed)
                # the q = s prefix ends with this epoch: store it once
                if key is not None and epoch < cfg.epochs - 1 \
                        and adaptive_q_update(train_acc, s) < s:
                    if len(_prefix_store) >= _PREFIX_STORE_SIZE:
                        del _prefix_store[next(iter(_prefix_store))]
                    _prefix_store[key] = copy.deepcopy(
                        (epoch + 1, state, rng.bit_generator.state, records,
                         train_acc))
                    key = None
                if adaptive:
                    state.q_current = adaptive_q_update(train_acc, s)
    except DivergenceError as exc:
        return RunResult(seed=seed, records=records, failed=True,
                         error=str(exc), reused_epochs=start)
    return RunResult(seed=seed, records=records, final_theta=state.theta.copy(),
                     reused_epochs=start)


def run_experiment(cfg: RunConfig, dataset: Dataset | None = None) -> ExperimentResult:
    """Run every seed of the config; failed seeds are reported, not fatal.

    The data is built once by :func:`build_dataset`, or is ``dataset``
    standing for those rows, and each seed runs on its own
    ``cfg.data.split``: with test_fraction > 0 a seed re-splits every
    row, so splits the dataset already has are not kept.
    """
    data = dataset if dataset is not None else build_dataset(cfg.data)
    return ExperimentResult(config=cfg, runs=[
        run_single(cfg, cfg.data.split(data, seed), seed)
        for seed in cfg.seeds])


def sweep_q(cfg: RunConfig, q_values, dataset: Dataset | None = None) -> dict:
    """One :class:`ExperimentResult` per fixed q, keyed by q, sharing the
    config's seed list and one build of the data (see :func:`run_experiment`).

    Each q must fit the batch size that runs use: the configured one, or
    the train-split size when that is smaller.  Baseline kinds step at
    q = s whatever q is, so they are rejected, as are repeated q values.
    """
    if cfg.opt.kind in BASELINE_KINDS:
        raise ValueError(f"opt.kind = {cfg.opt.kind} always steps at q = s; "
                         f"sweep q with an ordered kind (osgd or oadam)")
    q_values = list(q_values)
    if not q_values:
        raise ValueError("q_values must not be empty")
    if len(set(q_values)) < len(q_values):
        raise ValueError(f"q values {q_values} repeat a value")
    data = dataset if dataset is not None else build_dataset(cfg.data)
    n_train = len(cfg.data.split(data, cfg.seeds[0]).splits["train"])
    s = min(cfg.opt.batch_size, n_train)
    bad = [q for q in q_values if not 1 <= q <= s]
    if bad:
        raise ValueError(f"q values {bad} outside [1, s={s}]")
    return {q: run_experiment(replace(cfg, name=f"{cfg.name}-q{q}",
                                      opt=replace(cfg.opt, q=int(q))),
                              data)
            for q in q_values}


def write_csv(path, header, rows):
    """One header line, then ``rows``: every CSV file of the package."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_records_csv(records, path):
    write_csv(path, RECORD_COLUMNS,
              ([getattr(rec, col) for col in RECORD_COLUMNS]
               for rec in records))


def read_records_csv(path):
    """RunRecords from a file of :func:`write_records_csv`, each column
    parsed by its field's type."""
    types = get_type_hints(RunRecord)
    with open(path, newline="") as fh:
        return [RunRecord(**{col: types[col](row[col]) for col in RECORD_COLUMNS})
                for row in csv.DictReader(fh)]


def write_summary_csv(summaries, path):
    # rel_improvement_pct stays empty: a summary has no baseline
    write_csv(path, SUMMARY_COLUMNS,
              ([summary["config_id"], repr(summary["mean_test_err"]),
                repr(summary["std_test_err"]), ""] for summary in summaries))


def format_comparison_table(rows):
    """Plain-text results table: baseline vs ordered with relative improvement.

    ``rows`` holds dicts with dataset, model, base_mean, base_std, ord_mean,
    ord_std keys.
    """
    header = f"{'Dataset':<14}{'Model':<12}{'baseline':<16}{'ordered':<16}{'Improve':>8}"
    lines = [header, "-" * len(header)]
    for row in rows:
        rel = analysis.relative_improvement(row["base_mean"], row["ord_mean"])
        rel_txt = "--" if rel is None else f"{rel:.2f}"
        lines.append(
            f"{row['dataset']:<14}{row['model']:<12}"
            f"{row['base_mean']:.2f} ({row['base_std']:.2f})"
            f"{'':<3}{row['ord_mean']:.2f} ({row['ord_std']:.2f})"
            f"{'':<3}{rel_txt:>8}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Verification suite: wraps the module oracles into one pass/fail report.
# ---------------------------------------------------------------------------

def _check_gamma_identities():
    # gamma_j = N_j / C(n, s), checked on the integer numerators N_j
    grid = [(12, 5, 2), (30, 8, 3), (64, 16, 4), (200, 32, 8)]
    for n, s, q in grid:
        nums, den = coeffs.gamma_weight_numerators(n, s, q)
        if sum(nums) != q * den:
            return False, f"sum(gamma) != q for (n={n}, s={s}, q={q})"
        if any(nums[j] < nums[j + 1] for j in range(n - 1)):
            return False, f"gamma not nonincreasing for (n={n}, s={s}, q={q})"
        if any(n * m > s * den for m in nums):
            return False, f"gamma exceeds s/n for (n={n}, s={s}, q={q})"
        if any(nums[j] != 0 for j in range(n - s + q, n)):
            return False, f"gamma tail not zero for (n={n}, s={s}, q={q})"
    return True, f"{len(grid)} tuples"


def _check_gamma_enumeration():
    for n in range(2, 7):
        losses = np.arange(n, 0, -1, dtype=np.float64)  # distinct, rank = index
        for s in range(1, n + 1):
            for q in range(1, s + 1):
                nums, den = coeffs.gamma_weight_numerators(n, s, q)
                counts, total = ordered_loss.rank_selection_counts(losses, s, q)
                if total != den or counts.tolist() != nums:
                    return False, f"mismatch at (n={n}, s={s}, q={q})"
    return True, "all (n, s, q) with n <= 6"


UNBIASEDNESS_TOL = 1e-10


def unbiasedness_deviation(seed, n, s, q, trials):
    """Worst componentwise gap between the expected step and the L_q subgradient.

    The expected step is enumerated over all s-subsets.  The ``trials``
    random logistic instances (n rows, 3 features) share one generator
    seeded with ``seed``; instances with tied losses are skipped.  The
    sizes pass :func:`ordered_loss.subset_count` first, so sizes past the
    enumeration's subset cap are refused before the model, any draw or
    the exact weights (n rationals, built once up front) exist.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    ordered_loss.subset_count(n, s, q)
    rng = np.random.default_rng(seed)
    model = objectives.FeedforwardModel(3, 1, bias=False)
    obj = objectives.Objective(model, "binary-cross-entropy", l2=0.1)
    gamma = coeffs.gamma_weights(n, s, q)
    worst = 0.0
    for _ in range(trials):
        X = rng.standard_normal((n, 3))
        y = rng.integers(0, 2, n)
        theta = rng.standard_normal(model.n_params)
        losses = obj.per_example_losses(theta, X, y)
        if np.unique(losses).size < losses.size:
            continue
        lhs = ordered_loss.expected_step_bruteforce(obj, theta, X, y, s, q)
        rhs = ordered_loss.lq_subgradient(obj, theta, X, y, gamma)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def _check_unbiasedness():
    worst = unbiasedness_deviation(seed=7, n=8, s=4, q=2, trials=3)
    if worst > UNBIASEDNESS_TOL:
        return False, f"max deviation {worst:.2e} > {UNBIASEDNESS_TOL:g}"
    return True, f"max deviation {worst:.2e}"


def _check_gradients():
    rng = np.random.default_rng(11)
    combos = [("linear", "multinomial-cross-entropy"),
              ("mlp", "binary-cross-entropy")]
    for kind, loss in combos:
        d_out = 1 if loss == "binary-cross-entropy" else 3
        model = objectives.FeedforwardModel(
            4, d_out, hidden=(6,) if kind == "mlp" else (), activation="tanh")
        obj = objectives.Objective(model, loss)
        for _ in range(5):
            theta = rng.standard_normal(model.n_params) * 0.5
            x = rng.standard_normal(4)
            y = int(rng.integers(0, 2 if d_out == 1 else d_out))
            g = obj.per_sample_grad(theta, x, y)
            fd = _central_difference(obj, theta, x, y)
            denom = max(np.linalg.norm(fd), 1e-12)
            if np.linalg.norm(g - fd) / denom > 1e-5:
                return False, f"gradient mismatch for ({kind}, {loss})"
    return True, f"{len(combos)} model/loss combos"


def _central_difference(obj, theta, x, y):
    """Central differences of the loss at (x, y), with h_i = 1e-6 (1 +
    |theta_i|), from one forward of the (2P, P) stack theta + h_i e_i
    (rows 0..P-1) and theta - h_i e_i (rows P..2P-1)."""
    P = theta.size
    h = 1e-6 * (1.0 + np.abs(theta))
    stack = np.tile(theta, (2, P, 1))
    diag = np.arange(P)
    stack[0, diag, diag] += h
    stack[1, diag, diag] -= h
    f = obj.per_example_losses(stack.reshape(2 * P, P), np.atleast_2d(x),
                               np.atleast_1d(y))
    return (f[:P, 0] - f[P:, 0]) / (2 * h)


def _check_beta_cdf():
    s, q = 10, 3
    worst = 0.0
    for z in np.linspace(0.01, 0.99, 99):
        lhs = 1.0 - coeffs.gamma_asymptotic(float(z), s, q) / s
        rhs = coeffs.beta_cdf(float(z), q, s - q)
        worst = max(worst, abs(lhs - rhs))
    if worst > 1e-9:
        return False, f"identity residual {worst:.2e} > 1e-9"
    for z in (0.0, 0.25, 0.5, 1.0):
        if abs(coeffs.beta_cdf(z, 1.0, 1.0) - z) > 1e-14:
            return False, f"I_z(1,1) != z at z={z}"
    return True, f"identity residual {worst:.2e}"


def _check_qs_equivalence():
    ds = gen_clusters_2d(3)
    base = RunConfig(
        name="equiv", data=DataConfig(kind="clusters", seed=3),
        model=ModelConfig(kind="linear"), loss_kind="binary-cross-entropy",
        epochs=2, seeds=(5,),
        opt=OptConfig(kind="osgd", q=20, batch_size=20,
                      schedule=optimizers.ScheduleSpec(kind="constant",
                                                       base_lr=0.05)))
    # each run computes its q = s prefix: neither resumes from a stored one
    _prefix_store.clear()
    osgd_run = run_single(base, ds, 5)
    _prefix_store.clear()
    sgd_run = run_single(replace(base, opt=replace(base.opt, kind="sgd")), ds, 5)
    for a, b in zip(osgd_run.records, sgd_run.records):
        if (a.train_avg_loss, a.test_error_pct) != (b.train_avg_loss,
                                                    b.test_error_pct):
            return False, "q=s ordered run diverged from baseline run"
    # Both runs above take the runner's one step path; the plain minibatch
    # SGD loop over the same batches is the reference it must reproduce.
    obj, opt = build_objective(base, ds), base.opt
    rng = np.random.default_rng(5)
    state = optimizers.init_state(obj.init_params(rng), opt.batch_size,
                                  opt.schedule.base_lr)  # constant schedule
    update = partial(optimizers.heavy_ball, momentum=opt.momentum)
    for _ in range(base.epochs):
        for batch in _epoch_batches(rng, ds.n, opt.batch_size, opt.batching):
            optimizers.osgd_step(state, obj, ds.features, ds.labels, batch,
                                 len(batch), update=update)
    if osgd_run.final_theta is None or \
            osgd_run.final_theta.tobytes() != state.theta.tobytes():
        return False, "q=s ordered run diverged from the minibatch SGD loop"
    return True, "bit-identical metrics over 2 epochs"


def _check_tie_breaking():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(4, 12))
        values = rng.integers(0, 4, n).astype(np.float64)  # plenty of ties
        batch = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)),
                                   replace=False))
        q = int(rng.integers(1, batch.size + 1))
        got = set(selection.q_argmax(values, batch, q).tolist())
        want = set(sorted(batch.tolist(),
                          key=lambda i: (-values[i], i))[:q])
        if got != want:
            return False, f"tie rule violated for values={values}, batch={batch}, q={q}"
    return True, "200 randomized tie cases"


def run_verification_suite() -> dict:
    """Execute the cross-module oracle checks and report machine-readably."""
    checks = [
        ("gamma-identities", _check_gamma_identities),
        ("gamma-enumeration", _check_gamma_enumeration),
        ("unbiasedness", _check_unbiasedness),
        ("gradient-checks", _check_gradients),
        ("beta-cdf-agreement", _check_beta_cdf),
        ("q-equals-s-equivalence", _check_qs_equivalence),
        ("tie-break-determinism", _check_tie_breaking),
    ]
    report = {"checks": [], "all_passed": True}
    for name, fn in checks:
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"exception: {exc}"
        report["checks"].append({"name": name, "passed": bool(passed),
                                 "detail": detail})
        report["all_passed"] &= bool(passed)
    report["all_passed"] = bool(report["all_passed"])
    return report
