"""Experiment runner: seeded multi-run sweeps, per-epoch metrics, summaries.

Each seed owns one random generator (numpy PCG64 seeded with the run
seed) consumed in a fixed order: parameter init first, then batch
construction step by step.  Re-running a config with the same seed list
therefore reproduces every metric bit-identically; only the wall-time
column varies.
"""
from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import analysis, coeffs, objectives, optimizers, ordered_loss, selection
from .config import (BASELINE_KINDS, DataConfig, ModelConfig, OptConfig,
                     RunConfig, build_dataset, build_objective)
from .data import Dataset, gen_clusters_2d
from .optimizers import DivergenceError, adaptive_q_update, schedule_lr

RECORD_COLUMNS = ("seed", "epoch", "step", "q", "lr", "train_avg_loss",
                  "train_ordered_loss", "train_acc", "test_error_pct",
                  "epoch_seconds")
SUMMARY_COLUMNS = ("config_id", "mean_test_err", "std_test_err",
                   "rel_improvement_pct")


@dataclass(frozen=True)
class RunRecord:
    """One per-epoch metrics row; train_acc is a fraction in [0, 1].

    ``q`` and ``lr`` are the values in effect during the epoch (lr from
    its final step); losses and errors are measured at the epoch's end.
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


@dataclass
class RunResult:
    seed: int
    records: list
    failed: bool = False
    error: str = ""
    final_theta: np.ndarray | None = None

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

    def summary(self, baseline_mean=None):
        """Mean/std of final test errors over completed seeds.

        Standard deviation is the sample standard deviation (ddof=1), 0.0
        for a single seed.  ``rel_improvement_pct`` is filled when a
        baseline mean is supplied.
        """
        finals = [run.final_test_error for run in self.runs if not run.failed]
        mean = float(np.mean(finals)) if finals else float("nan")
        std = float(np.std(finals, ddof=1)) if len(finals) > 1 else 0.0
        rel = None
        if baseline_mean is not None:
            rel = analysis.relative_improvement(baseline_mean, mean)
        return {
            "config_id": self.config.name,
            "mean_test_err": mean,
            "std_test_err": std,
            "rel_improvement_pct": rel,
            "final_test_errors": finals,
            "failed_seeds": [run.seed for run in self.runs if run.failed],
        }


@lru_cache(maxsize=64)
def _gamma_approx(n, s, q):
    # Only the float vector is cached, not the n rationals.
    return coeffs.GammaWeights(n=n, s=s, q=q, exact=None,
                               approx=coeffs.gamma_vector(n, s, q))


def _epoch_batches(rng, n, s, mode):
    if mode == "shuffle":
        perm = rng.permutation(n)
        # chunks sorted ascending so the tie rule sees original index order
        return [np.sort(perm[i:i + s]) for i in range(0, n, s)]
    # iid: fresh uniform s-subset per step, floor(n/s) steps per epoch
    return [selection.sample_minibatch(rng, n, s) for _ in range(max(1, n // s))]


def _evaluate_epoch(obj, state, Xtr, ytr, Xte, yte, s):
    """Epoch-end metrics: one forward over the train set, one over the test set."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        losses, train_preds = obj.losses_and_predictions(state.theta, Xtr, ytr)
        reg_value, _ = obj.regularizer(state.theta)
    if not (np.isfinite(losses).all() and np.isfinite(reg_value)):
        raise DivergenceError(state.step_count,
                              "non-finite training objective in evaluation")
    profile = ordered_loss.LossProfile.of(losses, reg_value)
    avg = ordered_loss.average_empirical_loss(profile)
    ordered = ordered_loss.ordered_empirical_loss(
        profile, _gamma_approx(Xtr.shape[0], s, state.q_current))
    train_err = analysis.error_pct(train_preds, ytr)
    test_err = analysis.zero_one_error(obj, state.theta, Xte, yte)
    return avg, ordered, 1.0 - train_err / 100.0, test_err


def run_single(cfg: RunConfig, dataset: Dataset, seed: int) -> RunResult:
    """Train one seed of the configured experiment and log per-epoch rows."""
    obj = build_objective(cfg, dataset)
    Xtr, ytr = dataset.split("train")
    Xte, yte = dataset.split("test")
    n_tr = Xtr.shape[0]
    opt = cfg.opt
    s = min(opt.batch_size, n_tr)
    adaptive = opt.q == "adaptive" and opt.kind not in BASELINE_KINDS
    heavy_ball = opt.kind in ("osgd", "sgd")

    rng = np.random.default_rng(seed)
    theta = obj.init_params(rng)
    state = optimizers.init_state(theta, opt.initial_q(s),
                                  opt.schedule.base_lr)
    records = []

    def epoch_end(epoch, elapsed, emit):
        # evaluated every epoch (the adaptive rule needs train accuracy);
        # a record row is only kept on the eval cadence
        avg, ordered, train_acc, test_err = _evaluate_epoch(
            obj, state, Xtr, ytr, Xte, yte, s)
        if emit:
            records.append(RunRecord(
                seed=seed, epoch=epoch, step=state.step_count,
                q=state.q_current, lr=state.lr_current, train_avg_loss=avg,
                train_ordered_loss=ordered, train_acc=train_acc,
                test_error_pct=test_err, epoch_seconds=elapsed))
        if adaptive:
            state.q_current = min(adaptive_q_update(train_acc, s), s)

    try:
        if cfg.epochs == 0:
            epoch_end(0, 0.0, emit=True)
        for epoch in range(cfg.epochs):
            t0 = time.perf_counter()
            for batch in _epoch_batches(rng, n_tr, s, opt.batching):
                state.lr_current = schedule_lr(opt.schedule, epoch,
                                               state.step_count)
                q_eff = min(state.q_current, len(batch))
                if heavy_ball:
                    optimizers.osgd_step(state, obj, Xtr, ytr, batch, q_eff,
                                         momentum=opt.momentum)
                else:
                    optimizers.ordered_adam_step(state, obj, Xtr, ytr, batch,
                                                 q_eff, beta1=opt.beta1,
                                                 beta2=opt.beta2, eps=opt.eps)
            elapsed = time.perf_counter() - t0
            epoch_end(epoch, elapsed,
                      emit=(epoch + 1) % cfg.eval_every == 0
                      or epoch == cfg.epochs - 1)
    except DivergenceError as exc:
        return RunResult(seed=seed, records=records, failed=True,
                         error=str(exc))
    return RunResult(seed=seed, records=records, final_theta=state.theta.copy())


def run_experiment(cfg: RunConfig, dataset: Dataset | None = None) -> ExperimentResult:
    """Run every seed of the config; failed seeds are reported, not fatal."""
    runs = []
    for seed in cfg.seeds:
        ds = dataset if dataset is not None else build_dataset(cfg.data,
                                                               split_seed=seed)
        runs.append(run_single(cfg, ds, seed))
    return ExperimentResult(config=cfg, runs=runs)


def sweep_q(cfg: RunConfig, q_values, dataset: Dataset | None = None) -> dict:
    """One experiment per fixed q, sharing the config's seed list.

    Each q must fit the batch size that runs use: the configured one, or
    the train-split size when that is smaller.  Without a dataset, the train
    split is the one the first seed's run builds.  Baseline kinds step at
    q = s whatever q is, so they are rejected.
    """
    if cfg.opt.kind in BASELINE_KINDS:
        raise ValueError(f"opt.kind = {cfg.opt.kind} always steps at q = s; "
                         f"sweep q with an ordered kind (osgd or oadam)")
    q_values = list(q_values)
    if not q_values:
        raise ValueError("q_values must not be empty")
    ds = dataset if dataset is not None else build_dataset(
        cfg.data, split_seed=cfg.seeds[0])
    s = min(cfg.opt.batch_size, len(ds.splits["train"]))
    bad = [q for q in q_values if not 1 <= q <= s]
    if bad:
        raise ValueError(f"q values {bad} outside [1, s={s}]")
    out = {}
    for q in q_values:
        sub = replace(cfg, name=f"{cfg.name}-q{q}",
                      opt=replace(cfg.opt, q=int(q)))
        out[q] = run_experiment(sub, dataset=dataset).summary()
    return out


def write_records_csv(records, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_COLUMNS)
        for rec in records:
            row = asdict(rec)
            writer.writerow([row[col] for col in RECORD_COLUMNS])


def read_records_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        out = []
        for row in reader:
            out.append(RunRecord(
                seed=int(row["seed"]), epoch=int(row["epoch"]),
                step=int(row["step"]), q=int(row["q"]), lr=float(row["lr"]),
                train_avg_loss=float(row["train_avg_loss"]),
                train_ordered_loss=float(row["train_ordered_loss"]),
                train_acc=float(row["train_acc"]),
                test_error_pct=float(row["test_error_pct"]),
                epoch_seconds=float(row["epoch_seconds"])))
        return out


def write_summary_csv(summaries, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for summary in summaries:
            rel = summary.get("rel_improvement_pct")
            writer.writerow([
                summary["config_id"],
                repr(summary["mean_test_err"]),
                repr(summary["std_test_err"]),
                "" if rel is None else repr(rel),
            ])


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

def _check_gamma_identities(corrupt=None):
    grid = [(12, 5, 2), (30, 8, 3), (64, 16, 4), (200, 32, 8)]
    for n, s, q in grid:
        gw = coeffs.gamma_weights(n, s, q)
        exact = list(gw.exact)
        if corrupt == "gamma-sum":
            exact[0] += Fraction(1, 7)
        if sum(exact) != q:
            return False, f"sum(gamma) != q for (n={n}, s={s}, q={q})"
        if any(exact[j] < exact[j + 1] for j in range(n - 1)):
            return False, f"gamma not nonincreasing for (n={n}, s={s}, q={q})"
        if any(g > Fraction(s, n) for g in exact):
            return False, f"gamma exceeds s/n for (n={n}, s={s}, q={q})"
        if any(exact[j] != 0 for j in range(n - s + q, n)):
            return False, f"gamma tail not zero for (n={n}, s={s}, q={q})"
    return True, f"{len(grid)} tuples"


def _check_gamma_enumeration():
    for n in range(2, 7):
        losses = np.arange(n, 0, -1, dtype=np.float64)  # distinct, rank = index
        for s in range(1, n + 1):
            for q in range(1, s + 1):
                gw = coeffs.gamma_weights(n, s, q)
                counts, total = ordered_loss.rank_selection_counts(losses, s, q)
                freqs = [Fraction(int(c), total) for c in counts]
                if freqs != list(gw.exact):
                    return False, f"mismatch at (n={n}, s={s}, q={q})"
    return True, "all (n, s, q) with n <= 6"


UNBIASEDNESS_TOL = 1e-10


def unbiasedness_deviation(seed, n, s, q, trials):
    """Worst componentwise gap between the expected step and the L_q subgradient.

    The expected step is enumerated over all s-subsets.  The ``trials``
    random logistic instances (n rows, 3 features) share one generator
    seeded with ``seed``; instances with tied losses are skipped.
    """
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
        model = objectives.make_model(kind, d_in=4, d_out=d_out,
                                      hidden=(6,) if kind == "mlp" else (),
                                      activation="tanh")
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
    fd = np.zeros_like(theta)
    for i in range(theta.size):
        h = 1e-6 * (1.0 + abs(theta[i]))
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        fd[i] = (obj.per_sample_loss(up, x, y)
                 - obj.per_sample_loss(down, x, y)) / (2 * h)
    return fd


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
    ds = ds.with_splits({"train": np.arange(ds.n), "test": np.arange(ds.n)})
    osgd_run = run_single(base, ds, 5)
    sgd_run = run_single(replace(base, opt=replace(base.opt, kind="sgd")), ds, 5)
    for a, b in zip(osgd_run.records, sgd_run.records):
        if (a.train_avg_loss, a.test_error_pct) != (b.train_avg_loss,
                                                    b.test_error_pct):
            return False, "q=s ordered run diverged from baseline run"
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


def run_verification_suite(corrupt=None) -> dict:
    """Execute the cross-module oracle checks and report machine-readably.

    ``corrupt`` enables negative-control hooks ("gamma-sum" perturbs one
    weight before the sum identity is checked).
    """
    checks = [
        ("gamma-identities", lambda: _check_gamma_identities(corrupt)),
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


def report_to_json(report) -> str:
    return json.dumps(report, indent=2)
