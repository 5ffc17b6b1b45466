"""The benchmark's three workloads: inputs from a seed, one measured pass.

Each workload is a set-up function, which builds the inputs from the
workload seed, and a pass function, which does the measured work and
fills a :class:`Tally`: operations attempted and failed, steps completed,
checks, digests of the final outputs and the paper's headline numbers.
Library calls go through module attributes (``harness.run_single``,
``data.split_dataset``) so that a traced pass sees every one of them.

- ``geometry-2d``: ``osgd train`` on the shipped rings and clusters
  configs, osgd and sgd arms, then the records/summary CSV writers.
- ``digits-table``: the Semeion table script's linear runs on a synthetic
  stand-in of the same shape (1593 x 256 binary pixels, 10 classes).
- ``oracle-certify``: exact and float gamma weights, the rescaled curve,
  batch enumeration, the brute-force expected step and the oracle suite.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from math import comb

import numpy as np

from osgd import (analysis, coeffs, config, data, harness, objectives,
                  ordered_loss)
from osgd.optimizers import ScheduleSpec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(ROOT, "configs")

TRAIN_SEEDS_PER_PASS = 1
ARMS = ("sgd", "osgd")
GEOMETRIES = (("rings", "rings_osgd.cfg", "inner"),
              ("clusters", "clusters_osgd.cfg", "subcluster"))
DIGIT_LOSSES = (("logistic", "multinomial-cross-entropy"),
                ("svm", "multiclass-hinge"))
DIGITS_EPOCHS = 100
GAMMA_TUPLE = (10_000, 64, 32)
CURVE_TUPLE = (100_000, 10, 3)
ENUM_TUPLE = (19, 9, 4)     # C(19, 9) = 92,378 subsets, near the 100k cap
BRUTE_TUPLE = (16, 8, 3)    # C(16, 8) = 12,870 subsets
UNBIASED_TOL = 1e-10
FLOAT_GAMMA_RTOL = 1e-9


@dataclass
class Tally:
    """What one pass did and produced."""

    attempted: int = 0
    failed: int = 0
    steps: int = 0
    failures: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    headline: dict = field(default_factory=dict)

    def attempt(self, name, fn, units=1):
        """Run one operation; an exception is counted, never propagated."""
        self.attempted += units
        try:
            return fn()
        except Exception as exc:  # one broken operation never aborts a pass
            self.failed += units
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def check(self, name, ok, detail=""):
        self.attempted += 1
        self.checks[name] = {"ok": bool(ok), "detail": detail}
        if not ok:
            self.failed += 1
            self.failures.append(f"check {name} failed: {detail}")

    def add_runs(self, key, runs):
        """Count steps and record final-theta digests of finished runs."""
        for run in runs:
            if run.records:
                self.steps += run.records[-1].step
            if run.failed:
                self.failed += 1
                self.failures.append(f"{key}/seed{run.seed}: {run.error}")
            else:
                self.digests[f"{key}/seed{run.seed}"] = digest_array(
                    run.final_theta)


def digest_array(arr):
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def digest_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def train_seeds(seed):
    return tuple(range(seed, seed + TRAIN_SEEDS_PER_PASS))


def _mean(values):
    return float(np.mean(values)) if values else float("nan")


def _record_headline(tally, label, errors):
    """Relative improvement of the osgd arm over sgd on mean error."""
    if set(errors) != set(ARMS):
        return
    rel = analysis.relative_improvement(errors["sgd"], errors["osgd"])
    tally.headline[label] = rel
    tally.digests[f"rel_improvement_pct/{label}"] = repr(rel)


# ---------------------------------------------------------------------------
# geometry-2d
# ---------------------------------------------------------------------------

def geometry_setup(seed, outdir):
    seeds = ", ".join(str(s) for s in train_seeds(seed))
    cfgs, scoring = {}, {}
    for geom, fname, group in GEOMETRIES:
        for arm in ARMS:
            cfgs[geom, arm] = config.load_config(
                os.path.join(CONFIG_DIR, fname),
                overrides=[f"opt.kind = {arm}", f"data.seed = {seed}",
                           f"seeds = {seeds}", f"outdir = {outdir}",
                           f"name = {geom}-{arm}"])
        ds = config.build_dataset(cfgs[geom, "osgd"].data)
        obj = config.build_objective(cfgs[geom, "osgd"], ds)
        scoring[geom] = (ds, obj, ds.groups[group])
    return {"cfgs": cfgs, "scoring": scoring, "outdir": outdir}


def _write_train_outputs(cfg, result, outdir):
    harness.write_records_csv(
        result.records, os.path.join(outdir, f"{cfg.name}-records.csv"))
    harness.write_summary_csv(
        [result.summary()], os.path.join(outdir, f"{cfg.name}-summary.csv"))


def geometry_pass(state, tally):
    for geom, _, group in GEOMETRIES:
        ds, obj, focus = state["scoring"][geom]
        errors = {}
        for arm in ARMS:
            cfg = state["cfgs"][geom, arm]
            result = tally.attempt(f"{geom}/{arm}",
                                   lambda: harness.run_experiment(cfg),
                                   units=len(cfg.seeds))
            if result is None:
                continue
            tally.add_runs(f"{geom}/{arm}", result.runs)
            tally.attempt(f"{geom}/{arm}/csv", lambda: _write_train_outputs(
                cfg, result, state["outdir"]))
            errors[arm] = _mean([
                100.0 * float(np.mean(
                    obj.predictions(run.final_theta, ds.features[focus])
                    != ds.labels[focus]))
                for run in result.runs if not run.failed])
        _record_headline(tally, f"{geom}/{group}", errors)


# ---------------------------------------------------------------------------
# digits-table
# ---------------------------------------------------------------------------

def stand_in_digits(seed):
    """Synthetic Semeion stand-in: 1593 x 256 binary pixels, 10 classes."""
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((10, 256))
    X = (rng.random((1593, 256)) < 0.3).astype(np.float64)
    y = (X @ W.T + 2.0 * rng.standard_normal((1593, 10))).argmax(axis=1)
    return data.Dataset(features=X, labels=y, n_classes=10,
                        provenance=f"stand-in digits (seed={seed})")


def digits_setup(seed, outdir):
    cfgs = {}
    for label, loss_kind in DIGIT_LOSSES:
        for arm in ARMS:
            cfgs[label, arm] = config.RunConfig(
                name=f"semeion-{loss_kind}-{arm}",
                data=config.DataConfig(kind="semeion"),
                model=config.ModelConfig(kind="linear"), loss_kind=loss_kind,
                l2=1e-4, epochs=DIGITS_EPOCHS, seeds=train_seeds(seed),
                opt=config.OptConfig(
                    kind=arm, q="adaptive", batch_size=64, momentum=0.9,
                    schedule=ScheduleSpec(kind="step-decay", base_lr=0.01,
                                          decay_epochs=(9,),
                                          decay_factor=0.1)))
    return {"full": stand_in_digits(seed), "cfgs": cfgs, "outdir": outdir}


def digits_pass(state, tally):
    full = state["full"]
    for label, _ in DIGIT_LOSSES:
        errors = {}
        for arm in ARMS:
            cfg = state["cfgs"][label, arm]
            runs = []
            for seed in cfg.seeds:
                run = tally.attempt(
                    f"{label}/{arm}/seed{seed}",
                    lambda: harness.run_single(
                        cfg, data.split_dataset(full, 0.2, seed=seed,
                                                stratified=True), seed))
                if run is not None:
                    runs.append(run)
            tally.add_runs(f"{label}/{arm}", runs)
            records = [rec for run in runs for rec in run.records]
            tally.attempt(f"{label}/{arm}/csv", lambda: harness.write_records_csv(
                records, os.path.join(state["outdir"], f"{cfg.name}-records.csv")))
            errors[arm] = _mean([run.final_test_error for run in runs
                                 if not run.failed])
        _record_headline(tally, label, errors)


# ---------------------------------------------------------------------------
# oracle-certify
# ---------------------------------------------------------------------------

def oracle_setup(seed, outdir):
    rng = np.random.default_rng(seed)
    n_enum = ENUM_TUPLE[0]
    # integer ranks plus a sub-unit jitter: distinct losses, random order
    enum_losses = rng.permutation(n_enum) + 0.5 * rng.random(n_enum)
    n, d = BRUTE_TUPLE[0], 3
    model = objectives.FeedforwardModel(d, 1, bias=False)
    return {
        "enum_losses": enum_losses,
        "obj": objectives.Objective(model, "binary-cross-entropy", l2=0.1),
        "theta": rng.standard_normal(model.n_params),
        "X": rng.standard_normal((n, d)),
        "y": rng.integers(0, 2, n),
    }


def _gamma_checks(tally):
    n, s, q = GAMMA_TUPLE
    gw = tally.attempt("gamma_weights", lambda: coeffs.gamma_weights(n, s, q))
    if gw is not None:
        den = comb(n, s)
        mass = sum(f.numerator * (den // f.denominator) for f in gw.exact)
        tally.check("gamma_exact_mass", mass == q * den,
                    f"sum of exact gamma = {q} for (n={n}, s={s}, q={q})")
        tally.digests["gamma_weights"] = digest_text(
            "\n".join(f"{f.numerator}/{f.denominator}" for f in gw.exact))
    gf = tally.attempt("gamma_weights_float",
                       lambda: coeffs.gamma_weights_float(n, s, q))
    if gf is not None:
        tally.digests["gamma_weights_float"] = digest_array(gf)
        if gw is not None:
            ref = gw.approx
            rel = float(np.max(np.abs(gf - ref)) / np.max(ref))
            tally.check("gamma_float_vs_exact", rel <= FLOAT_GAMMA_RTOL,
                        f"max deviation {rel:.3e} of max weight")
    n, s, q = CURVE_TUPLE
    curve = tally.attempt("gamma_rescaled_curve",
                          lambda: coeffs.gamma_rescaled_curve(n, s, q))
    if curve is not None:
        tally.digests["gamma_rescaled_curve"] = digest_array(curve.values)
        mass = float(curve.values.mean())
        tally.check("gamma_curve_mass", abs(mass - q) <= 1e-9,
                    f"mean of n*gamma = {mass!r}, expected {q}")


def _enumeration_checks(state, tally):
    n, s, q = ENUM_TUPLE
    losses = state["enum_losses"]
    out = tally.attempt("rank_selection_counts",
                        lambda: ordered_loss.rank_selection_counts(losses, s, q))
    if out is not None:
        counts, total = out
        tally.steps += total
        nums, den = coeffs.gamma_weight_numerators(n, s, q)
        order = np.argsort(-losses, kind="stable")
        exact = total == den and [int(c) for c in counts[order]] == nums
        tally.check("enumeration_counts_equal_gamma_numerators", exact,
                    f"C({n}, {s}) = {total} batches, q={q}")
        tally.digests["rank_selection_counts"] = digest_array(counts)

    n, s, q = BRUTE_TUPLE
    obj, theta, X, y = state["obj"], state["theta"], state["X"], state["y"]
    lhs = tally.attempt("expected_step_bruteforce",
                        lambda: ordered_loss.expected_step_bruteforce(
                            obj, theta, X, y, s, q))
    rhs = tally.attempt("lq_subgradient", lambda: ordered_loss.lq_subgradient(
        obj, theta, X, y, coeffs.gamma_weights(n, s, q)))
    if lhs is not None:
        tally.steps += comb(n, s)
        tally.digests["expected_step_bruteforce"] = digest_array(lhs)
    if rhs is not None:
        tally.digests["lq_subgradient"] = digest_array(rhs)
    if lhs is not None and rhs is not None:
        distinct = np.unique(obj.per_example_losses(theta, X, y)).size == n
        dev = float(np.max(np.abs(lhs - rhs)))
        tally.check("bruteforce_vs_analytic", distinct and dev <= UNBIASED_TOL,
                    f"max deviation {dev:.3e} (tolerance {UNBIASED_TOL:g}), "
                    f"distinct losses: {distinct}")


def oracle_pass(state, tally):
    _gamma_checks(tally)
    _enumeration_checks(state, tally)
    report = tally.attempt("run_verification_suite",
                           harness.run_verification_suite)
    if report is not None:
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        tally.check("verification_suite_all_passed", report["all_passed"],
                    f"failing: {failing}" if failing else "all checks passed")
        tally.digests["verification_suite"] = digest_text(
            json.dumps(report, sort_keys=True))


WORKLOADS = {
    "geometry-2d": (geometry_setup, geometry_pass),
    "digits-table": (digits_setup, digits_pass),
    "oracle-certify": (oracle_setup, oracle_pass),
}
