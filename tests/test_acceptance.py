"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one PASS/FAIL line through the terminal-summary hook in
conftest.py.  The Semeion-based criteria need the canonical data file
(data/semeion.data or $OSGD_SEMEION_PATH); without it they are skipped
with an explicit environment reason, and the seed-equivalence criterion
falls back to a synthetic stand-in so the property itself stays covered.
"""
import functools
import importlib.util
import math
import os
import time
import zlib
from fractions import Fraction

import numpy as np
import pytest

from osgd import harness
from osgd.analysis import moreau_grad_norm, optimality_gap, reference_optimum
from osgd.coeffs import (beta_cdf, gamma_asymptotic, gamma_rescaled_curve,
                         gamma_weights)
from osgd.config import load_config
from osgd.data import gen_clusters_2d, gen_rings_2d, load_semeion, \
    split_dataset
from osgd.harness import run_experiment, run_single
from osgd.objectives import FeedforwardModel, Objective
from osgd.optimizers import (ScheduleSpec, init_state, osgd_step,
                             schedule_lr)
from osgd.ordered_loss import (expected_step_bruteforce, lq_subgradient,
                               ordered_empirical_loss)
from osgd.selection import q_argmax, sample_minibatch

from conftest import (all_combos, away_from_kinks, baseline_theta,
                      enumerate_rank_frequencies, record_acceptance,
                      stand_in_digits)

SEMEION_PATH = os.environ.get("OSGD_SEMEION_PATH", "data/semeion.data")
CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs")
SEMEION_PRESENT = os.path.exists(SEMEION_PATH)


def criterion(number, budget_seconds=None):
    """Record PASS/FAIL (and the runtime budget) for one criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                detail = fn(*args, **kwargs) or ""
            except pytest.skip.Exception as exc:
                record_acceptance(number, "SKIP", str(exc))
                raise
            except BaseException as exc:
                record_acceptance(number, "FAIL", f"{type(exc).__name__}")
                raise
            elapsed = time.perf_counter() - start
            note = f"{detail} [{elapsed:.1f}s]"
            if budget_seconds is not None and elapsed > budget_seconds:
                record_acceptance(number, "FAIL",
                                  f"over budget: {note} > {budget_seconds}s")
                raise AssertionError(
                    f"criterion {number} exceeded its {budget_seconds}s "
                    f"budget: {elapsed:.1f}s")
            record_acceptance(number, "PASS", note)
        return run
    return wrap


# --------------------------------------------------------------------------
# 1. Exact weight identities
# --------------------------------------------------------------------------

@criterion(1, budget_seconds=60)
def test_acceptance_1_gamma_exactness():
    for n in range(1, 10):
        for s in range(1, n + 1):
            for q in range(1, s + 1):
                gw = gamma_weights(n, s, q)
                assert list(gw.exact) == enumerate_rank_frequencies(n, s, q), \
                    (n, s, q)
    grid = [(20, 6, 2), (100, 16, 5), (500, 64, 16), (1000, 64, 48),
            (2000, 64, 1), (2000, 64, 32), (2000, 64, 64)]
    for n, s, q in grid:
        gw = gamma_weights(n, s, q)
        assert sum(gw.exact) == q
        assert all(gw.exact[j] >= gw.exact[j + 1] for j in range(n - 1))
        cap = Fraction(s, n)
        assert all(g <= cap for g in gw.exact)
        assert all(gw.exact[j] == 0 for j in range(n - s + q, n))
    return f"all n<=9 enumerations and {len(grid)} grid tuples exact"


# --------------------------------------------------------------------------
# 2. Unbiasedness oracle
# --------------------------------------------------------------------------

@criterion(2, budget_seconds=30)
def test_acceptance_2_unbiasedness():
    rng = np.random.default_rng(20)
    gamma = gamma_weights(8, 4, 2)
    worst = 0.0
    done = 0
    while done < 20:
        X = rng.standard_normal((8, 3))
        y = rng.integers(0, 2, 8)
        obj = Objective(FeedforwardModel(3, 1, bias=False),
                        "binary-cross-entropy", l2=0.1)
        theta = rng.standard_normal(3)
        losses = obj.per_example_losses(theta, X, y)
        if np.unique(losses).size < 8:
            continue
        lhs = expected_step_bruteforce(obj, theta, X, y, 4, 2)
        rhs = lq_subgradient(obj, theta, X, y, gamma)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
        done += 1
    assert worst <= 1e-10
    return f"20 instances, max componentwise deviation {worst:.2e}"


# --------------------------------------------------------------------------
# 3. Asymptotic limit and its Beta characterization
# --------------------------------------------------------------------------

def limit_curve(z, s, q):
    """Vectorized n -> infinity rescaled weight limit (derived oracle)."""
    z = np.asarray(z, dtype=np.float64)
    out = np.zeros_like(z)
    ln_z, ln_1mz = np.log(z), np.log1p(-z)
    for l in range(q):
        out += np.exp(math.lgamma(s + 1) - math.lgamma(l + 1)
                      - math.lgamma(s - l) + l * ln_z + (s - l - 1) * ln_1mz)
    return out


@criterion(3, budget_seconds=120)
def test_acceptance_3_asymptotics():
    details = []
    for s, q in [(10, 3), (100, 30), (100, 60)]:
        zs = np.linspace(0.01, 0.99, 99)
        worst = max(abs(1.0 - gamma_asymptotic(float(z), s, q) / s
                        - beta_cdf(float(z), q, s - q)) for z in zs)
        assert worst <= 1e-9, (s, q, worst)

        def max_dev(n):
            curve = gamma_rescaled_curve(n, s, q)
            z = curve.z_grid[:-1]
            return float(np.abs(curve.values[:-1] - limit_curve(z, s, q)).max())

        coarse, fine = max_dev(1000), max_dev(100_000)
        assert fine < coarse, (s, q, coarse, fine)
        details.append(f"(s={s},q={q}): identity<=1e-9, "
                       f"dev {coarse:.3f}->{fine:.4f}")
    # the vectorized oracle agrees with the scalar implementation
    for z in (0.1, 0.42, 0.9):
        assert limit_curve([z], 10, 3)[0] == pytest.approx(
            gamma_asymptotic(z, 10, 3), rel=1e-12)
    return "; ".join(details)


# --------------------------------------------------------------------------
# 4. Convex convergence against the reference optimum
# --------------------------------------------------------------------------

@criterion(4, budget_seconds=120)
def test_acceptance_4_convex_gap_decay():
    ds = gen_clusters_2d(0)
    X, y = ds.features, ds.labels
    n, s, q, l2 = 200, 20, 5, 0.01
    obj = Objective(FeedforwardModel(2, 1, bias=True),
                    "binary-cross-entropy", l2=l2)
    gamma = gamma_weights(n, s, q)
    theta_star, lq_star, cert = reference_optimum(obj, X, y, gamma,
                                                  base_lr=1.0)
    value_bound = cert ** 2 / (2.0 * l2)
    assert value_bound < 1e-8

    spec = ScheduleSpec(kind="inverse-sqrt", base_lr=0.5)
    ratios, most_negative = [], 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        state = init_state(obj.init_params(rng), q=q, lr=0.5)
        history = []
        for t in range(10_000):
            state.lr_current = schedule_lr(spec, 0, t)
            osgd_step(state, obj, X, y, sample_minibatch(rng, n, s), q)
            history.append(ordered_empirical_loss(
                obj.per_example_losses(state.theta, X, y),
                obj.regularizer(state.theta)[0], gamma))
        gaps = optimality_gap(history, lq_star)
        ratios.append(gaps[9_999] / gaps[99])
        most_negative = min(most_negative, float(gaps.min()))
    median_ratio = float(np.median(ratios))
    assert median_ratio <= 0.2
    assert most_negative >= -(value_bound + 1e-12)
    return (f"median gap ratio t=1e4 vs t=1e2: {median_ratio:.4f} <= 0.2; "
            f"oracle value bound {value_bound:.1e}")


# --------------------------------------------------------------------------
# 5. Gradient correctness for every model/loss combination
# --------------------------------------------------------------------------

@criterion(5, budget_seconds=60)
def test_acceptance_5_gradient_checks():
    combos = all_combos()
    worst = 0.0
    for kind, act, loss, d_out in combos:
        # crc32, not hash(): str hashes are salted per interpreter
        rng = np.random.default_rng(
            zlib.crc32(f"{kind} {act} {loss}".encode()))
        model = FeedforwardModel(4, d_out,
                                 hidden=(6, 5) if kind == "mlp" else (),
                                 activation=act)
        obj = Objective(model, loss)
        checked = 0
        while checked < 50:
            theta = rng.standard_normal(model.n_params) * 0.7
            x = rng.standard_normal(4)
            y = int(rng.integers(0, 2 if d_out == 1 else d_out))
            if not away_from_kinks(obj, theta, x, y):
                continue
            fd = harness._central_difference(obj, theta, x, y)
            if np.linalg.norm(fd) < 1e-3:
                # saturated/dead point: the reference itself is below the
                # finite-difference noise floor, resample like a kink point
                continue
            g = obj.per_sample_grad(theta, x, y)
            err = np.linalg.norm(g - fd) / np.linalg.norm(fd)
            assert err <= 1e-5, (kind, act, loss, err)
            worst = max(worst, err)
            checked += 1
    return f"{len(combos)} combos x 50 points, worst rel err {worst:.1e}"


# --------------------------------------------------------------------------
# 6. Weakly convex stationarity via the proximal envelope
# --------------------------------------------------------------------------

@criterion(6)
def test_acceptance_6_envelope_decay():
    rings = gen_rings_2d(0)
    sub = np.random.default_rng(123).choice(rings.n, size=100, replace=False)
    X, y = rings.features[sub], rings.labels[sub]
    n, s, q = 100, 20, 5
    obj = Objective(FeedforwardModel(2, 1, hidden=(8,), activation="tanh"),
                    "binary-cross-entropy", l2=1e-4)
    gamma = gamma_weights(n, s, q)
    settings = dict(rho_hat=10.0, inner_tol=1e-7, inner_max_iter=30_000)
    spec = ScheduleSpec(kind="inverse-sqrt", base_lr=0.5)
    ratios = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        theta0 = obj.init_params(rng)
        initial = moreau_grad_norm(obj, theta0, X, y, gamma, **settings)
        state = init_state(theta0.copy(), q=q, lr=0.5)
        step = 0
        for epoch in range(200):
            for _ in range(n // s):
                state.lr_current = schedule_lr(spec, epoch, step)
                osgd_step(state, obj, X, y, sample_minibatch(rng, n, s), q)
                step += 1
        final = moreau_grad_norm(obj, state.theta, X, y, gamma, **settings)
        ratios.append(final / initial)
    median_ratio = float(np.median(ratios))
    assert median_ratio <= 0.5
    return f"median envelope-grad ratio after 200 epochs: {median_ratio:.3f} <= 0.5"


# --------------------------------------------------------------------------
# 7. Qualitative 2-D geometry reproduction
# --------------------------------------------------------------------------

def _load_script(name):
    """scripts/<name>.py as a module; its main() is not run."""
    path = os.path.join(os.path.dirname(CONFIG_DIR), "scripts", name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@criterion(7)
def test_acceptance_7_geometry_focus():
    """Scored by the 2-D script itself: the median focus-group accuracy
    over seeds 0..9 of the shipped configs, osgd against sgd."""
    script = _load_script("run_2d_geometries")
    details = []
    for cfg_file, group in (("rings_osgd.cfg", "inner"),
                            ("clusters_osgd.cfg", "subcluster")):
        rows, medians, _ = script.run_geometry(cfg_file, range(10), group)
        for kind in ("osgd", "sgd"):  # the script skips a failed seed
            assert [r["seed"] for r in rows if r["optimizer"] == kind] == \
                list(range(10)), (cfg_file, kind)
        ordered, baseline = medians["osgd"][0], medians["sgd"][0]
        assert ordered > baseline, (cfg_file, ordered, baseline)
        details.append(f"{group} acc median {ordered:.2f} > {baseline:.2f}")
    return "; ".join(details)


# --------------------------------------------------------------------------
# 8. Desk-scale error-rate comparison on the canonical digits file
# --------------------------------------------------------------------------

def _semeion_summary(ds_full, loss_kind, opt_kind):
    cfg = load_config(os.path.join(CONFIG_DIR, "semeion_logistic_osgd.cfg"),
                      overrides=[f"loss.kind = {loss_kind}",
                                 f"opt.kind = {opt_kind}"])
    result = run_experiment(cfg, ds_full)  # a fresh split per seed
    for res in result.runs:
        assert not res.failed, res.error
    summary = result.summary()  # sample std (ddof=1) over the ten seeds
    return summary["mean_test_err"], summary["std_test_err"]


@criterion(8, budget_seconds=900)
def test_acceptance_8_semeion_rows():
    if not SEMEION_PRESENT:
        pytest.skip(
            f"canonical Semeion file not present at {SEMEION_PATH} and not "
            f"obtainable in this sandbox (no general network access); place "
            f"the 1593-row file there to run this criterion")
    ds_full = load_semeion(SEMEION_PATH)
    assert ds_full.n == 1593
    details = []
    for loss_kind, ref_osgd, ref_sgd in [
            ("multinomial-cross-entropy", 9.31, 10.76),
            ("multiclass-hinge", 10.25, 11.05)]:
        osgd_mean, osgd_std = _semeion_summary(ds_full, loss_kind, "osgd")
        sgd_mean, sgd_std = _semeion_summary(ds_full, loss_kind, "sgd")
        assert osgd_mean < sgd_mean, (loss_kind, osgd_mean, sgd_mean)
        assert abs(osgd_mean - ref_osgd) <= 2.0, (loss_kind, osgd_mean)
        assert abs(sgd_mean - ref_sgd) <= 2.0, (loss_kind, sgd_mean)
        details.append(f"{loss_kind}: ordered {osgd_mean:.2f} ({osgd_std:.2f})"
                       f" < baseline {sgd_mean:.2f} ({sgd_std:.2f})")
    return "; ".join(details)


# --------------------------------------------------------------------------
# 9. Exact q = s trajectory equivalence
# --------------------------------------------------------------------------

def _equivalence_config(opt_kind, q):
    """The shipped Semeion config with opt.kind = opt_kind and a fixed q,
    for 3 epochs of seed 0."""
    return load_config(os.path.join(CONFIG_DIR, "semeion_logistic_osgd.cfg"),
                       overrides=[f"name = accept9-{opt_kind}",
                                  f"opt.kind = {opt_kind}", f"opt.q = {q}",
                                  "epochs = 3", "seeds = 0"])


@criterion(9, budget_seconds=60)
def test_acceptance_9_q_equals_s_bit_identical():
    if SEMEION_PRESENT:
        ds_full = load_semeion(SEMEION_PATH)
        source = "semeion"
    else:
        ds_full = stand_in_digits()
        source = "synthetic stand-in (canonical file absent)"
    ds = split_dataset(ds_full, 0.2, seed=0, stratified=True)
    s = 64
    pairs = [("osgd", "sgd"), ("oadam", "adam")]
    for ordered_kind, plain_kind in pairs:
        cfg = _equivalence_config(ordered_kind, q=s)
        a = run_single(cfg, ds, 0)
        harness._prefix_store.clear()  # b computes its q = s prefix too
        b = run_single(_equivalence_config(plain_kind, q=s), ds, 0)
        assert b.reused_epochs == 0
        assert not a.failed and not b.failed
        np.testing.assert_array_equal(a.final_theta, b.final_theta)
        for ra, rb in zip(a.records, b.records):
            assert ra.train_avg_loss == rb.train_avg_loss
            assert ra.test_error_pct == rb.test_error_pct
        # both runs take the runner's one step path: the plain baseline
        # step looped over the same batches is the independent reference
        assert a.final_theta.tobytes() == \
            baseline_theta(cfg, ds, 0, plain_kind).tobytes()
    return f"osgd==sgd and oadam==adam over 3 epochs on {source}"


# --------------------------------------------------------------------------
# 10. Deterministic tie-breaking under relabeling
# --------------------------------------------------------------------------

@criterion(10)
def test_acceptance_10_tie_breaking_fixture():
    rng = np.random.default_rng(1010)
    for case in range(1000):
        n = int(rng.integers(4, 16))
        values = rng.integers(0, 3, n).astype(np.float64)  # planted ties
        size = int(rng.integers(2, n + 1))
        batch = np.sort(rng.choice(n, size=size, replace=False))
        q = int(rng.integers(1, size + 1))

        def rule(vals, members, k):
            chosen = sorted(members.tolist(),
                            key=lambda i: (-vals[i], i))[:k]
            return sorted(chosen)  # canonical ascending-index set form

        got = q_argmax(values, batch, q)
        assert got.tolist() == rule(values, batch, q), case

        # permute the duplicate-loss sample order and re-run: the outputs
        # must again be exactly what the smaller-index rule dictates
        perm = rng.permutation(n)
        p_values = values[perm]
        inverse = np.empty(n, dtype=int)
        inverse[perm] = np.arange(n)
        p_batch = np.sort(inverse[batch])
        p_got = q_argmax(p_values, p_batch, q)
        assert p_got.tolist() == rule(p_values, p_batch, q), case
    return "1000 randomized cases with planted ties, both labelings"
