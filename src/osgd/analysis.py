"""Theory-facing diagnostics: stationarity, optimality gaps, bound terms.

For weakly convex objectives the gradient norm of the proximal envelope
is the standard near-stationarity measure: with rho_hat exceeding the
weak-convexity modulus, the penalized subproblem

    min_beta  L_q(beta) + (rho_hat / 2) ||beta - theta||^2

is strongly convex, and rho_hat * ||theta - beta*|| is the envelope
gradient norm at theta.

Minimizers of rank-weighted losses generically sit on ranking ties, where
adjacent sorted losses equalize and the objective is nonsmooth.  At such
points any admissible mixing of the tied ranks' weights yields a valid
subgradient; the solvers here descend along (and certify with) the
minimum-norm subgradient found over pairwise weight transfers inside each
tie group, which vanishes at the optimum even when every single-selection
subgradient does not.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import log, sqrt

import numpy as np

from .ordered_loss import loss_profile, lq_subgradient, ordered_empirical_loss
from .selection import rank_by_loss


class ConvergenceError(RuntimeError):
    """Inner solver failed to reach its tolerance; carries diagnostics."""

    def __init__(self, message, iterations, last_step, grad_norm):
        super().__init__(
            f"{message} (iterations={iterations}, last_step={last_step:.3e}, "
            f"grad_norm={grad_norm:.3e})"
        )
        self.iterations = iterations
        self.last_step = last_step
        self.grad_norm = grad_norm


@dataclass(frozen=True)
class MoreauConfig:
    """Inner-solver settings; rho_hat must exceed the weak-convexity modulus."""

    rho_hat: float
    inner_tol: float = 1e-8
    inner_max_iter: int = 50_000

    def __post_init__(self):
        if self.rho_hat <= 0:
            raise ValueError(f"rho_hat must be positive, got {self.rho_hat}")
        if self.inner_tol <= 0:
            raise ValueError(f"inner_tol must be positive, got {self.inner_tol}")


def _is_majorized(vec, cap):
    """Whether sorted(vec) is majorized by sorted(cap) (equal totals)."""
    a = np.sort(vec)[::-1].cumsum()
    b = np.sort(cap)[::-1].cumsum()
    if abs(a[-1] - b[-1]) > 1e-12 * (1.0 + abs(b[-1])):
        return False
    return bool(np.all(a <= b + 1e-12 * (1.0 + np.abs(b))))


def _tie_mixed_subgradient(obj, beta, X, y, gamma, extra_grad,
                           tie_rtol=1e-9, sweeps=6):
    """Small-norm subgradient over admissible tie-weight mixings.

    Ranks whose losses agree to tie_rtol form a group; within a group the
    rank weights may be redistributed by any doubly stochastic mixing
    (kept admissible via majorization checks).  Pairwise transfers with
    closed-form optimal magnitude are swept a few times; with no ties this
    reduces to the ordinary tie-rule subgradient.
    """
    losses = obj.per_example_losses(beta, X, y)
    order = rank_by_loss(losses)
    srt = losses[order]
    n = losses.shape[0]
    u = np.empty(n)
    u[order] = gamma.approx / gamma.q
    _, reg = obj.regularizer(beta)
    fixed = reg + extra_grad(beta)

    groups = []
    start = 0
    for j in range(1, n + 1):
        if j == n or abs(srt[j] - srt[j - 1]) > tie_rtol * (1.0 + abs(srt[j])):
            if j - start > 1:
                ranks = np.arange(start, j)
                wts = gamma.approx[ranks]
                if wts.max() > wts.min():
                    groups.append(ranks)
            start = j
    g = obj.weighted_grad(beta, X, y, u) + fixed
    if not groups:
        return g

    member_grads = {}
    for ranks in groups:
        for i in order[ranks]:
            member_grads[int(i)] = obj.per_sample_grad(beta, X[int(i)],
                                                       int(y[int(i)]))
    caps = {tuple(order[ranks]): gamma.approx[ranks] / gamma.q
            for ranks in groups}
    for _ in range(sweeps):
        for ranks in groups:
            ids = [int(i) for i in order[ranks]]
            cap = caps[tuple(order[ranks])]
            for ai in range(len(ids)):
                for bi in range(ai + 1, len(ids)):
                    a, b = ids[ai], ids[bi]
                    e = member_grads[b] - member_grads[a]
                    denom = float(e @ e)
                    if denom == 0.0:
                        continue
                    m = -float(g @ e) / denom  # moves weight from a to b
                    for _ in range(20):
                        if m == 0.0:
                            break
                        trial = u[ids].copy()
                        trial[ai] -= m
                        trial[bi] += m
                        if _is_majorized(trial, cap):
                            g = g + m * e
                            u[a] -= m
                            u[b] += m
                            break
                        m *= 0.5
    return g


def _subgradient_solve(value_fn, grad_fn, min_grad_fn, beta0, base_lr,
                       step_tol, grad_tol, max_iter, context,
                       coarse_iters=1500):
    """Two-phase deterministic full-batch solver.

    Phase 1 is classic subgradient descent with inverse-sqrt steps and
    best-iterate tracking; it makes progress even across the kinks of the
    ordered loss.  Phase 2 polishes the best iterate with Armijo-
    backtracked steepest descent along the tie-mixed minimum-norm
    subgradient until the accepted step is shorter than step_tol or that
    subgradient's norm falls below grad_tol.  A polish stall (no further
    float-representable decrease) returns the best iterate as is; an
    exhausted iteration budget raises ConvergenceError.
    """
    beta = np.array(beta0, dtype=np.float64)
    best_val = value_fn(beta)
    best_beta = beta.copy()
    guard = 10.0 * abs(best_val) + 1e3
    lr = base_lr
    for k in range(min(coarse_iters, max_iter)):
        beta = beta - (lr / sqrt(k + 1.0)) * grad_fn(beta)
        val = value_fn(beta)
        if not np.isfinite(val) or val > guard:
            lr *= 0.5  # too aggressive for this landscape; restart from best
            beta = best_beta.copy()
            continue
        if val < best_val:
            best_val = val
            best_beta = beta.copy()

    beta, val = best_beta, best_val
    g = min_grad_fn(beta)
    eta_cap = base_lr
    last_step = np.inf
    for _ in range(max_iter):
        gn = float(np.linalg.norm(g))
        if gn <= grad_tol:
            return beta, val, gn
        eta = min(base_lr, 2.0 * eta_cap)
        accepted = False
        floor = 1e-15 * (abs(val) + 1e-30)  # decreases below float noise don't count
        for _ in range(60):
            cand = beta - eta * g
            cval = value_fn(cand)
            if cval <= val - max(1e-4 * eta * gn * gn, floor):
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            return beta, val, gn  # nothing decreases in float: iterate stands
        eta_cap = eta
        last_step = eta * gn
        beta, val = cand, cval
        g = min_grad_fn(beta)
        if last_step <= step_tol:
            return beta, val, float(np.linalg.norm(g))
    raise ConvergenceError(f"{context}: iteration budget exhausted",
                           max_iter, last_step, float(np.linalg.norm(g)))


def moreau_grad_norm(obj, theta, X, y, gamma, cfg: MoreauConfig) -> float:
    """Envelope gradient norm rho_hat * ||theta - beta*|| at theta.

    beta* solves the rho_hat-penalized proximal subproblem; failure to
    converge within cfg.inner_max_iter raises ConvergenceError.
    """
    theta = np.asarray(theta, dtype=np.float64)
    rho = cfg.rho_hat

    def value(beta):
        prof = loss_profile(obj, beta, X, y)
        d = beta - theta
        return ordered_empirical_loss(prof, gamma) + 0.5 * rho * float(d @ d)

    def prox_pull(beta):
        return rho * (beta - theta)

    def grad(beta):
        return lq_subgradient(obj, beta, X, y, gamma) + prox_pull(beta)

    def min_grad(beta):
        return _tie_mixed_subgradient(obj, beta, X, y, gamma, prox_pull)

    beta_star, _, _ = _subgradient_solve(
        value, grad, min_grad, theta, base_lr=1.0 / rho,
        step_tol=cfg.inner_tol, grad_tol=0.0, max_iter=cfg.inner_max_iter,
        context="proximal subproblem")
    return rho * float(np.linalg.norm(theta - beta_star))


def reference_optimum(obj, X, y, gamma, theta0=None, base_lr=0.5,
                      grad_tol=1e-6, max_iter=20_000, coarse_iters=4000):
    """Deterministic full-batch minimizer of the ordered loss.

    Returns (theta_star, value_star, cert): cert is the norm of the
    smallest tie-mixed subgradient found at theta_star.  For an
    l2-regularized objective (coefficient l2 > 0) the returned value is
    within cert^2 / (2 * l2) of the true minimum by strong convexity, so
    cert = 1e-6 certifies the value to ~1e-12/l2.  Intended for small
    convex instances where a trustworthy optimum is needed.
    """

    def value(beta):
        return ordered_empirical_loss(loss_profile(obj, beta, X, y), gamma)

    def grad(beta):
        return lq_subgradient(obj, beta, X, y, gamma)

    def min_grad(beta):
        return _tie_mixed_subgradient(obj, beta, X, y, gamma,
                                      lambda b: np.zeros_like(b))

    if theta0 is None:
        theta0 = np.zeros(obj.model.n_params)
    theta_star, val, gn = _subgradient_solve(
        value, grad, min_grad, theta0, base_lr=base_lr, step_tol=0.0,
        grad_tol=grad_tol, max_iter=max_iter, context="reference optimum",
        coarse_iters=coarse_iters)
    return theta_star, val, gn


def optimality_gap(history, lq_star: float) -> np.ndarray:
    """Running minimum of L_q(theta^t) - L_q(theta*) along a trajectory."""
    history = np.asarray(history, dtype=np.float64)
    return np.minimum.accumulate(history - lq_star)


def concentration_term(M: float, s: int, q: int, n: int, delta: float) -> float:
    """Deviation term (M * s / q) * sqrt(ln(1/delta) / (2 n)).

    At q = s and M = 1 this is the standard concentration term
    sqrt(ln(1/delta) / (2 n)) of the empirical-average bound.
    """
    if M < 0:
        raise ValueError(f"M must be nonnegative, got {M}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not 1 <= q <= s <= n:
        raise ValueError(f"need 1 <= q <= s <= n, got (n={n}, s={s}, q={q})")
    return (M * s / q) * sqrt(log(1.0 / delta) / (2.0 * n))


def zero_one_error(obj, theta, X, y) -> float:
    """Percent of misclassified examples; logit ties go to the smaller class."""
    return error_pct(obj.predictions(theta, X), y)


def error_pct(preds, y) -> float:
    """Percent of predictions that differ from the labels."""
    return 100.0 * float(np.mean(preds != np.asarray(y)))


def relative_improvement(err_baseline: float, err_ordered: float):
    """Percent improvement 100 * (baseline - ordered) / baseline.

    Undefined for a zero baseline error; returns None in that case so
    reports can show a missing value.
    """
    if err_baseline == 0:
        return None
    return 100.0 * (err_baseline - err_ordered) / err_baseline
