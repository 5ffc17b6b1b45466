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
subgradient; the one solver here (:func:`_subgradient_solve`, behind
:func:`reference_optimum` and :func:`moreau_grad_norm`) descends along
(and certifies with) the minimum-norm subgradient found over pairwise
weight transfers inside each tie group, which vanishes at the optimum even
when every single-selection subgradient does not.
"""
from __future__ import annotations

from math import log, sqrt

import numpy as np

from ._settings import (AT_LEAST_1, FINITE, INTEGER, NONNEG, POSITIVE_FINITE,
                        check_sizes, check_value)
from .ordered_loss import (lq_value_and_subgradient, ordered_empirical_loss,
                           rank_weights)
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


def _is_majorized(vec, cap):
    """Whether sorted(vec) is majorized by sorted(cap) (equal totals)."""
    a = np.sort(vec)[::-1].cumsum()
    b = np.sort(cap)[::-1].cumsum()
    if abs(a[-1] - b[-1]) > 1e-12 * (1.0 + abs(b[-1])):
        return False
    return bool(np.all(a <= b + 1e-12 * (1.0 + np.abs(b))))


_TIE_RTOL, _TIE_SWEEPS = 1e-9, 6  # of _tie_mixed_subgradient


def _tie_mixed_subgradient(obj, beta, X, y, gamma, pull, taped=None):
    """Small-norm subgradient over admissible tie-weight mixings.

    Ranks whose losses agree to ``_TIE_RTOL`` form a group; within a group
    the rank weights may be redistributed by any doubly stochastic mixing
    (kept admissible via majorization checks).  Pairwise transfers with
    closed-form optimal magnitude are swept ``_TIE_SWEEPS`` times; with no
    ties this reduces to the ordinary tie-rule subgradient.  ``pull`` is the
    gradient at beta of a term added to L_q; ``taped`` is beta's forward
    over X, where the caller already has it.
    """
    if taped is None:
        taped = obj.taped_batch(beta, X, y)
    order = rank_by_loss(taped.losses)
    srt = taped.losses[order]
    u = rank_weights(order, gamma)
    _, reg = obj.regularizer(beta)
    fixed = reg + pull

    # A group is a run of sorted ranks between two breaks of the losses;
    # edges holds each run's first rank, then the number of ranks.
    breaks = np.abs(np.diff(srt)) > _TIE_RTOL * (1.0 + np.abs(srt[1:]))
    edges = np.flatnonzero(np.concatenate(([True], breaks, [True])))
    wide = np.flatnonzero(np.diff(edges) > 1)
    groups = []  # (member ids, their weight caps) of each group
    for start, end in zip(edges[wide].tolist(), edges[wide + 1].tolist()):
        wts = gamma.approx[start:end]
        if wts.max() > wts.min():
            ids = order[start:end]
            groups.append((ids.tolist(), u[ids]))
    g = taped.grad(u) + fixed
    if not groups:
        return g

    member_grads = {i: obj.per_sample_grad(beta, X[i], int(y[i]))
                    for ids, _ in groups for i in ids}
    for _ in range(_TIE_SWEEPS):
        for ids, cap in groups:
            for ai in range(len(ids)):
                for bi in range(ai + 1, len(ids)):
                    a, b = ids[ai], ids[bi]
                    e = member_grads[b] - member_grads[a]
                    denom = float(e.dot(e))
                    if denom == 0.0:
                        continue
                    m = -float(g.dot(e)) / denom  # moves weight from a to b
                    for _ in range(20):
                        if m == 0.0:
                            break
                        trial = u[ids]
                        trial[ai] -= m
                        trial[bi] += m
                        if _is_majorized(trial, cap):
                            g = g + m * e
                            u[a] -= m
                            u[b] += m
                            break
                        m *= 0.5
    return g


def _subgradient_solve(obj, X, y, gamma, beta0, base_lr, step_tol, grad_tol,
                       max_iter, context, coarse_iters=1500, center=None,
                       rho=0.0):
    """Two-phase deterministic full-batch minimizer of L_q, plus the
    proximal term (rho / 2) ||beta - center||^2 when a center is given.

    Phase 1 is classic subgradient descent with inverse-sqrt steps and
    best-iterate tracking; it makes progress even across the kinks of the
    ordered loss.  Each iterate's value and subgradient come from one
    forward pass (:func:`lq_value_and_subgradient`); the phase ends early
    once a step leaves the iterate byte-identical.  Phase 2 polishes the
    best iterate with Armijo-backtracked steepest descent along the
    tie-mixed minimum-norm subgradient until the accepted step is shorter
    than step_tol or that subgradient's norm falls below grad_tol.  Each
    trial point is forwarded once, and the accepted trial's forward also
    gives its tie-mixed subgradient.  A polish stall (no further
    float-representable decrease) returns the best iterate as is; an
    exhausted iteration budget raises ConvergenceError.
    """
    def proximal(beta):
        """The proximal term at beta and its gradient, the pull."""
        d = beta - center
        return 0.5 * rho * float(d.dot(d)), rho * d

    def value_grad(beta):
        val, g = lq_value_and_subgradient(obj, beta, X, y, gamma)
        if center is None:
            return val, g
        term, pull = proximal(beta)
        return val + term, None if g is None else g + pull

    def min_grad(beta, taped=None):
        pull = np.zeros_like(beta) if center is None else proximal(beta)[1]
        return _tie_mixed_subgradient(obj, beta, X, y, gamma, pull, taped)

    beta = np.array(beta0, dtype=np.float64)
    best_val, g = value_grad(beta)
    if g is None:
        raise ValueError(f"{context}: objective not finite at the start")
    best_beta, best_g = beta.copy(), g
    guard = 10.0 * abs(best_val) + 1e3
    lr = base_lr
    for k in range(min(coarse_iters, max_iter)):
        step = beta - (lr / sqrt(k + 1.0)) * g
        if step.tobytes() == beta.tobytes():  # bytes, as -0.0 == 0.0
            # g stays as it is and later steps are no longer, so with
            # monotone rounding no later iterate moves either
            break
        beta = step
        val, g = value_grad(beta)
        if not np.isfinite(val) or val > guard:
            lr *= 0.5  # too aggressive for this landscape; restart from best
            beta, g = best_beta.copy(), best_g
            continue
        if val < best_val:
            best_val = val
            best_beta, best_g = beta.copy(), g

    beta, val = best_beta, best_val
    g = min_grad(beta)
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
            taped = obj.taped_batch(cand, X, y)
            cval = ordered_empirical_loss(taped.losses,
                                          obj.regularizer(cand)[0], gamma)
            if center is not None:
                cval += proximal(cand)[0]
            if cval <= val - max(1e-4 * eta * gn * gn, floor):
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            return beta, val, gn  # nothing decreases in float: iterate stands
        eta_cap = eta
        last_step = eta * gn
        beta, val = cand, cval
        g = min_grad(beta, taped)
        if last_step <= step_tol:
            return beta, val, float(np.linalg.norm(g))
    raise ConvergenceError(f"{context}: iteration budget exhausted",
                           max_iter, last_step, float(np.linalg.norm(g)))


def moreau_grad_norm(obj, theta, X, y, gamma, rho_hat, inner_tol=1e-8,
                     inner_max_iter=50_000) -> float:
    """Envelope gradient norm rho_hat * ||theta - beta*|| at theta.

    beta* solves the rho_hat-penalized proximal subproblem, whose polish
    stops at an accepted step no longer than inner_tol; rho_hat must
    exceed the weak-convexity modulus.  Failure to converge within
    inner_max_iter raises ConvergenceError.
    """
    check_value("rho_hat", rho_hat, POSITIVE_FINITE)
    check_value("inner_tol", inner_tol, POSITIVE_FINITE)
    check_value("inner_max_iter", inner_max_iter, INTEGER, AT_LEAST_1)
    theta = np.asarray(theta, dtype=np.float64)
    beta_star, _, _ = _subgradient_solve(
        obj, X, y, gamma, theta, base_lr=1.0 / rho_hat, step_tol=inner_tol,
        grad_tol=0.0, max_iter=inner_max_iter,
        context="proximal subproblem", center=theta, rho=rho_hat)
    return rho_hat * float(np.linalg.norm(theta - beta_star))


def reference_optimum(obj, X, y, gamma, theta0=None, base_lr=0.5,
                      grad_tol=1e-6, max_iter=20_000, coarse_iters=4000):
    """Deterministic full-batch minimizer of the ordered loss.

    Returns (theta_star, value_star, cert): cert is the norm of the
    smallest tie-mixed subgradient found at theta_star.  For an
    l2-regularized objective (coefficient l2 > 0) with no near-ties among
    the losses at theta_star, the value is within cert^2 / (2 * l2) of the
    true minimum by strong convexity.  Near-ties void that bound: mixing
    the rank weights across losses that only nearly agree gives a function
    below L_q.  On a 14-sample squared-loss instance (l2 = 0.1, cert
    8.75e-7) the value is 2.06e-11 above that of a grad_tol=1e-9 solve,
    where the bound promises 3.83e-12 (ROADMAP item 9 has a bound that
    holds).  cert may also exceed grad_tol: a polish that finds no float
    decrease returns its iterate as is (that instance at grad_tol=1e-9
    returns cert 1.98e-8), so callers must read cert.  Intended for small
    convex instances where a trustworthy optimum is needed.
    """
    check_value("base_lr", base_lr, POSITIVE_FINITE)
    check_value("grad_tol", grad_tol, NONNEG)
    check_value("max_iter", max_iter, INTEGER, AT_LEAST_1)
    check_value("coarse_iters", coarse_iters, INTEGER, NONNEG)
    if theta0 is None:
        theta0 = np.zeros(obj.model.n_params)
    return _subgradient_solve(
        obj, X, y, gamma, theta0, base_lr=base_lr, step_tol=0.0,
        grad_tol=grad_tol, max_iter=max_iter, context="reference optimum",
        coarse_iters=coarse_iters)


def optimality_gap(history, lq_star: float) -> np.ndarray:
    """Running minimum of L_q(theta^t) - L_q(theta*) along a trajectory.
    A nan entry is skipped: the gap is nan only before the first number."""
    check_value("lq_star", lq_star, FINITE)
    history = np.asarray(history, dtype=np.float64)
    return np.fmin.accumulate(history - lq_star)


def concentration_term(M: float, s: int, q: int, n: int, delta: float) -> float:
    """Deviation term (M * s / q) * sqrt(ln(1/delta) / (2 n)).

    At q = s and M = 1 this is the standard concentration term
    sqrt(ln(1/delta) / (2 n)) of the empirical-average bound.
    """
    check_value("M", M, FINITE, NONNEG)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    check_sizes(n, s, q)
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
