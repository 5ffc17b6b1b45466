"""Rank-weighted empirical loss and its unbiasedness oracle.

The ordered empirical loss over n samples is

    L_q(theta) = (1/q) * sum_j gamma_j * L_(j)(theta) + R(theta),

where L_(1) >= L_(2) >= ... are the per-sample losses sorted nonincreasing
(ties toward the smaller index) and gamma_j are the selection weights from
:mod:`osgd.coeffs`.  Averaging the top-q update direction over every
possible minibatch reproduces the analytic subgradient of L_q exactly;
:func:`expected_step_bruteforce` certifies this by enumeration.  The
enumeration (:func:`rank_selection_counts`) stacks the s-subsets into
fixed-size chunks of rows and selects the top q of a whole chunk in one
numpy call, counting the kept ids as exact integers.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb

import numpy as np

from .coeffs import GammaWeights
from .selection import finite_losses, q_argmax, rank_by_loss

# Enumeration cap: keeps verification runs under a minute.
MAX_BRUTEFORCE_SUBSETS = 100_000
# Subsets ranked per stacked selection: large enough that numpy, not the
# Python loop, does the work; small enough that a block's index, value
# and sort arrays stay a few hundred kB.
_ENUM_BLOCK_ROWS = 1024


class ResourceError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed the subset cap."""


@dataclass(frozen=True)
class LossProfile:
    """Per-sample losses with their rank permutation and regularizer value."""

    per_sample: np.ndarray
    order: np.ndarray
    reg_value: float

    @classmethod
    def of(cls, losses, reg_value) -> LossProfile:
        """Profile of given per-sample losses, ranked with the tie rule."""
        return cls(per_sample=losses, order=rank_by_loss(losses),
                   reg_value=reg_value)


def loss_profile(obj, theta, X, y) -> LossProfile:
    losses = obj.per_example_losses(theta, X, y)
    reg_value, _ = obj.regularizer(theta)
    return LossProfile.of(losses, reg_value)


def average_empirical_loss(profile: LossProfile) -> float:
    """Mean per-sample loss plus the regularizer value."""
    return float(profile.per_sample.mean()) + profile.reg_value


def ordered_empirical_loss(profile: LossProfile, gamma: GammaWeights) -> float:
    """(1/q) * sum_j gamma_j * L_(j) plus the regularizer value."""
    n = profile.per_sample.shape[0]
    if gamma.n != n:
        raise ValueError(f"gamma built for n={gamma.n}, profile has n={n}")
    sorted_losses = profile.per_sample[profile.order]
    return float(gamma.approx @ sorted_losses) / gamma.q + profile.reg_value


def lq_subgradient(obj, theta, X, y, gamma: GammaWeights) -> np.ndarray:
    """Analytic subgradient (1/q) * sum_j gamma_j * g_(j) + grad R.

    Uses the module-wide subgradient selection and tie rule, so the result
    is a deterministic function of (theta, data, gamma).
    """
    losses = obj.per_example_losses(theta, X, y)
    n = losses.shape[0]
    if gamma.n != n:
        raise ValueError(f"gamma built for n={gamma.n}, data has n={n}")
    order = rank_by_loss(losses)
    weights = np.empty(n, dtype=np.float64)
    weights[order] = gamma.approx / gamma.q
    _, reg_grad = obj.regularizer(theta)
    return obj.weighted_grad(theta, X, y, weights) + reg_grad


def rank_selection_counts(losses, s: int, q: int):
    """How often each sample lands in the kept top-q set, over all s-subsets.

    Returns ``(counts, total)`` where ``counts[i]`` is the number of the
    ``total = C(n, s)`` batches in which sample i is selected.  Exact
    integers; ``counts[rank_by_loss(losses)[j]] / total`` equals gamma_j.

    The subsets are enumerated in lexicographic order, in blocks of
    ``_ENUM_BLOCK_ROWS`` rows stacked into one (rows, s) index array, and
    the top q of every row are selected by one stacked :func:`q_argmax`
    call, with the same tie rule as a single batch.  The counts never
    read the gamma formula, so they stay an independent oracle for it.
    Non-finite losses are rejected with their index.
    """
    losses = finite_losses(losses)
    n = losses.shape[0]
    if not 1 <= q <= s <= n:
        raise ValueError(f"need 1 <= q <= s <= n, got (n={n}, s={s}, q={q})")
    total = comb(n, s)
    if total > MAX_BRUTEFORCE_SUBSETS:
        raise ResourceError(
            f"C({n}, {s}) = {total} subsets exceeds the enumeration cap "
            f"{MAX_BRUTEFORCE_SUBSETS}"
        )
    counts = np.zeros(n, dtype=np.int64)
    subsets = combinations(range(n), s)
    for start in range(0, total, _ENUM_BLOCK_ROWS):
        rows = min(_ENUM_BLOCK_ROWS, total - start)
        batches = np.fromiter(chain.from_iterable(islice(subsets, rows)),
                              dtype=np.intp, count=rows * s).reshape(rows, s)
        counts += np.bincount(q_argmax(losses, batches, q).ravel(),
                              minlength=n)
    return counts, total


def expected_step_bruteforce(obj, theta, X, y, s: int, q: int) -> np.ndarray:
    """Uniform average over all s-subsets of the top-q update direction.

    Each subset contributes (1/q) * sum of the gradients of its q
    largest-loss members, plus grad R.  Selection counts are accumulated
    as exact integers, so the only float reduction is a single weighted
    sum over samples (deterministic order).

    Equality with :func:`lq_subgradient` is an identity only when the
    per-sample losses are distinct: at ties the index-based tie rule makes
    the two sides select among tied samples differently, so equality tests
    should perturb tied losses first.
    """
    losses = obj.per_example_losses(theta, X, y)
    counts, total = rank_selection_counts(losses, s, q)
    weights = counts / (q * float(total))
    _, reg_grad = obj.regularizer(theta)
    return obj.weighted_grad(theta, X, y, weights) + reg_grad
