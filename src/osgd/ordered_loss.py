"""Rank-weighted empirical loss and its unbiasedness oracle.

The ordered empirical loss over n samples is

    L_q(theta) = (1/q) * sum_j gamma_j * L_(j)(theta) + R(theta),

where L_(1) >= L_(2) >= ... are the per-sample losses in the order of
:func:`osgd.selection.rank_by_loss`, the order the top-q step selects by,
and gamma_j / q are the per-sample weights of :func:`rank_weights`, the
selection weights of :mod:`osgd.coeffs` over q.  Averaging the top-q
update direction over every possible minibatch reproduces the analytic
subgradient of L_q exactly; :func:`expected_step_bruteforce` certifies
this by enumeration, and both forward the data once.  The enumeration
(:func:`rank_selection_counts`) builds the s-subsets as rows of numpy
tables, selects the top q of a fixed-size block of rows in one numpy
call, and counts the kept ids as exact integers.
"""
from __future__ import annotations

from dataclasses import dataclass
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


def rank_weights(order, gamma: GammaWeights) -> np.ndarray:
    """L_q's per-sample weights: gamma_j / q on ``order[j]``, the rank j."""
    n = order.shape[0]
    if gamma.n != n:
        raise ValueError(f"gamma built for n={gamma.n}, data has n={n}")
    weights = np.empty(n, dtype=np.float64)
    weights[order] = gamma.approx / gamma.q
    return weights


def lq_subgradient(obj, theta, X, y, gamma: GammaWeights) -> np.ndarray:
    """Analytic subgradient (1/q) * sum_j gamma_j * g_(j) + grad R.

    Uses the module-wide subgradient selection and tie rule, so the result
    is a deterministic function of (theta, data, gamma).
    """
    return lq_value_and_subgradient(obj, theta, X, y, gamma)[1]


def lq_value_and_subgradient(obj, theta, X, y, gamma: GammaWeights):
    """(L_q(theta), :func:`lq_subgradient`) from one forward pass over X."""
    taped = obj.taped_batch(theta, X, y)
    reg_value, reg_grad = obj.regularizer(theta)
    profile = LossProfile.of(taped.losses, reg_value)
    weights = rank_weights(profile.order, gamma)
    return (ordered_empirical_loss(profile, gamma),
            taped.grad(weights) + reg_grad)


def _lex_subsets(n: int, k: int) -> np.ndarray:
    """Every k-subset of range(n) as one ascending row, rows in lexicographic
    order: the rows of ``itertools.combinations(range(n), k)``.

    The table has C(n, k) rows and the smallest unsigned integer dtype that
    holds n - 1.  It is built one column at a time: a row whose last entry
    is v is repeated once for each value v+1, ..., n-k+c that column c can
    take, and those values fill the new column.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got (n={n}, k={k})")
    dtype = np.min_scalar_type(max(n - 1, 0))
    if k == 0:
        return np.empty((1, 0), dtype=dtype)
    table = np.arange(n - k + 1, dtype=dtype)[:, None]
    for c in range(1, k):
        first = table[:, -1].astype(np.intp) + 1  # smallest value of column c
        reps = (n - k + c + 1) - first
        table = np.repeat(table, reps, axis=0)
        # offset of each new row inside its parent's run of repeats
        offset = np.arange(table.shape[0]) - np.repeat(np.cumsum(reps) - reps,
                                                       reps)
        column = (np.repeat(first, reps) + offset).astype(dtype)
        table = np.concatenate((table, column[:, None]), axis=1)
    return table


def _subset_blocks(n: int, s: int, rows: int):
    """The s-subsets of range(n) in lexicographic order, ``rows`` at a time
    as (rows, s) arrays (the last block may be shorter).

    Only the smaller of s and n - s is ever tabulated, so the table stays
    at most C(n, s) x n/2 entries and its column loop short.  Above n/2 the
    table holds the complements: they come in reverse lexicographic order
    (the smallest element of A xor B is in the lexicographically smaller
    of A, B, and outside its complement), and each block is rebuilt from
    them as the entries its row does not hold.
    """
    if 2 * s <= n:
        table = _lex_subsets(n, s)
        for start in range(0, table.shape[0], rows):
            yield table[start:start + rows]
        return
    table = _lex_subsets(n, n - s)[::-1]
    for start in range(0, table.shape[0], rows):
        held = table[start:start + rows]
        kept = np.ones((held.shape[0], n), dtype=bool)
        kept[np.arange(held.shape[0])[:, None], held] = False
        yield np.nonzero(kept)[1].reshape(held.shape[0], s)


def rank_selection_counts(losses, s: int, q: int):
    """How often each sample lands in the kept top-q set, over all s-subsets.

    Returns ``(counts, total)`` where ``counts[i]`` is the number of the
    ``total = C(n, s)`` batches in which sample i is selected.  Exact
    integers; ``counts[rank_by_loss(losses)[j]] / total`` equals gamma_j.

    The subsets come from numpy tables (:func:`_subset_blocks`) in blocks
    of ``_ENUM_BLOCK_ROWS`` rows; the top q of every row of a block are
    selected by one stacked :func:`q_argmax` call, with the same tie rule
    as a single batch.  The counts never read the gamma formula, so they
    stay an independent oracle for it.  Non-finite losses are rejected
    with their index.
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
    for block in _subset_blocks(n, s, _ENUM_BLOCK_ROWS):
        counts += np.bincount(q_argmax(losses, block, q).ravel(),
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
    taped = obj.taped_batch(theta, X, y)
    counts, total = rank_selection_counts(taped.losses, s, q)
    weights = counts / (q * float(total))
    _, reg_grad = obj.regularizer(theta)
    return taped.grad(weights) + reg_grad
