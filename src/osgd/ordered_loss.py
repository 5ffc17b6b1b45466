"""Rank-weighted empirical loss and its unbiasedness oracle.

The ordered empirical loss over n samples is

    L_q(theta) = (1/q) * sum_j gamma_j * L_(j)(theta) + R(theta),

where L_(1) >= L_(2) >= ... are the per-sample losses sorted by value and
gamma_j are the selection weights of :mod:`osgd.coeffs`.  Its value is
computed in one place, :func:`ordered_empirical_loss`, from the losses
and R(theta) alone: tied losses are equal, so the value needs no rank
order.  The analytic subgradient weights each sample's gradient by
gamma_j / q at its place j in :func:`osgd.selection.rank_by_loss`, the
order the top-q step selects by (:func:`rank_weights`).  Averaging the
top-q update direction over every possible minibatch reproduces that
subgradient exactly; :func:`expected_step_bruteforce` certifies this by
enumeration, and both forward the data once.  The enumeration
(:func:`rank_selection_counts`) counts the s-subsets of the
``rank_by_loss`` places directly, as ascending rows of numpy tables: the
places relabel the samples one to one, and a row's first q places are
the ones its batch keeps.
"""
from __future__ import annotations

from math import comb

import numpy as np

from .coeffs import GammaWeights
# q_argmax: tracer only, deleted with ROADMAP 1a (the benchmark patches it).
from .selection import q_argmax, rank_by_loss  # noqa: F401

# Enumeration cap: keeps verification runs under a minute.
MAX_BRUTEFORCE_SUBSETS = 100_000
# Enumeration blocks have _ENUM_BLOCK_ENTRIES // n rows (at least one), so
# a block's (rows, s) subsets and, in the complement branch (2s > n), its
# (rows, n) mask and np.nonzero's two (rows, s) index arrays each hold at
# most this many entries.
_ENUM_BLOCK_ENTRIES = 2 ** 20


class ResourceError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed the subset cap."""


# Tracer only, deleted with ROADMAP 1a: the benchmark patches it; no caller.
def loss_profile(obj, theta, X, y):
    """``(losses, reg_value)``: the per-sample losses of X and the
    regularizer value at theta, the inputs of :func:`ordered_empirical_loss`."""
    losses = obj.per_example_losses(theta, X, y)
    reg_value, _ = obj.regularizer(theta)
    return losses, reg_value


def ordered_empirical_loss(losses, reg_value, gamma: GammaWeights) -> float:
    """(1/q) * sum_j gamma_j * L_(j) plus ``reg_value``, from the sorted
    values of ``losses`` alone: tied losses are equal, so the rank order
    is not needed."""
    n = losses.shape[0]
    if gamma.n != n:
        raise ValueError(f"gamma built for n={gamma.n}, got {n} losses")
    # contiguous: a dot product with the reversed view sums in another
    # order and changes the last bits
    descending = np.sort(losses)[::-1].copy()
    return float(gamma.approx.dot(descending)) / gamma.q + reg_value


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
    is a deterministic function of (theta, data, gamma).  A non-finite
    L_q is rejected.
    """
    value, grad = lq_value_and_subgradient(obj, theta, X, y, gamma)
    if grad is None:
        raise ValueError(f"L_q = {value} is not finite; run has diverged")
    return grad


def lq_value_and_subgradient(obj, theta, X, y, gamma: GammaWeights):
    """(L_q(theta), :func:`lq_subgradient`) from one forward pass over X.

    Where L_q is not finite (a loss or the regularizer overflowed) it has
    no subgradient, and the second entry is None.
    """
    taped = obj.taped_batch(theta, X, y)
    reg_value, reg_grad = obj.regularizer(theta)
    value = ordered_empirical_loss(taped.losses, reg_value, gamma)
    if not np.isfinite(value):
        return value, None
    weights = rank_weights(rank_by_loss(taped.losses), gamma)
    return value, taped.grad(weights) + reg_grad


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
    """The s-subsets of range(n) as ascending rows in lexicographic order,
    ``rows`` at a time as (rows, s) arrays (the last block may be shorter).

    Only the smaller of s and n - s is ever tabulated, so the table stays
    at most C(n, s) x n/2 entries and its column loop short.  Above n/2 the
    table holds the complements: they come in reverse lexicographic order
    (the smallest element of A xor B is in the lexicographically smaller
    of A, B, and outside its complement), and each block is rebuilt from
    them, row by row, as the ascending entries its row does not hold.
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

    Sample ``order[j]`` of :func:`rank_by_loss` (ties by index, as in
    :func:`q_argmax`) has place j, and relabelling by place maps the
    s-subsets of the samples one to one onto those of 0..n-1.  Those are
    counted directly: each row of :func:`_subset_blocks` is ascending, so
    its first q places are the ones its batch keeps, with no gather or
    sort; mapped back to samples once, they give the integers of ranking
    every batch.  They never read the gamma formula, so they stay an
    independent oracle for it.  A non-finite loss is rejected with its index.
    """
    order = rank_by_loss(losses)
    n = order.shape[0]
    if not 1 <= q <= s <= n:
        raise ValueError(f"need 1 <= q <= s <= n, got (n={n}, s={s}, q={q})")
    total = comb(n, s)
    if total > MAX_BRUTEFORCE_SUBSETS:
        raise ResourceError(f"C({n}, {s}) = {total} subsets exceeds the "
                            f"enumeration cap {MAX_BRUTEFORCE_SUBSETS}")
    kept = np.zeros(n, dtype=np.int64)  # per place
    rows = max(1, _ENUM_BLOCK_ENTRIES // n)
    for block in _subset_blocks(n, s, rows):
        kept += np.bincount(block[:, :q].ravel(), minlength=n)
    counts = np.empty(n, dtype=np.int64)
    counts[order] = kept
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
