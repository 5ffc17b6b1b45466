"""Minibatch sampling and deterministic top-q selection.

Indices are 0-based row positions into the dataset.  One rank order
drives every selection and ranking here: values descending, ties toward
the smaller position (a stable sort on the negated values).  The top-q
kept set is the first q positions of that order, and the rank
permutation of L_q is the whole of it, so the step and the loss it
estimates always agree on which sample is the j-th largest.
"""
from __future__ import annotations

import numpy as np


def sample_minibatch(rng: np.random.Generator, n: int, s: int) -> np.ndarray:
    """Draw s distinct indices from range(n) uniformly, sorted ascending.

    Every s-subset is equiprobable; the sequence of draws is a pure
    function of the generator state, so a seeded generator reproduces the
    same batches.
    """
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= s <= n, got (n={n}, s={s})")
    return np.sort(rng.choice(n, size=s, replace=False))


def _rank_order(values) -> np.ndarray:
    """Positions along the last axis, values descending, ties ascending."""
    return np.argsort(-np.asarray(values, dtype=np.float64), axis=-1,
                      kind="stable")


def topq_positions(values: np.ndarray, q: int) -> np.ndarray:
    """Positions of the q largest entries, ascending; ties toward the
    smaller position."""
    values = np.asarray(values, dtype=np.float64)
    m = values.shape[0]
    if not 0 < q <= m:
        raise ValueError(f"need 1 <= q <= len(values) = {m}, got q={q}")
    kept = (-values).argsort(kind="stable")[:q]  # the order of _rank_order
    kept.sort()
    return kept


def q_argmax(values: np.ndarray, batch: np.ndarray, q: int) -> np.ndarray:
    """The q members of ``batch`` whose ``values`` entries are largest.

    ``values`` is indexed by sample id; ``batch`` must be sorted ascending
    so that the tie rule (smaller original index wins) reduces to the
    positional rule inside the batch.  Returns indices sorted ascending.

    ``batch`` is either one batch of shape (s,), which returns the (q,)
    kept ids, or a stack of k batches of shape (k, s), one per row, which
    returns the (k, q) kept ids of each row.
    """
    batch = np.asarray(batch)
    if batch.ndim not in (1, 2) or not 1 <= q <= batch.shape[-1]:
        raise ValueError(f"need 1 <= q <= s on an (s,) batch or a (k, s) "
                         f"stack, got q={q} and shape {batch.shape}")
    vals = np.asarray(values, dtype=np.float64)[batch]
    keep = np.sort(_rank_order(vals)[..., :q], axis=-1)
    return np.take_along_axis(batch, keep, axis=-1)


def finite_losses(losses) -> np.ndarray:
    """``losses`` as float64; a non-finite entry is rejected by its index.

    Non-finite losses signal divergence upstream.
    """
    losses = np.asarray(losses, dtype=np.float64)
    if not np.isfinite(losses).all():
        bad = int(np.flatnonzero(~np.isfinite(losses))[0])
        raise ValueError(f"non-finite loss at index {bad}; run has diverged")
    return losses


def rank_by_loss(losses: np.ndarray) -> np.ndarray:
    """Permutation listing sample indices by nonincreasing loss, ties
    toward the smaller index.  Non-finite losses are rejected
    (:func:`finite_losses`)."""
    return _rank_order(finite_losses(losses))
