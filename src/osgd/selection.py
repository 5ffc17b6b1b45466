"""Minibatch sampling and deterministic top-q selection.

Indices are 0-based row positions into the dataset.  Ties in loss values
are always broken toward the smaller original index, which makes every
selection and ranking operation a pure function of its inputs.
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


def topq_positions(values: np.ndarray, q: int) -> np.ndarray:
    """Positions of the q largest entries, ties toward the smaller position.

    Partial selection: argpartition isolates the top region, then only the
    entries tied at the threshold value are resolved explicitly, so the
    expected cost is O(len(values)).
    """
    values = np.asarray(values, dtype=np.float64)
    m = values.shape[0]
    if not 0 < q <= m:
        raise ValueError(f"need 1 <= q <= len(values) = {m}, got q={q}")
    if q == m:
        return np.arange(m)
    part = np.argpartition(-values, q - 1)
    threshold = values[part[q - 1]]
    sure = np.flatnonzero(values > threshold)
    tied = np.flatnonzero(values == threshold)
    take = q - sure.size
    return np.sort(np.concatenate([sure, tied[:take]]))


def q_argmax(values: np.ndarray, batch: np.ndarray, q: int) -> np.ndarray:
    """The q members of ``batch`` whose ``values`` entries are largest.

    ``values`` is indexed by sample id; ``batch`` must be sorted ascending
    so that the tie rule (smaller original index wins) reduces to the
    positional rule inside the batch.  Returns indices sorted ascending.

    ``batch`` is either one batch of shape (s,), which returns the (q,)
    kept ids, or a stack of k batches of shape (k, s), one per row, which
    returns the (k, q) kept ids of each row.  The stacked path ranks every
    row at once with a stable sort on the negated values, so equal values
    keep their positional order: the same tie rule as the single batch.
    """
    batch = np.asarray(batch)
    s = batch.shape[-1]
    if q > s:
        raise ValueError(f"q={q} exceeds batch size {s}")
    vals = np.asarray(values, dtype=np.float64)[batch]
    if batch.ndim == 1:
        return batch[topq_positions(vals, q)]
    if batch.ndim != 2 or q < 1:
        raise ValueError(f"need 1 <= q <= s on an (s,) batch or a (k, s) "
                         f"stack, got q={q} and shape {batch.shape}")
    keep = np.sort(np.argsort(-vals, axis=-1, kind="stable")[:, :q], axis=-1)
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
    """Permutation listing sample indices by nonincreasing loss.

    Equal losses keep their original index order (stable sort on the
    negated values).  Non-finite losses are rejected (:func:`finite_losses`).
    """
    return np.argsort(-finite_losses(losses), kind="stable")
