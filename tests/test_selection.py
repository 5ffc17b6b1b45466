"""Sampling uniformity, top-q determinism, and the tie rule."""
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osgd.coeffs import gamma_weights
from osgd.selection import q_argmax, rank_by_loss, sample_minibatch


class TestSampleMinibatch:
    def test_full_batch_is_everything(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert sample_minibatch(rng, 3, 3).tolist() == [0, 1, 2]

    def test_subsets_equifrequent(self):
        rng = np.random.default_rng(42)
        counts = {}
        draws = 60_000
        for _ in range(draws):
            key = tuple(sample_minibatch(rng, 4, 2))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        for key, c in counts.items():
            assert abs(c / draws - 1.0 / 6.0) < 0.01, key

    def test_seeded_determinism(self):
        rng = np.random.default_rng(7)
        first = [sample_minibatch(rng, 20, 5).tolist() for _ in range(10)]
        rng = np.random.default_rng(7)
        second = [sample_minibatch(rng, 20, 5).tolist() for _ in range(10)]
        assert first == second

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            sample_minibatch(np.random.default_rng(0), 3, 4)


class TestQArgmax:
    def test_tie_broken_toward_smaller_index(self):
        values = np.array([0.5, 0.5, 0.3])
        batch = np.array([0, 1, 2])
        assert q_argmax(values, batch, 2).tolist() == [0, 1]

    def test_q_equals_batch_returns_batch(self):
        values = np.array([0.1, 0.9, 0.5, 0.2])
        batch = np.array([0, 2, 3])
        assert q_argmax(values, batch, 3).tolist() == [0, 2, 3]

    def test_unique_maximum(self):
        values = np.array([1.0, 3.0, 2.0])
        assert q_argmax(values, np.array([0, 1, 2]), 1).tolist() == [1]

    def test_q_too_large_rejected(self):
        with pytest.raises(ValueError):
            q_argmax(np.array([1.0, 2.0]), np.array([0, 1]), 3)

    def test_only_batch_members_selected(self):
        values = np.array([9.0, 1.0, 8.0, 2.0])
        batch = np.array([1, 3])
        assert q_argmax(values, batch, 1).tolist() == [3]


class TestStackedQArgmax:
    def test_each_row_is_selected_on_its_own(self):
        values = np.array([0.5, 0.5, 0.3, 0.9])
        batches = np.array([[0, 1, 2], [1, 2, 3], [0, 2, 3]])
        assert q_argmax(values, batches, 2).tolist() == [[0, 1], [1, 3],
                                                         [0, 3]]

    def test_empty_stack(self):
        got = q_argmax(np.arange(4.0), np.empty((0, 3), dtype=np.intp), 2)
        assert got.shape == (0, 2)

    @pytest.mark.parametrize("q", [0, 4])
    def test_q_outside_row_length_rejected(self, q):
        with pytest.raises(ValueError):
            q_argmax(np.arange(4.0), np.array([[0, 1, 2], [1, 2, 3]]), q)

    def test_three_dimensional_stack_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            q_argmax(np.arange(4.0), np.zeros((2, 2, 3), dtype=np.intp), 1)


# small integers for many ties, with signed zeros and infinities
_TIE_HEAVY = st.sampled_from([-np.inf, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0,
                              np.inf])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_stacked_q_argmax_rows_equal_single_batch_calls(data):
    n = data.draw(st.integers(1, 10))
    values = np.array(data.draw(st.lists(_TIE_HEAVY, min_size=n, max_size=n)))
    s = data.draw(st.integers(1, n))
    k = data.draw(st.integers(1, 8))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    batches = np.array([np.sort(rng.choice(n, s, replace=False))
                        for _ in range(k)])
    q = data.draw(st.integers(1, s))
    got = q_argmax(values, batches, q)
    assert got.shape == (k, q)
    for row, batch in zip(got, batches):
        assert row.tolist() == q_argmax(values, batch, q).tolist()


class TestRankByLoss:
    def test_tie_rule_example(self):
        assert rank_by_loss(np.array([2.0, 2.0, 5.0])).tolist() == [2, 0, 1]

    def test_all_equal_gives_identity(self):
        assert rank_by_loss(np.zeros(6)).tolist() == list(range(6))

    def test_matches_comparison_sort_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            losses = rng.standard_normal(30)
            want = sorted(range(30), key=lambda i: (-losses[i], i))
            assert rank_by_loss(losses).tolist() == want

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="diverged"):
            rank_by_loss(np.array([1.0, np.nan, 2.0]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_q_argmax_is_prefix_of_rank_restricted_to_batch(data):
    n = data.draw(st.integers(2, 12))
    losses = np.array(data.draw(st.lists(
        st.floats(-5, 5, allow_nan=False), min_size=n, max_size=n)))
    size = data.draw(st.integers(1, n))
    batch = np.sort(np.random.default_rng(
        data.draw(st.integers(0, 2**32 - 1))).choice(n, size, replace=False))
    q = data.draw(st.integers(1, size))
    in_batch = np.isin(rank_by_loss(losses), batch)
    want = sorted(rank_by_loss(losses)[in_batch][:q].tolist())
    assert q_argmax(losses, batch, q).tolist() == want


@pytest.mark.parametrize("n,s,q", [(5, 3, 2), (6, 4, 1), (7, 3, 3)])
def test_selection_frequency_reproduces_gamma(n, s, q):
    rng = np.random.default_rng(n * 100 + s * 10 + q)
    losses = rng.permutation(np.linspace(1.0, 2.0, n))  # distinct
    order = rank_by_loss(losses)
    counts = np.zeros(n, dtype=np.int64)
    total = 0
    for subset in combinations(range(n), s):
        total += 1
        counts[q_argmax(losses, np.array(subset), q)] += 1
    freqs = [Fraction(int(counts[order[j]]), total) for j in range(n)]
    assert freqs == list(gamma_weights(n, s, q).exact)
