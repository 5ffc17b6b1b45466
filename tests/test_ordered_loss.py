"""Ordered loss values, analytic subgradient, and the enumeration oracle."""
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osgd.coeffs import gamma_weights
from osgd.objectives import FeedforwardModel, Objective
from osgd.ordered_loss import (LossProfile, ResourceError,
                               average_empirical_loss,
                               expected_step_bruteforce, loss_profile,
                               lq_subgradient, ordered_empirical_loss,
                               rank_selection_counts)
from osgd.selection import q_argmax, rank_by_loss


def profile_from(losses, reg=0.0):
    losses = np.asarray(losses, dtype=np.float64)
    return LossProfile(per_sample=losses, order=rank_by_loss(losses),
                       reg_value=reg)


def logistic_instance(seed, n=8, d=3, l2=0.05, distinct=True):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = rng.integers(0, 2, n)
    model = FeedforwardModel(d, 1, bias=False)
    obj = Objective(model, "binary-cross-entropy", l2=l2)
    theta = rng.standard_normal(d)
    if distinct:
        losses = obj.per_example_losses(theta, X, y)
        assert np.unique(losses).size == n, "instance has tied losses"
    return obj, theta, X, y


class TestAverageLoss:
    def test_simple_mean(self):
        assert average_empirical_loss(profile_from([1.0, 2.0, 3.0])) == 2.0

    def test_constant_plus_regularizer(self):
        assert average_empirical_loss(profile_from([4.0] * 7, reg=0.25)) == 4.25

    def test_equals_ordered_loss_when_q_is_s(self):
        losses = np.array([0.3, 1.9, 0.2, 1.1, 0.8])
        prof = profile_from(losses, reg=0.1)
        gamma = gamma_weights(5, 3, 3)
        assert ordered_empirical_loss(prof, gamma) == pytest.approx(
            average_empirical_loss(prof), rel=1e-14)


class TestOrderedLoss:
    def test_max_loss_when_full_batch_top_one(self):
        prof = profile_from([1.0, 3.0, 2.0])
        assert ordered_empirical_loss(prof, gamma_weights(3, 3, 1)) == 3.0

    def test_max_loss_plus_regularizer_when_full_batch_top_one(self):
        prof = profile_from([1.0, 3.0, 2.0], reg=0.75)
        assert ordered_empirical_loss(prof, gamma_weights(3, 3, 1)) == 3.75

    def test_enumerated_weighting(self):
        prof = profile_from([4.0, 3.0, 2.0, 1.0])
        val = ordered_empirical_loss(prof, gamma_weights(4, 2, 1))
        assert val == pytest.approx(10.0 / 3.0, rel=1e-14)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ordered_empirical_loss(profile_from([1.0, 2.0]),
                                   gamma_weights(3, 2, 1))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=10, unique=True),
           st.data())
    def test_invariant_under_sample_relabeling(self, losses, data):
        n = len(losses)
        s = data.draw(st.integers(1, n))
        q = data.draw(st.integers(1, s))
        gamma = gamma_weights(n, s, q)
        perm = data.draw(st.permutations(range(n)))
        base = ordered_empirical_loss(profile_from(losses), gamma)
        shuffled = ordered_empirical_loss(
            profile_from([losses[i] for i in perm]), gamma)
        assert shuffled == pytest.approx(base, rel=1e-12, abs=1e-12)


class TestLqSubgradient:
    def test_q_equals_s_is_average_gradient(self):
        obj, theta, X, y = logistic_instance(1)
        gamma = gamma_weights(8, 5, 5)
        _, reg_grad = obj.regularizer(theta)
        expected = obj.mean_grad(theta, X, y) + reg_grad
        np.testing.assert_allclose(lq_subgradient(obj, theta, X, y, gamma),
                                   expected, rtol=1e-12)

    def test_enumerated_weights_explicitly(self):
        obj, theta, X, y = logistic_instance(2, n=4)
        gamma = gamma_weights(4, 2, 1)
        order = rank_by_loss(obj.per_example_losses(theta, X, y))
        _, reg_grad = obj.regularizer(theta)
        expected = (
            (1.0 / 2.0) * obj.per_sample_grad(theta, X[order[0]], int(y[order[0]]))
            + (1.0 / 3.0) * obj.per_sample_grad(theta, X[order[1]], int(y[order[1]]))
            + (1.0 / 6.0) * obj.per_sample_grad(theta, X[order[2]], int(y[order[2]]))
            + reg_grad
        )
        np.testing.assert_allclose(lq_subgradient(obj, theta, X, y, gamma),
                                   expected, rtol=1e-10)

    def test_matches_bruteforce_oracle(self):
        obj, theta, X, y = logistic_instance(3)
        gamma = gamma_weights(8, 4, 2)
        lhs = expected_step_bruteforce(obj, theta, X, y, 4, 2)
        rhs = lq_subgradient(obj, theta, X, y, gamma)
        assert np.abs(lhs - rhs).max() <= 1e-10


class TestBruteforceOracle:
    def test_s_equals_n_is_topq_fullbatch_gradient(self):
        obj, theta, X, y = logistic_instance(4, n=6)
        order = rank_by_loss(obj.per_example_losses(theta, X, y))
        top = order[:2]
        _, reg_grad = obj.regularizer(theta)
        expected = obj.weighted_grad(theta, X[np.sort(top)], y[np.sort(top)],
                                     np.full(2, 0.5)) + reg_grad
        got = expected_step_bruteforce(obj, theta, X, y, s=6, q=2)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_q_equals_s_is_average_gradient(self):
        obj, theta, X, y = logistic_instance(5, n=6)
        _, reg_grad = obj.regularizer(theta)
        expected = obj.mean_grad(theta, X, y) + reg_grad
        got = expected_step_bruteforce(obj, theta, X, y, s=3, q=3)
        np.testing.assert_allclose(got, expected, rtol=1e-11)

    def test_guard_trips_on_combinatorial_blowup(self):
        losses = np.arange(30, dtype=np.float64)
        with pytest.raises(ResourceError):
            rank_selection_counts(losses, 15, 3)

    def test_unbiasedness_across_all_small_tuples(self):
        # One random smooth instance per (n, s, q) with n <= 9.
        seed = 0
        for n in range(2, 10):
            for s in range(1, n + 1):
                for q in range(1, s + 1):
                    seed += 1
                    obj, theta, X, y = logistic_instance(seed, n=n)
                    gamma = gamma_weights(n, s, q)
                    lhs = expected_step_bruteforce(obj, theta, X, y, s, q)
                    rhs = lq_subgradient(obj, theta, X, y, gamma)
                    assert np.abs(lhs - rhs).max() <= 1e-10, (n, s, q)

    def test_rank_frequency_identity_is_rational_exact(self):
        for n, s, q in [(7, 3, 2), (8, 4, 1), (6, 5, 3)]:
            rng = np.random.default_rng(n + s + q)
            losses = rng.permutation(np.linspace(0.5, 1.5, n))
            counts, total = rank_selection_counts(losses, s, q)
            order = rank_by_loss(losses)
            freqs = [Fraction(int(counts[order[j]]), total) for j in range(n)]
            assert freqs == list(gamma_weights(n, s, q).exact)


def per_subset_counts(losses, s, q):
    """Reference: one single-batch q_argmax call per s-subset."""
    counts = np.zeros(len(losses), dtype=np.int64)
    for subset in combinations(range(len(losses)), s):
        counts[q_argmax(losses, np.array(subset), q)] += 1
    return counts


class TestSelectionCounts:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_equal_per_subset_reference(self, n):
        rng = np.random.default_rng(n)
        for losses in (rng.permutation(n) + 0.5 * rng.random(n),  # distinct
                       rng.integers(0, 3, n).astype(np.float64)):  # tied
            for s in range(1, n + 1):
                for q in range(1, s + 1):
                    counts, total = rank_selection_counts(losses, s, q)
                    assert total == comb(n, s)
                    assert counts.dtype == np.int64
                    np.testing.assert_array_equal(
                        counts, per_subset_counts(losses, s, q),
                        err_msg=f"(n={n}, s={s}, q={q}, losses={losses})")

    @pytest.mark.parametrize("n,s,q", [(13, 6, 2), (14, 7, 3)])
    def test_equal_per_subset_reference_across_blocks(self, n, s, q):
        # C(13, 6) = 1716 and C(14, 7) = 3432 subsets span several blocks
        losses = np.random.default_rng(n).integers(0, 4, n).astype(np.float64)
        counts, _ = rank_selection_counts(losses, s, q)
        np.testing.assert_array_equal(counts, per_subset_counts(losses, s, q))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_loss_rejected_with_its_index(self, bad):
        with pytest.raises(ValueError, match="index 1"):
            rank_selection_counts([1.0, bad, 3.0, 2.0, 0.5], 3, 1)

    def test_bruteforce_step_rejects_non_finite_losses(self):
        obj, theta, X, y = logistic_instance(7, n=5, distinct=False)
        X = X.copy()
        X[3] = np.inf
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match="index 3"):
            expected_step_bruteforce(obj, theta, X, y, 3, 1)


def test_loss_profile_roundtrip():
    obj, theta, X, y = logistic_instance(6)
    prof = loss_profile(obj, theta, X, y)
    assert prof.per_sample.shape == (8,)
    assert sorted(prof.order.tolist()) == list(range(8))
    reg_value, _ = obj.regularizer(theta)
    assert prof.reg_value == reg_value
