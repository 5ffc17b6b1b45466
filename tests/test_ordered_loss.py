"""Ordered loss values, analytic subgradient, and the enumeration oracle."""
from fractions import Fraction
from itertools import chain, combinations, islice
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osgd import ordered_loss
from osgd.coeffs import gamma_weight_numerators, gamma_weights
from osgd.objectives import FeedforwardModel, Objective
from osgd.ordered_loss import (MAX_BRUTEFORCE_SUBSETS, ResourceError,
                               _lex_subsets, _subset_blocks,
                               expected_step_bruteforce, lq_subgradient,
                               lq_value_and_subgradient,
                               ordered_empirical_loss, rank_selection_counts,
                               rank_weights, subset_count)
from osgd.selection import q_argmax, rank_by_loss


def profile_from(losses, reg=0.0):
    """``(losses, reg)``, the arguments of ordered_empirical_loss before
    gamma: per-sample losses and the regularizer value."""
    return np.asarray(losses, dtype=np.float64), reg


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
    """At q = s, L_q is the average loss the runner logs beside it,
    ``losses.mean() + reg``."""

    def test_simple_mean(self):
        losses, reg = profile_from([1.0, 2.0, 3.0])
        assert losses.mean() + reg == 2.0
        assert ordered_empirical_loss(losses, reg, gamma_weights(3, 2, 2)) \
            == pytest.approx(2.0, rel=1e-15)

    def test_constant_plus_regularizer(self):
        losses, reg = profile_from([4.0] * 7, reg=0.25)
        assert losses.mean() + reg == 4.25
        assert ordered_empirical_loss(losses, reg, gamma_weights(7, 3, 3)) \
            == pytest.approx(4.25, rel=1e-15)

    def test_equals_ordered_loss_when_q_is_s(self):
        losses, reg = profile_from([0.3, 1.9, 0.2, 1.1, 0.8], reg=0.1)
        gamma = gamma_weights(5, 3, 3)
        assert ordered_empirical_loss(losses, reg, gamma) == pytest.approx(
            float(losses.mean()) + reg, rel=1e-14)


class TestOrderedLoss:
    def test_max_loss_when_full_batch_top_one(self):
        prof = profile_from([1.0, 3.0, 2.0])
        assert ordered_empirical_loss(*prof, gamma_weights(3, 3, 1)) == 3.0

    def test_max_loss_plus_regularizer_when_full_batch_top_one(self):
        prof = profile_from([1.0, 3.0, 2.0], reg=0.75)
        assert ordered_empirical_loss(*prof, gamma_weights(3, 3, 1)) == 3.75

    def test_enumerated_weighting(self):
        prof = profile_from([4.0, 3.0, 2.0, 1.0])
        val = ordered_empirical_loss(*prof, gamma_weights(4, 2, 1))
        assert val == pytest.approx(10.0 / 3.0, rel=1e-14)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ordered_empirical_loss(*profile_from([1.0, 2.0]),
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
        base = ordered_empirical_loss(*profile_from(losses), gamma)
        shuffled = ordered_empirical_loss(
            *profile_from([losses[i] for i in perm]), gamma)
        assert shuffled == pytest.approx(base, rel=1e-12, abs=1e-12)


class TestLqSubgradient:
    def test_q_equals_s_is_average_gradient(self):
        obj, theta, X, y = logistic_instance(1)
        gamma = gamma_weights(8, 5, 5)
        _, reg_grad = obj.regularizer(theta)
        expected = (obj.weighted_grad(theta, X, y, np.full(8, 1.0 / 8))
                    + reg_grad)
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

    def test_rank_weights_reject_another_n(self):
        with pytest.raises(ValueError,
                           match=r"^gamma built for n=4, data has n=3$"):
            rank_weights(np.arange(3), gamma_weights(4, 2, 1))

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
        expected = (obj.weighted_grad(theta, X, y, np.full(6, 1.0 / 6))
                    + reg_grad)
        got = expected_step_bruteforce(obj, theta, X, y, s=3, q=3)
        np.testing.assert_allclose(got, expected, rtol=1e-11)

    def test_guard_trips_on_combinatorial_blowup(self):
        losses = np.arange(30, dtype=np.float64)
        with pytest.raises(ResourceError):
            rank_selection_counts(losses, 15, 3)

    @pytest.mark.parametrize("n,s", [(5, 2), (30, 4), (60, 3), (12, 12)])
    def test_subset_count_is_the_binomial(self, n, s):
        assert subset_count(n, s, 1) == comb(n, s) <= MAX_BRUTEFORCE_SUBSETS
        assert type(subset_count(np.int64(n), s, 1)) is int

    @pytest.mark.parametrize("n,s,total", [(30, 15, 155117520),
                                           (200_000, 2, 19999900000)])
    def test_subset_count_refuses_past_the_cap(self, n, s, total):
        with pytest.raises(ResourceError,
                           match=rf"^C\({n}, {s}\) = {total} subsets exceeds "
                                 rf"the enumeration cap "
                                 rf"{MAX_BRUTEFORCE_SUBSETS}$"):
            subset_count(n, s, 1)

    @pytest.mark.parametrize("n,s,q,match", [
        (3, 4, 2, r"^need 1 <= q <= s <= n, got \(n=3, s=4, q=2\)$"),
        (8, 4, 0, r"^need 1 <= q <= s <= n, got \(n=8, s=4, q=0\)$"),
        (8, 4.0, 2, r"^n, s, q must be integers, got \(8, 4.0, 2\)$"),
    ], ids=["s-above-n", "q-zero", "float-s"])
    def test_bad_sizes_refused_before_the_enumeration(self, n, s, q, match):
        for call in (lambda: subset_count(n, s, q),
                     lambda: rank_selection_counts(np.arange(float(n)), s, q)):
            with pytest.raises(ValueError, match=match):
                call()

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


def itertools_block_counts(losses, s, q, block_rows=1024):
    """Reference: the s-subsets streamed from itertools.combinations into
    (rows, s) blocks, each block ranked by one stacked q_argmax call."""
    n = len(losses)
    total = comb(n, s)
    counts = np.zeros(n, dtype=np.int64)
    subsets = combinations(range(n), s)
    for start in range(0, total, block_rows):
        rows = min(block_rows, total - start)
        batches = np.fromiter(chain.from_iterable(islice(subsets, rows)),
                              dtype=np.intp, count=rows * s).reshape(rows, s)
        counts += np.bincount(q_argmax(losses, batches, q).ravel(),
                              minlength=n)
    return counts, total


def itertools_table(n, s):
    return np.fromiter(chain.from_iterable(combinations(range(n), s)),
                       dtype=np.int64).reshape(-1, s)


class TestSubsetTables:
    def test_rows_are_itertools_combinations_up_to_n_19(self):
        for n in range(1, 20):
            for s in range(1, n + 1):
                if comb(n, s) > MAX_BRUTEFORCE_SUBSETS:
                    continue
                want = itertools_table(n, s)
                blocks = list(_subset_blocks(n, s, 1024))
                assert [len(b) for b in blocks[:-1]] == [1024] * (
                    len(blocks) - 1)
                np.testing.assert_array_equal(np.concatenate(blocks), want,
                                              err_msg=f"(n={n}, s={s})")
                if 2 * s <= n:
                    np.testing.assert_array_equal(_lex_subsets(n, s), want)

    @pytest.mark.parametrize("n,dtype", [(1, np.uint8), (256, np.uint8),
                                         (257, np.uint16),
                                         (70_000, np.uint32)])
    def test_smallest_unsigned_dtype(self, n, dtype):
        assert _lex_subsets(n, 1).dtype == dtype
        assert _lex_subsets(n, 0).shape == (1, 0)

    @pytest.mark.parametrize("n", [1, 2, 70_000])
    def test_full_subset_from_the_empty_complement(self, n):
        (block,) = _subset_blocks(n, n, 1024)
        np.testing.assert_array_equal(block, [np.arange(n)])

    @pytest.mark.parametrize("n,k", [(3, -1), (3, 4)])
    def test_bad_sizes_rejected(self, n, k):
        with pytest.raises(ValueError, match="need 0 <= k <= n"):
            _lex_subsets(n, k)


class TestSelectionCounts:
    @pytest.mark.parametrize("n,s,q", [(19, 9, 4), (19, 9, 1), (19, 9, 9),
                                       (17, 8, 3), (16, 16, 5), (20, 4, 2),
                                       (12, 1, 1)])
    def test_equal_itertools_blocks(self, n, s, q):
        rng = np.random.default_rng(n * s + q)
        for losses in (rng.permutation(n) + 0.5 * rng.random(n),
                       rng.integers(0, 3, n).astype(np.float64)):
            counts, total = rank_selection_counts(losses, s, q)
            ref_counts, ref_total = itertools_block_counts(losses, s, q)
            assert total == ref_total
            assert counts.dtype == ref_counts.dtype
            np.testing.assert_array_equal(counts, ref_counts)

    @pytest.mark.parametrize("n,s,q", [(3000, 2999, 1), (19, 9, 4)])
    def test_blocks_are_bounded_by_entries(self, n, s, q, monkeypatch):
        # the complement branch holds a (rows, n) mask per block, so a
        # block's rows are capped at 2**20 // n
        shapes, subset_blocks = [], ordered_loss._subset_blocks

        def spy(*args):
            for block in subset_blocks(*args):
                shapes.append(block.shape)
                yield block

        monkeypatch.setattr(ordered_loss, "_subset_blocks", spy)
        losses = np.random.default_rng(n).permutation(n) + 0.5
        counts, total = rank_selection_counts(losses, s, q)
        rows = 2 ** 20 // n
        assert sum(r for r, _ in shapes) == total == comb(n, s)
        assert all(r * n <= 2 ** 20 and r <= rows and width == s
                   for r, width in shapes)
        assert all(r == rows for r, _ in shapes[:-1])
        nums, den = gamma_weight_numerators(n, s, q)
        assert den == total
        assert counts[rank_by_loss(losses)].tolist() == nums

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

    @pytest.mark.parametrize("n,s,q", [(13, 6, 2), (14, 7, 3), (14, 9, 4)])
    def test_equal_per_subset_reference_across_blocks(self, n, s, q):
        # C(13, 6) = 1716, C(14, 7) = 3432 and C(14, 9) = 2002 subsets span
        # several blocks; 2s > n at (14, 9) takes the complement tables
        losses = np.random.default_rng(n).integers(0, 4, n).astype(np.float64)
        counts, _ = rank_selection_counts(losses, s, q)
        np.testing.assert_array_equal(counts, per_subset_counts(losses, s, q))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.one_of(
        st.lists(st.integers(0, 2).map(float), min_size=1, max_size=10),
        st.lists(st.floats(-10, 10), min_size=1, max_size=10, unique=True)),
        st.data())
    def test_relabelling_permutes_the_counts(self, losses, data):
        # Counts depend on the rank places alone.  A relabelling that keeps
        # the index order of tied samples (any relabelling, for distinct
        # losses) keeps every place's sample, so it permutes the counts;
        # any relabelling keeps the counts per place.
        losses = np.array(losses)
        n = len(losses)
        perm = np.array(data.draw(st.permutations(range(n))))
        tie_kept = perm.copy()
        for value in np.unique(losses):
            at = np.flatnonzero(losses[perm] == value)
            tie_kept[at] = np.sort(perm[at])
        order, order_perm = rank_by_loss(losses), rank_by_loss(losses[perm])
        for s in range(1, n + 1):
            for q in range(1, s + 1):
                counts, _ = rank_selection_counts(losses, s, q)
                relabelled, _ = rank_selection_counts(losses[tie_kept], s, q)
                np.testing.assert_array_equal(relabelled, counts[tie_kept])
                shuffled, _ = rank_selection_counts(losses[perm], s, q)
                np.testing.assert_array_equal(shuffled[order_perm],
                                              counts[order])

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


class TestOneForward:
    """Each L_q subgradient forwards X once and backpropagates its weights
    through that tape; the result is bitwise the two-forward form."""

    @staticmethod
    def instance(seed, n=10, d=3):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d))
        y = rng.integers(0, 2, n)
        obj = Objective(FeedforwardModel(d, 1, hidden=(5,), activation="tanh"),
                        "binary-cross-entropy", l2=0.1)
        theta = rng.standard_normal(obj.model.n_params)
        losses = obj.per_example_losses(theta, X, y)
        assert np.unique(losses).size == n, "instance has tied losses"
        return obj, theta, X, y, losses

    @staticmethod
    def count_forwards(monkeypatch):
        calls = []
        forward = FeedforwardModel.forward

        def counted(self, theta, X):
            calls.append(len(X))
            return forward(self, theta, X)

        monkeypatch.setattr(FeedforwardModel, "forward", counted)
        return calls

    @staticmethod
    def lq_weights_reference(losses, gamma):
        weights = np.empty(losses.shape[0])
        weights[np.argsort(-losses, kind="stable")] = gamma.approx / gamma.q
        return weights

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lq_subgradient(self, monkeypatch, seed):
        obj, theta, X, y, losses = self.instance(seed)
        gamma = gamma_weights(10, 5, 2)
        want = (obj.weighted_grad(theta, X, y,
                                  self.lq_weights_reference(losses, gamma))
                + obj.regularizer(theta)[1])
        calls = self.count_forwards(monkeypatch)
        got = lq_subgradient(obj, theta, X, y, gamma)
        assert calls == [10]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_expected_step_bruteforce(self, monkeypatch, seed):
        obj, theta, X, y, losses = self.instance(seed)
        counts, total = rank_selection_counts(losses, 5, 2)
        want = (obj.weighted_grad(theta, X, y, counts / (2 * float(total)))
                + obj.regularizer(theta)[1])
        calls = self.count_forwards(monkeypatch)
        got = expected_step_bruteforce(obj, theta, X, y, 5, 2)
        assert calls == [10]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tie_mixed_subgradient_without_ties(self, monkeypatch, seed):
        from osgd.analysis import _tie_mixed_subgradient
        obj, theta, X, y, losses = self.instance(seed)
        gamma = gamma_weights(10, 5, 2)
        pull = lambda b: 0.5 * b  # noqa: E731
        want = (obj.weighted_grad(theta, X, y,
                                  self.lq_weights_reference(losses, gamma))
                + (obj.regularizer(theta)[1] + pull(theta)))
        calls = self.count_forwards(monkeypatch)
        got = _tie_mixed_subgradient(obj, theta, X, y, gamma, pull(theta))
        assert calls == [10]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lq_value_and_subgradient(self, monkeypatch, seed):
        obj, theta, X, y, _ = self.instance(seed)
        gamma = gamma_weights(10, 5, 2)
        want_value = ordered_empirical_loss(
            obj.per_example_losses(theta, X, y), obj.regularizer(theta)[0],
            gamma)
        want_grad = lq_subgradient(obj, theta, X, y, gamma)
        calls = self.count_forwards(monkeypatch)
        value, grad = lq_value_and_subgradient(obj, theta, X, y, gamma)
        assert calls == [10]
        assert value == want_value
        assert grad.tobytes() == want_grad.tobytes()

    def test_non_finite_value_has_no_subgradient(self):
        obj, theta, X, y, _ = self.instance(0)
        X = X.copy()
        X[3] = np.inf
        gamma = gamma_weights(10, 5, 2)
        with np.errstate(all="ignore"):
            value, grad = lq_value_and_subgradient(obj, theta, X, y, gamma)
            assert not np.isfinite(value) and grad is None
            with pytest.raises(ValueError, match="not finite"):
                lq_subgradient(obj, theta, X, y, gamma)

    def test_gamma_size_mismatch_rejected(self):
        obj, theta, X, y, _ = self.instance(0)
        with pytest.raises(ValueError, match="gamma built for n=9"):
            lq_subgradient(obj, theta, X, y, gamma_weights(9, 5, 2))
