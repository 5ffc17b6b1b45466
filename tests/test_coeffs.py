"""Exactness, asymptotics, and beta-CDF checks for the weight coefficients."""
import math
from math import comb
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import betainc, gammaln

from osgd.coeffs import (EXACT_N_LIMIT, beta_cdf, gamma_asymptotic,
                         gamma_rescaled_curve, gamma_vector,
                         gamma_weight_numerators, gamma_weights,
                         gamma_weights_float)

from conftest import enumerate_rank_frequencies


def gamma_numerators_double_sum(n, s, q):
    """Test-local reference: N_j = sum_{l<q} C(j-1, l) * C(n-j, s-l-1)."""
    nums = []
    for j in range(1, n + 1):
        acc = 0
        for l in range(min(q, j)):  # C(j-1, l) = 0 for l > j-1
            acc += comb(j - 1, l) * comb(n - j, s - l - 1)
        nums.append(acc)
    return nums


def test_numerators_equal_double_sum_for_every_n_up_to_40():
    tuples = 0
    for n in range(1, 41):
        for s in range(1, n + 1):
            for q in range(1, s + 1):
                nums, den = gamma_weight_numerators(n, s, q)
                assert den == comb(n, s)
                assert nums == gamma_numerators_double_sum(n, s, q), (n, s, q)
                tuples += 1
    assert tuples == 11_480


class TestGammaWeightsExamples:
    def test_enumerated_4_2_1(self):
        gw = gamma_weights(4, 2, 1)
        assert list(gw.exact) == [Fraction(1, 2), Fraction(1, 3),
                                  Fraction(1, 6), Fraction(0)]

    def test_q_equals_s_collapses_to_uniform(self):
        gw = gamma_weights(10, 4, 4)
        assert all(g == Fraction(4, 10) for g in gw.exact)

    def test_full_batch_selects_top_ranks(self):
        gw = gamma_weights(3, 3, 2)
        assert list(gw.exact) == [Fraction(1), Fraction(1), Fraction(0)]

    def test_enumerated_5_3_2(self):
        gw = gamma_weights(5, 3, 2)
        assert list(gw.exact) == [Fraction(3, 5), Fraction(3, 5),
                                  Fraction(1, 2), Fraction(3, 10),
                                  Fraction(0)]

    def test_invalid_ordering_rejected(self):
        with pytest.raises(ValueError):
            gamma_weights(4, 5, 1)
        with pytest.raises(ValueError):
            gamma_weights(4, 2, 3)
        with pytest.raises(ValueError):
            gamma_weights(4, 2, 0)

    def test_numpy_integer_sizes_match_python_ints(self):
        n, s, q = np.int64(10), np.int32(5), np.uint8(2)
        gw = gamma_weights(n, s, q)
        assert (type(gw.n), type(gw.s), type(gw.q)) == (int, int, int)
        assert gw.exact == gamma_weights(10, 5, 2).exact
        assert gamma_weight_numerators(n, s, q) == \
            gamma_weight_numerators(10, 5, 2)
        assert gamma_weights_float(n, s, q).tobytes() == \
            gamma_weights_float(10, 5, 2).tobytes()
        assert gamma_rescaled_curve(n, s, q).values.tobytes() == \
            gamma_rescaled_curve(10, 5, 2).values.tobytes()
        assert gamma_asymptotic(0.3, s, q) == gamma_asymptotic(0.3, 5, 2)

    @pytest.mark.parametrize("build", [
        lambda: gamma_weights(True, True, True),
        lambda: gamma_weight_numerators(10, 5, True),
        lambda: gamma_weights_float(10, True, 1),
        lambda: gamma_rescaled_curve(True, 1, 1)],
        ids=["weights", "numerators", "float", "curve"])
    def test_bool_sizes_rejected(self, build):
        with pytest.raises(ValueError, match="n, s, q must be integers"):
            build()

    def test_asymptotic_rejects_bool_sizes(self):
        with pytest.raises(ValueError, match="need integers"):
            gamma_asymptotic(0.3, 2, True)


class TestGammaWeightsInvariants:
    GRID = [(9, 4, 2), (50, 8, 3), (200, 16, 4), (1000, 64, 16),
            (2000, 64, 32), (2000, 64, 1), (2000, 64, 64)]

    @pytest.mark.parametrize("n,s,q", GRID)
    def test_identities_hold_exactly(self, n, s, q):
        gw = gamma_weights(n, s, q)
        assert sum(gw.exact) == q
        assert all(gw.exact[j] >= gw.exact[j + 1] for j in range(n - 1))
        cap = Fraction(s, n)
        assert all(g <= cap for g in gw.exact)
        assert all(gw.exact[j] == 0 for j in range(n - s + q, n))
        assert all(gw.exact[j] > 0 for j in range(n - s + q))

    def test_identities_at_ten_thousand(self):
        gw = gamma_weights(10_000, 16, 4)
        assert sum(gw.exact) == 4
        assert all(gw.exact[j] >= gw.exact[j + 1] for j in range(10_000 - 1))

    def test_exhaustive_frequencies_small_n(self):
        for n in range(1, 8):
            for s in range(1, n + 1):
                for q in range(1, s + 1):
                    gw = gamma_weights(n, s, q)
                    assert list(gw.exact) == enumerate_rank_frequencies(n, s, q), \
                        (n, s, q)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 9), st.data())
    def test_frequencies_match_random_tuples(self, n, data):
        s = data.draw(st.integers(1, n))
        q = data.draw(st.integers(1, s))
        gw = gamma_weights(n, s, q)
        assert list(gw.exact) == enumerate_rank_frequencies(n, s, q)

    def test_approx_is_rounding_of_exact(self):
        gw = gamma_weights(60, 12, 5)
        for f, a in zip(gw.exact, gw.approx):
            assert a == pytest.approx(float(f), abs=0.0, rel=1e-15)

    @pytest.mark.parametrize("n,s,q", [(12, 5, 2), (30, 7, 7), (45, 9, 1)])
    def test_conditional_probability_factorization(self, n, s, q):
        # Independent route: P(selected) = P(in batch) * P(fewer than q
        # higher-ranked batch members | in batch), with P(in batch) = s/n.
        gw = gamma_weights(n, s, q)
        in_batch = Fraction(comb(n - 1, s - 1), comb(n, s))
        assert in_batch == Fraction(s, n)
        for j in range(1, n + 1):
            conditional = Fraction(
                sum(comb(j - 1, l) * comb(n - j, s - 1 - l)
                    for l in range(q)),
                comb(n - 1, s - 1))
            assert gw.exact[j - 1] == in_batch * conditional


class TestGammaFloatPath:
    def test_matches_exact_path(self):
        for n, s, q in [(30, 8, 3), (500, 64, 16), (2000, 32, 9)]:
            gw = gamma_weights(n, s, q)
            approx = gamma_weights_float(n, s, q)
            np.testing.assert_allclose(approx, gw.approx, rtol=1e-11, atol=1e-16)

    @pytest.mark.parametrize("n, rtol", [(1000, 1e-11), (10_000, 1e-10)])
    def test_error_grows_with_n(self, n, rtol):
        """Measured 1.9e-12 at n = 1000 and 4.9e-11 at n = 10_000: about
        machine epsilon times ln(n!), as the docstring states."""
        nums, den = gamma_weight_numerators(n, 64, 32)
        exact = np.array([m / den for m in nums])  # one rounding each
        kept = exact >= 1e-6 * exact.max()
        approx = gamma_weights_float(n, 64, 32)
        deviation = np.abs(approx[kept] - exact[kept]) / exact[kept]
        assert deviation.max() <= rtol

    def test_vector_picks_exact_rounding_then_float_path(self):
        for n, s, q in [(5, 3, 2), (200, 64, 8), (EXACT_N_LIMIT, 64, 32)]:
            assert gamma_vector(n, s, q).tobytes() == \
                gamma_weights(n, s, q).approx.tobytes()
        n = EXACT_N_LIMIT + 1
        assert gamma_vector(n, 10, 3).tobytes() == \
            gamma_weights_float(n, 10, 3).tobytes()


def gamma_float_log_comb_loop(n, s, q):
    """Reference: the float path as a loop of log-binomial calls, each with
    its own gammaln passes over n (same arithmetic, more work)."""
    def log_comb(a, b):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        ok = (b >= 0) & (b <= a)
        safe_b = np.where(ok, b, 0.0)
        val = gammaln(a + 1) - gammaln(safe_b + 1) - gammaln(a - safe_b + 1)
        return np.where(ok, val, -np.inf)

    j = np.arange(1, n + 1, dtype=np.int64)
    log_den = log_comb(n, s)
    total = np.full(n, -np.inf)
    for l in range(q):
        term = log_comb(j - 1, l) + log_comb(n - j, s - l - 1) - log_den
        total = np.logaddexp(total, term)
    out = np.exp(total)
    out[~np.isfinite(total)] = 0.0
    return out


def gamma_numerators_comb_per_step(n, s, q):
    """Reference: N_{j-1} = N_j + C(j-1, q-1) * C(n-j-1, s-q-1), two full
    binomials per rank."""
    if q == s:
        return [comb(n - 1, s - 1)] * n, comb(n, s)
    nums = [0] * n
    for j in range(n - 1, 0, -1):
        nums[j - 1] = nums[j] + comb(j - 1, q - 1) * comb(n - j - 1, s - q - 1)
    return nums, comb(n, s)


# n = 1, s = n, q = s, q = 1, the benchmark's tuple and one past the exact
# limit, where gamma_vector switches to the float path
REFERENCE_GRID = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (7, 7, 3),
                  (7, 7, 7), (9, 4, 4), (9, 4, 1), (30, 8, 3), (64, 64, 1),
                  (200, 32, 8), (1000, 999, 500), (10_000, 64, 32),
                  (10_001, 64, 32), (10_001, 1, 1), (10_001, 10_001, 1),
                  (10_001, 10, 3)]


class TestAgainstLoopReferences:
    """The table-driven float path and the ratio-recurrence numerators give
    the bits of the loops they replaced."""

    @pytest.mark.parametrize("n,s,q", REFERENCE_GRID)
    def test_float_path_bitwise(self, n, s, q):
        assert gamma_weights_float(n, s, q).tobytes() == \
            gamma_float_log_comb_loop(n, s, q).tobytes()

    @pytest.mark.parametrize("n,s,q", REFERENCE_GRID)
    def test_numerators_equal(self, n, s, q):
        assert gamma_weight_numerators(n, s, q) == \
            gamma_numerators_comb_per_step(n, s, q)

    def test_every_tuple_up_to_n_24(self):
        for n in range(1, 25):
            for s in range(1, n + 1):
                for q in range(1, s + 1):
                    assert gamma_weights_float(n, s, q).tobytes() == \
                        gamma_float_log_comb_loop(n, s, q).tobytes(), (n, s, q)
                    assert gamma_weight_numerators(n, s, q) == \
                        gamma_numerators_comb_per_step(n, s, q), (n, s, q)

    def test_curve_past_the_exact_limit_bitwise(self):
        n, s, q = 100_000, 10, 3
        curve = gamma_rescaled_curve(n, s, q)
        assert curve.values.tobytes() == \
            (n * gamma_weights_float(n, s, q)).tobytes()
        assert curve.values.tobytes() == \
            (n * gamma_float_log_comb_loop(n, s, q)).tobytes()


class TestGammaAsymptotic:
    def test_limit_at_zero_is_s(self):
        assert gamma_asymptotic(1e-12, 10, 3) == pytest.approx(10.0, abs=1e-6)

    def test_vanishes_near_one(self):
        assert gamma_asymptotic(0.999999, 10, 3) == pytest.approx(0.0, abs=1e-4)

    def test_beta_cdf_characterization_at_point(self):
        v = gamma_asymptotic(0.3, 10, 3)
        assert 1.0 - v / 10.0 == pytest.approx(beta_cdf(0.3, 3, 7), abs=1e-12)

    def test_q_equals_s_is_rejected_with_pointer(self):
        with pytest.raises(ValueError, match="constant s"):
            gamma_asymptotic(0.5, 10, 10)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            gamma_asymptotic(0.0, 10, 3)
        with pytest.raises(ValueError):
            gamma_asymptotic(1.0, 10, 3)

    @pytest.mark.parametrize("s,q", [(10, 3), (100, 30), (100, 60)])
    def test_beta_identity_on_grid(self, s, q):
        worst = 0.0
        for z in np.linspace(0.01, 0.99, 99):
            lhs = 1.0 - gamma_asymptotic(float(z), s, q) / s
            worst = max(worst, abs(lhs - beta_cdf(float(z), q, s - q)))
        assert worst <= 1e-9


def beta_cdf_quadrature(z, a, b):
    """Independent oracle: adaptive quadrature of the Beta(a, b) density."""
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t):
        return math.exp(log_norm + (a - 1) * math.log(t)
                        + (b - 1) * math.log1p(-t))

    val, err = integrate.quad(density, 0.0, z, epsabs=1e-13, epsrel=1e-13,
                              limit=200)
    assert err < 1e-11
    return val


class TestBetaCdf:
    def test_uniform_distribution(self):
        for z in (0.0, 0.123, 0.5, 0.987, 1.0):
            assert beta_cdf(z, 1.0, 1.0) == pytest.approx(z, abs=1e-14)

    def test_symmetric_median(self):
        for k in (1, 2, 5, 17, 80):
            assert beta_cdf(0.5, k, k) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("z,a,b", [
        (0.3, 3.0, 7.0), (0.9, 3.0, 7.0), (0.05, 12.0, 2.0),
        (0.6, 0.5, 0.5), (0.42, 30.0, 70.0), (0.97, 8.0, 1.5),
    ])
    def test_agrees_with_quadrature(self, z, a, b):
        assert beta_cdf(z, a, b) == pytest.approx(
            beta_cdf_quadrature(z, a, b), abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.001, 0.999), st.floats(0.2, 50), st.floats(0.2, 50))
    def test_within_unit_interval_and_monotone(self, z, a, b):
        lo = beta_cdf(z * 0.5, a, b)
        hi = beta_cdf(z, a, b)
        assert 0.0 <= lo <= hi <= 1.0

    def test_agrees_with_betainc_for_shapes_up_to_1000(self):
        shapes = [0.5, 1, 2, 5, 10, 30, 100, 300, 1000]
        zs = np.arange(1, 200) / 200
        for a in shapes:
            for b in shapes:
                got = [beta_cdf(float(z), a, b) for z in zs]
                np.testing.assert_allclose(got, betainc(a, b, zs), rtol=0,
                                           atol=1e-12)

    def test_continued_fraction_that_fails_to_converge_raises(self):
        with pytest.raises(ValueError, match=r"^incomplete beta continued "
                                             r"fraction failed to converge"):
            beta_cdf(0.5, 1e6, 1e6)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            beta_cdf(-0.1, 1, 1)
        with pytest.raises(ValueError):
            beta_cdf(0.5, 0.0, 1)


class TestRescaledCurve:
    def test_enumerated_values_4_2_1(self):
        curve = gamma_rescaled_curve(4, 2, 1)
        np.testing.assert_allclose(curve.values,
                                   [2.0, 4.0 / 3.0, 2.0 / 3.0, 0.0],
                                   rtol=1e-15)
        np.testing.assert_allclose(curve.z_grid, [0.25, 0.5, 0.75, 1.0])
        # each value is one rounding of the exact 4 * gamma_j
        assert curve.values.tolist() == \
            [float(4 * g) for g in gamma_weights(4, 2, 1).exact]

    def test_q_equals_s_constant_curve(self):
        curve = gamma_rescaled_curve(12, 5, 5)
        np.testing.assert_allclose(curve.values, 5.0, rtol=1e-12)

    def test_large_n_uses_float_path(self):
        n = EXACT_N_LIMIT + 1
        curve = gamma_rescaled_curve(n, 10, 3)
        assert curve.values.tobytes() == \
            (n * gamma_weights_float(n, 10, 3)).tobytes()
        assert np.all(curve.values >= 0.0)

    def test_converges_toward_asymptotic_limit(self):
        s, q = 10, 3

        def max_dev(n):
            curve = gamma_rescaled_curve(n, s, q)
            zs = curve.z_grid[:-1]  # z = 1 is outside the limit's domain
            limit = np.array([gamma_asymptotic(float(z), s, q) for z in zs])
            return float(np.abs(curve.values[:-1] - limit).max())

        assert max_dev(2000) < max_dev(200)
