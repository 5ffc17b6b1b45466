"""Rank-selection weight coefficients for top-q minibatch training.

When a minibatch of size s is drawn uniformly without replacement from n
samples and only the q largest-loss members are kept, the sample ranked
j-th by loss is selected with probability

    gamma_j = sum_{l=0}^{q-1} C(j-1, l) * C(n-j, s-l-1) / C(n, s).

This module computes gamma_j exactly (big-integer rationals), its
n -> infinity rescaled limit, and the regularized incomplete beta
function that characterizes that limit.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, exp, lgamma, log, log1p

import numpy as np
from scipy.special import gammaln

# Above this n the float vectors of gamma_vector come from the log-space
# path instead of the exact integers (those stay correct but get slow).
EXACT_N_LIMIT = 10_000


@dataclass(frozen=True)
class GammaWeights:
    """Selection weights for one (n, s, q) tuple.

    ``exact[j-1]`` is the exact probability that the rank-j sample is kept;
    ``approx`` is the same vector rounded to float64.  The weights sum to q,
    are nonincreasing, never exceed s/n, and vanish for j > n - s + q.
    ``exact`` is None where only the float vector is kept.
    """

    n: int
    s: int
    q: int
    exact: tuple[Fraction, ...] | None
    approx: np.ndarray


@dataclass(frozen=True)
class GammaCurve:
    """Rescaled weight curve on the grid z_j = j/n with values n * gamma_j.

    Consumers evaluating between grid points should interpolate linearly
    (see :meth:`interpolate`).  ``approximate`` is True when the values come
    from the log-space float path instead of exact rationals.
    """

    z_grid: np.ndarray
    values: np.ndarray
    approximate: bool = False

    def interpolate(self, z):
        """Piecewise-linear value at z (clamped to the grid ends)."""
        return np.interp(z, self.z_grid, self.values)


def _check_nsq(n, s, q):
    if not (isinstance(n, int) and isinstance(s, int) and isinstance(q, int)):
        raise ValueError(f"n, s, q must be integers, got ({n!r}, {s!r}, {q!r})")
    if not 1 <= q <= s <= n:
        raise ValueError(f"need 1 <= q <= s <= n, got (n={n}, s={s}, q={q})")


def gamma_weight_numerators(n, s, q):
    """Integer numerators of gamma_1..gamma_n over the common denominator C(n, s).

    N_j counts the s-subsets that keep the rank-j sample.  Swapping ranks j
    and j+1 maps the subsets holding only one of them onto each other with
    the same outcome, so N_j - N_{j+1} = C(j-1, q-1) * C(n-j-1, s-q-1)
    counts the subsets holding both in which exactly q-1 members outrank j.
    The last rank is kept only when q = s, so N_n = C(n-1, s-1) if q = s and
    0 otherwise.  Exact integers, O(n) binomials.
    """
    _check_nsq(n, s, q)
    if q == s:
        return [comb(n - 1, s - 1)] * n, comb(n, s)
    nums = [0] * n
    for j in range(n - 1, 0, -1):
        nums[j - 1] = nums[j] + comb(j - 1, q - 1) * comb(n - j - 1, s - q - 1)
    return nums, comb(n, s)


def gamma_weights(n: int, s: int, q: int) -> GammaWeights:
    """Exact selection weights gamma_1..gamma_n for the tuple (n, s, q).

    Uses arbitrary-precision integers throughout; the float vector is a
    single rounding of the exact rationals.
    """
    nums, den = gamma_weight_numerators(n, s, q)
    exact = tuple(Fraction(m, den) for m in nums)
    approx = np.array([m / den for m in nums], dtype=np.float64)
    return GammaWeights(n=n, s=s, q=q, exact=exact, approx=approx)


def gamma_weights_float(n: int, s: int, q: int) -> np.ndarray:
    """Float64 gamma vector via log-gamma, for n too large for rationals.

    Accurate to ~1e-12 relative; use :func:`gamma_weights` when exactness
    matters.
    """
    _check_nsq(n, s, q)

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


def gamma_vector(n: int, s: int, q: int, scale: int = 1) -> np.ndarray:
    """Float64 vector scale * gamma_1..scale * gamma_n.

    For n <= EXACT_N_LIMIT each entry is one rounding of the exact value
    (scale * N_j) / C(n, s); beyond that it is scale times the log-space
    :func:`gamma_weights_float`.
    """
    if n <= EXACT_N_LIMIT:
        nums, den = gamma_weight_numerators(n, s, q)
        return np.array([(scale * m) / den for m in nums], dtype=np.float64)
    return scale * gamma_weights_float(n, s, q)


def gamma_asymptotic(z: float, s: int, q: int) -> float:
    """Limit of n * gamma_j as n -> infinity with j/n = z, for 0 < z < 1.

    Equals sum_{l=0}^{q-1} z^l (1-z)^(s-l-1) * s!/(l!(s-l-1)!), evaluated in
    log space for stability.  Requires q < s; at q = s the rescaled limit is
    the constant s, which callers should use directly.
    """
    if not isinstance(s, int) or not isinstance(q, int) or not 1 <= q <= s:
        raise ValueError(f"need integers 1 <= q <= s, got (s={s}, q={q})")
    if q == s:
        raise ValueError(
            "gamma_asymptotic requires q < s; for q = s the rescaled limit "
            "is the constant s"
        )
    if not 0.0 < z < 1.0:
        raise ValueError(f"z must lie strictly inside (0, 1), got {z}")
    ln_z, ln_1mz = log(z), log1p(-z)
    total = 0.0
    for l in range(q):
        total += exp(
            lgamma(s + 1) - lgamma(l + 1) - lgamma(s - l)
            + l * ln_z + (s - l - 1) * ln_1mz
        )
    return total


def _beta_contfrac(a, b, x):
    # Continued fraction for the incomplete beta (modified Lentz iteration).
    max_iter, eps, fpmin = 500, 1e-16, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ValueError(f"incomplete beta continued fraction failed to converge "
                     f"(a={a}, b={b}, x={x})")


def beta_cdf(z: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_z(a, b), i.e. the Beta(a, b) CDF.

    Continued-fraction evaluation with the symmetry switch at z > a/(a+b);
    absolute error below 1e-12 across the domain.
    """
    if not (a > 0 and b > 0):
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"z must lie in [0, 1], got {z}")
    if z == 0.0:
        return 0.0
    if z == 1.0:
        return 1.0
    front = exp(
        lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(z) + b * log1p(-z)
    )
    if z <= a / (a + b):
        return front * _beta_contfrac(a, b, z) / a
    return 1.0 - front * _beta_contfrac(b, a, 1.0 - z) / b


def gamma_rescaled_curve(n: int, s: int, q: int) -> GammaCurve:
    """Curve of n * gamma_j on the grid z_j = j/n (see :func:`gamma_vector`).

    The curve is flagged approximate beyond EXACT_N_LIMIT, where the values
    come from the log-space float path.
    """
    _check_nsq(n, s, q)
    z = np.arange(1, n + 1, dtype=np.float64) / n
    return GammaCurve(z_grid=z, values=gamma_vector(n, s, q, scale=n),
                      approximate=n > EXACT_N_LIMIT)
