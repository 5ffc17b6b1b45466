"""Rank-selection weight coefficients for top-q minibatch training.

When a minibatch of size s is drawn uniformly without replacement from n
samples and only the q largest-loss members are kept, the sample ranked
j-th by loss is selected with probability

    gamma_j = sum_{l=0}^{q-1} C(j-1, l) * C(n-j, s-l-1) / C(n, s).

This module computes gamma_j exactly (big-integer rationals), its
n -> infinity rescaled limit, and the regularized incomplete beta
function that characterizes that limit.

The exact numerators come from an O(n) integer recurrence whose terms
follow each other by an exact ratio, so only two binomials are full
big-integer products.  The float path for large n reads every
log-binomial from one table of ln k! and keeps the order of the float
operations of a term-by-term evaluation, so its bits do not depend on
how the table is shared.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, exp, lgamma, log, log1p

import numpy as np

from . import _special
from ._settings import check_sizes, is_int

# Above this n gamma values come from the log-space float path instead of
# the exact integers (those stay correct but get slow): the one size rule
# that gamma_vector, gamma_rescaled_curve and ``osgd gamma`` follow.
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

    Consumers evaluating between grid points should interpolate linearly.
    """

    z_grid: np.ndarray
    values: np.ndarray


def gamma_weight_numerators(n, s, q):
    """Integer numerators of gamma_1..gamma_n over the common denominator C(n, s).

    N_j counts the s-subsets that keep the rank-j sample.  Swapping ranks j
    and j+1 maps the subsets holding only one of them onto each other with
    the same outcome, so N_j - N_{j+1} = D_j = C(j-1, q-1) * C(n-j-1, s-q-1)
    counts the subsets holding both in which exactly q-1 members outrank j.
    The last rank is kept only when q = s, so N_n = C(n-1, s-1) if q = s and
    0 otherwise.  D_j is nonzero only for q <= j <= n-s+q, and walking that
    range downwards each term follows from the one above by the exact
    integer step D_{j-1} = D_j * (j-q)(n-j) // ((j-1)(n-j-s+q+1)), so only
    the first D_j and C(n, s) are full binomials.  Exact integers, O(n).
    """
    n, s, q = check_sizes(n, s, q)
    if q == s:
        return [comb(n - 1, s - 1)] * n, comb(n, s)
    nums = [0] * n
    top = n - s + q
    d = comb(top - 1, q - 1)  # D_top; C(s-q-1, s-q-1) = 1
    acc = 0
    for j in range(top, q, -1):
        acc += d
        nums[j - 1] = acc
        d = d * ((j - q) * (n - j)) // ((j - 1) * (n - j - s + q + 1))
    nums[:q] = [acc + d] * q  # D_q is the last term; ranks above q keep all
    return nums, comb(n, s)


def gamma_weights(n: int, s: int, q: int) -> GammaWeights:
    """Exact selection weights gamma_1..gamma_n for the tuple (n, s, q).

    Uses arbitrary-precision integers throughout; the float vector is a
    single rounding of the exact rationals.
    """
    n, s, q = check_sizes(n, s, q)
    nums, den = gamma_weight_numerators(n, s, q)
    exact = tuple(Fraction(m, den) for m in nums)
    approx = np.array([m / den for m in nums], dtype=np.float64)
    return GammaWeights(n=n, s=s, q=q, exact=exact, approx=approx)


def gamma_weights_float(n: int, s: int, q: int) -> np.ndarray:
    """Float64 gamma vector via log-gamma, for n too large for rationals.

    Its relative error grows roughly like machine epsilon times ln(n!), the
    size of the log-gamma terms that cancel: against the exact rationals,
    on entries at least 1e-6 of the largest, it is 1.9e-12 at
    (n, s, q) = (1000, 64, 32) and 4.9e-11 at (10_000, 64, 32).  Use
    :func:`gamma_weights` when exactness matters.  One table
    ``lg[k] = ln k!`` serves every log-binomial: the l-th term,
    ln C(j-1, l) + ln C(n-j, s-l-1) - ln C(n, s), exists for
    l < j <= n-s+l+1 and is read there from slices of the table; outside
    that range it is -inf and leaves the log-sum unchanged.
    """
    n, s, q = check_sizes(n, s, q)
    lg = _special.gammaln(np.arange(1, n + 2))  # lg[k] = ln k!
    log_den = (lg[n] - lg[s]) - lg[n - s]
    m = n - s + 1  # the l-th term exists on ranks j = l+1 .. l+m
    low = lg[:m]      # ln (j-1-l)! over those ranks
    high = low[::-1]  # ln (n-j-s+l+1)!
    total = np.full(n, -np.inf)
    for l in range(q):
        r = s - l - 1
        head = (lg[l:l + m] - lg[l]) - low         # ln C(j-1, l)
        tail = (lg[r:n - l][::-1] - lg[r]) - high  # ln C(n-j, s-l-1)
        span = total[l:l + m]
        np.logaddexp(span, (head + tail) - log_den, out=span)
    return np.exp(total)  # exp(-inf) = +0.0 off every term's range


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
    if not is_int(s) or not is_int(q) or not 1 <= q <= s:
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
        # the even coefficient d_2m, then the odd one d_2m+1
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
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

    Continued-fraction evaluation with the symmetry switch at z > a/(a+b).
    Against ``scipy.special.betainc`` the absolute error is below 1e-12
    for shapes up to 1,000 and grows beyond (2.4e-11 at a = b = 3e4,
    3.2e-10 at 1e5); at a = b = 1e6 the fraction fails to converge and
    raises ValueError.
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
    """Curve of n * gamma_j on the grid z_j = j/n (see :func:`gamma_vector`:
    beyond EXACT_N_LIMIT the values come from the log-space float path)."""
    n, s, q = check_sizes(n, s, q)
    z = np.arange(1, n + 1, dtype=np.float64) / n
    return GammaCurve(z_grid=z, values=gamma_vector(n, s, q, scale=n))
