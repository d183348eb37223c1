"""`random_state` against the exact Haar law of the concurrence.

For a Haar-random n-qubit state the concurrence C between one qubit and the
rest has s = 1 − C² distributed as Beta(3/2, N − 1), N = 2^(n−1)
(helpers.haar_s_cdf, helpers.haar_s_moment). Seeded draws at every n = 2..12,
their receivers cycling through 0, n//2 and n − 1, are read through both
concurrence routes and judged by a one-sample Kolmogorov–Smirnov test at
significance 0.001 and by their first two moments. The law depends on the
Gaussian draw and not on the last bits of its normalization, so any change to
how `random_state` scales its draw must leave these tests passing; a draw
without imaginary parts fails them at every n (D·√M from 3.4 to 7.3).
"""

import math

import numpy as np
import pytest

from helpers import haar_s_cdf, haar_s_moment
from sqtkit import concurrence_via_density, random_state, schmidt_form

KS_CRITICAL = 1.95  # D·√M at significance 0.001: √(−ln(0.0005)/2) = 1.949
MOMENT_STDERRS = 4.0


def ks_statistic(cdf_values: np.ndarray) -> float:
    """D = sup |F_M − F| of a sample given as its sorted model CDF values."""
    m = len(cdf_values)
    ranks = np.arange(1, m + 1) / m
    return float(max(np.max(ranks - cdf_values), np.max(cdf_values - (ranks - 1.0 / m))))


def assert_haar_law(n: int, s: np.ndarray, route: str):
    m = len(s)
    d = ks_statistic(haar_s_cdf(n, np.sort(s)))
    assert d * math.sqrt(m) <= KS_CRITICAL, (route, d * math.sqrt(m))
    e1, e2, e4 = (float(haar_s_moment(n, k)) for k in (1, 2, 4))
    for k, mean, var in ((1, e1, e2 - e1 * e1), (2, e2, e4 - e2 * e2)):
        stderr = math.sqrt(var / m)
        assert abs(float(np.mean(s**k)) - mean) <= MOMENT_STDERRS * stderr, (route, k)


@pytest.mark.parametrize("n", range(2, 13))
def test_random_state_concurrence_follows_the_haar_law(n):
    receivers = (0, n // 2, n - 1)
    c_form, c_density = [], []
    for k in range(2000 if n < 10 else 1000):
        sv = random_state(n, 1000 * n + k)  # seeds fixed before the first run
        bob = receivers[k % 3]
        c_form.append(schmidt_form(sv, bob).concurrence)
        c_density.append(concurrence_via_density(sv, bob))
    for route, c in (("schmidt_form", c_form), ("concurrence_via_density", c_density)):
        c = np.array(c)
        assert_haar_law(n, 1.0 - c * c, route)


@pytest.mark.parametrize("n", [2, 3, 8, 12])
def test_the_law_has_its_exact_moments(n):
    # the trapezoid CDF against the closed-form moments, E[s^k] = ∫k·s^(k−1)(1 − F) ds
    # taken on s = t² as ∫2k·t^(2k−1)(1 − F) dt
    t = np.linspace(0.0, 1.0, 200_001)
    tail = 1.0 - haar_s_cdf(n, t * t)
    for k in (1, 2):
        f = 2 * k * t ** (2 * k - 1) * tail
        moment = float(np.sum(f[1:] + f[:-1])) * (t[1] - t[0]) / 2
        assert moment == pytest.approx(float(haar_s_moment(n, k)), rel=1e-6), k
    assert haar_s_moment(n, 1) == pytest.approx(3 / (2 * 2 ** (n - 1) + 1), rel=1e-15)
