"""The Monte Carlo reduction against its exact value: `average_fidelity_mc`'s
mean and standard error compared with the mean and sample variance of
S − K·p(1 − p), S = Ā² + B̄², K = 2(Ā − B̄)², over the same `random()` draws,
recomputed in rational arithmetic (helpers.exact_mc_moments).

The kernel forms (S − K/4) + K·h̄ from h = (p − ½)². With u = 2⁻⁵³, H the
exact mean of h, A = S − K/4 and B = K·H, the exact mean is E = A + B; as
Ā, B̄ ≥ 0, K/4 ≤ S/2, so A ≤ S, B ≤ K/4 ≤ S/2 and E ≤ S. To first order in u:

- fl(Ā² + B̄²) is within 2u·S of S;
- k = fl(2·fl(Ā − B̄)²) is within 3u of K, so k/4 (exact) within 1.5u·S;
- the subtraction rounds by at most u·A ≤ u·S;
- p − ½ is exact, so each h carries one rounding. numpy sums a contiguous
  float64 array pairwise, in blocks of m ≤ 128 with eight accumulators,
  where a term meets at most (⌊m/8⌋ − 1) + 3 + (m mod 8) ≤ 24 roundings (in
  its accumulator, joining the eight, in the tail). Above 128 each halving
  adds one; the larger half of m terms is at most ⌈m/2⌉ + 7, so
  after j halvings of m ≤ 2^ℓ terms a part holds at most 2^(ℓ−j) + 15, and
  at most ℓ − 6 halvings occur. A term meets L ≤ ⌈log₂m⌉ + 18 roundings;
  the terms are ≥ 0 and the division by m adds one, so h̄ is within
  (L + 2)u of H, relatively;
- fl(k·h̄) is within (3 + L + 2 + 1)u of B, relatively: (L + 6)u·S/2;
- the last addition rounds by at most u·E ≤ u·S.

That sums to (L/2 + 8.5)u·S ≤ (⌈log₂m⌉ + 35)u·S/2, and one call sums all
its N draws in one array, so m = N. Terms of second order stay below
(L + 6)²u²·S, far under u·S/2. So

    |mean − E| ≤ (⌈log₂N⌉ + 36)·u·S/2.

The standard error is held to the exact √(var/N) within rel 1e-12, a
loose check of the deviations' second pass.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import exact_mc_moments
from sqtkit import average_fidelity_mc, random_state, schmidt_form, w_general

U = 2.0**-53

CASES = {
    **{f"haar-{n}-{bob}": (random_state(n, 500 + n), bob) for n in (3, 8, 12) for bob in (0, n - 1)},
    **{f"w-{bob}": (w_general(*[1.0 / math.sqrt(3.0)] * 3), bob) for bob in (0, 2)},
}


def bound(samples: int, s: Fraction) -> Fraction:
    return (math.ceil(math.log2(samples)) + 36) * Fraction(U) * s / 2


@pytest.mark.parametrize("samples", [1000, 3517], ids=["one-chunk", "odd-count"])
@pytest.mark.parametrize("name", CASES)
def test_mc_mean_and_stderr_are_within_their_bounds(name, samples):
    sv, bob = CASES[name]
    form = schmidt_form(sv, bob)
    assert form.coeff0 >= 0 and form.coeff1 >= 0
    mean, var = exact_mc_moments(form, np.random.default_rng(9).random(samples))
    est = average_fidelity_mc(sv, bob, samples, 9)
    s = Fraction(form.coeff0) ** 2 + Fraction(form.coeff1) ** 2
    assert abs(Fraction(est.mean) - mean) <= bound(samples, s)
    assert est.stderr == pytest.approx(math.sqrt(var / samples), rel=1e-12)
