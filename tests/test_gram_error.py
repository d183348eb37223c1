"""The Gram step against its exact value: the weights and overlap that every
verdict reads, A² = ‖x‖², B² = ‖y‖² and g = ⟨y|x⟩ of the receiver rows x, y,
recomputed in rational arithmetic from the stored doubles (helpers.exact_gram)
and compared with the floating-point results within their a-priori rounding
bounds. With m = 2^(n−1) amplitudes per row, each of A², B², Re g and Im g is
a sum of 2m real products, so with u = 2⁻⁵³ and γ_k = ku/(1 − ku):

- residual_balance = |fl(A)² − fl(B)²| is within (γ₂ₘ + 4u)(A² + B²) + 2u of
  the exact |A² − B²|;
- each component of _gram's g is within γ₂ₘ·A·B of the exact one.

README "Numerical notes" derives both.
"""

import math
from fractions import Fraction

import pytest

from helpers import exact_gram
from sqtkit import check_general, ghz, random_state, w_general, zha_counterexample
from sqtkit.schmidt import _gram, _receiver_blocks

U = 2.0**-53

STATES = {
    **{f"haar-{n}-{seed}": random_state(n, seed) for n in range(2, 13) for seed in range(3)},
    "ghz-12": ghz(12),
    "w-perfect": w_general(0.5, 0.5, math.sqrt(0.5)),
    "counterexample": zha_counterexample(0.4, 0.3, 0.1, 0.2, 0.3),
}


def gamma(k: int) -> float:
    return k * U / (1 - k * U)


@pytest.mark.parametrize("name", STATES)
def test_gram_step_is_within_its_rounding_bound(name):
    sv = STATES[name]
    g2m = gamma(2 * (1 << (sv.n - 1)))
    for bob in sorted({0, sv.n // 2, sv.n - 1}):
        a2, b2, g_re, g_im = exact_gram(sv, bob)
        balance = check_general(sv, bob).residual_balance
        assert abs(Fraction(balance) - abs(a2 - b2)) <= (g2m + 4 * U) * (a2 + b2) + 2 * U, bob
        g = _gram(_receiver_blocks(sv, bob))[2]
        ab = math.sqrt(a2 * b2)
        assert abs(Fraction(g.real) - g_re) <= g2m * ab, bob
        assert abs(Fraction(g.imag) - g_im) <= g2m * ab, bob
