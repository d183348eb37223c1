"""The Schmidt engine at and around its tolerances: a minor branch whose weight
sits at DEGENERATE_TOL, an overlap at OVERLAP_TOL, and product states whose
minor weight is one ulp either side of the tolerance. The engine must return
orthonormal branches that rebuild the state, agree with the density route, and
drive the explicit projection to the closed-form outcome table."""

import math

import numpy as np
import pytest

from helpers import reconstruct_form
from sqtkit import (
    InfoQubit,
    concurrence_via_density,
    ghz,
    new_state,
    outcome_table,
    random_state,
    run_teleport,
    schmidt_form,
)
from sqtkit.schmidt import DEGENERATE_TOL, OVERLAP_TOL

MINOR_WEIGHTS = (0.0, 1e-300, 1e-20, 1e-14, DEGENERATE_TOL * (1 - 2**-52), DEGENERATE_TOL,
                 DEGENERATE_TOL * (1 + 2**-52), 1e-10, 1e-6, 0.3, math.sqrt(0.5))
OVERLAPS = (0.0, 1e-16, OVERLAP_TOL * (1 - 1e-3), OVERLAP_TOL * (1 + 1e-3), 1e-8, 0.5, 1 - 1e-12,
            1.0)
INFO = InfoQubit(0.6, 0.8j)


def split_resource(n, bob, a, b, k, rng):
    """new_state of A·|ψ0⟩|0⟩ + B·|ψ1⟩|1⟩ with ⟨ψ1|ψ0⟩ = K, receiver at `bob`."""
    raw = rng.standard_normal((2, 2 ** (n - 1))) + 1j * rng.standard_normal((2, 2 ** (n - 1)))
    psi0 = raw[0] / np.linalg.norm(raw[0])
    perp = raw[1] - np.vdot(psi0, raw[1]) * psi0
    perp /= np.linalg.norm(perp)
    psi1 = np.conj(k) * psi0 + math.sqrt(max(1.0 - abs(k) ** 2, 0.0)) * perp
    rows = np.array([a * psi0, b * psi1])
    # receiver rows -> amplitudes indexed (qubits before bob, bob, qubits after bob)
    return new_state(n, rows.reshape(2, 1 << bob, -1).swapaxes(0, 1).reshape(-1))


def assert_engine_holds(sv, bob, case):
    form = schmidt_form(sv, bob)
    b0, b1 = form.branch0, form.branch1
    assert abs(np.vdot(b0, b1)) <= 1e-13, case
    assert abs(np.linalg.norm(b0) - 1.0) <= 1e-13 and abs(np.linalg.norm(b1) - 1.0) <= 1e-13, case
    assert np.max(np.abs(reconstruct_form(form, sv.n, bob) - sv.amps)) <= 2 * DEGENERATE_TOL, case
    assert abs(form.concurrence - concurrence_via_density(sv, bob)) <= 4 * DEGENERATE_TOL, case
    table = outcome_table(INFO, form)
    for seed in range(4):
        record = run_teleport(INFO, sv, bob, seed=seed).record
        want = table[record.outcome]
        assert abs(record.prob - want.prob) <= 1e-9, case
        assert abs(record.fidelity - want.fidelity) <= 1e-9, case


@pytest.mark.parametrize("minor_first", [True, False], ids=["minor-first", "minor-second"])
@pytest.mark.parametrize("n", [2, 3, 8, 12])
def test_near_degenerate_grid(n, minor_first):
    rng = np.random.default_rng(n)
    for minor in MINOR_WEIGHTS:
        major = math.sqrt(1.0 - minor * minor)
        a, b = (minor, major) if minor_first else (major, minor)
        for size in OVERLAPS:
            k = size * np.exp(0.7j)
            for bob in sorted({0, n - 1}):
                sv = split_resource(n, bob, a, b, k, rng)
                assert_engine_holds(sv, bob, (minor, size, bob))


PRODUCT_WEIGHTS = [1e-12 * (1 + k * 2**-52) for k in range(-3, 6)]


def test_product_with_a_minor_weight_at_the_tolerance():
    # the Gram step and the branch norm once read this weight either side of
    # DEGENERATE_TOL: branches 0.96 from orthogonal, Born weight 0.499 for 0.32
    sv = new_state(3, np.kron(random_state(2, 14).amps, [math.sqrt(1 - 1e-24), 1e-12]))
    form = schmidt_form(sv, 2)
    assert abs(np.vdot(form.branch0, form.branch1)) <= 1e-13
    record = run_teleport(INFO, sv, 2, seed=0).record
    assert abs(record.prob - outcome_table(INFO, form)[record.outcome].prob) <= 1e-9


@pytest.mark.parametrize("n", [3, 8])
def test_product_sweep_at_the_tolerance(n):
    for seed in range(60):
        rest = random_state(n - 1, seed).amps
        for w in PRODUCT_WEIGHTS:
            sv = new_state(n, np.kron(rest, [math.sqrt(1 - w * w), w]))
            form = schmidt_form(sv, n - 1)
            assert abs(np.vdot(form.branch0, form.branch1)) <= 1e-13, (seed, w)
            assert abs(np.linalg.norm(form.branch1) - 1.0) <= 1e-13, (seed, w)
            table = outcome_table(INFO, form)
            for s in range(2):
                record = run_teleport(INFO, sv, n - 1, seed=s).record
                assert abs(record.prob - table[record.outcome].prob) <= 1e-9, (seed, w)


@pytest.mark.parametrize("n", range(2, 13))
def test_ghz_with_a_small_gaussian_kick(n):
    # the C → 1 edge: GHZ(n) + ε·g renormalized, g a complex Gaussian, so both
    # coefficients sit within ~ε of √½ and the rotation is a near-tie
    for k in range(3):
        gen = np.random.default_rng(1000 * n + k)
        g = gen.standard_normal(2**n) + 1j * gen.standard_normal(2**n)
        for eps in (1e-3, 1e-6, 1e-9, 1e-12, 1e-15):
            raw = ghz(n).amps + eps * g
            sv = new_state(n, raw / np.linalg.norm(raw))
            for bob in sorted({0, n // 2, n - 1}):
                case = (k, eps, bob)
                form = schmidt_form(sv, bob)
                b0, b1 = form.branch0, form.branch1
                assert np.max(np.abs(reconstruct_form(form, n, bob) - sv.amps)) <= 1e-13, case
                assert abs(np.vdot(b0, b1)) <= 1e-13, case
                assert max(abs(np.linalg.norm(b) - 1.0) for b in (b0, b1)) <= 1e-13, case
                assert abs(form.concurrence - concurrence_via_density(sv, bob)) <= 1e-13, case
                table = outcome_table(INFO, form)
                for seed in range(2):
                    record = run_teleport(INFO, sv, bob, seed=seed).record
                    want = table[record.outcome]
                    assert abs(record.prob - want.prob) <= 1e-12, case
                    assert abs(record.fidelity - want.fidelity) <= 1e-12, case
