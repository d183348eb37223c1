"""Brute-force oracles shared by the test modules.

These deliberately avoid the package's vectorized code paths: the density
matrix is a double loop over basis states, reconstruction reassembles a
Schmidt form from scratch, and a one-qubit gate is applied to the full
amplitude tensor, so each acts as an independent referee.
"""

import math

import numpy as np

from sqtkit import (
    StateVector,
    acin_alternative,
    acin_canonical,
    basis_state,
    ghz,
    move_to_last_perm,
    new_state,
    permute_qubits,
    random_state,
    schmidt_branch_family,
    separable_branch_family,
    w_general,
    zha_counterexample,
)
from sqtkit.statevec import check_qubit_index

SQRT_HALF = math.sqrt(0.5)


def apply_one_qubit(sv: StateVector, q: int, op) -> StateVector:
    """Apply a 2×2 operator to qubit q, leaving the others untouched."""
    check_qubit_index(sv.n, q)
    psi = np.moveaxis(sv.tensor_view(), q, -1) @ np.asarray(op, dtype=complex).T
    return StateVector(sv.n, np.moveaxis(psi, -1, q).reshape(-1))


def brute_force_density(amps: np.ndarray, n: int, q: int) -> np.ndarray:
    """Single-qubit density matrix by explicit summation of outer products."""
    bit = n - 1 - q
    mask = 1 << bit
    rho = np.zeros((2, 2), dtype=complex)
    for i in range(2**n):
        for j in range(2**n):
            if (i & ~mask) == (j & ~mask):
                rho[(i >> bit) & 1, (j >> bit) & 1] += amps[i] * np.conj(amps[j])
    return rho


def brute_force_concurrence(sv: StateVector, bob: int) -> float:
    rho = brute_force_density(sv.amps, sv.n, bob)
    det = (rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0]).real
    return float(2.0 * np.sqrt(max(det, 0.0)))


def reconstruct_form(form, n: int, bob: int) -> np.ndarray:
    """Reassemble coeff0·branch0⊗U|0⟩ + coeff1·branch1⊗U|1⟩ with the receiver
    moved back to its original position; returns the amplitude vector."""
    u = form.receiver_basis
    joined = form.coeff0 * np.kron(form.branch0, u[:, 0]) + form.coeff1 * np.kron(
        form.branch1, u[:, 1]
    )
    perm = move_to_last_perm(n, bob)
    return permute_qubits(StateVector(n, joined), np.argsort(perm)).amps


# Members of every family at n = 3, perfect and imperfect ones
FAMILY_MEMBERS = {
    "ghz": ghz(3),
    "w-standard": w_general(*[1 / math.sqrt(3)] * 3),
    "w-perfect": w_general(0.5, 0.5, SQRT_HALF),
    "w-phased": w_general(0.6j, 0.0, 0.8),
    "separable": separable_branch_family(0.3, 0.4),
    "schmidt": schmidt_branch_family(0.6, 0.3, 0.7, 0.5),
    "acin-form-a": acin_canonical(0.5, 0.0, 0.3, 0.4, SQRT_HALF),
    "acin-generic": acin_canonical(0.4, 0.3, 0.5, 0.5, 0.5, theta=0.9),
    "acinalt-perfect": acin_alternative(SQRT_HALF, 0.0, SQRT_HALF, 0.0, 0.0),
    "acinalt-generic": acin_alternative(0.5, 0.3, 0.4, 0.5, 0.5, theta=1.1),
    "counterexample": zha_counterexample(0.4, 0.3, 0.1, 0.2, 0.3),
    "uniform": new_state(3, np.full(8, 1 / math.sqrt(8))),
    "product": basis_state(3, 0b010),
    **{f"haar-{seed}": random_state(3, seed) for seed in range(4)},
}
