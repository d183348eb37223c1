"""Brute-force oracles shared by the test modules.

These deliberately avoid the package's vectorized code paths: the density
matrix is a double loop over basis states, reconstruction reassembles a
Schmidt form from scratch, and a one-qubit gate is applied to the full
amplitude tensor, so each acts as an independent referee. The rotation
quadratic with both roots and the four explicit sender basis states are the
paper's own constructions, which the engine replaces by the closed-form top
root and a projection onto two branch rows; they are kept here as referees.
"""

import math

import numpy as np

from sqtkit import (
    BipartiteSplit,
    IndexOutOfRange,
    SchmidtForm,
    StateVector,
    acin_alternative,
    acin_canonical,
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
from sqtkit.protocol import _OUTCOMES
from sqtkit.schmidt import DEGENERATE_TOL, OVERLAP_TOL
from sqtkit.statevec import check_qubit_count, check_qubit_index, is_int

SQRT_HALF = math.sqrt(0.5)


def basis_state(n: int, index: int) -> StateVector:
    """Computational basis ket whose bit pattern is `index` (qubit 0 = MSB)."""
    check_qubit_count(n)
    if not (is_int(index) and 0 <= index < 2**n):
        raise IndexOutOfRange(f"basis index {index} outside 0..{2 ** n - 1}")
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return StateVector(n, amps)


def rotation_candidates(split: BipartiteSplit) -> tuple[complex, complex]:
    """Both admissible receiver-basis rotations for a split.

    Roots of A·B·K·z² + (A² − B²)·z − A·B·K* = 0, evaluated in the
    cancellation-free order: the larger-magnitude root from the quadratic
    formula, the other from the root product −K*/K. Degenerate splits
    (absent branch or K ≈ 0) return (0, 0).
    """
    k = split.overlap
    ab = split.weight0 * split.weight1
    if split.weight0 < DEGENERATE_TOL or split.weight1 < DEGENERATE_TOL or abs(k) < OVERLAP_TOL:
        return (0j, 0j)
    mid = split.weight0**2 - split.weight1**2
    disc = math.sqrt(mid * mid + 4.0 * ab * ab * abs(k) ** 2)
    q = -(mid + math.copysign(disc, mid)) / 2.0 if mid != 0.0 else -disc / 2.0
    z1 = q / (ab * k)
    z2 = -ab * k.conjugate() / q
    return (complex(z1), complex(z2))


def measurement_basis(form: SchmidtForm) -> tuple[np.ndarray, ...]:
    """The four orthonormal sender states over (information qubit, n−1
    resource qubits), built from the Schmidt branches as read-only arrays:
    Ψ(0,1) = (|0⟩|branch0⟩ ± |1⟩|branch1⟩)/√2 and
    Ψ(2,3) = (|0⟩|branch1⟩ ± |1⟩|branch0⟩)/√2. They are the reference the
    explicit run is tested against: :func:`run_teleport` projects onto them
    without building them."""
    b = form.branch0, form.branch1
    pairs = [(b[i], b[j] if sign > 0 else -b[j]) for i, j, sign in _OUTCOMES]
    states = SQRT_HALF * np.array([np.concatenate(pair) for pair in pairs])
    states.flags.writeable = False  # the rows handed out are read-only views of it
    return tuple(states)


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
