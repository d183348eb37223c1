"""The explicit protocol as a channel on the information qubit.

Its Kraus operators (`kraus_operators` in helpers.py, built from the explicit
joint state, `measurement_basis` and `correction_matrix`) give the dephasing
channel ρ ↦ ((1 + C)/2)·ρ + ((1 − C)/2)·ZρZ at every resource and receiver:
Pauli transfer matrix diag(1, C, C, 1), trace preserving, and an average over
the six Pauli eigenstates (a qubit 2-design, so the exact Haar mean) of
(2 + C)/3.
"""

import numpy as np
import pytest

from helpers import kraus_operators
from sqtkit import ghz, maf, random_state, schmidt_form

PAULIS = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1, -1])], dtype=complex)
# the six Pauli eigenstates: |0⟩, |1⟩, |±⟩, |±i⟩
DESIGN = np.array([[1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j]], dtype=complex)
DESIGN[2:] *= np.sqrt(0.5)


def _cases(n):
    for name, sv in (("haar-0", random_state(n, 500 + n)), ("haar-1", random_state(n, 600 + n)),
                     ("ghz", ghz(n))):
        for bob in range(n):
            yield name, bob, sv, kraus_operators(sv, bob), schmidt_form(sv, bob).concurrence


@pytest.mark.parametrize("n", range(2, 13))
def test_pauli_transfer_matrix_is_the_dephasing_channels(n):
    for name, bob, _, kraus, c in _cases(n):
        # R_ij = ½·tr(σ_i·Σ_r K_r σ_j K_r†)
        image = np.einsum("rab,jbc,rdc->jad", kraus, PAULIS, kraus.conj())
        ptm = 0.5 * np.einsum("iab,jba->ij", PAULIS, image)
        np.testing.assert_allclose(ptm, np.diag([1.0, c, c, 1.0]), rtol=0, atol=1e-13,
                                   err_msg=f"{name} bob={bob}")


@pytest.mark.parametrize("n", range(2, 13))
def test_kraus_operators_preserve_the_trace(n):
    for name, bob, _, kraus, _ in _cases(n):
        total = np.einsum("rba,rbc->ac", kraus.conj(), kraus)
        np.testing.assert_allclose(total, np.eye(2), rtol=0, atol=1e-13, err_msg=f"{name} bob={bob}")


@pytest.mark.parametrize("n", range(2, 13))
def test_design_average_is_maf(n):
    # Σ_r P(r)·F(r) = Σ_r |⟨a|K_r a⟩|², averaged over the 2-design
    for name, bob, _, kraus, c in _cases(n):
        overlaps = np.einsum("sa,rab,sb->sr", DESIGN.conj(), kraus, DESIGN)
        average = float(np.mean(np.sum(abs(overlaps) ** 2, axis=1)))
        assert abs(average - maf(c)) <= 1e-13, (name, bob, average, maf(c))
