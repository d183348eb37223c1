"""Property tests: both concurrence routes are invariant under the operations
that leave the receiver-vs-rest entanglement unchanged."""

import cmath

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import apply_one_qubit, concurrence
from sqtkit import (
    StateVector,
    concurrence_via_density,
    permute_qubits,
    random_state,
)

ROUTES = (concurrence, concurrence_via_density)
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def resources(draw, max_qubits=6):
    """(Haar state, receiver index) for n = 2..max_qubits qubits."""
    n = draw(st.integers(2, max_qubits))
    sv = random_state(n, draw(st.integers(0, 2**32 - 1)))
    return sv, draw(st.integers(0, n - 1))


def haar_unitary(seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def assert_routes_agree(sv, bob, moved, moved_bob):
    for route in ROUTES:
        assert abs(route(sv, bob) - route(moved, moved_bob)) < 1e-12


@PROPERTY_SETTINGS
@given(resources(), st.floats(-2 * np.pi, 2 * np.pi))
def test_global_phase(resource, phase):
    sv, bob = resource
    phased = StateVector(sv.n, sv.amps * cmath.exp(1j * phase))
    assert_routes_agree(sv, bob, phased, bob)


@PROPERTY_SETTINGS
@given(resources(), st.data())
def test_local_unitary_on_a_non_receiver_qubit(resource, data):
    sv, bob = resource
    q = data.draw(st.sampled_from([i for i in range(sv.n) if i != bob]))
    u = haar_unitary(data.draw(st.integers(0, 2**32 - 1)))
    assert_routes_agree(sv, bob, apply_one_qubit(sv, q, u), bob)


@PROPERTY_SETTINGS
@given(resources(), st.data())
def test_qubit_permutation_moves_the_receiver(resource, data):
    sv, bob = resource
    perm = data.draw(st.permutations(range(sv.n)))
    assert_routes_agree(sv, bob, permute_qubits(sv, perm), perm[bob])
