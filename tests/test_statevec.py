import itertools
import math
import warnings

import numpy as np
import pytest

from helpers import (PAULI_X, PAULI_Z, apply_one_qubit, basis_state, brute_force_density,
                     move_to_last_perm)
from sqtkit import (
    DimensionMismatch,
    IndexOutOfRange,
    InfoQubit,
    InvalidPermutation,
    NotNormalized,
    StateVector,
    TooManyQubits,
    classify_zha,
    new_state,
    permute_qubits,
    split_by_receiver,
)
from sqtkit.schmidt import _gram, _receiver_blocks
from sqtkit.statevec import check_qubit_index

SQRT_HALF = math.sqrt(0.5)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) * SQRT_HALF


def ghz3():
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = SQRT_HALF
    return new_state(3, amps)


class TestNewState:
    def test_basis_ket(self):
        sv = new_state(1, [1, 0])
        assert sv.n == 1
        np.testing.assert_allclose(sv.amps, [1, 0])

    def test_ghz_accepted(self):
        sv = ghz3()
        assert math.isclose(sv.norm(), 1.0, abs_tol=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            new_state(2, [1, 0, 0, 0.1])

    def test_rejects_nan(self):
        with pytest.raises(NotNormalized):
            new_state(2, [float("nan"), 0, 0, 1])

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            new_state(2, [1, 0, 0])

    @pytest.mark.parametrize("amps", [[1e308, 1e308, 0, 0], [1e200j, 0, 1e200, 0], [np.inf, 0, 0, 0]])
    def test_rejects_overflowing_norm_without_numpy_warning(self, amps):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotNormalized):
                new_state(2, amps)

    def test_rejects_bad_qubit_count(self):
        with pytest.raises(TooManyQubits):
            new_state(13, np.zeros(2**13))
        with pytest.raises(TooManyQubits):
            new_state(0, [1])

    def test_rejects_non_integer_qubit_count(self):
        with pytest.raises(TooManyQubits):
            new_state(2.0, [1, 0, 0, 0])
        with pytest.raises(TooManyQubits):
            new_state(True, [1, 0])

    def test_builds_one_state_vector(self, monkeypatch):
        built = []
        init = StateVector.__post_init__
        monkeypatch.setattr(StateVector, "__post_init__", lambda sv: built.append(init(sv)))
        new_state(2, [0.6, 0, 0, 0.8])
        assert len(built) == 1

    def test_renormalizes_without_touching_the_input(self):
        amps = np.array([0.6, 0, 0, 0.8j]) * (1 + 5e-10)
        kept = amps.copy()
        np.testing.assert_allclose(new_state(2, amps).amps, kept / np.linalg.norm(kept), atol=1e-16)
        assert amps.tobytes() == kept.tobytes() and amps.flags.writeable

    def test_silent_renormalization_within_tolerance(self):
        amps = np.array([1.0, 0, 0, 0]) * (1 + 5e-10)
        sv = new_state(2, amps)
        assert sv.norm() == pytest.approx(1.0, abs=1e-15)

    def test_amps_are_read_only(self):
        sv = new_state(1, [1, 0])
        with pytest.raises(ValueError):
            sv.amps[0] = 0.0


@pytest.mark.parametrize("n, amps", [(3, np.ones(8)), (3, np.full(8, np.nan)), (1, [1e200, 0])],
                         ids=["norm-sqrt8", "nan", "overflow"])
def test_bare_constructor_refuses_a_non_unit_norm(n, amps):
    with pytest.raises(NotNormalized):
        StateVector(n, amps)


# Every unit-norm gate of the package, fed a vector of norm `scale`
NORM_GATES = {
    "StateVector": lambda scale: StateVector(2, [scale * SQRT_HALF, 0, 0, scale * SQRT_HALF]),
    "new_state": lambda scale: new_state(2, [scale * SQRT_HALF, 0, 0, scale * SQRT_HALF]),
    "InfoQubit": lambda scale: InfoQubit(0.6 * scale, 0.8j * scale),
    "classify_zha": lambda scale: classify_zha([0.5 * scale] * 4 + [0.0]),
}


@pytest.mark.parametrize("gate", sorted(NORM_GATES))
@pytest.mark.parametrize("offset, admitted", [(0.9e-9, True), (-0.9e-9, True), (1.1e-9, False), (-1.1e-9, False)])
def test_unit_norm_gate_edge(gate, offset, admitted):
    # one rule everywhere: |‖a‖ − 1| ≤ NORM_TOL = 1e-9
    build = NORM_GATES[gate]
    if admitted:
        build(1.0 + offset)
    else:
        with pytest.raises(NotNormalized):
            build(1.0 + offset)


NON_INTEGERS = [True, 1.0, np.float64(1.0)]
BAD_QUBIT_COUNTS = [0, -1, 13, 100, 2.0, np.float64(3.0), True]


class TestQubitCounts:
    @pytest.mark.parametrize("n", BAD_QUBIT_COUNTS, ids=repr)
    def test_basis_state_refuses_bad_counts(self, n):
        with pytest.raises(TooManyQubits):
            basis_state(n, 0)

    @pytest.mark.parametrize("n", BAD_QUBIT_COUNTS, ids=repr)
    def test_move_to_last_perm_refuses_bad_counts(self, n):
        with pytest.raises(TooManyQubits):
            move_to_last_perm(n, 0)

    @pytest.mark.parametrize("n", [1, 12, np.int64(3)], ids=repr)
    def test_valid_counts_are_accepted(self, n):
        assert basis_state(n, 0).amps.size == 2**n
        assert move_to_last_perm(n, 0)[0] == n - 1


class TestIntegerIndices:
    @pytest.mark.parametrize("q", NON_INTEGERS, ids=repr)
    def test_qubit_index_must_be_an_integer(self, q):
        with pytest.raises(IndexOutOfRange):
            check_qubit_index(3, q)
        with pytest.raises(IndexOutOfRange):
            split_by_receiver(ghz3(), q)

    @pytest.mark.parametrize("index", NON_INTEGERS, ids=repr)
    def test_basis_index_must_be_an_integer(self, index):
        with pytest.raises(IndexOutOfRange):
            basis_state(2, index)

    def test_numpy_integers_are_accepted(self):
        check_qubit_index(3, np.int64(2))
        np.testing.assert_array_equal(basis_state(2, np.int32(1)).amps, [0, 1, 0, 0])


class TestInner:
    """⟨x|y⟩ is np.vdot(x.amps, y.amps), which conjugates its first argument."""

    def test_self_overlap(self):
        zero = basis_state(1, 0).amps
        assert np.vdot(zero, zero) == pytest.approx(1.0)

    def test_orthogonal_kets(self):
        assert np.vdot(basis_state(1, 0).amps, basis_state(1, 1).amps) == 0

    def test_superposition_overlap(self):
        x = new_state(2, [SQRT_HALF, SQRT_HALF, 0, 0]).amps
        y = basis_state(2, 0).amps
        assert np.vdot(x, y) == pytest.approx(SQRT_HALF)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = StateVector(2, _random_unit(rng, 4)).amps
            y = StateVector(2, _random_unit(rng, 4)).amps
            assert np.vdot(x, y) == pytest.approx(np.conj(np.vdot(y, x)), abs=1e-14)

    def test_self_inner_is_real_and_unit(self, small_corpus):
        for sv in small_corpus[:20]:
            val = np.vdot(sv.amps, sv.amps)
            assert val.imag == 0.0
            assert val.real == pytest.approx(1.0, abs=1e-12)


def _random_unit(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class TestApplyOneQubit:
    """The test oracle `helpers.apply_one_qubit`."""

    def test_pauli_x_flips(self):
        out = apply_one_qubit(basis_state(1, 0), 0, PAULI_X)
        np.testing.assert_allclose(out.amps, [0, 1])

    def test_identity_on_ghz(self):
        g = ghz3()
        out = apply_one_qubit(g, 1, np.eye(2))
        np.testing.assert_allclose(out.amps, g.amps)

    def test_pauli_z_on_plus(self):
        plus = new_state(1, [SQRT_HALF, SQRT_HALF])
        out = apply_one_qubit(plus, 0, PAULI_Z)
        np.testing.assert_allclose(out.amps, [SQRT_HALF, -SQRT_HALF])

    def test_acts_on_requested_qubit_only(self):
        sv = basis_state(3, 0b000)
        out = apply_one_qubit(sv, 1, PAULI_X)
        np.testing.assert_allclose(out.amps, basis_state(3, 0b010).amps)

    def test_rejects_bad_index(self):
        with pytest.raises(IndexOutOfRange):
            apply_one_qubit(basis_state(2, 0), 2, PAULI_X)

    def test_norm_preserved_on_random_states(self, small_corpus):
        rng = np.random.default_rng(17)
        for sv in small_corpus[:30]:
            q = int(rng.integers(sv.n))
            out = apply_one_qubit(sv, q, HADAMARD)
            assert abs(out.norm() - 1.0) < 1e-12


class TestPermuteQubits:
    def test_identity(self):
        sv = ghz3()
        out = permute_qubits(sv, [0, 1, 2])
        np.testing.assert_array_equal(out.amps, sv.amps)

    def test_swap(self):
        out = permute_qubits(basis_state(2, 0b01), [1, 0])
        np.testing.assert_allclose(out.amps, basis_state(2, 0b10).amps)

    def test_cycle(self):
        out = permute_qubits(basis_state(3, 0b001), [1, 2, 0])
        np.testing.assert_allclose(out.amps, basis_state(3, 0b100).amps)

    def test_inverse_roundtrip_is_exact(self, small_corpus):
        rng = np.random.default_rng(23)
        for sv in small_corpus[:30]:
            perm = list(rng.permutation(sv.n))
            back = permute_qubits(permute_qubits(sv, perm), np.argsort(perm))
            np.testing.assert_array_equal(back.amps, sv.amps)

    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidPermutation):
            permute_qubits(ghz3(), [0, 0, 2])

    @pytest.mark.parametrize(
        "perm",
        [[0.9, 1.5, 2.2], [True, False, 2], np.array([0, 1, 2.7]), 5, None],
        ids=["floats", "bools", "float-array", "int", "none"],
    )
    def test_rejects_non_integer_entries(self, perm):
        with pytest.raises(InvalidPermutation):
            permute_qubits(ghz3(), perm)

    def test_rejects_a_non_iterable_on_one_qubit(self):
        # 0 is not the permutation [0]
        with pytest.raises(InvalidPermutation, match=r"^0 is not a permutation of 0\.\.0$"):
            permute_qubits(new_state(1, [1, 0]), 0)

    def test_refusal_names_the_callers_value(self):
        with pytest.raises(InvalidPermutation, match=r"^5 is not a permutation of 0\.\.2$"):
            permute_qubits(ghz3(), 5)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_argsort_transpose_for_every_permutation(self, n):
        rng = np.random.default_rng(n)
        amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        sv = StateVector(n, amps / np.linalg.norm(amps))
        for perm in itertools.permutations(range(n)):
            out = permute_qubits(sv, perm)
            expected = np.transpose(sv.tensor_view(), np.argsort(perm)).reshape(-1)
            np.testing.assert_array_equal(out.amps, expected)
            assert out.amps.flags.c_contiguous and not out.amps.flags.writeable


def receiver_density(sv, q):
    """Reduced density ρ = [[A², g], [g*, B²]] of qubit q, as the Schmidt
    engine reads it from the one product M†M of the receiver blocks, after
    checking the receiver as every engine caller does."""
    check_qubit_index(sv.n, q)
    a, b, g = _gram(_receiver_blocks(sv, q))
    return np.array([[a * a, g], [g.conjugate(), b * b]])


class TestReducedDensity:
    def test_ghz_is_maximally_mixed(self):
        rho = receiver_density(ghz3(), 2)
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-15)

    def test_product_state(self):
        rho = receiver_density(basis_state(3, 0), 2)
        np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-15)

    def test_known_offdiagonal_case(self):
        # (1/√2)|000⟩ + (1/2)|001⟩ + (1/2)|011⟩; value frozen from the
        # brute-force outer-product sum
        sv = new_state(3, [SQRT_HALF, 0.5, 0, 0.5, 0, 0, 0, 0])
        rho = receiver_density(sv, 2)
        expected = np.array(
            [[0.5, 1 / (2 * math.sqrt(2))], [1 / (2 * math.sqrt(2)), 0.5]], dtype=complex
        )
        np.testing.assert_allclose(rho, expected, atol=1e-14)

    def test_matches_brute_force(self, small_corpus):
        for sv in small_corpus[:40]:
            for q in range(sv.n):
                rho = receiver_density(sv, q)
                np.testing.assert_allclose(
                    rho, brute_force_density(sv.amps, sv.n, q), atol=1e-13
                )

    def test_trace_and_spectrum(self, small_corpus):
        for sv in small_corpus[:40]:
            for q in range(sv.n):
                rho = receiver_density(sv, q)
                assert abs(np.trace(rho).real - 1.0) < 1e-10
                eigs = np.linalg.eigvalsh(rho)
                assert eigs.min() > -1e-12 and eigs.max() < 1 + 1e-12

    def test_rejects_bad_index(self):
        with pytest.raises(IndexOutOfRange):
            receiver_density(ghz3(), 3)


class TestTensor:
    """np.kron(x.amps, y.amps) is the product state with x on the
    more-significant qubits, the order basis_state and new_state use."""

    def test_basis_product(self):
        out = np.kron(basis_state(1, 0).amps, basis_state(1, 1).amps)
        np.testing.assert_allclose(out, basis_state(2, 0b01).amps)

    def test_plus_times_zero(self):
        plus = new_state(1, [SQRT_HALF, SQRT_HALF])
        out = np.kron(plus.amps, basis_state(1, 0).amps)
        np.testing.assert_allclose(out, [SQRT_HALF, 0, SQRT_HALF, 0])

    def test_info_times_ghz_pattern(self):
        info = new_state(1, [0.6, 0.8])
        out = np.kron(info.amps, ghz3().amps)
        expected = np.zeros(16, dtype=complex)
        expected[0b0000] = 0.6 * SQRT_HALF
        expected[0b0111] = 0.6 * SQRT_HALF
        expected[0b1000] = 0.8 * SQRT_HALF
        expected[0b1111] = 0.8 * SQRT_HALF
        np.testing.assert_allclose(out, expected)

    def test_reduced_density_of_factor(self, small_corpus):
        rng = np.random.default_rng(31)
        for sv in small_corpus[:20]:
            single = _random_unit(rng, 2)
            joint = StateVector(sv.n + 1, np.kron(single, sv.amps))
            rho = receiver_density(joint, 0)
            np.testing.assert_allclose(rho, np.outer(single, single.conj()), atol=1e-12)
