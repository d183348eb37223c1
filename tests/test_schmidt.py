import math

import numpy as np
import pytest

from helpers import (
    FAMILY_MEMBERS,
    PAULI_X,
    basis_state,
    brute_force_concurrence,
    concurrence,
    move_to_last_perm,
    reconstruct_form,
    rotation_candidates,
    rotation_matrix,
)
from sqtkit import (
    IndexOutOfRange,
    InfoQubit,
    OutOfRange,
    StateVector,
    WrongQubitCount,
    average_fidelity_mc,
    check_3qubit,
    check_general,
    concurrence_via_density,
    ghz,
    maf,
    new_state,
    outcome_table,
    permute_qubits,
    random_state,
    run_teleport,
    schmidt_form,
    split_by_receiver,
    w_general,
)
from sqtkit.schmidt import CONCURRENCE_SLACK, DEGENERATE_TOL, OVERLAP_TOL

SQRT_HALF = math.sqrt(0.5)

# Frozen expectations, each verified against an independent route:
# - W-state split by brute-force grouping of amplitudes by the receiver bit
# - the rotated coefficients below equal cos(π/8), sin(π/8), their product
#   matching 2√det ρ from the brute-force density matrix
W_CONCURRENCE = 2.0 * math.sqrt(2.0) / 3.0  # 0.9428090415820634
DERIVED_COEFF0 = 0.9238795325112867
DERIVED_COEFF1 = 0.3826834323650898
DERIVED_CONC = 0.7071067811865476


def standard_w():
    s = 1.0 / math.sqrt(3.0)
    return w_general(s, s, s)


class TestSplit:
    def test_ghz(self):
        split = split_by_receiver(ghz(3), 2)
        assert split.weight0 == pytest.approx(SQRT_HALF)
        assert split.weight1 == pytest.approx(SQRT_HALF)
        assert split.overlap == 0

    def test_product_state(self):
        split = split_by_receiver(basis_state(3, 0), 2)
        assert split.weight0 == pytest.approx(1.0)
        assert split.weight1 == 0.0
        assert split.overlap == 0

    def test_standard_w(self):
        split = split_by_receiver(standard_w(), 2)
        assert split.weight0 == pytest.approx(math.sqrt(2.0 / 3.0))
        assert split.weight1 == pytest.approx(1.0 / math.sqrt(3.0))
        assert abs(split.overlap) < 1e-15

    def test_weights_are_nonnegative_and_normalized(self, small_corpus):
        for sv in small_corpus:
            for bob in range(sv.n):
                split = split_by_receiver(sv, bob)
                assert split.weight0 >= 0 and split.weight1 >= 0
                assert abs(split.weight0**2 + split.weight1**2 - 1) < 1e-10
                assert abs(split.overlap) <= 1 + 1e-10

    def test_global_phase_lands_in_branches(self):
        sv = ghz(3)
        rotated = StateVector(3, sv.amps * np.exp(1.3j))
        split = split_by_receiver(rotated, 2)
        assert split.weight0 == pytest.approx(SQRT_HALF)
        assert split.weight1 == pytest.approx(SQRT_HALF)

    def test_errors(self):
        with pytest.raises(IndexOutOfRange):
            split_by_receiver(ghz(3), 5)
        with pytest.raises(WrongQubitCount):
            split_by_receiver(basis_state(1, 0), 0)


def assert_split_matches_explicit_reads(sv, bob):
    """split_by_receiver reads A, B and g = A·B·K from one M†M; its values
    and check_general's verdict match the per-column norms and the vdot of
    the normalized branches."""
    split = split_by_receiver(sv, bob)
    blocks = np.moveaxis(sv.tensor_view(), bob, -1).reshape(-1, 2)
    w0, w1 = float(np.linalg.norm(blocks[:, 0])), float(np.linalg.norm(blocks[:, 1]))
    assert abs(split.weight0 - w0) <= 1e-15 and abs(split.weight1 - w1) <= 1e-15
    both = w0 > DEGENERATE_TOL and w1 > DEGENERATE_TOL
    overlap = np.vdot(blocks[:, 1] / w1, blocks[:, 0] / w0) if both else 0j
    assert abs(split.overlap - overlap) <= 1e-15
    verdict = abs(w0**2 - w1**2) < 1e-9 and abs(overlap) < 1e-9
    assert check_general(sv, bob).verdict == verdict


class TestGramReadSplit:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_haar_states_every_receiver(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(3):
            sv = random_state(n, rng)
            for bob in range(n):
                assert_split_matches_explicit_reads(sv, bob)

    @pytest.mark.parametrize("bob", [0, 1, 2])
    @pytest.mark.parametrize("sv", FAMILY_MEMBERS.values(), ids=FAMILY_MEMBERS.keys())
    def test_family_members(self, sv, bob):
        assert_split_matches_explicit_reads(sv, bob)


def split_branches(sv, bob):
    """The split's normalized branches, read from the receiver blocks."""
    split = split_by_receiver(sv, bob)
    blocks = np.moveaxis(sv.tensor_view(), bob, -1).reshape(-1, 2)
    return split, blocks[:, 0] / split.weight0, blocks[:, 1] / split.weight1


class TestSolveRotation:
    """The rotation z that schmidt_form takes, against both roots of the
    quadratic from rotation_candidates."""

    def test_orthogonal_branches_need_no_rotation(self):
        sv = new_state(3, [0.8, 0, 0, 0, 0, 0, 0, 0.6])
        assert schmidt_form(sv, 2).z == 0
        assert rotation_candidates(split_by_receiver(sv, 2)) == (0, 0)

    def test_degenerate_branch(self):
        sv = basis_state(3, 0)
        assert schmidt_form(sv, 2).z == 0
        assert rotation_candidates(split_by_receiver(sv, 2)) == (0, 0)

    def test_tie_break_selects_plus_one(self):
        # A = B = 1/√2, ψ0 = |00⟩, ψ1 = (|00⟩+|01⟩)/√2 gives z² = 1 and the
        # ordering preference picks +1
        sv = new_state(3, [SQRT_HALF, 0.5, 0, 0.5, 0, 0, 0, 0])
        assert schmidt_form(sv, 2).z == pytest.approx(1.0, abs=1e-12)
        roots = sorted(rotation_candidates(split_by_receiver(sv, 2)), key=lambda z: z.real)
        assert roots == pytest.approx([-1.0, 1.0], abs=1e-12)

    def test_both_candidates_orthogonalize(self, small_corpus):
        for sv in small_corpus[:40]:
            split, branch0, branch1 = split_branches(sv, sv.n - 1)
            z1, z2 = rotation_candidates(split)
            if z1 == z2 == 0:
                continue
            # product of the roots is −K*/K, so both magnitudes multiply to 1
            assert abs(z1 * z2) == pytest.approx(1.0, rel=1e-9)
            for z in (z1, z2):
                raw0 = split.weight0 * branch0 + split.weight1 * np.conj(z) * branch1
                raw1 = split.weight1 * branch1 - split.weight0 * z * branch0
                overlap = abs(np.vdot(raw1, raw0))
                assert overlap / (np.linalg.norm(raw0) * np.linalg.norm(raw1)) < 1e-10

    def test_root_choice_does_not_change_concurrence(self, small_corpus):
        for sv in small_corpus[:40]:
            split, branch0, branch1 = split_branches(sv, 0)
            z1, z2 = rotation_candidates(split)
            if z1 == z2 == 0:
                continue
            cs = []
            for z in (z1, z2):
                scale = 1.0 + abs(z) ** 2
                raw0 = split.weight0 * branch0 + split.weight1 * np.conj(z) * branch1
                raw1 = split.weight1 * branch1 - split.weight0 * z * branch0
                cs.append(2.0 * np.linalg.norm(raw0) * np.linalg.norm(raw1) / scale)
            assert abs(cs[0] - cs[1]) < 1e-10


class TestSchmidtForm:
    def test_ghz(self):
        form = schmidt_form(ghz(3), 2)
        assert form.coeff0 == pytest.approx(SQRT_HALF)
        assert form.coeff1 == pytest.approx(SQRT_HALF)
        assert form.concurrence == pytest.approx(1.0)

    def test_product(self):
        form = schmidt_form(basis_state(3, 0), 2)
        assert form.coeff0 == pytest.approx(1.0)
        assert form.coeff1 == 0.0
        assert form.concurrence == 0.0
        assert abs(np.vdot(form.branch1, form.branch0)) < 1e-12

    def test_derived_nonorthogonal_case(self):
        # (1/√2)|00⟩|0⟩ + (1/√2)·((|00⟩+|01⟩)/√2)|1⟩
        sv = new_state(3, [SQRT_HALF, 0.5, 0, 0.5, 0, 0, 0, 0])
        form = schmidt_form(sv, 2)
        assert form.coeff0 == pytest.approx(DERIVED_COEFF0, abs=1e-12)
        assert form.coeff1 == pytest.approx(DERIVED_COEFF1, abs=1e-12)
        assert form.concurrence == pytest.approx(DERIVED_CONC, abs=1e-12)
        assert concurrence_via_density(sv, 2) == pytest.approx(DERIVED_CONC, abs=1e-12)

    def test_ordering_swap_for_orthogonal_unbalanced_split(self):
        sv = new_state(3, [0.6, 0, 0, 0, 0, 0, 0, 0.8])
        form = schmidt_form(sv, 2)
        assert form.coeff0 == pytest.approx(0.8)
        assert form.coeff1 == pytest.approx(0.6)
        np.testing.assert_allclose(reconstruct_form(form, 3, 2), sv.amps, atol=1e-12)

    def test_receiver_basis_is_unitary(self, small_corpus):
        for sv in small_corpus[:30]:
            u = schmidt_form(sv, 0).receiver_basis
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    def test_corpus_invariants(self, small_corpus):
        for sv in small_corpus:
            for bob in range(sv.n):
                form = schmidt_form(sv, bob)
                assert abs(np.vdot(form.branch1, form.branch0)) < 1e-10
                assert abs(form.coeff0**2 + form.coeff1**2 - 1.0) < 1e-10
                assert form.coeff0 >= form.coeff1 >= 0
                np.testing.assert_allclose(
                    reconstruct_form(form, sv.n, bob), sv.amps, atol=1e-10
                )

    def test_rotation_matrix_columns(self):
        z = 0.3 - 0.4j
        u = rotation_matrix(z)
        c = 1 / math.sqrt(1 + abs(z) ** 2)
        np.testing.assert_allclose(u[:, 0], [c, c * z])
        np.testing.assert_allclose(u[:, 1], [-c * np.conj(z), c])
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-15)


def split_state(a, b, k, bob=2):
    """A·|ψ0⟩|0⟩ + B·|ψ1⟩|1⟩ with ⟨ψ1|ψ0⟩ = K, renormalized, with the receiver
    moved from the last position to `bob`."""
    psi0 = np.array([0.6, 0, 0.8j, 0])
    perp = np.array([0, 0.6, 0, -0.8])
    psi1 = np.conj(k) * psi0 + math.sqrt(1.0 - abs(k) ** 2) * perp
    amps = np.zeros(8, dtype=complex)
    amps[0::2] = a * psi0
    amps[1::2] = b * psi1
    sv = new_state(3, amps / np.linalg.norm(amps))
    return permute_qubits(sv, np.argsort(move_to_last_perm(3, bob)))


def near_product(n, eps, seed):
    """Haar rest ⊗ (0.6|0⟩ + 0.8i|1⟩) plus an eps-sized Haar perturbation."""
    rng = np.random.default_rng(seed)
    amps = np.kron(random_state(n - 1, rng).amps, [0.6, 0.8j])
    amps = amps + eps * random_state(n, rng).amps
    return new_state(n, amps / np.linalg.norm(amps))


ENGINE_EDGES = {
    **{f"weight-{f}x-degenerate": (split_state(1.0, f * DEGENERATE_TOL, 0.6 + 0.3j), 2)
       for f in (0.5, 1, 2)},
    **{f"overlap-{f}x-{name}": (split_state(a, b, f * OVERLAP_TOL * np.exp(0.4j)), 2)
       for f in (0.5, 1, 3) for name, a, b in (("equal", 1.0, 1.0), ("unequal", 0.6, 0.8))},
    **{f"near-product-{eps}-bob{bob}": (near_product(4, eps, 5), bob)
       for eps in (0.0, 1e-12, 1e-9, 1e-6) for bob in (0, 3)},
    "equal-weights-rotated": (split_state(1.0, 1.0, 0.3 * np.exp(1j)), 2),
    "equal-weights-rotated-bob0": (split_state(1.0, 1.0, -0.5j, bob=0), 0),
    # z = 0 with B > A, which swaps the branches, as overlap-0.5x-unequal does
    "swap-ghz-unequal": (new_state(3, [0.6, 0, 0, 0, 0, 0, 0, -0.8j]), 2),
    "swap-w-heavy-001": (w_general(0.3, 0.4j, math.sqrt(0.75)), 2),
}


@pytest.mark.parametrize("sv,bob", ENGINE_EDGES.values(), ids=ENGINE_EDGES.keys())
def test_engine_edges(sv, bob):
    form = schmidt_form(sv, bob)
    assert abs(np.vdot(form.branch1, form.branch0)) < 1e-10
    assert abs(np.linalg.norm(form.branch0) - 1.0) < 1e-10
    assert abs(np.linalg.norm(form.branch1) - 1.0) < 1e-10
    assert abs(form.coeff0**2 + form.coeff1**2 - 1.0) < 1e-10
    assert form.coeff0 >= form.coeff1 >= 0
    np.testing.assert_allclose(reconstruct_form(form, sv.n, bob), sv.amps, atol=1e-10)
    assert abs(form.concurrence - concurrence_via_density(sv, bob)) < 1e-10
    split = split_by_receiver(sv, bob)
    if form.z != 0:
        roots = rotation_candidates(split)
        assert min(abs(form.z - r) for r in roots) <= 1e-12 * abs(form.z)
    # the form swaps the branch order, and U's columns with it, exactly when z = 0 and B > A
    swapped = form.z == 0 and split.weight1 > split.weight0
    want = rotation_matrix(form.z) @ PAULI_X if swapped else rotation_matrix(form.z)
    u = form.receiver_basis
    assert u.flags.c_contiguous and not u.flags.writeable
    np.testing.assert_array_equal(u.view(np.uint64), want.view(np.uint64))


class TestConcurrence:
    def test_ghz_is_maximal(self):
        assert concurrence(ghz(3), 2) == pytest.approx(1.0)

    def test_product_is_zero(self):
        assert concurrence(basis_state(3, 0), 2) == pytest.approx(0.0, abs=1e-12)

    def test_standard_w(self):
        assert concurrence(standard_w(), 2) == pytest.approx(W_CONCURRENCE, abs=1e-12)

    def test_agrees_with_density_oracle(self, small_corpus):
        for sv in small_corpus:
            for bob in range(sv.n):
                assert abs(
                    concurrence(sv, bob) - concurrence_via_density(sv, bob)
                ) < 1e-10

    @pytest.mark.parametrize("n,seed", [(2, 3), (3, 0), (4, 3), (5, 6), (6, 4)])
    def test_density_route_on_product_states(self, n, seed):
        # the square root of a cancelled det ρ would come out ~1e-8 here
        sv = near_product(n, 0.0, seed)
        assert concurrence_via_density(sv, n - 1) < 1e-14
        assert concurrence(sv, n - 1) < 1e-14

    def test_density_route_single_qubit(self):
        # a 1-qubit state has no split, as in every other receiver function
        for sv in (new_state(1, [0.6, 0.8j]), basis_state(1, 1)):
            with pytest.raises(WrongQubitCount, match="^resource must have at least 2 qubits, got 1$"):
                concurrence_via_density(sv, 0)

    def test_density_route_agrees_with_brute_force(self, small_corpus):
        for sv in small_corpus[:30]:
            for bob in range(sv.n):
                assert concurrence_via_density(sv, bob) == pytest.approx(
                    brute_force_concurrence(sv, bob), abs=1e-12
                )

    def test_permutation_covariance(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            sv = random_state(n, rng)
            perm = list(rng.permutation(n))
            bob = int(rng.integers(n))
            moved = permute_qubits(sv, perm)
            assert concurrence(sv, bob) == pytest.approx(
                concurrence(moved, perm[bob]), abs=1e-12
            )

    def test_hidden_product_across_cut(self):
        # branches proportional to each other: concurrence must vanish even
        # though both receiver blocks are populated
        sv = new_state(3, np.kron([SQRT_HALF, 0, SQRT_HALF, 0], [0.6, 0.8]))
        assert concurrence(sv, 2) == pytest.approx(0.0, abs=1e-10)
        form = schmidt_form(sv, 2)
        assert abs(np.vdot(form.branch1, form.branch0)) < 1e-10

    @pytest.mark.parametrize("n", range(2, 13))
    def test_residual_identity(self, n):
        # C² = (1 − bal²)(1 − |K|²) with bal = A² − B², so 1 − C is second
        # order in the two residuals that check_general judges
        for sv in [random_state(n, 700 + 10 * n + k) for k in range(3)] + [ghz(n)]:
            for bob in range(n):
                split = split_by_receiver(sv, bob)
                bal = split.weight0**2 - split.weight1**2
                want = (1.0 - bal * bal) * (1.0 - abs(split.overlap) ** 2)
                for route in (concurrence, concurrence_via_density):
                    assert abs(route(sv, bob) ** 2 - want) <= 1e-13, (route.__name__, bob)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_ghz_reads_exactly_one(self, n):
        # 2·fl(√½)² = 1 + 2⁻⁵²: the form's C and maf share one clamp to [0, 1],
        # while the density oracle stays raw
        sv = ghz(n)
        for bob in range(n):
            c = schmidt_form(sv, bob).concurrence
            assert c == 1.0 and maf(c) == 1.0
            assert concurrence_via_density(sv, bob) == 1.0 + 2**-52

    def test_clamp_keeps_every_value_inside(self, small_corpus):
        for sv in small_corpus:
            for bob in range(sv.n):
                form = schmidt_form(sv, bob)
                assert form.concurrence == min(2.0 * form.coeff0 * form.coeff1, 1.0)


def qr_concurrence(sv, bob):
    """2·|R₀₀·R₁₁| from numpy's QR of the two-column amplitude matrix mᵀ."""
    m = np.moveaxis(sv.tensor_view(), bob, 0).reshape(2, -1)
    r = np.linalg.qr(m.T, mode="r")
    return 2.0 * float(abs(r[0, 0] * r[1, 1]))


def receiver_at(sv, bob):
    """`sv` with its last qubit moved to position `bob`."""
    return permute_qubits(sv, np.argsort(move_to_last_perm(sv.n, bob)))


class TestDensityOracleMatchesNumpyQr:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_haar_states_every_receiver(self, n):
        rng = np.random.default_rng(100 + n)
        for sv in (random_state(n, rng) for _ in range(3)):
            for bob in range(n):
                assert abs(concurrence_via_density(sv, bob) - qr_concurrence(sv, bob)) < 1e-14

    @pytest.mark.parametrize("eps", [1e-3, 1e-9, 1e-15])
    @pytest.mark.parametrize("n", [2, 3, 8, 12])
    def test_near_product_cuts(self, n, eps):
        for bob in {0, n // 2, n - 1}:
            sv = receiver_at(near_product(n, eps, 7), bob)
            assert abs(concurrence_via_density(sv, bob) - qr_concurrence(sv, bob)) < 1e-14

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_exact_products(self, n):
        rng = np.random.default_rng(n)
        for bob in range(n):
            receiver = random_state(1, rng).amps
            rest = random_state(n - 1, rng).amps
            sv = receiver_at(StateVector(n, np.kron(rest, receiver)), bob)
            assert concurrence_via_density(sv, bob) < 1e-14
            assert qr_concurrence(sv, bob) < 1e-14
        for sv, bob in ((basis_state(n, 0), 0), (basis_state(n, 2**n - 1), n - 1)):
            assert concurrence_via_density(sv, bob) == 0.0


class TestMaf:
    def test_endpoints(self):
        assert maf(1.0) == pytest.approx(1.0)
        assert maf(0.0) == pytest.approx(2.0 / 3.0)

    def test_w_value(self):
        assert maf(W_CONCURRENCE) == pytest.approx(0.9809363471940211, abs=1e-12)

    def test_monotone_onto_interval(self):
        grid = np.linspace(0.0, 1.0, 101)
        vals = [maf(c) for c in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[0] == pytest.approx(2.0 / 3.0)
        assert vals[-1] == pytest.approx(1.0)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            maf(1.5)
        with pytest.raises(OutOfRange):
            maf(-0.2)

    def test_slack_edges(self):
        # the slack itself is admitted and clamped, twice the slack is refused
        assert maf(1.0 + CONCURRENCE_SLACK) == 1.0
        assert maf(-CONCURRENCE_SLACK) == 2.0 / 3.0
        for c in (1.0 + 2 * CONCURRENCE_SLACK, -2 * CONCURRENCE_SLACK):
            with pytest.raises(OutOfRange):
                maf(c)


FORM_FIELDS = ("coeff0", "coeff1", "z", "concurrence")
FORM_ARRAYS = ("branch0", "branch1", "receiver_basis")


def assert_forms_identical(got, want):
    for name in FORM_FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    for name in FORM_ARRAYS:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def run_bits(result):
    """A run_teleport result as plain values, its floats as their bit patterns."""
    rec = result.record
    return (rec.outcome, rec.correction, np.array([rec.prob, rec.fidelity]).view(np.uint64).tolist(),
            rec.bob_state.view(np.uint64).tolist(), result.final_state.view(np.uint64).tolist())


class TestMemo:
    """Each StateVector keeps one record per analysed receiver: its Gram
    triple, its Schmidt form and, once run_teleport has run there, the four
    projection inner products; the memo changes no result and no refusal."""

    def test_repeated_form_is_the_same_object(self):
        sv = random_state(5, 1)
        for bob in range(5):
            assert schmidt_form(sv, bob) is schmidt_form(sv, bob)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_memoized_results_match_a_fresh_state_bit_for_bit(self, n):
        sv = random_state(n, 100 + n)
        for bob in range(n):
            first = schmidt_form(sv, bob)
            assert schmidt_form(sv, bob) is first
            split = split_by_receiver(sv, bob)  # reads the Gram triple of the form's record
            assert_forms_identical(first, schmidt_form(StateVector(n, sv.amps), bob))
            fresh = split_by_receiver(StateVector(n, sv.amps), bob)
            assert (split.weight0, split.weight1, split.overlap) == (
                fresh.weight0, fresh.weight1, fresh.overlap)

    def test_split_first_then_form_matches_a_fresh_state(self):
        sv = random_state(6, 7)
        for bob in range(6):
            split_by_receiver(sv, bob)  # computes its Gram step and stores nothing
            assert_forms_identical(schmidt_form(sv, bob), schmidt_form(StateVector(6, sv.amps), bob))

    @pytest.mark.parametrize("bob", [True, 1.0, -1, 4], ids=repr)
    def test_bad_receiver_is_refused_after_a_hit_on_receiver_one(self, bob):
        sv = random_state(4, 3)
        schmidt_form(sv, 1)
        split_by_receiver(sv, 1)
        for fn in (schmidt_form, split_by_receiver, concurrence):
            with pytest.raises(IndexOutOfRange):
                fn(sv, bob)

    def test_one_record_per_receiver(self):
        sv = random_state(4, 11)
        split_by_receiver(sv, 1)  # a split alone stores nothing
        for bob in (0, 2):
            schmidt_form(sv, bob)
            split_by_receiver(sv, bob)
            check_general(sv, bob)
            concurrence(sv, bob)
            run_teleport(InfoQubit(0.6, 0.8j), sv, bob, seed=3)
            average_fidelity_mc(sv, bob, 100, 5)
        assert sorted(sv._memo) == [0, 2]
        for bob in (0, 2):
            gram, form, proj = sv._memo[bob]
            assert form is schmidt_form(sv, bob)
            split = split_by_receiver(sv, bob)
            assert gram[:2] == (split.weight0, split.weight1)
            assert len(proj) == 2 and all(len(pair) == 2 for pair in proj)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_kept_projection_gives_the_fresh_state_bits(self, n):
        sv = random_state(n, 300 + n)
        infos = [InfoQubit(1, 0), InfoQubit(0.6, 0.8j), InfoQubit(SQRT_HALF, -SQRT_HALF * 1j)]
        for k, bob in enumerate(sorted({0, n // 2, n - 1})):
            if k % 2:  # analysis before the first run on this receiver
                split_by_receiver(sv, bob)
                check_general(sv, bob)
                average_fidelity_mc(sv, bob, 100, k)
            for seed in range(3):
                for info in infos:
                    got = run_teleport(info, sv, bob, seed=seed)
                    want = run_teleport(info, StateVector(n, sv.amps), bob, seed=seed)
                    assert run_bits(got) == run_bits(want)
                    table = outcome_table(info, schmidt_form(sv, bob))
                    fresh = outcome_table(info, schmidt_form(StateVector(n, sv.amps), bob))
                    assert [(r.prob, r.fidelity) for r in table] == [(r.prob, r.fidelity) for r in fresh]
                    split_by_receiver(sv, bob)
                    check_general(sv, bob)
                average_fidelity_mc(sv, bob, 100, seed)
        assert sorted(sv._memo) == sorted({0, n // 2, n - 1})

    def test_analysis_and_monte_carlo_leave_no_projection(self):
        sv = random_state(5, 13)
        for bob in range(5):
            schmidt_form(sv, bob)
            split_by_receiver(sv, bob)
            check_general(sv, bob)
            concurrence(sv, bob)
            average_fidelity_mc(sv, bob, 100, 1)
            outcome_table(InfoQubit(0.6, 0.8j), schmidt_form(sv, bob))
        assert [record[2] for record in sv._memo.values()] == [None] * 5
        run_teleport(InfoQubit(0.6, 0.8j), sv, 3, seed=0)
        assert [bob for bob, record in sv._memo.items() if record[2] is not None] == [3]

    def test_only_run_teleport_reads_the_projection(self):
        sv = random_state(3, 17)
        info = InfoQubit(0.6, 0.8j)
        analyses = [
            lambda bob: schmidt_form(sv, bob),
            lambda bob: split_by_receiver(sv, bob).overlap,
            lambda bob: check_general(sv, bob),
            lambda bob: average_fidelity_mc(sv, bob, 100, 2),
            lambda bob: [r.fidelity for r in outcome_table(info, schmidt_form(sv, bob))],
            lambda bob: concurrence_via_density(sv, bob),
            lambda bob: check_3qubit(sv, bob),
        ]
        want = [[analysis(bob) for analysis in analyses] for bob in range(3)]
        poison = object()
        for bob in range(3):
            gram, form, _ = sv._memo[bob]
            sv._memo[bob] = (gram, form, poison)
        assert [[analysis(bob) for analysis in analyses] for bob in range(3)] == want
        with pytest.raises(TypeError):  # the slot is read where it should be
            run_teleport(info, sv, 0)

    def test_derived_states_start_with_empty_memos(self):
        sv = random_state(4, 5)
        for bob in range(4):
            schmidt_form(sv, bob)
        assert sv._memo
        assert permute_qubits(sv, [3, 0, 1, 2])._memo == {}
        assert new_state(4, sv.amps)._memo == {}

    def test_oracles_read_no_memo(self):
        sv = random_state(3, 9)
        want = [(concurrence_via_density(sv, bob), check_3qubit(sv, bob)) for bob in range(3)]
        for bob in range(3):
            schmidt_form(sv, bob)
        poison = object()
        for key in sv._memo:
            sv._memo[key] = (poison, poison, poison)
        assert schmidt_form(sv, 0) is poison  # the memo is read where it should be
        for bob in range(3):
            got = check_3qubit(sv, bob)
            assert concurrence_via_density(sv, bob) == want[bob][0]
            assert (got.residual_balance, got.residual_overlap) == (
                want[bob][1].residual_balance, want[bob][1].residual_overlap)
