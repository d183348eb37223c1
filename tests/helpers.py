"""Brute-force oracles shared by the test modules.

These deliberately avoid the package's vectorized code paths: the density
matrix is a double loop over basis states, reconstruction reassembles a
Schmidt form from scratch, and a one-qubit gate is applied to the full
amplitude tensor, so each acts as an independent referee. The rotation
quadratic with both roots and the four explicit sender basis states are the
paper's own constructions, which the engine replaces by the closed-form top
root and four inner products with the branches; they are kept here as referees.
`correction_matrix` is the matrix image of the package's scalar correction,
and `PAULI_Z` the gate the statevec tests apply; nothing in the package reads
either. `kraus_operators` builds the explicit protocol's four Kraus
operators from the joint state, those basis states and those corrections: it
reads neither the kept branch coordinates nor `run_teleport`, but it does
read the package's `_OUTCOMES` and `_correct`. `rotation_matrix` is U(z),
`PAULI_X` the branch swap and `move_to_last_perm` the receiver-last
permutation, each built inline where the package uses it (`schmidt_form`,
`check_3qubit`) and kept here as its reference. `concurrence` is the form's
concurrence read as a function, `haar_info_samples` a batch of Haar qubits
drawn as `random_state(1, rng)` draws one, and `exact_gram` the Gram step
and `exact_mc_moments` the Monte Carlo reduction in exact rational
arithmetic. `haar_s_cdf` and `haar_s_moment` are the exact law of s = 1 − C²
for a Haar-random state, the referee of `random_state`.
"""

import math
from fractions import Fraction

import numpy as np

from sqtkit import (
    BipartiteSplit,
    IndexOutOfRange,
    SchmidtForm,
    StateVector,
    acin_alternative,
    acin_canonical,
    ghz,
    new_state,
    permute_qubits,
    random_state,
    schmidt_branch_family,
    schmidt_form,
    separable_branch_family,
    w_general,
    zha_counterexample,
)
from sqtkit.errors import OutOfRange
from sqtkit.families import _generator
from sqtkit.protocol import _OUTCOMES, _correct
from sqtkit.schmidt import DEGENERATE_TOL, OVERLAP_TOL, _receiver_blocks
from sqtkit.statevec import _shown, check_qubit_count, check_qubit_index, is_int

SQRT_HALF = math.sqrt(0.5)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_X.flags.writeable = False
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_Z.flags.writeable = False


def rotation_matrix(z: complex) -> np.ndarray:
    """Receiver-basis unitary U(z); columns are |0̄⟩ = U|0⟩ and |1̄⟩ = U|1⟩."""
    c = 1.0 / math.sqrt(1.0 + abs(z) ** 2)
    return np.array([[c, -c * z.conjugate()], [c * z, c]], dtype=complex)


def move_to_last_perm(n: int, q: int) -> list[int]:
    """Permutation sending qubit q to position n − 1, keeping relative order."""
    check_qubit_count(n)
    check_qubit_index(n, q)
    return [n - 1 if i == q else (i - 1 if i > q else i) for i in range(n)]


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


def correction_matrix(outcome: int, receiver_basis: np.ndarray) -> np.ndarray:
    """Receiver correction for an outcome (U†, then σz for outcomes 1 and 3, then
    σx for outcomes 2 and 3) as a 2×2 matrix: the image of the scalar correction
    that run_teleport applies, whose columns are |0⟩ and |1⟩ corrected."""
    if not (is_int(outcome) and 0 <= outcome <= 3):
        raise OutOfRange(f"outcome must be an integer in 0..3, got {_shown(outcome)}")
    u = receiver_basis.tolist()
    return np.array([_correct(outcome, u, 1.0, 0.0), _correct(outcome, u, 0.0, 1.0)], dtype=complex).T


def kraus_operators(sv: StateVector, bob: int) -> np.ndarray:
    """(4, 2, 2) array of the explicit protocol's Kraus operators K_r: column a
    of K_r is the information qubit |a⟩ ⊗ resource (receiver moved last)
    projected on measurement_basis(form)[r], then corrected by
    correction_matrix(r, U), so K_r·(amp0, amp1) is outcome r's corrected,
    unnormalized receiver qubit."""
    form = schmidt_form(sv, bob)
    rest_then_bob = permute_qubits(sv, move_to_last_perm(sv.n, bob)).amps
    joints = [np.kron(a, rest_then_bob).reshape(-1, 2) for a in np.eye(2)]
    return np.array([correction_matrix(r, form.receiver_basis) @ np.array([state.conj() @ j for j in joints]).T
                     for r, state in enumerate(measurement_basis(form))])


def concurrence(sv: StateVector, bob: int) -> float:
    """Bipartite concurrence 2·Ā·B̄ between qubit `bob` and the rest."""
    return schmidt_form(sv, bob).concurrence


def haar_info_samples(count: int, rng=None) -> np.ndarray:
    """(count, 2) array of Haar-random qubit amplitude pairs.

    Two independent complex Gaussians per row, normalized, as
    `random_state(1, rng)` (and so `haar_random_info`) draws one qubit; the
    norms sum in another order, so last bits may differ. Its |amp0|² is the
    uniform weight that `average_fidelity_mc` draws directly.
    """
    if not (is_int(count) and count >= 1):
        raise OutOfRange(f"count must be an integer ≥ 1, got {_shown(count)}")
    gen = _generator(rng)
    raw = gen.standard_normal((count, 2)) + 1j * gen.standard_normal((count, 2))
    return raw * (1.0 / np.linalg.norm(raw, axis=1, keepdims=True))


def exact_gram(sv: StateVector, bob: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """A², B², Re g and Im g of the receiver split, g = ⟨y|x⟩, exactly as the
    rationals the stored doubles denote: no rounding anywhere."""
    x, y = ([(Fraction(v.real), Fraction(v.imag)) for v in row.tolist()]
            for row in _receiver_blocks(sv, bob))
    a2 = sum(re * re + im * im for re, im in x)
    b2 = sum(re * re + im * im for re, im in y)
    g_re = sum(yr * xr + yi * xi for (xr, xi), (yr, yi) in zip(x, y))
    g_im = sum(yr * xi - yi * xr for (xr, xi), (yr, yi) in zip(x, y))
    return a2, b2, g_re, g_im


def exact_mc_moments(form: SchmidtForm, p: np.ndarray) -> tuple[Fraction, Fraction]:
    """Exact mean and sample variance of the per-sample fidelity
    Ā² + B̄² − 2(Ā − B̄)²·p(1 − p) over the weights p, with the coefficients and
    each weight taken as the rationals the stored doubles denote."""
    ca, cb = Fraction(form.coeff0), Fraction(form.coeff1)
    s, k = ca * ca + cb * cb, 2 * (ca - cb) ** 2
    values = [s - k * w * (1 - w) for w in map(Fraction, p.tolist())]
    mean = sum(values) / len(values)
    return mean, sum((v - mean) ** 2 for v in values) / (len(values) - 1)


def haar_s_cdf(n: int, s: np.ndarray) -> np.ndarray:
    """CDF of s = 1 − C², C the concurrence between one qubit and the other
    n − 1 of a Haar-random n-qubit state: Beta(3/2, N − 1), N = 2^(n−1)
    (Lubkin, J. Math. Phys. 19, 1028 (1978); Życzkowski & Sommers, J. Phys. A
    34, 7111 (2001)). Its density ∝ s^(1/2)·(1 − s)^(N−2) becomes the smooth
    2t²·(1 − t²)^(N−2) under s = t², integrated by the trapezoid rule."""
    check_qubit_count(n)
    if n < 2:
        raise OutOfRange(f"the law needs n ≥ 2, got {n}")
    t = np.linspace(0.0, 1.0, 200_001)
    density = 2.0 * t * t * (1.0 - t * t) ** ((1 << (n - 1)) - 2)
    cdf = np.concatenate(([0.0], np.cumsum(density[1:] + density[:-1])))
    return np.interp(np.sqrt(s), t, cdf / cdf[-1])


def haar_s_moment(n: int, k: int) -> Fraction:
    """E[s^k] of the law of `haar_s_cdf`, exactly: Π_{j<k} (3 + 2j)/(2N + 1 + 2j),
    so E[s] = 3/(2N + 1) and E[s²] = 15/((2N + 1)(2N + 3))."""
    big_n = 1 << (n - 1)
    return math.prod((Fraction(3 + 2 * j, 2 * big_n + 1 + 2 * j) for j in range(k)), start=Fraction(1))


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
