"""Receiver-vs-rest Schmidt analysis of a pure resource state.

Splitting an n-qubit resource by the receiver's qubit gives

    |E⟩ = A·|ψ0⟩|0⟩ + B·|ψ1⟩|1⟩,        K = ⟨ψ1|ψ0⟩,

with A, B ≥ 0 and |ψ0⟩, |ψ1⟩ normalized but in general not orthogonal. A
rotated receiver basis |0̄⟩ = U|0⟩, |1̄⟩ = U|1⟩ with

    U(z) = (1 + |z|²)^(−1/2) · [[1, −z*], [z, 1]]

recasts the same state as |E⟩ = Ā·|ψ̄0⟩|0̄⟩ + B̄·|ψ̄1⟩|1̄⟩ where the rotated
branches are Ā·|ψ̄0⟩ ∝ A|ψ0⟩ + Bz*|ψ1⟩ and B̄·|ψ̄1⟩ ∝ B|ψ1⟩ − Az|ψ0⟩.
Requiring ⟨ψ̄1|ψ̄0⟩ = 0 makes z a root of

    A·B·K·z² + (A² − B²)·z − A·B·K* = 0,

whose discriminant (A² − B²)² + 4A²B²|K|² is real and nonnegative, and
normalization fixes

    Ā = (1 + |z|²)^(−1/2) · [A² + B²|z|² + A·B·(Kz + K*z*)]^(1/2)

with the analogous B̄ carrying the opposite sign, so Ā² + B̄² = 1. This is a
rank-2 Schmidt decomposition: the bipartite concurrence between the
receiver's qubit and the rest is C = 2ĀB̄, and the maximal average fidelity
of teleporting one qubit over the resource is (2 + C)/3.

The engine takes the root whose |0̄⟩ ∝ (1, z) is the top eigenvector of the
receiver's reduced density ρ = [[A², g], [g*, B²]], g = A·B·K; that is the
root with Ā ≥ B̄, the two roots' Ā² differing by the discriminant's square
root. It reads the receiver rows x = A·ψ0 and y = B·ψ1 once, as one
(2, 2^(n−1)) array (a view of the amplitudes at receivers 0 and n − 1, a
copy in between), and takes the Gram triple A = ‖x‖, B = ‖y‖, g = ⟨y|x⟩ with
vdot, the norm that gates every state (split_by_receiver reads its weights
and K = g/(A·B) from the same triple). It forms the rotated branches
x + z*·y and y − z·x; for z = 0 the branches are the rows and the
coefficients are A and B themselves, so "the minor branch is absent" is
decided once, on the numbers _top_root judged. It puts the heavier branch
first (a basis swap, needed only when z = 0 and B > A), and gives a minor
branch whose coefficient is ≤ DEGENERATE_TOL an exact direction orthogonal
to the major one. Its branches are read-only arrays, not StateVectors, and
the split keeps no branches. The form and its Gram triple are kept as one
record per receiver in the state's memo, so repeated calls on one state
return the same objects; a split read before any form recomputes its Gram
step and stores nothing. The record's third slot is left empty by
schmidt_form and filled by _projection with the branch coordinates of the
receiver rows; it returns the form with them and is `run_teleport`'s one call
into this module, which reads or writes the record alone. The sender's
measurement built on the branches, its √½ and its labels, is `sqtkit.protocol`'s.
`concurrence_via_density` is an independent route to C through a QR
factorization of the two-column amplitude matrix, done in closed form with
two Gram–Schmidt passes; it reads no memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange, WrongQubitCount
from .statevec import StateVector, _norm, _shown, check_qubit_index, check_type, is_real

# Branch weight below this counts as an absent branch; block overlap below it
# counts as already orthogonal (z = 0 then leaves a residual ≪ 1e-10).
DEGENERATE_TOL = 1e-12
OVERLAP_TOL = 1e-14
# maf admits a concurrence this far outside [0, 1] and clamps it: both
# concurrence routes overshoot the interval by ~1e-16.
CONCURRENCE_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class BipartiteSplit:
    """Weights and overlap of the receiver-qubit split A·|ψ0⟩|0⟩ + B·|ψ1⟩|1⟩.

    weight0 and weight1 are the nonnegative block norms A and B, and overlap
    is K = ⟨ψ1|ψ0⟩; it is 0 when either weight is ≤ DEGENERATE_TOL. The
    branches themselves are the blocks divided by their weights.
    """

    weight0: float
    weight1: float
    overlap: complex


@dataclass(frozen=True, eq=False)
class SchmidtForm:
    """Orthogonal decomposition coeff0·|branch0⟩|0̄⟩ + coeff1·|branch1⟩|1̄⟩.

    coeff0 ≥ coeff1 ≥ 0, the branches are orthonormal read-only arrays of
    length 2**(n−1), concurrence equals 2·coeff0·coeff1, and receiver_basis
    is the 2×2 unitary whose columns are |0̄⟩ and |1̄⟩. Splits that need the
    branch order swapped (z = 0 with B > A) are reachable only as the z → ∞
    limit of the rotation family, so for them receiver_basis composes U(0)
    with a basis swap and z stays 0.
    """

    coeff0: float
    coeff1: float
    z: complex
    branch0: np.ndarray
    branch1: np.ndarray
    concurrence: float
    receiver_basis: np.ndarray


def _check_receiver(sv: StateVector, bob: int) -> None:
    check_type("resource", sv, StateVector)
    if sv.n < 2:
        raise WrongQubitCount(f"resource must have at least 2 qubits, got {sv.n}")
    check_qubit_index(sv.n, bob)


def _receiver_blocks(sv: StateVector, bob: int) -> np.ndarray:
    """Mᵀ: the receiver-|0⟩ and receiver-|1⟩ rows A·ψ0 and B·ψ1 as one
    (2, 2^(n−1)) array, the other qubits kept in their original relative
    order. At receiver 0 it is a C-contiguous view of the amplitudes, at
    receiver n − 1 a view whose rows step by 2 elements, and at the receivers
    in between a C-contiguous copy. Callers check bob with _check_receiver first."""
    # index = (qubits before bob, bob, qubits after bob); bob's axis goes first
    return sv.amps.reshape(1 << bob, 2, -1).swapaxes(0, 1).reshape(2, -1)


def _gram(rows: np.ndarray) -> tuple[float, float, complex]:
    """Weights A = ‖x‖, B = ‖y‖ and g = ⟨y|x⟩ = A·B·K of the split, read
    with vdot from the receiver rows x, y."""
    x, y = rows[0], rows[1]  # indexing: unpacking iterates the array, ~0.6 µs slower
    return _norm(x), _norm(y), complex(np.vdot(y, x))


def split_by_receiver(sv: StateVector, bob: int) -> BipartiteSplit:
    """Block weights and branch overlap of a resource split by the receiver's qubit."""
    _check_receiver(sv, bob)  # before the lookup: True and 1.0 hash like 1
    found = sv._memo.get(bob)
    w0, w1, g = found[0] if found else _gram(_receiver_blocks(sv, bob))
    overlap = g / (w0 * w1) if w0 > DEGENERATE_TOL and w1 > DEGENERATE_TOL else 0j
    return BipartiteSplit(w0, w1, overlap)


def _top_root(w0: float, w1: float, g: complex) -> complex:
    """z of the top eigenvector (1, z) of ρ = [[A², g], [g*, B²]], g = A·B·K.

    This is the root of the rotation quadratic with Ā ≥ B̄, in the form that
    adds quantities of equal sign; 0 for an absent branch or |K| < OVERLAP_TOL.
    """
    if w0 <= DEGENERATE_TOL or w1 <= DEGENERATE_TOL or abs(g) < OVERLAP_TOL * w0 * w1:
        return 0j
    m = w0 * w0 - w1 * w1
    disc = math.sqrt(m * m + 4.0 * abs(g) ** 2)
    return complex(2.0 * g.conjugate() / (disc + m) if m >= 0.0 else (disc - m) / (2.0 * g))


def _orthogonal_filler(present: np.ndarray) -> np.ndarray:
    """Some unit vector orthogonal to the unit vector `present` (needs dim ≥ 2)."""
    j = int(np.argmin(np.abs(present)))
    v = -present * np.conj(present[j])
    v[j] += 1.0
    return v * (1.0 / _norm(v))


def schmidt_form(sv: StateVector, bob: int) -> SchmidtForm:
    """Orthogonal receiver-basis decomposition of a resource state.

    Reassembling coeff0·branch0⊗(U|0⟩) + coeff1·branch1⊗(U|1⟩), with the
    receiver back at its original position, reproduces the input state. The
    form is computed once per (state, receiver): later calls return the same
    frozen object.
    """
    _check_receiver(sv, bob)  # before the lookup: True and 1.0 hash like 1
    found = sv._memo.get(bob)
    if found:
        return found[1]
    rows = _receiver_blocks(sv, bob)
    gram = _gram(rows)
    z = _top_root(*gram)
    scale = math.sqrt(1.0 + abs(z) ** 2)
    if z:
        raw0 = rows[0] + z.conjugate() * rows[1]
        raw1 = rows[1] - z * rows[0]
        c0, c1 = _norm(raw0) / scale, _norm(raw1) / scale
    else:  # the weights _top_root judged, so the absent-branch test below reads the same number
        raw0, raw1, (c0, c1, _) = rows[0], rows[1], gram
    c = 1.0 / scale
    u = np.array([[c, -c * z.conjugate()], [c * z, c]], dtype=complex)  # U(z), columns |0̄⟩, |1̄⟩
    if c1 > c0:
        c0, c1, raw0, raw1 = c1, c0, raw1, raw0
        u = np.ascontiguousarray(u[:, ::-1])  # U's columns swapped with the branches, in a C-ordered copy
    b0 = raw0 * (1.0 / (c0 * scale))
    # raw1 carries rounding of order 1e-16 absolute, i.e. 1e-16/coeff1 in
    # direction: project out its b0 component, and where the branch is
    # numerically absent use an exact direction orthogonal to b0 instead.
    if c1 > DEGENERATE_TOL:
        raw1 = raw1 - np.vdot(b0, raw1) * b0
        b1 = raw1 * (1.0 / _norm(raw1))
    else:
        b1 = _orthogonal_filler(b0)
    b0.flags.writeable = b1.flags.writeable = u.flags.writeable = False
    form = SchmidtForm(c0, c1, z, b0, b1, 2.0 * c0 * c1, u)
    sv._memo[bob] = (gram, form, None)  # the slot _projection fills
    return form


def _projection(sv: StateVector, bob: int) -> tuple[SchmidtForm, tuple]:
    """schmidt_form(sv, bob) and the branch coordinates q_i = (⟨b_i|x⟩, ⟨b_i|y⟩)
    of the receiver rows x, y on its branches b_i, taken once and kept in the
    memo record's third slot."""
    form = schmidt_form(sv, bob)
    gram, _, q = sv._memo[bob]
    if q is None:
        rows = _receiver_blocks(sv, bob)
        x, y = rows[0], rows[1]
        q = tuple((complex(np.vdot(b, x)), complex(np.vdot(b, y))) for b in (form.branch0, form.branch1))
        sv._memo[bob] = (gram, form, q)
    return form, q


def concurrence_via_density(sv: StateVector, bob: int) -> float:
    """Concurrence from the receiver's reduced density matrix, 2·√det ρ.

    Independent of the rotation route (no z, no eigenvector); used to
    cross-check it. With m = [x; y] the (2, 2^(n−1)) amplitude matrix of the
    receiver-|0⟩ and receiver-|1⟩ rows, ρ = m·m† and mᵀ = QR give det ρ =
    |R₀₀·R₁₁|², so ρ is never formed and C → 0 keeps its absolute accuracy
    instead of taking the square root of a cancelled determinant. The QR of
    the two columns is done in closed form: R₀₀ = ‖x‖, q = x/R₀₀, and R₁₁ is
    the norm of y after two Gram–Schmidt passes y ← y − (q†y)·q; the second
    pass keeps R₁₁ accurate to ~1e-16 absolute as C → 0.
    """
    _check_receiver(sv, bob)
    rows = sv.amps.reshape(1 << bob, 2, -1)
    x = rows[:, 0].ravel()
    y = rows[:, 1].ravel()
    r00 = _norm(x)
    if r00 == 0.0:
        return 0.0
    q = x * (1.0 / r00)
    for _ in range(2):
        y = y - np.vdot(q, y) * q
    return 2.0 * r00 * _norm(y)


def maf(concurrence: float) -> float:
    """Maximal average teleportation fidelity (2 + C)/3 for concurrence C."""
    if not (is_real(concurrence) and -CONCURRENCE_SLACK <= concurrence <= 1.0 + CONCURRENCE_SLACK):
        raise OutOfRange(f"concurrence must be a real number in [0, 1], got {_shown(concurrence)}")
    return (2.0 + min(max(concurrence, 0.0), 1.0)) / 3.0
