"""End-to-end simulation of teleporting one qubit over an n-qubit resource.

The sender measures the information qubit and the n − 1 sender resource
qubits in a basis built from the resource's Schmidt branches; the receiver
applies the correction of the 2-bit outcome (U†, then σz and/or σx). This
module owns that measurement: `_OUTCOMES` pairs and signs the basis states,
and the √½, corrections and labels follow from it; `sqtkit.schmidt`, which
alone keeps the state's memo, gives the form and branch coordinates. The
closed-form outcome table and the explicit projection check each other, and
a seeded Monte Carlo estimator averages over Haar-random information qubits.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange
from .families import _generator, random_state
from .schmidt import SchmidtForm, _clamp_unit, _projection, schmidt_form
from .statevec import StateVector, _shown, check_type, is_int, new_state

# Outcome r's (branch paired with information |0⟩, branch paired with |1⟩, sign)
_OUTCOMES = ((0, 1, 1), (0, 1, -1), (1, 0, 1), (1, 0, -1))
CORRECTION_LABELS = tuple("σx" * i + "σz" * (sign < 0) + "U†" for i, _, sign in _OUTCOMES)
# Largest sample count average_fidelity_mc accepts, drawn as one array that it
# reduces in place (a tracemalloc peak of 8.4 MB, 8 MiB, at the cap); larger
# requests are refused before any draw. At the cap the stderr is ≤ 1.5e-4.
MC_MAX_SAMPLES = 1 << 20
# An outcome of probability P ≤ ZERO_PROB never occurs: outcome_table reports
# fidelity 0 for it and the receiver qubit |0̄⟩, as nothing is left to normalize.
ZERO_PROB = 1e-30


@dataclass(frozen=True)
class InfoQubit:
    """Single-qubit information state amp0·|0⟩ + amp1·|1⟩, checked and renormalized by `new_state`."""

    amp0: complex
    amp1: complex

    def __post_init__(self):
        amp0, amp1 = new_state(1, (self.amp0, self.amp1)).amps.tolist()
        object.__setattr__(self, "amp0", amp0)
        object.__setattr__(self, "amp1", amp1)


@dataclass(frozen=True, eq=False)
class OutcomeRecord:
    """One sender outcome: its probability, the receiver's collapsed qubit as a
    read-only array, the correction to apply, and the fidelity it achieves."""

    outcome: int
    prob: float
    bob_state: np.ndarray
    correction: str
    fidelity: float


@dataclass(frozen=True, eq=False)
class TeleportResult:
    """One simulated run and its corrected receiver qubit (a read-only array)."""

    record: OutcomeRecord
    final_state: np.ndarray


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    stderr: float
    samples: int


def _correct(outcome: int, u: list, v0: complex, v1: complex) -> tuple[complex, complex]:
    """The receiver correction of an outcome applied to the qubit (v0, v1): U†,
    then σz if its sign is − (outcomes 1 and 3), then σx if it swaps the
    branches (outcomes 2 and 3). u is receiver_basis.tolist()."""
    (u00, u01), (u10, u11) = u
    w0 = u00.conjugate() * v0 + u10.conjugate() * v1
    w1 = u01.conjugate() * v0 + u11.conjugate() * v1
    i, _, sign = _OUTCOMES[outcome]
    if sign < 0:
        w1 = -w1
    return (w1, w0) if i else (w0, w1)


def _fidelity_from(numerator: float, prob: float) -> float:
    if prob <= ZERO_PROB:
        return 0.0
    return float(numerator**2 / (2.0 * prob))


def outcome_table(info: InfoQubit, form: SchmidtForm) -> list[OutcomeRecord]:
    """Closed-form table of the four outcomes.

    With weights (p, 1−p) = (|amp0|², |amp1|²) and coefficients (Ā, B̄):
    P(0) = P(1) = ½(p·Ā² + (1−p)·B̄²), P(2) = P(3) = ½((1−p)·Ā² + p·B̄²);
    the collapsed receiver states carry amplitudes (amp0·Ā, ±amp1·B̄) or
    (±amp1·Ā, amp0·B̄) in the rotated basis, and after correction the
    fidelity is (p·Ā + (1−p)·B̄)²/(2P(0)) for outcomes 0, 1 and its mirror
    for 2, 3. The collapsed states are mapped back by receiver_basis in
    complex scalars and handed out as rows of one read-only (4, 2) array.
    """
    check_type("info", info, InfoQubit)
    check_type("form", form, SchmidtForm)
    a, b = info.amp0, info.amp1
    pa, pb = abs(a) ** 2, abs(b) ** 2
    ca, cb = form.coeff0, form.coeff1
    p01 = 0.5 * (pa * ca**2 + pb * cb**2)
    p23 = 0.5 * (pb * ca**2 + pa * cb**2)
    f01 = _fidelity_from(pa * ca + pb * cb, p01)
    f23 = _fidelity_from(pb * ca + pa * cb, p23)
    probs, fids = (p01, p01, p23, p23), (f01, f01, f23, f23)
    (u00, u01), (u10, u11) = form.receiver_basis.tolist()
    rows = []
    for prob, (top, bottom) in zip(probs, ((a * ca, b * cb), (a * ca, -b * cb), (b * ca, a * cb),
                                           (-b * ca, a * cb))):
        norm = math.hypot(abs(top), abs(bottom))  # √(2·prob)
        top, bottom = (top / norm, bottom / norm) if prob > ZERO_PROB else (1.0, 0.0)
        rows.append((u00 * top + u01 * bottom, u10 * top + u11 * bottom))
    bob_states = np.array(rows, dtype=complex)
    bob_states.flags.writeable = False  # the rows handed out are read-only views of it
    return [
        OutcomeRecord(r, probs[r], bob_states[r], CORRECTION_LABELS[r], fids[r])
        for r in range(4)
    ]


def _draw_outcome(weights: list[float], rng: np.random.Generator) -> int:
    """Sample an index from unnormalized Born weights by cumulative inversion.
    u = random() ≤ 1 − 2⁻⁵³ puts the rounded T·u below a normal total T, so some
    edge lies above it; an index of zero weight repeats the edge before it, so
    it is never the first edge above T·u and is never drawn."""
    edges = list(itertools.accumulate(weights))
    # the same double and generator step as rng.uniform(0.0, edges[-1]), without its checks
    return bisect.bisect_right(edges, edges[-1] * rng.random())


def run_teleport(info: InfoQubit, resource: StateVector, bob: int, seed=0) -> TeleportResult:
    """Simulate one run: project the joint state onto a sampled measurement
    outcome, collapse the receiver's qubit, and apply the labeled correction.

    The joint state (info qubit first, receiver last) has the receiver rows
    amp0·(x, y) and amp1·(x, y), x and y being the resource's receiver-|0⟩
    and receiver-|1⟩ rows. The sender basis states (|0⟩|b_i⟩ ± |1⟩|b_j⟩)/√2
    of `_OUTCOMES` pair branches b_i, b_j with information |0⟩, |1⟩, so with
    the branch coordinates q_i = (⟨b_i|x⟩, ⟨b_i|y⟩) outcome r projects the
    joint state to (amp0·q_i ± amp1·q_j)/√2: it is drawn from the weights
    w_r = |amp0·q_i ± amp1·q_j|², its collapsed qubit is normalized by √w_r,
    and P(r) = ½·w_r takes the exact ½ that outcome_table applies. Neither
    the (n+1)-qubit joint vector nor the basis states are built.
    `schmidt._projection` returns the form and the q_i, which depend on the
    resource and the receiver alone and are kept in the state's memo, so only
    the first call on a (state, receiver) takes them. The generator is bit
    for bit `np.random.default_rng(seed)`, so identical arguments reproduce
    identical runs; an integer seed's SeedSequence words are kept, so a
    repeated seed does not derive them again. The collapsed and corrected
    qubits are complex scalars until they become the rows of one read-only
    (2, 2) array; the correction is unitary by construction and is applied
    without re-checking it.
    """
    check_type("info", info, InfoQubit)
    form, q = _projection(resource, bob)
    a0, a1 = info.amp0, info.amp1
    proj = [[a0 * u + a1 * v if sign > 0 else a0 * u - a1 * v for u, v in zip(q[i], q[j])]
            for i, j, sign in _OUTCOMES]
    weights = [abs(u) ** 2 + abs(v) ** 2 for u, v in proj]
    r = _draw_outcome(weights, _generator(seed))
    scale = math.sqrt(weights[r])
    c0, c1 = proj[r][0] / scale, proj[r][1] / scale
    f0, f1 = _correct(r, form.receiver_basis.tolist(), c0, c1)
    qubits = np.array(((c0, c1), (f0, f1)))
    qubits.flags.writeable = False  # the rows handed out are read-only views of it
    fidelity = abs(a0.conjugate() * f0 + a1.conjugate() * f1) ** 2
    record = OutcomeRecord(r, 0.5 * weights[r], qubits[0], CORRECTION_LABELS[r], fidelity)
    return TeleportResult(record, qubits[1])


def haar_random_info(rng=None) -> InfoQubit:
    """One Haar-random information qubit: the amplitudes of `random_state(1, rng)`."""
    return InfoQubit(*random_state(1, rng).amps)


def average_fidelity_mc(resource: StateVector, bob: int, samples: int, seed=0) -> McEstimate:
    """Monte Carlo estimate of the average teleportation fidelity.

    Samples Haar-random information qubits and averages the already-summed
    outcome-weighted fidelity, which for weights (p, 1−p) = (|amp0|², |amp1|²)
    is Σ_r P(r)·F(r) = (B̄ + p·(Ā − B̄))² + (Ā − p·(Ā − B̄))², that is
    (Ā² + B̄² − k/4) + k·(p − ½)² with k = 2(Ā − B̄)². Only the information
    state is sampled; the sum over outcomes is exact. For a Haar qubit the
    Bloch coordinate z = 2p − 1 is uniform on [−1, 1] (Archimedes), so each
    sample draws p as one ``random()`` double and the sum is the parabola
    (1 + C)/2 + (1 − C)·z²/2 when Ā² + B̄² = 1. Only h = (p − ½)² is averaged,
    in place in the drawn array (p − ½ is exact for every double ``random()``
    returns), and its mean and spread are mapped back through k; the mean is
    clamped to ≤ 1 by the form's clamp.
    """
    if not (is_int(samples) and 2 <= samples <= MC_MAX_SAMPLES):
        raise OutOfRange(f"samples must be an integer in 2..{MC_MAX_SAMPLES}, got {_shown(samples)}")
    form = schmidt_form(resource, bob)
    ca, cb = form.coeff0, form.coeff1
    d = ca - cb
    k = 2.0 * d * d
    h = _generator(seed).random(samples)
    h -= 0.5
    h *= h
    mean = float(h.sum()) / samples
    h -= mean
    h *= h
    stderr = k * math.sqrt(float(h.sum()) / (samples - 1)) / math.sqrt(samples)
    return McEstimate(_clamp_unit((ca * ca + cb * cb - 0.25 * k) + k * mean), stderr, samples)
