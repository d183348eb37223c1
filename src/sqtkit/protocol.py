"""End-to-end simulation of teleporting one qubit over an n-qubit resource.

The sender measures the information qubit together with her n − 1 resource
qubits in a four-element orthonormal basis built from the resource's Schmidt
branches, sends the 2-bit outcome, and the receiver applies the matching
correction (U† first, then σz and/or σx). The closed-form outcome table and
the explicit projection simulation are implemented separately so each can be
checked against the other, and a seeded Monte Carlo estimator averages the
fidelity over Haar-random information qubits.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange
from .families import SQRT_HALF, _generator
from .schmidt import SchmidtForm, _receiver_blocks, schmidt_form
from .statevec import PAULI_X, PAULI_Z, StateVector, _shown, is_int, is_number, new_state

CORRECTION_LABELS = ("U†", "σzU†", "σxU†", "σxσzU†")
# Outcome r's (branch paired with information |0⟩, branch paired with |1⟩, sign)
_OUTCOMES = ((0, 1, 1), (0, 1, -1), (1, 0, 1), (1, 0, -1))
# Haar samples drawn and reduced at a time by average_fidelity_mc, which
# bounds its memory whatever the sample count: the tracemalloc peak of one
# full chunk is 50 MB (48 MiB), the 32 MiB of normals plus two weight arrays.
MC_CHUNK = 1 << 20
# Largest sample count average_fidelity_mc accepts: about 2 minutes of draws
# (1024 chunks at ~0.1 s each); larger requests are refused before any draw.
MC_MAX_SAMPLES = 1 << 30
# An outcome of probability P ≤ ZERO_PROB never occurs: outcome_table reports
# fidelity 0 for it and the receiver qubit |0̄⟩, as nothing is left to normalize.
ZERO_PROB = 1e-30


@dataclass(frozen=True)
class InfoQubit:
    """Single-qubit information state amp0·|0⟩ + amp1·|1⟩, checked and renormalized by `new_state`."""

    amp0: complex
    amp1: complex

    def __post_init__(self):
        if not (is_number(self.amp0) and is_number(self.amp1)):
            raise OutOfRange(
                f"info amplitudes must be numbers, got {_shown(self.amp0)} and {_shown(self.amp1)}")
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


def correction_matrix(outcome: int, receiver_basis: np.ndarray) -> np.ndarray:
    """Receiver correction for an outcome: U†, then σz if its sign is − (outcomes
    1 and 3), then σx if it swaps the branches (outcomes 2 and 3)."""
    if not (is_int(outcome) and 0 <= outcome <= 3):
        raise OutOfRange(f"outcome must be an integer in 0..3, got {_shown(outcome)}")
    i, _, sign = _OUTCOMES[outcome]
    m = receiver_basis.conj().T
    if sign < 0:
        m = PAULI_Z @ m
    if i != 0:
        m = PAULI_X @ m
    return m


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
    for 2, 3.
    """
    a, b = info.amp0, info.amp1
    pa, pb = abs(a) ** 2, abs(b) ** 2
    ca, cb = form.coeff0, form.coeff1
    p01 = 0.5 * (pa * ca**2 + pb * cb**2)
    p23 = 0.5 * (pb * ca**2 + pa * cb**2)
    f01 = _fidelity_from(pa * ca + pb * cb, p01)
    f23 = _fidelity_from(pb * ca + pa * cb, p23)
    probs, fids = (p01, p01, p23, p23), (f01, f01, f23, f23)
    pairs = []
    for prob, (top, bottom) in zip(probs, ((a * ca, b * cb), (a * ca, -b * cb), (b * ca, a * cb),
                                           (-b * ca, a * cb))):
        norm = math.hypot(abs(top), abs(bottom))  # √(2·prob)
        pairs.append((top / norm, bottom / norm) if prob > ZERO_PROB else (1.0, 0.0))
    bob_states = np.array(pairs) @ form.receiver_basis.T
    bob_states.flags.writeable = False  # the rows handed out are read-only views of it
    return [
        OutcomeRecord(r, probs[r], bob_states[r], CORRECTION_LABELS[r], fids[r])
        for r in range(4)
    ]


def _draw_outcome(probs: list[float], rng: np.random.Generator) -> int:
    """Sample an index from unnormalized Born weights by cumulative inversion."""
    edges = list(itertools.accumulate(probs))
    r = bisect.bisect_right(edges, rng.uniform(0.0, edges[-1]))
    return min(r, len(edges) - 1)


def run_teleport(info: InfoQubit, resource: StateVector, bob: int, seed=0) -> TeleportResult:
    """Simulate one run: project the joint state onto a sampled measurement
    outcome, collapse the receiver's qubit, and apply the labeled correction.

    The joint state (info qubit first, receiver last) has the receiver blocks
    [amp0·M; amp1·M], M being the resource's. The four sender basis states
    (|0⟩|b_i⟩ ± |1⟩|b_j⟩)/√2, (i, j) = (0, 1) or (1, 0), pair branches b_i,
    b_j with information |0⟩, |1⟩, so with the branch rows
    p = (1/√2)·[b0; b1]^*·M outcome r projects the joint state to
    amp0·p_i ± amp1·p_j; neither the (n+1)-qubit joint vector nor the basis
    states are built. The outcome is drawn from the exact Born
    weights with a seeded generator, so identical arguments reproduce
    identical runs. The correction matrix is unitary by construction and is
    applied without re-checking it.
    """
    form = schmidt_form(resource, bob)
    rows = SQRT_HALF * np.array((form.branch0, form.branch1)).conj()
    p = (rows @ _receiver_blocks(resource, bob)).tolist()
    a0, a1 = info.amp0, info.amp1
    proj = [[a0 * x + a1 * y if sign > 0 else a0 * x - a1 * y for x, y in zip(p[i], p[j])]
            for i, j, sign in _OUTCOMES]
    probs = [abs(u) ** 2 + abs(v) ** 2 for u, v in proj]
    rng = _generator(seed)
    r = _draw_outcome(probs, rng)
    collapsed = np.array(proj[r]) / math.sqrt(probs[r])
    final = correction_matrix(r, form.receiver_basis) @ collapsed
    collapsed.flags.writeable = final.flags.writeable = False
    f0, f1 = final.tolist()
    fidelity = abs(a0.conjugate() * f0 + a1.conjugate() * f1) ** 2
    record = OutcomeRecord(r, probs[r], collapsed, CORRECTION_LABELS[r], fidelity)
    return TeleportResult(record, final)


def _haar_normals(count: int, gen: np.random.Generator) -> np.ndarray:
    """(2, count, 2) standard normals: the real parts of count complex
    Gaussian pairs, then their imaginary parts. One call draws the same values
    and leaves the generator in the same state as two (count, 2) draws."""
    return gen.standard_normal((2, count, 2))


def _haar_weights(count: int, gen: np.random.Generator) -> np.ndarray:
    """|amp0|² of the count Haar qubits that :func:`haar_info_samples` would
    draw from gen, computed in real arithmetic from the same normals; each
    weight is within 1e-15 of |haar_info_samples(count, gen)[:, 0]|²."""
    x = _haar_normals(count, gen)
    x *= x
    w = x[0]  # |amp|² of both amplitudes, not yet normalized
    w += x[1]
    return w[:, 0] / (w[:, 0] + w[:, 1])


def haar_info_samples(count: int, rng=None) -> np.ndarray:
    """(count, 2) array of Haar-random qubit amplitude pairs.

    Two independent complex Gaussians per row, normalized; this is the same
    draw :func:`haar_random_info` and :func:`average_fidelity_mc` use.
    """
    if not (is_int(count) and count >= 1):
        raise OutOfRange(f"count must be an integer ≥ 1, got {_shown(count)}")
    x = _haar_normals(count, _generator(rng))
    raw = x[0] + 1j * x[1]
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def haar_random_info(rng=None) -> InfoQubit:
    """One Haar-random information qubit."""
    pair = haar_info_samples(1, rng)[0]
    return InfoQubit(complex(pair[0]), complex(pair[1]))


def average_fidelity_mc(resource: StateVector, bob: int, samples: int, seed=0) -> McEstimate:
    """Monte Carlo estimate of the average teleportation fidelity.

    Samples Haar-random information qubits and averages the already-summed
    outcome-weighted fidelity, which for weights (p, 1−p) = (|amp0|², |amp1|²)
    is Σ_r P(r)·F(r) = (p·Ā + (1−p)·B̄)² + ((1−p)·Ā + p·B̄)². Only the
    information state is sampled; the sum over outcomes is exact. Each p is
    read in real arithmetic from the same normals :func:`haar_info_samples`
    draws, so a seed gives the same Haar qubits as that function, with p
    within 1e-15 of |amp0|² computed from its complex output.
    """
    if not (is_int(samples) and 1 <= samples <= MC_MAX_SAMPLES):
        raise OutOfRange(f"samples must be an integer in 1..{MC_MAX_SAMPLES}, got {_shown(samples)}")
    form = schmidt_form(resource, bob)
    ca, cb = form.coeff0, form.coeff1
    gen = _generator(seed)
    # Chunks of at most MC_CHUNK draws from one generator, merged exactly
    # (Chan et al.): with a single chunk the result is values.mean() and
    # values.std(ddof=1)/√samples bit for bit.
    count, mean, m2 = 0, 0.0, 0.0
    for start in range(0, samples, MC_CHUNK):
        size = min(MC_CHUNK, samples - start)
        pa = _haar_weights(size, gen)
        pb = 1.0 - pa
        values = (pa * ca + pb * cb) ** 2 + (pb * ca + pa * cb) ** 2
        chunk_mean = float(values.mean())
        chunk_m2 = float(np.sum((values - chunk_mean) ** 2))
        total = count + size
        delta = chunk_mean - mean
        mean += delta * (size / total)
        m2 += chunk_m2 + delta * delta * (count * size / total)
        count = total
    stderr = math.sqrt(m2 / (samples - 1)) / math.sqrt(samples) if samples > 1 else 0.0
    return McEstimate(mean, stderr, samples)
