"""Constructors for the named resource-state families used by tests and the
CLI `gen` command.

Each constructor takes its family's parameterization verbatim (including the
redundant square-root terms), so a violated constraint raises instead of
being silently renormalized. All phases are radians and must be finite real
numbers; the receiver is the last qubit unless noted.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ConstraintViolated, OutOfRange
from .statevec import StateVector, _shown, check_qubit_count, is_int, is_number, is_real, new_state

SQRT_HALF = math.sqrt(0.5)
CONSTRAINT_SLACK = 1e-12


def ghz(n: int) -> StateVector:
    """(|0…0⟩ + |1…1⟩)/√2 on n ≥ 2 qubits."""
    if not (is_int(n) and n >= 2):
        raise OutOfRange(f"GHZ needs an integer n ≥ 2, got {_shown(n)}")
    check_qubit_count(n)
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = SQRT_HALF
    return new_state(n, amps)


def _three_qubit(pattern: dict) -> StateVector:
    """new_state(3, ·) of the amplitudes {basis index: amplitude}, zero elsewhere."""
    amps = np.zeros(8, dtype=complex)
    for index, amp in pattern.items():
        amps[index] = amp
    return new_state(3, amps)


def check_phase(name: str, value) -> None:
    """Refuse with OutOfRange a phase that is not a finite real number, bool included."""
    if not (is_real(value) and math.isfinite(value)):
        raise OutOfRange(f"phase {name} must be a finite real number, got {_shown(value)}")


def check_coefficients(values) -> list[float]:
    """Canonical coefficients as floats: OutOfRange for one that is not a real number
    (`bool` included), ConstraintViolated for a negative one; NaN and inf are left
    to the unit-norm gate."""
    values = list(values) if np.iterable(values) else [values]
    if not all(map(is_real, values)):
        raise OutOfRange(f"canonical coefficients must be real numbers, got {_shown(values)}")
    if any(v < 0 for v in values):
        raise ConstraintViolated("canonical coefficients must be ≥ 0")
    return [float(v) for v in values]


def _half_rest(a: float, b: float) -> float:
    """√(1/2 − a² − b²) of real a and b, refusing a² + b² > 1/2 beyond CONSTRAINT_SLACK."""
    if not (is_real(a) and is_real(b)):
        raise OutOfRange(f"a and b must be real numbers, got {_shown(a)} and {_shown(b)}")
    rest = 0.5 - a * a - b * b
    if rest < -CONSTRAINT_SLACK:
        raise ConstraintViolated(f"a² + b² must be ≤ 1/2, got {a * a + b * b}")
    return math.sqrt(max(rest, 0.0))


def w_general(a100: complex, a010: complex, a001: complex) -> StateVector:
    """W-type state a100·|100⟩ + a010·|010⟩ + a001·|001⟩.

    Teleports one qubit perfectly to qubit 2 iff |a100|² + |a010|² = |a001|² = 1/2.
    """
    if not (is_number(a100) and is_number(a010) and is_number(a001)):
        raise OutOfRange(f"W amplitudes must be numbers, got {_shown((a100, a010, a001))}")
    return _three_qubit({0b100: a100, 0b010: a010, 0b001: a001})


def separable_branch_family(a: float, b: float) -> StateVector:
    """[a|00⟩ + b|01⟩ + √(1/2 − a² − b²)|10⟩]|0⟩ + (1/√2)|111⟩.

    The receiver-|1⟩ branch is the product |11⟩ and both perfect-SQT
    conditions hold by construction. Requires a² + b² ≤ 1/2.
    """
    return _three_qubit({0b000: a, 0b010: b, 0b100: _half_rest(a, b), 0b111: SQRT_HALF})


def schmidt_branch_family(a: float, b: float, beta: float, kappa: float) -> StateVector:
    """Equal-weight resource whose receiver-|1⟩ branch is a|00⟩ + √(1−a²)|11⟩
    and whose |0⟩ branch is the orthogonal combination
    κ(√(1−a²)|00⟩ − a|11⟩) + b·e^{iβ}|01⟩ + √(1−κ²−b²)|10⟩.

    Requires a, b, κ ∈ [0, 1] and κ² + b² ≤ 1; every valid parameter point
    has unit concurrence toward qubit 2.
    """
    for name, v in (("a", a), ("b", b), ("kappa", kappa)):
        if not is_real(v):
            raise OutOfRange(f"{name} must be a real number, got {_shown(v)}")
        if not 0.0 <= v <= 1.0:
            raise ConstraintViolated(f"{name} must lie in [0, 1], got {v}")
    rest = 1.0 - kappa * kappa - b * b
    if rest < -CONSTRAINT_SLACK:
        raise ConstraintViolated(f"kappa² + b² must be ≤ 1, got {kappa ** 2 + b ** 2}")
    check_phase("beta", beta)
    root = math.sqrt(1.0 - a * a)
    return _three_qubit({
        0b000: SQRT_HALF * kappa * root,
        0b010: SQRT_HALF * b * cmath.exp(1j * beta),
        0b100: SQRT_HALF * math.sqrt(max(rest, 0.0)),
        0b110: -SQRT_HALF * kappa * a,
        0b001: SQRT_HALF * a,
        0b111: SQRT_HALF * root,
    })


def acin_canonical(k0: float, k1: float, k2: float, k3: float, k4: float,
                   theta: float = 0.0) -> StateVector:
    """Five-term canonical form κ0·e^{iθ}|000⟩ + κ1|001⟩ + κ2|010⟩ + κ3|100⟩ + κ4|111⟩."""
    ks = check_coefficients((k0, k1, k2, k3, k4))
    check_phase("theta", theta)
    return _three_qubit({0b000: ks[0] * cmath.exp(1j * theta), 0b001: ks[1], 0b010: ks[2],
                         0b100: ks[3], 0b111: ks[4]})


def acin_alternative(a: float, b: float, c: float, d: float, f: float,
                     theta: float = 0.0) -> StateVector:
    """Alternative five-term canonical form a|000⟩ + b|100⟩ + c|101⟩ + d|110⟩ + f·e^{iθ}|111⟩."""
    vals = check_coefficients((a, b, c, d, f))
    check_phase("theta", theta)
    return _three_qubit({0b000: vals[0], 0b100: vals[1], 0b101: vals[2], 0b110: vals[3],
                         0b111: vals[4] * cmath.exp(1j * theta)})


def zha_counterexample(a: float, b: float, theta: float = 0.0, delta: float = 0.0,
                       gamma: float = 0.0) -> StateVector:
    """(1/√2)e^{iθ}|000⟩ + a|011⟩ + b·e^{iδ}|101⟩ + √(1/2 − a² − b²)·e^{iγ}|111⟩.

    A perfect-SQT resource (receiver = qubit 2) whose amplitude pattern fits
    neither five-term canonical perfect form. Requires a² + b² ≤ 1/2.
    """
    rest = _half_rest(a, b)
    for name, phase in (("theta", theta), ("delta", delta), ("gamma", gamma)):
        check_phase(name, phase)
    return _three_qubit({0b000: SQRT_HALF * cmath.exp(1j * theta), 0b011: a,
                         0b101: b * cmath.exp(1j * delta), 0b111: rest * cmath.exp(1j * gamma)})


def _generator(seed) -> np.random.Generator:
    """np.random.default_rng(seed), refusing with OutOfRange a seed it cannot take or a bool."""
    try:
        if isinstance(seed, bool):  # numpy would take it as 0 or 1; is_int refuses it too
            raise TypeError("a bool is not a seed")
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise OutOfRange(f"seed must be None, an integer ≥ 0 or a Generator, got {_shown(seed)}") from exc


def random_state(n: int, rng=None) -> StateVector:
    """Haar-random pure state: a normalized complex Gaussian amplitude vector."""
    if not (is_int(n) and n >= 1):
        raise OutOfRange(f"need an integer n ≥ 1, got {_shown(n)}")
    check_qubit_count(n)
    gen = _generator(rng)
    raw = gen.standard_normal(2**n) + 1j * gen.standard_normal(2**n)
    return StateVector(n, raw / np.linalg.norm(raw))
