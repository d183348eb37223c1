"""Constructors for the named resource-state families used by tests and the
CLI `gen` command.

Each constructor takes its family's parameterization verbatim (including the
redundant square-root terms), so a violated constraint raises instead of
being silently renormalized. All phases are radians; the receiver is the
last qubit unless noted.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ConstraintViolated, OutOfRange, TooManyQubits
from .statevec import MAX_QUBITS, StateVector, is_int, new_state

SQRT_HALF = math.sqrt(0.5)
CONSTRAINT_SLACK = 1e-12


def ghz(n: int) -> StateVector:
    """(|0…0⟩ + |1…1⟩)/√2 on n ≥ 2 qubits."""
    if not (is_int(n) and n >= 2):
        raise OutOfRange(f"GHZ needs an integer n ≥ 2, got {n!r}")
    if n > MAX_QUBITS:
        raise TooManyQubits(f"n = {n} exceeds the {MAX_QUBITS}-qubit cap")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = SQRT_HALF
    return new_state(n, amps)


def w_general(a100: complex, a010: complex, a001: complex) -> StateVector:
    """W-type state a100·|100⟩ + a010·|010⟩ + a001·|001⟩.

    Teleports one qubit perfectly to qubit 2 iff |a100|² + |a010|² = |a001|² = 1/2.
    """
    amps = np.zeros(8, dtype=complex)
    amps[0b100] = a100
    amps[0b010] = a010
    amps[0b001] = a001
    return new_state(3, amps)


def separable_branch_family(a: float, b: float) -> StateVector:
    """[a|00⟩ + b|01⟩ + √(1/2 − a² − b²)|10⟩]|0⟩ + (1/√2)|111⟩.

    The receiver-|1⟩ branch is the product |11⟩ and both perfect-SQT
    conditions hold by construction. Requires a² + b² ≤ 1/2.
    """
    rest = 0.5 - a * a - b * b
    if rest < -CONSTRAINT_SLACK:
        raise ConstraintViolated(f"a² + b² must be ≤ 1/2, got {a * a + b * b}")
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = a
    amps[0b010] = b
    amps[0b100] = math.sqrt(max(rest, 0.0))
    amps[0b111] = SQRT_HALF
    return new_state(3, amps)


def schmidt_branch_family(a: float, b: float, beta: float, kappa: float) -> StateVector:
    """Equal-weight resource whose receiver-|1⟩ branch is a|00⟩ + √(1−a²)|11⟩
    and whose |0⟩ branch is the orthogonal combination
    κ(√(1−a²)|00⟩ − a|11⟩) + b·e^{iβ}|01⟩ + √(1−κ²−b²)|10⟩.

    Requires a, b, κ ∈ [0, 1] and κ² + b² ≤ 1; every valid parameter point
    has unit concurrence toward qubit 2.
    """
    for name, v in (("a", a), ("b", b), ("kappa", kappa)):
        if not 0.0 <= v <= 1.0:
            raise ConstraintViolated(f"{name} must lie in [0, 1], got {v}")
    rest = 1.0 - kappa * kappa - b * b
    if rest < -CONSTRAINT_SLACK:
        raise ConstraintViolated(f"kappa² + b² must be ≤ 1, got {kappa ** 2 + b ** 2}")
    root = math.sqrt(1.0 - a * a)
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = SQRT_HALF * kappa * root
    amps[0b010] = SQRT_HALF * b * cmath.exp(1j * beta)
    amps[0b100] = SQRT_HALF * math.sqrt(max(rest, 0.0))
    amps[0b110] = -SQRT_HALF * kappa * a
    amps[0b001] = SQRT_HALF * a
    amps[0b111] = SQRT_HALF * root
    return new_state(3, amps)


def acin_canonical(k0: float, k1: float, k2: float, k3: float, k4: float,
                   theta: float = 0.0) -> StateVector:
    """Five-term canonical form κ0·e^{iθ}|000⟩ + κ1|001⟩ + κ2|010⟩ + κ3|100⟩ + κ4|111⟩."""
    ks = [float(v) for v in (k0, k1, k2, k3, k4)]
    if any(v < 0 for v in ks):
        raise ConstraintViolated("canonical coefficients must be ≥ 0")
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = ks[0] * cmath.exp(1j * theta)
    amps[0b001] = ks[1]
    amps[0b010] = ks[2]
    amps[0b100] = ks[3]
    amps[0b111] = ks[4]
    return new_state(3, amps)


def acin_alternative(a: float, b: float, c: float, d: float, f: float,
                     theta: float = 0.0) -> StateVector:
    """Alternative five-term canonical form a|000⟩ + b|100⟩ + c|101⟩ + d|110⟩ + f·e^{iθ}|111⟩."""
    vals = [float(v) for v in (a, b, c, d, f)]
    if any(v < 0 for v in vals):
        raise ConstraintViolated("canonical coefficients must be ≥ 0")
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = vals[0]
    amps[0b100] = vals[1]
    amps[0b101] = vals[2]
    amps[0b110] = vals[3]
    amps[0b111] = vals[4] * cmath.exp(1j * theta)
    return new_state(3, amps)


def zha_counterexample(a: float, b: float, theta: float = 0.0, delta: float = 0.0,
                       gamma: float = 0.0) -> StateVector:
    """(1/√2)e^{iθ}|000⟩ + a|011⟩ + b·e^{iδ}|101⟩ + √(1/2 − a² − b²)·e^{iγ}|111⟩.

    A perfect-SQT resource (receiver = qubit 2) whose amplitude pattern fits
    neither five-term canonical perfect form. Requires a² + b² ≤ 1/2.
    """
    rest = 0.5 - a * a - b * b
    if rest < -CONSTRAINT_SLACK:
        raise ConstraintViolated(f"a² + b² must be ≤ 1/2, got {a * a + b * b}")
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = SQRT_HALF * cmath.exp(1j * theta)
    amps[0b011] = a
    amps[0b101] = b * cmath.exp(1j * delta)
    amps[0b111] = math.sqrt(max(rest, 0.0)) * cmath.exp(1j * gamma)
    return new_state(3, amps)


def _generator(seed) -> np.random.Generator:
    """np.random.default_rng(seed), refusing a seed it cannot take with OutOfRange."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise OutOfRange(f"seed must be None, an integer ≥ 0 or a Generator, got {seed!r}") from exc


def random_state(n: int, rng=None) -> StateVector:
    """Haar-random pure state: a normalized complex Gaussian amplitude vector."""
    if not (is_int(n) and n >= 1):
        raise OutOfRange(f"need an integer n ≥ 1, got {n!r}")
    if n > MAX_QUBITS:
        raise TooManyQubits(f"n = {n} exceeds the {MAX_QUBITS}-qubit cap")
    gen = _generator(rng)
    raw = gen.standard_normal(2**n) + 1j * gen.standard_normal(2**n)
    return StateVector(n, raw / np.linalg.norm(raw))
