"""Perfect-teleportation checks and canonical-family classifiers.

A resource teleports one qubit perfectly exactly when its receiver split has
equal block weights and orthogonal branches (unit concurrence). The general
checker works on the split directly; the 3-qubit checker restates the same
two conditions on the raw amplitudes, with the receiver moved to the last
position: writing the state as Σ amp(xy0)|xy0⟩ + Σ amp(xy1)|xy1⟩ the
residuals are |Σ|amp(xy0)|² − Σ|amp(xy1)|²| and |Σ conj(amp(xy0))·amp(xy1)|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolated, OutOfRange, WrongQubitCount
from .families import SQRT_HALF, acin_alternative, check_coefficients, check_phase
from .schmidt import split_by_receiver
from .statevec import StateVector, _shown, check_unit_norm, is_real, move_to_last_perm, permute_qubits

# Default tolerance of every verdict here and of `sqtkit check --tol`.
VERDICT_TOL = 1e-9


@dataclass(frozen=True)
class PerfectVerdict:
    """Residuals of the perfect-teleportation conditions at a tolerance."""

    residual_balance: float
    residual_overlap: float
    tolerance: float
    verdict: bool


def _check_tol(tol: float) -> None:
    if not (is_real(tol) and 0.0 < tol < math.inf):
        raise OutOfRange(f"tolerance must be positive and finite, got {_shown(tol)}")


def _verdict(balance: float, overlap: float, tol: float) -> PerfectVerdict:
    return PerfectVerdict(balance, overlap, tol, bool(balance < tol and overlap < tol))


def check_general(resource: StateVector, bob: int, tol: float = VERDICT_TOL) -> PerfectVerdict:
    """Perfect-teleportation check for any n ≥ 2.

    residual_balance = |A² − B²| and residual_overlap = |⟨ψ1|ψ0⟩| from the
    receiver split; the verdict is true iff both fall below the tolerance,
    which happens exactly when the concurrence is 1.
    """
    _check_tol(tol)
    split = split_by_receiver(resource, bob)
    balance = abs(split.weight0**2 - split.weight1**2)
    overlap = abs(split.overlap)
    return _verdict(balance, overlap, tol)


def check_3qubit(resource: StateVector, bob: int, tol: float = VERDICT_TOL) -> PerfectVerdict:
    """Three-qubit amplitude form of the perfect-teleportation conditions.

    The overlap residual here is the raw (unnormalized) overlap of the blocks,
    conjugating the receiver-|0⟩ block; its zero set matches the general
    checker's, so the verdicts agree.
    """
    _check_tol(tol)
    if resource.n != 3:
        raise WrongQubitCount(f"need exactly 3 qubits, got {resource.n}")
    amps = permute_qubits(resource, move_to_last_perm(3, bob)).amps
    x, y = amps[0::2], amps[1::2]
    balance = abs(float(np.vdot(x, x).real - np.vdot(y, y).real))
    overlap = abs(complex(np.vdot(x, y)))
    return _verdict(balance, overlap, tol)


@dataclass(frozen=True)
class ZhaReport:
    """Membership report for the two canonical subfamilies with κ0·κ1 = 0.

    Form A keeps the phased |000⟩ term: κ1 = 0, κ4 = 1/√2 and
    κ3 = √(1/2 − κ0² − κ2²). Form B keeps the |001⟩ term: κ0 = 0,
    κ3 = √(1/2 − κ2²) and κ4 = √(1/2 − κ1²). Each residual is the largest
    deviation from its form's fixed coefficients; the verdict is true when
    either form matches, which guarantees a perfect-SQT resource.
    """

    kappa_product: float
    residual_form_a: float
    residual_form_b: float
    matches_form_a: bool
    matches_form_b: bool
    tolerance: float
    verdict: bool


def _sqrt_clamped(x: float) -> float:
    return math.sqrt(max(x, 0.0))


def classify_zha(kappas, theta: float = 0.0, tol: float = VERDICT_TOL) -> ZhaReport:
    """Classify canonical parameters (κ0..κ4, θ) against the two perfect
    subfamilies. The phase θ is free in both forms and does not affect
    membership, but it must be a finite real number."""
    _check_tol(tol)
    k = check_coefficients(kappas)
    if len(k) != 5:
        raise ConstraintViolated(f"expected 5 canonical coefficients, got {len(k)}")
    check_unit_norm(math.hypot(*k))
    check_phase("theta", theta)
    k0, k1, k2, k3, k4 = k
    res_a = max(k1, abs(k4 - SQRT_HALF), abs(k3 - _sqrt_clamped(0.5 - k0**2 - k2**2)))
    res_b = max(k0, abs(k3 - _sqrt_clamped(0.5 - k2**2)), abs(k4 - _sqrt_clamped(0.5 - k1**2)))
    return ZhaReport(
        kappa_product=k0 * k1,
        residual_form_a=res_a,
        residual_form_b=res_b,
        matches_form_a=bool(res_a < tol),
        matches_form_b=bool(res_b < tol),
        tolerance=tol,
        verdict=bool(res_a < tol or res_b < tol),
    )


@dataclass(frozen=True)
class AcinAltReport:
    """Membership report for the alternative canonical family.

    The family's stated perfect-SQT condition is d·f = 0 (the verdict field);
    the report also carries the full receiver-split residuals of the
    constructed state, since balance and the b·c cross-term must vanish too
    for the resource to actually be perfect.
    """

    df_product: float
    verdict: bool
    residual_balance: float
    residual_overlap: float
    perfect: bool
    tolerance: float


def classify_acin_alt(a: float, b: float, c: float, d: float, f: float,
                      theta: float = 0.0, tol: float = VERDICT_TOL) -> AcinAltReport:
    """Classify alternative canonical parameters (a, b, c, d, f, θ), cross
    checking the d·f = 0 condition against the full perfect-SQT residuals of
    the built state (receiver = qubit 2)."""
    state = acin_alternative(a, b, c, d, f, theta)
    general = check_general(state, 2, tol)
    df = float(d) * float(f)
    return AcinAltReport(
        df_product=df,
        verdict=bool(df < tol),
        residual_balance=general.residual_balance,
        residual_overlap=general.residual_overlap,
        perfect=general.verdict,
        tolerance=tol,
    )
