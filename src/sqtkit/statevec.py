"""Dense pure states of up to 12 qubits: validation and qubit permutations.

Bit ordering: qubit 0 is the most significant bit of the amplitude index, so
for n = 3 the amplitude at index 0b011 belongs to |011⟩ (qubit 0 in state 0,
qubits 1 and 2 in state 1). The receiver's qubit defaults to index n − 1.

A `StateVector` holds checked input only: amplitudes from outside, or from
`new_state`, `permute_qubits` and `random_state`, always as a flat vector of
2**n numbers (a list or tuple of numbers, or a 1-D numeric array; nothing is
flattened for the caller). Each construction refuses a norm further than
`NORM_TOL` from one, or NaN, through `check_unit_norm`, the package's one
unit-norm gate; an overflowing norm reads inf. Vectors that the analysis
and the protocol derive are plain read-only complex arrays. All functions here
are pure, and every stored amplitude array is read-only.

Because the amplitudes never change, a `StateVector` also carries a private
memo with one record per analysed receiver qubit, so each entry is computed
once per object. Only `sqtkit.schmidt` reads or writes it, and only that
module knows what a record holds. Every function here that returns a
`StateVector` returns a new object, whose memo starts empty.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidPermutation,
    NotNormalized,
    OutOfRange,
    TooManyQubits,
)

MAX_QUBITS = 12
NORM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class StateVector:
    """Checked amplitude vector over 2**n basis states.

    The constructor checks n, that the amplitudes are numbers (bools, strings,
    nested lists and objects raise `OutOfRange`), that they form a flat vector
    of 2**n (`DimensionMismatch`) and the norm (within `NORM_TOL` of one, NaN
    refused) and copies its input; :func:`new_state` also
    renormalizes exactly. The analysis and the protocol never wrap the vectors
    they derive in it.
    """

    n: int
    amps: np.ndarray
    # receiver qubit -> the record sqtkit.schmidt keeps for it (see that module)
    _memo: dict = field(default_factory=dict, init=False, repr=False)
    # the norm the constructor's gate judged, which new_state renormalizes by
    _checked_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        check_qubit_count(self.n)
        # judge each element before numpy promotes a bool ([True, 0]) or reads a nested list
        if isinstance(self.amps, (list, tuple)):
            for a in self.amps:
                if not is_number(a):
                    raise OutOfRange(f"amplitudes must be numbers, got {_shown(a)}")
        amps = np.asarray(self.amps)
        if amps.dtype.kind not in "iufc":
            raise OutOfRange(f"amplitudes must be numbers, got an array of dtype {amps.dtype}")
        if amps.shape != (2**self.n,):
            raise DimensionMismatch(f"expected a flat vector of {2 ** self.n} amplitudes "
                                    f"for n={self.n}, got shape {amps.shape}")
        amps = np.array(amps, dtype=complex)
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)
        norm = self.norm()
        check_unit_norm(norm)
        object.__setattr__(self, "_checked_norm", norm)

    def norm(self) -> float:
        return _norm(self.amps)

    def tensor_view(self) -> np.ndarray:
        """Read-only view shaped (2,)*n, one axis per qubit."""
        return self.amps.reshape((2,) * self.n)


def _norm(x: np.ndarray) -> float:
    # vdot raises no numpy overflow warning: huge amplitudes give inf, or NaN
    # where its complex product forms inf − inf, which is an overflow too
    norm = math.sqrt(np.vdot(x, x).real)
    if norm != norm and not np.isnan(x).any():
        return math.inf
    return norm


def new_state(n: int, amps) -> StateVector:
    """Validate a raw amplitude vector as :class:`StateVector` does, refusing a
    norm further than 1e-9 from one, and return it exactly renormalized."""
    sv = StateVector(n, amps)
    # the constructor's copy is not yet shared: renormalize it in place. Here and
    # wherever the package scales a complex array by a real d it writes
    # x * (1.0 / d): numpy's x / d runs its complex-division loop, which for the
    # divisor (d, 0) gives the same nonzero bits at 4-5x the cost from 2**11 on.
    amps = sv.amps
    amps.flags.writeable = True
    amps *= 1.0 / sv._checked_norm
    amps.flags.writeable = False
    return sv


def check_unit_norm(norm: float) -> None:
    """Refuse a norm further than NORM_TOL from one, NaN included."""
    if not abs(norm - 1.0) <= NORM_TOL:  # negated so that a NaN norm fails too
        raise NotNormalized(f"state norm {norm} deviates from 1 by more than {NORM_TOL}")


def _shown(x) -> str:
    """repr(x) for a refusal message; Python will not print an int of more than
    sys.get_int_max_str_digits() digits, which gets a fixed text instead."""
    try:
        return repr(x)
    except ValueError:
        return "<a value too long to print>"


def check_type(name: str, value, kind: type) -> None:
    """Refuse, with OutOfRange, an argument that is not an instance of `kind`."""
    if not isinstance(value, kind):
        raise OutOfRange(f"{name} must be of type {kind.__name__}, got {type(value).__name__}")


def is_int(x) -> bool:
    """True for Python and numpy integers; False for bool and anything else."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def is_real(x) -> bool:
    """True for Python and numpy integers and floats; False for bool, huge ints and anything else."""
    return isinstance(x, (int, float, np.integer, np.floating)) and _fits_float(x)


def is_number(x) -> bool:
    """True for Python and numpy real and complex numbers; False for bool, huge ints and anything else."""
    return isinstance(x, (int, float, complex, np.number)) and _fits_float(x)


def _fits_float(x) -> bool:
    # a huge int is a Python int beyond ±sys.float_info.max
    return not isinstance(x, bool) and not (isinstance(x, int) and abs(x) > sys.float_info.max)


def check_qubit_count(n: int) -> None:
    if not (is_int(n) and 1 <= n <= MAX_QUBITS):
        raise TooManyQubits(f"qubit count must be in 1..{MAX_QUBITS}, got {_shown(n)}")


def check_qubit_index(n: int, q: int) -> None:
    if not (is_int(q) and 0 <= q < n):
        raise IndexOutOfRange(f"qubit {_shown(q)} outside 0..{n - 1}")


def permute_qubits(sv: StateVector, perm) -> StateVector:
    """Relabel qubits so that qubit i moves to position perm[i].

    Pure amplitude shuffling: composing with the inverse permutation restores
    the original array bit for bit.
    """
    check_type("sv", sv, StateVector)
    entries = list(perm) if np.iterable(perm) else None
    if entries is None or not all(map(is_int, entries)) or sorted(entries) != list(range(sv.n)):
        raise InvalidPermutation(f"{_shown(perm)} is not a permutation of 0..{sv.n - 1}")
    # transpose places input axis axes[k] at output position k, so sending
    # qubit i to position perm[i] needs the inverse permutation as axes
    axes = [0] * sv.n
    for i, p in enumerate(entries):
        axes[p] = i
    # reshape copies the transposed view into a fresh C-ordered array
    return StateVector(sv.n, np.transpose(sv.tensor_view(), axes).reshape(-1))
