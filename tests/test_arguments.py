"""Every argument of the public constructors and classifiers: junk raises a
typed SqtError, and the numeric types the gates admit build the same state as
the plain float call."""

import enum
import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from helpers import (correction_matrix, haar_info_samples, reference_is_int, reference_is_number,
                     reference_is_real)
from sqtkit import (
    DimensionMismatch,
    IndexOutOfRange,
    InfoQubit,
    InvalidPermutation,
    OutOfRange,
    SqtError,
    StateVector,
    TooManyQubits,
    acin_alternative,
    acin_canonical,
    average_fidelity_mc,
    check_3qubit,
    check_general,
    classify_acin_alt,
    classify_zha,
    concurrence_via_density,
    ghz,
    maf,
    new_state,
    outcome_table,
    permute_qubits,
    random_state,
    run_teleport,
    schmidt_branch_family,
    schmidt_form,
    separable_branch_family,
    split_by_receiver,
    w_general,
    zha_counterexample,
)
from sqtkit.statevec import is_int, is_number, is_real

SQRT_HALF = math.sqrt(0.5)
KAPPAS = (0.5, 0.0, 0.3, 0.4, SQRT_HALF)


def _classify_zha_flat(*args):
    """classify_zha with its five coefficients spread out, so each is swept as a parameter."""
    return classify_zha(args[:5], *args[5:])


# name -> (callable, a valid argument list, positions that take complex numbers)
VALID = {
    "ghz": (ghz, (3,), ()),
    "w_general": (w_general, (0.5, 0.5, SQRT_HALF), (0, 1, 2)),
    "separable_branch_family": (separable_branch_family, (0.5, 0.3), ()),
    "schmidt_branch_family": (schmidt_branch_family, (0.5, 0.5, 0.7, 0.6), ()),
    "acin_canonical": (acin_canonical, (*KAPPAS, 0.2), ()),
    "acin_alternative": (acin_alternative, (0.5, 0.0, SQRT_HALF, 0.5, 0.0, 0.4), ()),
    "zha_counterexample": (zha_counterexample, (0.4, 0.3, 0.1, 0.2, 0.3), ()),
    "random_state": (random_state, (3, 7), ()),
    "classify_zha": (classify_zha, (KAPPAS, 0.2, 1e-9), ()),
    "classify_zha-kappa": (_classify_zha_flat, (*KAPPAS, 0.2, 1e-9), ()),
    "classify_acin_alt": (classify_acin_alt, (0.5, 0.0, SQRT_HALF, 0.5, 0.0, 0.4, 1e-9), ()),
    "new_state": (new_state, (1, [0.6, 0.8j]), (1,)),
    "InfoQubit": (InfoQubit, (0.6, 0.8j), (0, 1)),
    "maf": (maf, (0.5,), ()),
}
JUNK = (True, "0.5", "x", None)
CASES = [
    (name, i, junk)
    for name, (_, args, complex_ok) in VALID.items()
    for i in range(len(args))
    for junk in JUNK + (() if i in complex_ok else (1 + 0j,))
    if not (name == "random_state" and junk is None)  # rng=None draws from OS entropy
]


@pytest.mark.parametrize("name", VALID)
def test_valid_point_is_admitted(name):
    build, args, _ = VALID[name]
    build(*args)


@pytest.mark.parametrize("name, index, junk", CASES, ids=[f"{n}-{i}-{j!r}" for n, i, j in CASES])
def test_junk_argument_raises_a_typed_error(name, index, junk):
    # a bool used to be taken as 0 or 1 and a numeric string as its number,
    # while "x" or None ended in a bare ValueError or TypeError
    build, args, _ = VALID[name]
    with pytest.raises(SqtError):
        build(*args[:index], junk, *args[index + 1:])


# numpy promotes a bool mixed with numbers, so [True, 0] used to be read as |0⟩
@pytest.mark.parametrize("amps", [["x", 0], ["0.5", 0], [None, 0], [True, False], np.array(["1", "0"]),
                                  [True, 0], [np.True_, 0], (True, 0.0), [0.0, np.False_]], ids=repr)
def test_amplitudes_must_be_numbers(amps):
    with pytest.raises(OutOfRange, match="amplitudes must be numbers"):
        new_state(1, amps)


# a ragged list ended in a bare numpy ValueError, and a nested list was
# flattened, so [[True], [0]] was read as |0⟩
NESTED = {"ragged": [1, [0]], "nested": [[SQRT_HALF], [SQRT_HALF]], "nested-bool": [[True], [0]]}
AMPLITUDE_BUILDERS = {
    "StateVector": lambda amps: StateVector(1, amps),
    "new_state": lambda amps: new_state(1, amps),
    "InfoQubit": lambda amps: InfoQubit(*amps),
}


@pytest.mark.parametrize("amps", NESTED.values(), ids=NESTED.keys())
@pytest.mark.parametrize("build", AMPLITUDE_BUILDERS.values(), ids=AMPLITUDE_BUILDERS.keys())
def test_nested_amplitudes_are_refused(build, amps):
    with pytest.raises(OutOfRange, match="amplitudes must be numbers"):
        build(amps)


# a 2-D array or a nested list used to be flattened
@pytest.mark.parametrize("n, amps, error", [
    (2, np.eye(2) * SQRT_HALF, DimensionMismatch),
    (1, np.array([[1.0, 0.0]]), DimensionMismatch),
    (1, np.array(1.0), DimensionMismatch),
    (1, [[True, 0]], OutOfRange),
    (2, [[0.5, 0.5], [0.5, 0.5]], OutOfRange),
], ids=["eye", "row", "scalar", "nested-bool-row", "nested-rows"])
@pytest.mark.parametrize("build", [StateVector, new_state], ids=["StateVector", "new_state"])
def test_amplitudes_must_be_a_flat_vector(build, n, amps, error):
    with pytest.raises(error):
        build(n, amps)


LONG = 10**5000  # Python will not print an int of more than 4,300 digits
LONG_INT_CALLS = {
    "ghz": lambda: ghz(LONG),
    "random_state": lambda: random_state(LONG),
    "new_state-count": lambda: new_state(LONG, [1]),
    "permute_qubits": lambda: permute_qubits(ghz(3), [LONG, 0, 1]),
    "check_general-bob": lambda: check_general(ghz(3), LONG),
    "check_general-tol": lambda: check_general(ghz(3), 2, LONG),
    "acin_canonical-coefficient": lambda: acin_canonical(LONG, 0, 0, 0, 0),
    "acin_canonical-theta": lambda: acin_canonical(1, 0, 0, 0, 0, LONG),
    "classify_zha": lambda: classify_zha((LONG, 0, 0, 0, 0)),
    "separable_branch_family": lambda: separable_branch_family(LONG, 0),
    "schmidt_branch_family": lambda: schmidt_branch_family(LONG, 0.5, 0.0, 0.5),
    "w_general": lambda: w_general(LONG, 0, 0),
    "InfoQubit": lambda: InfoQubit(LONG, 0),
    "correction_matrix": lambda: correction_matrix(LONG, np.eye(2)),
    "haar_info_samples": lambda: haar_info_samples(-LONG),
    "average_fidelity_mc": lambda: average_fidelity_mc(ghz(3), 2, LONG),
    "run_teleport-seed": lambda: run_teleport(InfoQubit(1, 0), ghz(3), 2, -LONG),
    "maf": lambda: maf(LONG),
}


@pytest.mark.parametrize("name", LONG_INT_CALLS)
def test_refusing_an_unprintable_int_still_raises_the_typed_error(name):
    # building the message used to end in a bare ValueError from repr or str
    with pytest.raises(SqtError):
        LONG_INT_CALLS[name]()


HUGE = 10**400  # a Python int that no float can hold
HUGE_INT_CALLS = {
    "acin_canonical-coefficient": lambda: acin_canonical(HUGE, 0, 0, 0, 0),
    "acin_canonical-theta": lambda: acin_canonical(1, 0, 0, 0, 0, HUGE),
    "separable_branch_family": lambda: separable_branch_family(HUGE, 0),
    "w_general": lambda: w_general(HUGE, 0, 0),
    "schmidt_branch_family": lambda: schmidt_branch_family(0.5, 0.5, HUGE, 0.5),
    "zha_counterexample": lambda: zha_counterexample(0.4, 0.3, HUGE),
    "classify_zha": lambda: classify_zha((HUGE, 0, 0, 0, 0)),
    "classify_acin_alt": lambda: classify_acin_alt(HUGE, 0, 0, 0, 0),
    "check_general-tol": lambda: check_general(ghz(3), 2, HUGE),
}


@pytest.mark.parametrize("name", HUGE_INT_CALLS)
def test_int_beyond_the_float_range_is_refused(name):
    # each call used to end in a bare OverflowError, and check_general gave a verdict
    with pytest.raises(OutOfRange):
        HUGE_INT_CALLS[name]()


@pytest.mark.parametrize("gate", [is_real, is_number])
def test_float_range_edge_of_the_number_gates(gate):
    top = int(sys.float_info.max)
    assert gate(top) and gate(-top) and gate(sys.float_info.max)
    assert not gate(top + 1) and not gate(-top - 1)


class _Int(int):
    pass


class _Float(float):
    pass


class _Complex(complex):
    pass


class _Color(enum.IntEnum):
    RED = 1


TOP = int(sys.float_info.max)
PREDICATE_VALUES = {
    "True": True, "False": False, "np.True_": np.True_, "0": 0, "-7": -7, "10**400": 10**400,
    "-10**400": -10**400, "top": TOP, "top+1": TOP + 1, "-top": -TOP, "-top-1": -TOP - 1,
    "np.int64-min": np.int64(-2**63), "np.int8": np.int8(-5), "np.uint64-max": np.uint64(2**64 - 1),
    "0.5": 0.5, "-0.0": -0.0, "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
    "np.float16": np.float16(0.5), "np.float32": np.float32(0.5), "np.float64": np.float64(0.5),
    "np.longdouble": np.longdouble(0.5), "int-subclass": _Int(3), "float-subclass": _Float(0.5),
    "complex-subclass": _Complex(1j), "IntEnum": _Color.RED, "1j": 1j, "np.complex64": np.complex64(1j),
    "np.complex128": np.complex128(1j), "Fraction": Fraction(1, 2), "Decimal": Decimal("0.5"),
    "str": "1", "np.str_": np.str_("1"), "None": None, "list": [1], "tuple": (1,),
    "0-d-array": np.array(1.0), "1-d-array": np.array([1.0]), "np.datetime64": np.datetime64("2020-01-01"),
    "object": object(),
}
PREDICATES = {"is_int": (is_int, reference_is_int), "is_real": (is_real, reference_is_real),
              "is_number": (is_number, reference_is_number)}


@pytest.mark.parametrize("value", PREDICATE_VALUES)
@pytest.mark.parametrize("name", PREDICATES)
def test_number_gates_keep_their_truth_table(name, value):
    gate, reference = PREDICATES[name]
    got = gate(PREDICATE_VALUES[value])
    assert type(got) is bool and got == reference(PREDICATE_VALUES[value])


@pytest.mark.parametrize("value", [np.timedelta64(3), np.timedelta64(-1, "s"), np.timedelta64("NaT")],
                         ids=repr)
@pytest.mark.parametrize("name", PREDICATES)
def test_timedelta_is_not_a_number(name, value):
    # np.timedelta64 subclasses np.signedinteger, so it used to pass all three gates
    gate, reference = PREDICATES[name]
    assert reference(value) and gate(value) is False


td = np.timedelta64
# each call used to end in a bare numpy TypeError, ValueError or UFuncTypeError, or,
# for run_teleport's seed, w_general, classify_zha's θ and a coefficient, to take it as a number
TIMEDELTA_CALLS = {
    "ghz": (lambda: ghz(td(3)), OutOfRange),
    "random_state": (lambda: random_state(td(3), 1), OutOfRange),
    "check_general-tol": (lambda: check_general(ghz(3), 2, td(1)), OutOfRange),
    "check_3qubit-tol": (lambda: check_3qubit(ghz(3), 2, td(1)), OutOfRange),
    "average_fidelity_mc-samples": (lambda: average_fidelity_mc(ghz(3), 2, td(100)), OutOfRange),
    "run_teleport-seed": (lambda: run_teleport(InfoQubit(1, 0), ghz(3), 2, td(1)), OutOfRange),
    "acin_canonical-theta": (lambda: acin_canonical(*KAPPAS, td(0)), OutOfRange),
    "classify_zha-theta": (lambda: classify_zha(KAPPAS, td(0)), OutOfRange),
    "zha_counterexample-delta": (lambda: zha_counterexample(0.4, 0.3, 0.0, td(0)), OutOfRange),
    "acin_canonical-coefficient": (lambda: acin_canonical(td(1), 0, 0, 0, 0), OutOfRange),
    "separable_branch_family-a": (lambda: separable_branch_family(td(0), 0.5), OutOfRange),
    "schmidt_branch_family-kappa": (lambda: schmidt_branch_family(0.5, 0.5, 0.7, td(0)), OutOfRange),
    "w_general": (lambda: w_general(td(1), 0, 0), OutOfRange),
    "maf": (lambda: maf(td(1)), OutOfRange),
    "StateVector-n": (lambda: StateVector(td(1), [1, 0]), TooManyQubits),
    "schmidt_form-bob": (lambda: schmidt_form(ghz(3), td(2)), IndexOutOfRange),
    "split_by_receiver-bob": (lambda: split_by_receiver(ghz(3), td(2)), IndexOutOfRange),
    "permute_qubits": (lambda: permute_qubits(ghz(3), [td(0), 1, 2]), InvalidPermutation),
}


@pytest.mark.parametrize("name", TIMEDELTA_CALLS)
def test_timedelta_argument_raises_the_typed_error_of_its_gate(name):
    call, error = TIMEDELTA_CALLS[name]
    with pytest.raises(error):
        call()


def _fingerprint(result):
    if isinstance(result, InfoQubit):
        return (result.amp0, result.amp1)
    return result.amps.tobytes() if hasattr(result, "amps") else result


# a valid point of each real-parameter builder with zeros, so that int, np.int64
# and -0.0 reach the coefficient, amplitude and phase gates
EDGES = {
    "w_general": (w_general, (0.0, SQRT_HALF, SQRT_HALF)),
    "separable_branch_family": (separable_branch_family, (0.5, 0.0)),
    "schmidt_branch_family": (schmidt_branch_family, (1.0, 0.0, 0.0, 0.6)),
    "acin_canonical": (acin_canonical, (0.5, 0.0, 0.3, 0.4, SQRT_HALF, 0.0)),
    "acin_alternative": (acin_alternative, (0.5, 0.0, SQRT_HALF, 0.5, 0.0, 0.0)),
    "zha_counterexample": (zha_counterexample, (0.5, 0.0, 0.0, 0.0, 0.0)),
    "classify_zha-kappa": (_classify_zha_flat, (*KAPPAS, 0.0)),
    "classify_acin_alt": (classify_acin_alt, (0.5, 0.0, SQRT_HALF, 0.5, 0.0, 0.0)),
    "InfoQubit": (InfoQubit, (1.0, 0.0)),
}
EDGE_CASES = [
    (name, i, kind)
    for name, (_, args) in EDGES.items()
    for i, v in enumerate(args)
    for kind in ("np.float64", *(("int", "np.int64") if v.is_integer() else ()), *(("-0.0",) if v == 0 else ()))
]
CONVERT = {"np.float64": np.float64, "int": int, "np.int64": np.int64, "-0.0": lambda v: -0.0}


@pytest.mark.parametrize("name, index, kind", EDGE_CASES, ids=[f"{n}-{i}-{k}" for n, i, k in EDGE_CASES])
def test_admitted_number_types_build_the_float_result(name, index, kind):
    build, args = EDGES[name]
    value = CONVERT[kind](args[index])
    got = build(*args[:index], value, *args[index + 1:])
    want = build(*args[:index], float(value), *args[index + 1:])
    assert _fingerprint(got) == _fingerprint(want)
    if kind == "-0.0":  # the sign of a zero may reach the amplitudes, not their values
        reference = build(*args)
        if hasattr(got, "amps"):
            np.testing.assert_array_equal(got.amps, reference.amps)
        else:
            assert got == reference


@pytest.mark.parametrize("build", [ghz, lambda n: random_state(n, 7)], ids=["ghz", "random_state"])
def test_numpy_qubit_count_builds_the_int_result(build):
    assert build(np.int64(3)).amps.tobytes() == build(3).amps.tobytes()


# an argument of the wrong type ended in a bare AttributeError ('tuple' object
# has no attribute 'amp0', 'StateVector' object has no attribute 'coeff0', ...)
WRONG_TYPE_CALLS = {
    "run_teleport-info": lambda: run_teleport((0.6, 0.8), ghz(3), 2),
    "run_teleport-resource": lambda: run_teleport(InfoQubit(1, 0), ghz(3).amps, 2),
    "outcome_table-info": lambda: outcome_table((0.6, 0.8), schmidt_form(ghz(3), 2)),
    "outcome_table-form": lambda: outcome_table(InfoQubit(1, 0), ghz(3)),
    "average_fidelity_mc-resource": lambda: average_fidelity_mc(ghz(3).amps, 2, 10),
    "schmidt_form-resource": lambda: schmidt_form(ghz(3).amps, 2),
    "split_by_receiver-resource": lambda: split_by_receiver(ghz(3).amps, 2),
    "check_general-resource": lambda: check_general(ghz(3).amps, 2),
    "check_3qubit-resource": lambda: check_3qubit(ghz(3).amps, 2),
    "concurrence_via_density-resource": lambda: concurrence_via_density(ghz(3).amps, 2),
    "permute_qubits-sv": lambda: permute_qubits(ghz(3).amps, [0, 1, 2]),
}


@pytest.mark.parametrize("name", WRONG_TYPE_CALLS)
def test_argument_of_the_wrong_type_is_refused(name):
    with pytest.raises(OutOfRange, match="must be of type"):
        WRONG_TYPE_CALLS[name]()
