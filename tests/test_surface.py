"""The public names of `sqtkit`, pinned: adding, removing or renaming one has
to change this list too, so the surface only changes on purpose."""

import sqtkit
import sqtkit.cli  # noqa: F401  bound on sqtkit once any test imports it, so always import it here

PUBLIC = [
    "AcinAltReport", "BipartiteSplit", "CORRECTION_LABELS", "ConstraintViolated",
    "DimensionMismatch", "IndexOutOfRange", "InfoQubit", "InvalidDocument",
    "InvalidPermutation", "MAX_QUBITS", "McEstimate", "NotNormalized", "OutOfRange",
    "OutcomeRecord", "PAULI_X", "PAULI_Z", "PerfectVerdict", "SchmidtForm", "SqtError",
    "StateVector", "TeleportResult", "TooManyQubits", "WrongQubitCount", "ZhaReport",
    "acin_alternative", "acin_canonical", "average_fidelity_mc", "check_3qubit",
    "check_general", "classify_acin_alt", "classify_zha", "cli", "concurrence",
    "concurrence_via_density", "conditions", "correction_matrix", "errors", "families",
    "ghz", "haar_info_samples", "haar_random_info", "maf", "move_to_last_perm",
    "new_state", "outcome_table", "permute_qubits", "protocol", "random_state",
    "rotation_matrix", "run_teleport", "schmidt", "schmidt_branch_family",
    "schmidt_form", "separable_branch_family", "split_by_receiver", "statevec",
    "w_general", "zha_counterexample",
]


def test_public_surface_is_pinned():
    assert sorted(n for n in dir(sqtkit) if not n.startswith("_")) == PUBLIC
