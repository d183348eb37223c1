"""The public names of `sqtkit`, pinned: adding, removing or renaming one has
to change this list too, so the surface only changes on purpose."""

import os
import subprocess
import sys
from pathlib import Path

import sqtkit
import sqtkit.cli  # noqa: F401  bound on sqtkit once any test imports it, so always import it here

PUBLIC = [
    "AcinAltReport", "BipartiteSplit", "CORRECTION_LABELS", "ConstraintViolated",
    "DimensionMismatch", "IndexOutOfRange", "InfoQubit", "InvalidDocument",
    "InvalidPermutation", "MAX_QUBITS", "McEstimate", "NotNormalized", "OutOfRange",
    "OutcomeRecord", "PerfectVerdict", "SchmidtForm", "SqtError",
    "StateVector", "TeleportResult", "TooManyQubits", "WrongQubitCount", "ZhaReport",
    "acin_alternative", "acin_canonical", "average_fidelity_mc", "check_3qubit",
    "check_general", "classify_acin_alt", "classify_zha", "cli",
    "concurrence_via_density", "conditions", "errors", "families",
    "ghz", "haar_random_info", "maf",
    "new_state", "outcome_table", "permute_qubits", "protocol", "random_state",
    "run_teleport", "schmidt", "schmidt_branch_family",
    "schmidt_form", "separable_branch_family", "split_by_receiver", "statevec",
    "w_general", "zha_counterexample",
]


def test_public_surface_is_pinned():
    assert sorted(n for n in dir(sqtkit) if not n.startswith("_")) == PUBLIC


def test_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first use; analyze and check never draw, so
    # importing sqtkit must not load it (a fresh process, as pytest has already)
    env = dict(os.environ, PYTHONPATH=str(Path(sqtkit.__file__).parents[1]))
    code = "import sys, sqtkit, sqtkit.cli; assert 'numpy.random' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
