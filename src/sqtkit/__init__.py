"""Schmidt-form analysis and protocol simulation of n-qubit teleportation
resources: receiver-vs-rest decomposition, concurrence, the (2+C)/3 maximal
average fidelity, perfect-teleportation conditions, named state families,
and a full measurement-and-correction simulation to cross-check it all.
"""

from .conditions import (
    AcinAltReport,
    PerfectVerdict,
    ZhaReport,
    check_3qubit,
    check_general,
    classify_acin_alt,
    classify_zha,
)
from .errors import (
    ConstraintViolated,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidDocument,
    InvalidPermutation,
    NotNormalized,
    OutOfRange,
    SqtError,
    TooManyQubits,
    WrongQubitCount,
)
from .families import (
    acin_alternative,
    acin_canonical,
    ghz,
    random_state,
    schmidt_branch_family,
    separable_branch_family,
    w_general,
    zha_counterexample,
)
from .protocol import (
    CORRECTION_LABELS,
    InfoQubit,
    McEstimate,
    OutcomeRecord,
    TeleportResult,
    average_fidelity_mc,
    haar_random_info,
    outcome_table,
    run_teleport,
)
from .schmidt import (
    BipartiteSplit,
    SchmidtForm,
    concurrence_via_density,
    maf,
    schmidt_form,
    split_by_receiver,
)
from .statevec import (
    MAX_QUBITS,
    StateVector,
    new_state,
    permute_qubits,
)

__version__ = "0.1.0"
