"""Exact simulator and analysis toolkit for quantum-hashing communication
protocols: linear characteristic polynomials over residue rings, amplitude-
form quantum hashes with certified collision resistance, and one-way / SMP
protocol execution with exact error accounting."""

from .boolfn import (
    Block,
    BooleanFunction,
    Characteristic,
    Decomposition,
    FunctionInstance,
    LinearPolynomial,
    VerificationReport,
    builtin,
    characteristic_from_table,
    conjunction,
    split_polynomial,
    verify_characteristic,
)
from .errors import BoundError, CharacteristicError, ConfigError, GuardError, SearchError
from .protocol import (
    CommCost,
    ErrorProfile,
    ProtocolSpec,
    RunReport,
    build_spec,
    comm_cost,
    error_profile,
    run_exact,
    run_sampled,
    run_smp,
)
from .qhash import (
    Certification,
    KeySet,
    ResistanceReport,
    bias,
    hash_qubits,
    required_keys,
    search_key_set,
    swap_accept,
    verify_resistance,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "BooleanFunction",
    "BoundError",
    "Characteristic",
    "CharacteristicError",
    "Certification",
    "CommCost",
    "ConfigError",
    "Decomposition",
    "ErrorProfile",
    "FunctionInstance",
    "GuardError",
    "KeySet",
    "LinearPolynomial",
    "ProtocolSpec",
    "ResistanceReport",
    "RunReport",
    "SearchError",
    "VerificationReport",
    "bias",
    "build_spec",
    "builtin",
    "characteristic_from_table",
    "comm_cost",
    "conjunction",
    "error_profile",
    "hash_qubits",
    "required_keys",
    "run_exact",
    "run_sampled",
    "run_smp",
    "search_key_set",
    "split_polynomial",
    "swap_accept",
    "verify_characteristic",
    "verify_resistance",
]
