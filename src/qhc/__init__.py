"""Exact simulator and analysis toolkit for quantum-hashing communication
protocols: linear characteristic polynomials over residue rings, amplitude-
form quantum hashes with certified collision resistance, and one-way / SMP
protocol execution with exact error accounting."""

from .boolfn import (
    Block,
    BooleanFunction,
    Characteristic,
    FunctionInstance,
    LinearPolynomial,
    VerificationReport,
    builtin,
    conjunction,
    verify_characteristic,
)
from .errors import BoundError, CharacteristicError, ConfigError, GuardError, SearchError
from .protocol import (
    ErrorProfile,
    ProtocolSpec,
    RunReport,
    build_spec,
    error_profile,
    run_exact,
    run_sampled,
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
    "ConfigError",
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
    "conjunction",
    "error_profile",
    "hash_qubits",
    "required_keys",
    "run_exact",
    "run_sampled",
    "search_key_set",
    "swap_accept",
    "verify_characteristic",
    "verify_resistance",
]
