"""Continued-fraction attacks on RSA keys with small secret exponent."""

__version__ = "0.1.0"

from .attack import (
    AttackConfig,
    AttackResult,
    KeyContext,
    approximation_target,
    key_context,
    run_attack,
    vvt_exhaustive,
    wiener_classic,
)
from .contfrac import ContFrac, WorleyCandidate, expand, locate_m_prime, rs_bounds, worley_enumerate
from .mitm_table import FingerprintTable, fingerprint, fingerprint_width
from .numeric import NotInvertibleError, isqrt, mod_inv, mod_pow
from .rsa import (
    GenerationError,
    KeyFormatError,
    Method1Result,
    PrivateKey,
    PublicKey,
    keygen_weak,
    method1_factor,
    read_key,
    write_key,
)

__all__ = [
    "AttackConfig",
    "AttackResult",
    "KeyContext",
    "approximation_target",
    "key_context",
    "run_attack",
    "vvt_exhaustive",
    "wiener_classic",
    "ContFrac",
    "WorleyCandidate",
    "expand",
    "locate_m_prime",
    "rs_bounds",
    "worley_enumerate",
    "FingerprintTable",
    "fingerprint",
    "fingerprint_width",
    "NotInvertibleError",
    "isqrt",
    "mod_inv",
    "mod_pow",
    "GenerationError",
    "KeyFormatError",
    "Method1Result",
    "PrivateKey",
    "PublicKey",
    "keygen_weak",
    "method1_factor",
    "read_key",
    "write_key",
]
