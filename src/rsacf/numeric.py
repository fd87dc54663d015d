"""Exact integer kernels: modular power, modular inverse, integer square root."""

from math import gcd, isqrt  # isqrt raises ValueError on negatives


class NotInvertibleError(ValueError):
    """Raised when an inverse does not exist; carries the blocking gcd.

    In the RSA setting a nontrivial gcd with n factors the modulus, so
    callers must inspect `.gcd` instead of discarding the failure.
    """

    def __init__(self, a: int, modulus: int, common: int):
        super().__init__(f"{a} not invertible mod {modulus} (gcd = {common})")
        self.gcd = common


def mod_pow(base: int, exp: int, modulus: int) -> int:
    """base**exp mod modulus, exact."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    return pow(base, exp, modulus)


def mod_inv(a: int, modulus: int) -> int:
    """Inverse of a mod modulus, in (0, modulus)."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    g = gcd(a, modulus)
    if g != 1:
        raise NotInvertibleError(a, modulus, g)
    return pow(a, -1, modulus)

