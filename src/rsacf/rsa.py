"""RSA key material, weak-key generation, and candidate verification."""

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isfinite
from typing import NamedTuple

from .numeric import isqrt

# Deterministic Miller-Rabin witness set, sufficient below 2^64.
_MR_BASES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_ROUNDS_BIG = 64

_KEY_NAMES = ("n", "e", "p", "q", "d")
_LINE_RE = re.compile(r"^\s*([a-z]+)\s*=\s*([0-9a-f]+)\s*$")
# Smallest d ratio keygen_weak accepts.
MIN_D_RATIO = 2**-8


class GenerationError(RuntimeError):
    pass


class KeyFormatError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class PublicKey:
    n: int
    e: int


@dataclass(frozen=True)
class PrivateKey:
    p: int
    q: int
    d: int
    phi: int


class Method1Result(NamedTuple):
    """Outcome of the factor-recovery check; reject is a stage tag or None."""

    p: int | None
    q: int | None
    reject: str | None

    @property
    def ok(self) -> bool:
        return self.reject is None


def _mr_round(n: int, a: int, d: int, r: int) -> bool:
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int, rng: random.Random | None = None) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES_64:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < 1 << 64:
        bases = _MR_BASES_64
    else:
        rng = rng or random.Random(n)
        bases = [rng.randrange(2, n - 1) for _ in range(_MR_ROUNDS_BIG)]
    return all(_mr_round(n, a, d, r) for a in bases)


def _random_prime(rng: random.Random, bits: int) -> int:
    while True:
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(cand, rng):
            return cand


def keygen_weak(modulus_bits: int, d_ratio, seed: int):
    """Deterministically generate a key whose d is about d_ratio * n^0.25.

    d is drawn uniformly (odd, coprime to phi) from
    [max(3, 0.9 * d_ratio * n^0.25), 1.1 * d_ratio * n^0.25].
    """
    if modulus_bits < 32:
        raise ValueError("modulus_bits must be >= 32")
    if not isfinite(d_ratio):
        raise ValueError(f"d_ratio must be finite, got {d_ratio!r}")
    D = Fraction(d_ratio)
    if D < MIN_D_RATIO:
        raise ValueError("d_ratio must be >= 2**-8")
    rng = random.Random(seed)
    half = modulus_bits // 2
    for _ in range(64):
        p = _random_prime(rng, half)
        q = _random_prime(rng, half)
        if p == q:
            continue
        if p > q:
            p, q = q, p
        # Same bit length forces q < 2p.
        n = p * q
        phi = (p - 1) * (q - 1)
        root4 = isqrt(isqrt(n))
        lo = max(3, int(Fraction(9, 10) * D * root4))
        hi = int(Fraction(11, 10) * D * root4)
        if hi < lo or hi >= phi:
            raise GenerationError(
                f"d window [{lo}, {hi}] unusable for {modulus_bits}-bit modulus"
            )
        for _ in range(4096):
            d = rng.randrange(lo, hi + 1) | 1
            if d > hi or gcd(d, phi) != 1:
                continue
            e = pow(d, -1, phi)
            return PublicKey(n, e), PrivateKey(p, q, d, phi)
    raise GenerationError("could not generate a key within the retry budget")


# Reject outcomes of method1_try, built once: the exhaustive scan rejects
# almost every pair it tries, so it must not allocate per reject.
_INEXACT_PHI = Method1Result(None, None, "inexact-phi")
_NEGATIVE_SUM = Method1Result(None, None, "negative-sum")
_NON_SQUARE = Method1Result(None, None, "non-square")
_PRODUCT_MISMATCH = Method1Result(None, None, "product-mismatch")


def method1_try(n: int, e: int, d: int, k: int) -> Method1Result:
    """Factor n assuming (d, k) is the true exponent pair, k >= 1.

    Returns (p, q, None) with p * q == n, or (None, None, reject stage).
    """
    t = d * e - 1
    if t % k:
        return _INEXACT_PHI
    psum = n + 1 - t // k
    if psum < 0:
        return _NEGATIVE_SUM
    disc = psum * psum - 4 * n
    if disc < 0:
        return _NON_SQUARE
    root = isqrt(disc)
    if root * root != disc:
        return _NON_SQUARE
    p = (psum - root) // 2
    q = (psum + root) // 2
    if p <= 1 or p * q != n:
        return _PRODUCT_MISMATCH
    return Method1Result(p, q, None)


def method1_factor(pub: PublicKey, d_cand: int, k_cand: int) -> Method1Result:
    """Try to factor n assuming (d_cand, k_cand) are the true exponent pair."""
    if k_cand < 1:
        raise ValueError("k_cand must be >= 1")
    return method1_try(pub.n, pub.e, d_cand, k_cand)


def write_key(path, pub: PublicKey, priv: PrivateKey | None = None) -> None:
    lines = [f"n = {pub.n:x}", f"e = {pub.e:x}"]
    if priv is not None:
        lines += [f"p = {priv.p:x}", f"q = {priv.q:x}", f"d = {priv.d:x}"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_key(path):
    """Parse a key file; returns (PublicKey, PrivateKey or None)."""
    fields = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            if not raw.strip():
                continue
            m = _LINE_RE.match(raw)
            if m is None:
                raise KeyFormatError(f"malformed key line {raw.strip()!r}", lineno)
            name, hexval = m.group(1), m.group(2)
            if name not in _KEY_NAMES:
                raise KeyFormatError(f"unknown field {name!r}", lineno)
            if name in fields:
                raise KeyFormatError(f"duplicate field {name!r}", lineno)
            fields[name] = int(hexval, 16)
    for required in ("n", "e"):
        if required not in fields:
            raise KeyFormatError(f"missing mandatory field {required!r}", 0)
    if fields["n"] < 6:
        raise KeyFormatError("n must be >= 6, the smallest product of two distinct primes", 0)
    if fields["e"] < 1:
        raise KeyFormatError("e must be >= 1", 0)
    pub = PublicKey(fields["n"], fields["e"])
    private_fields = [name for name in ("p", "q", "d") if name in fields]
    if not private_fields:
        return pub, None
    if len(private_fields) != 3:
        raise KeyFormatError(
            f"incomplete private half, have only {private_fields}", 0
        )
    p, q, d = fields["p"], fields["q"], fields["d"]
    if p * q != pub.n:
        raise KeyFormatError("p * q does not equal n", 0)
    return pub, PrivateKey(p, q, d, (p - 1) * (q - 1))
