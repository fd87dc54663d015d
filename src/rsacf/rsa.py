"""RSA key material, weak-key generation, and candidate verification."""

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, isfinite, prod
from typing import NamedTuple

from . import workers
from .numeric import isqrt

# Miller-Rabin bases that decide every n below 2^64 (J. Sinclair, 2011),
# a base that n divides being skipped.
_MR_BASES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
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


def _primes_below(limit):
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(limit - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, limit, i)))
    return tuple(i for i, flag in enumerate(sieve) if flag)


_SMALL_PRIMES = _primes_below(1000)
# The product of the odd primes below 1000: one gcd with it turns away an
# odd n with a small factor before any Miller-Rabin round. Below 2^64 it
# replaces trial division; above, it follows the twelve trial divisions.
_ODD_PRIMORIAL = prod(_SMALL_PRIMES[1:])


def _mr_rounds(n: int, bases) -> bool:
    """Whether odd n > 3 passes a Miller-Rabin round to every base in bases."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _mr_each(tests):
    """[_mr_rounds(n, bases) for n, bases in tests]: a job of workers.run."""
    return [_mr_rounds(n, bases) for n, bases in tests]


def _bases(n: int, rng: random.Random):
    """The 64 Miller-Rabin bases of odd n above 2^64, drawn from rng, or
    None if n has a factor below 1000.

    Trial division by the first twelve primes comes first and draws
    nothing; the bases are drawn before the gcd with the odd primes below
    1000, as they were before the gcd was added, so rng advances by 64
    draws whatever the gcd finds.
    """
    for p in _SMALL_PRIMES[:12]:
        if n % p == 0:
            return None
    bases = [rng.randrange(2, n - 1) for _ in range(_MR_ROUNDS_BIG)]
    return bases if gcd(n, _ODD_PRIMORIAL) == 1 else None


def _prove(tests):
    """Whether each (n, bases) of tests, n of one size, passes a round to
    every base. The rounds of all of them go in one job list, split over
    the workers (workers.ways): the bases, taken in turn, are dealt to the
    jobs in turn, so no job has more than one round over another."""
    bits = tests[0][0].bit_length()
    ways = workers.ways(sum(len(b) for _, b in tests) * bits, bits)
    jobs, dealt = [[] for _ in range(ways)], 0
    for n, bases in tests:
        for i, job in enumerate(jobs):
            job.append((n, bases[(i - dealt) % ways::ways]))
        dealt += len(bases)
    parts = workers.run(_mr_each, [(job,) for job in jobs])
    return [all(part[j] for part in parts) for j in range(len(tests))]


def is_probable_prime(n: int, rng: random.Random | None = None) -> bool:
    """Exact below 2^64. Above it, trial division by the first twelve primes,
    64 bases drawn from rng (random.Random(n) if None), then a gcd with the
    odd primes below 1000, and a Miller-Rabin round to each base.

    rng advances by 64 draws for every n without a factor among the first
    twelve primes, whatever the gcd finds (_bases), so keygen_weak's keys
    do not depend on it. The rounds run in this process, in order, until
    one fails. n may be any number, chosen to fool the test, so a prime
    passes all 64: only the worst-case bound, 4^-64 for a composite,
    holds. keygen_weak does not call this above 2^64: its search
    (_prime_pair) makes the same draws, and as many rounds as the
    average-case bound on random candidates asks (_proving_rounds), spread
    over the workers.
    """
    if n < 2:
        return False
    if n < 1 << 64:
        if n % 2 == 0 or gcd(n, _ODD_PRIMORIAL) != 1:
            return n < 1000 and n in _SMALL_PRIMES
        return _mr_rounds(n, [a for a in _MR_BASES_64 if a % n])
    bases = _bases(n, rng or random.Random(n))
    return bases is not None and _mr_rounds(n, bases)


@cache
def _proving_rounds(bits: int) -> int:
    """How many Miller-Rabin rounds, to the first of its 64 drawn bases,
    prove a random bits-bit candidate prime in _prime_pair.

    For a random odd k-bit candidate, the chance that a composite passes t
    rounds to random bases is at most

        k^(3/2) * 2^t * t^(-1/2) * 4^(2 - sqrt(t * k))

    for k >= 21 and 3 <= t <= k/9 (Damgard, Landrock and Pomerance,
    "Average case error estimates for the strong probable prime test",
    Math. Comp. 61 (1993); Menezes, van Oorschot and Vanstone, Handbook of
    Applied Cryptography, Fact 4.48). This is the smallest t in that range
    whose bound is at most 2^-128, the worst-case bound of 64 rounds, and
    64 where no t in it reaches 2^-128: up to 256 bits. It is 12 at 512
    bits and 6 at 1024.
    """
    in_range = range(3, min(_MR_ROUNDS_BIG, bits // 9) + 1)
    return next((t for t in in_range
                 if bits**1.5 * 2**t / t**0.5 * 4 ** (2 - (t * bits) ** 0.5) <= 2**-128),
                _MR_ROUNDS_BIG)


def _prime_pair(rng: random.Random, bits: int):
    """The first two primes of rng's stream of bits-bit candidates, in
    stream order, with rng left as it was after the second one's draws.

    A candidate is getrandbits(bits) with its top and bottom bits set.
    Below 65 bits is_probable_prime decides it, exactly and drawing
    nothing. Above, its 64 bases are drawn right after it (_bases), and it
    is a prime if it passes a Miller-Rabin round to each of the first
    t = _proving_rounds(bits) of them: 64 up to 256 bits, 12 at 512, 6 at
    1024. The other 64 - t are drawn and never used, so rng advances as in
    is_probable_prime(candidate, rng) and every candidate is the one that
    search draws: the draws keep every key the one that 64 rounds made. (A
    change that alters every key anyway, such as redrawing q until n has
    the asked size, may drop them.) A prime passes every round, so the
    pair, and rng's state after it, equal those of a search that tests one
    candidate at a time with is_probable_prime, unless a composite passes
    the first t rounds (a chance of at most 2^-128 a candidate) and would
    fail a later one.

    Above 2^64 the search is spread over the workers (workers.ways). The
    candidates that survive trial division and the gcd go in job lists of
    one a CPU, which make their first rounds and are read in stream
    order; the first two that pass make their other t - 1 rounds in one
    list (_prove). One that fails a later round is dropped, and the search
    goes on from the candidate after it, already drawn and screened.
    Inside a job the search runs serially, as workers.ways is 1.
    """
    top = (1 << (bits - 1)) | 1
    if bits <= 64:
        primes = []
        while len(primes) < 2:
            cand = rng.getrandbits(bits) | top
            if is_probable_prime(cand):
                primes.append(cand)
        return primes[0], primes[1]
    ways = workers.ways(2 * bits, bits)  # a first round a CPU, from 512 bits
    t = _proving_rounds(bits)
    passed, primes = [], []  # (candidate, bases, rng's state after them)
    while len(primes) < 2:
        while len(primes) + len(passed) < 2:
            batch = []
            while len(batch) < ways:
                cand = rng.getrandbits(bits) | top
                bases = _bases(cand, rng)
                if bases:
                    batch.append((cand, bases, rng.getstate()))
            firsts = workers.run(_mr_each, [([(c, b[:1])],) for c, b, _ in batch])
            passed += [c for c, [ok] in zip(batch, firsts) if ok]
        proving, passed = passed[:2 - len(primes)], passed[2 - len(primes):]
        oks = _prove([(c, b[1:t]) for c, b, _ in proving])
        primes += [c for c, ok in zip(proving, oks) if ok]
    rng.setstate(primes[1][2])
    return primes[0][0], primes[1][0]


def keygen_weak(modulus_bits: int, d_ratio, seed: int):
    """Deterministically generate a key whose d is about d_ratio * n^0.25.

    p and q have modulus_bits // 2 bits each, so n has 2 * (modulus_bits
    // 2) or one bit fewer: often modulus_bits - 1 bits (20 of seeds 0..39
    at 96 bits, 14 at 512), and never modulus_bits when it is odd.
    d is drawn uniformly (odd, coprime to phi) from
    [max(3, 0.9 * d_ratio * n^0.25), 1.1 * d_ratio * n^0.25].

    p and q are the first two primes of one seeded stream of candidates
    (_prime_pair), and d is drawn from the same rng after q's draws. Above
    2^64 the prime search runs on every CPU (workers.ways); the key is the
    one a one-CPU search makes. Each prime above 2^64 is proved by as many
    Miller-Rabin rounds as the average-case bound on random candidates
    asks (_proving_rounds: 64 up to 256 bits, 12 at 512, 6 at 1024), a
    composite passing with a chance of at most 2^-128.
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
        p, q = _prime_pair(rng, half)
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


# Reject outcomes of the factor check, built once: the exhaustive scan and
# the Wiener pass reject almost every pair they try, so a reject must not
# allocate.
_INEXACT_PHI = Method1Result(None, None, "inexact-phi")
_NEGATIVE_SUM = Method1Result(None, None, "negative-sum")
_NON_SQUARE = Method1Result(None, None, "non-square")
_PRODUCT_MISMATCH = Method1Result(None, None, "product-mismatch")


def method1_remainder(n: int, k: int, rem: int) -> Method1Result:
    """Factor n assuming k, k >= 1, is the true k of a pair (d, k) with
    d*e - k*n = rem.

    Then d*e - 1 = k*n + rem - 1, so k divides d*e - 1 exactly when it
    divides rem - 1, and n + 1 - (d*e - 1)/k, the would-be p + q, is
    1 - (rem - 1)/k: the check needs neither d nor e, only numbers of
    about the size of rem and k. Returns (p, q, None) with p * q == n, or
    (None, None, reject stage).
    """
    if (rem - 1) % k:
        return _INEXACT_PHI
    psum = 1 - (rem - 1) // k
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
    return method1_remainder(pub.n, k_cand, d_cand * pub.e - k_cand * pub.n)


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
