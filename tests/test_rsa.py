"""Unit tests for key material, weak-key generation, and verification."""

import hashlib
import random
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsacf import (
    GenerationError,
    KeyFormatError,
    Method1Result,
    PrivateKey,
    PublicKey,
    isqrt,
    keygen_weak,
    method1_factor,
    read_key,
    rsa,
    workers,
    write_key,
)
from rsacf.rsa import is_probable_prime, method1_remainder

TOY = PublicKey(90581, 17993)  # p = 239, q = 379, d = 5, k = 1
M61, M127, M521, M607 = (2**61 - 1, 2**127 - 1, 2**521 - 1, 2**607 - 1)  # Mersenne primes

# Strong pseudoprimes to the first 1, 2, ..., 9 prime bases, the smallest
# of each (2047 = 23 * 89 fools base 2, 3825123056546413051 the bases up
# to 23).
STRONG_PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 2152302898747,
                       3474749660383, 341550071728321, 3825123056546413051)


def _mr_twelve_primes(n):
    """Miller-Rabin with the first twelve prime bases, exact below 2^64."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in bases:
        return True
    if any(n % p == 0 for p in bases):
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class TestPrimality:
    def test_small_numbers(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(50):
            assert is_probable_prime(n) == (n in primes)

    def test_carmichael_numbers(self):
        for n in (561, 1105, 1729, 41041, 825265):
            assert not is_probable_prime(n)

    def test_agrees_with_twelve_bases_below_2_64(self):
        rng = random.Random(17)
        ns = [(1 << 64) - 59, (1 << 64) - 1,  # the largest prime below 2^64
              997 * 997, 1009 * 1013]  # factors at and past the primorial's
        for bits in range(8, 65):
            ns += [rng.getrandbits(bits) | 1 << (bits - 1) | 1 for _ in range(200)]
        primes = [n for n in ns if 16 < n.bit_length() <= 32 and _mr_twelve_primes(n)]
        ns += [p * q for p, q in zip(primes, primes[1:])]  # no factor below 2^16
        for n in ns:
            assert is_probable_prime(n) == _mr_twelve_primes(n), n

    def test_agrees_with_twelve_bases_below_2_14(self):
        for n in range(1 << 14):
            assert is_probable_prime(n) == _mr_twelve_primes(n), n

    @pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
    def test_strong_pseudoprimes(self, n):
        assert not _mr_twelve_primes(n) and not is_probable_prime(n)

    def test_large_prime_and_composite(self):
        assert is_probable_prime(M127)
        assert not is_probable_prime(M127 * M61)

    @pytest.mark.parametrize("n", [
        41 * M127, 997 * M521,  # turned away by the gcd with the primorial
        M61 * M127,  # by the first Miller-Rabin round
        M521,  # accepted after 64 rounds
    ], ids=["factor-41", "factor-997", "large-factors", "prime"])
    def test_draws_64_bases_above_2_64(self, n):
        # keygen_weak's keys depend on how far each test advances its rng:
        # whatever turns n away after the first twelve trial divisions must
        # do so after the 64 draws.
        rng, fresh = random.Random(5), random.Random(5)
        is_probable_prime(n, rng)
        for _ in range(64):
            fresh.randrange(2, n - 1)
        assert rng.getstate() == fresh.getstate()

    @pytest.mark.parametrize("n", [3 * M127, 37 * M521])
    def test_small_factor_draws_nothing(self, n):
        rng = random.Random(5)
        state = rng.getstate()
        assert not is_probable_prime(n, rng)
        assert rng.getstate() == state


# Primes above 2^64, products of two of them, and a product of the primes
# just above 1000, which no gcd with the primorial catches.
SPLIT_CASES = [(M127, True), (M521, True), (M607, True), (M127 * M521, False),
               (M521 * M607, False),
               (prod(p for p in range(1009, 1100) if is_probable_prime(p)), False)]


@pytest.mark.parametrize("n, prime", SPLIT_CASES,
                         ids=["M127", "M521", "M607", "M127*M521", "M521*M607", "1009..1097"])
def test_split_rounds_match_serial(monkeypatch, n, prime):
    # With two CPUs and any work worth splitting, is_probable_prime still
    # runs no job list at any size: its rounds run in the calling process,
    # here and in a worker, with the same verdict.
    lists = _split(monkeypatch, 2)
    try:
        assert is_probable_prime(n, random.Random(1)) == prime
        assert lists == []
        serial = workers.run(is_probable_prime, [(n, random.Random(1)) for _ in range(2)])
        assert serial == [prime, prime]
        assert lists == [2]
    finally:
        workers.shutdown()


def _split(monkeypatch, cpus):
    """Runs from here on split every job list over cpus CPUs, in workers
    forked after the caller's patches; returns the lengths of the lists."""
    lists, run = [], workers.run

    def recorded(fn, jobs):
        lists.append(len(jobs))
        return run(fn, jobs)

    workers.shutdown()
    monkeypatch.setattr(workers, "_cpus", lambda: cpus)
    monkeypatch.setattr(workers, "MIN_WORK", 0)
    monkeypatch.setattr(workers, "run", recorded)
    return lists


def _serial_primes(seed, bits):
    """The primes of random.Random(seed)'s stream of bits-bit candidates,
    each with the last Miller-Rabin base that keygen_weak's search uses
    (_proving_rounds) and the rng's state after it, found one candidate at
    a time."""
    rng = random.Random(seed)
    while True:
        cand = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        state = rng.getstate()
        if is_probable_prime(cand, rng):
            rng.setstate(state)
            last = rsa._bases(cand, rng)[rsa._proving_rounds(bits) - 1]
            yield cand, last, rng.getstate()


class TestSplitSearch:
    # keygen_weak searches each key's primes over every CPU: it screens the
    # first rounds of several candidates at once and proves two primes'
    # other rounds in one list. Every key is the one-CPU search's.
    @pytest.mark.parametrize("bits", [130, 256, 512])
    def test_keys_match_one_cpu(self, monkeypatch, bits):
        args = [(bits, ratio, seed) for seed in (0, 1, 0xC0FFEE) for ratio in (0.5, 16)]
        lists = _split(monkeypatch, 1)
        try:
            serial = [keygen_weak(*a) for a in args]
            assert set(lists) == {1}
            monkeypatch.setattr(workers, "_cpus", lambda: 2)
            del lists[:]
            assert [keygen_weak(*a) for a in args] == serial
            assert set(lists) == {2}
        finally:
            workers.shutdown()

    @pytest.mark.parametrize("bits", [65, 130, 256, 512])
    @pytest.mark.parametrize("fail", [(0,), (1,), (0, 1), (1, 2)],
                             ids=["p", "q", "p-and-q", "q-and-next"])
    def test_later_round_failure_resumes_in_order(self, monkeypatch, bits, fail):
        # Of the stream's first three primes, those of fail fail the round to
        # the last base that the search uses: the 64th up to 256 bits, the
        # 12th at 512. Split, that round is in this process's share for
        # the first of two candidates proved together and in the worker's,
        # forked after the patch, for the second. The search goes on from
        # the candidate after each, in stream order, and leaves the rng
        # where the one-candidate-at-a-time search does.
        stream = _serial_primes(7, bits)
        firsts = [next(stream) for _ in range(3)]
        planted = {firsts[i][:2] for i in fail}
        mr_rounds = rsa._mr_rounds

        def failing(n, bases):
            return not any((n, a) in planted for a in bases) and mr_rounds(n, bases)

        monkeypatch.setattr(rsa, "_mr_rounds", failing)
        lists = _split(monkeypatch, 2)
        try:
            rng = random.Random(7)
            got = rsa._prime_pair(rng, bits)
            assert 2 in lists
        finally:
            workers.shutdown()
        monkeypatch.setattr(workers, "_cpus", lambda: 1)
        stream = _serial_primes(7, bits)
        (p, _, _), (q, _, state) = next(stream), next(stream)
        assert got == (p, q) and not {p, q} & {n for n, _ in planted}
        assert rng.getstate() == state


    def test_rounds_sent_to_prove(self, monkeypatch):
        # A 512-bit prime of keygen_weak's search makes 12 rounds: the
        # screen's first, then 11 in the proving list. is_probable_prime,
        # which serves any n, still makes all 64, in this process.
        sent, prove = [], rsa._prove

        def spy(tests):
            sent.extend(len(bases) for _, bases in tests)
            return prove(tests)

        monkeypatch.setattr(rsa, "_prove", spy)
        _, priv = keygen_weak(1024, 4, 1)
        assert sent and set(sent) == {11}
        del sent[:]
        assert priv.p.bit_length() == 512 and is_probable_prime(priv.p)
        assert sent == []


def _dlp_bound(k, t):
    """Damgard, Landrock and Pomerance (Math. Comp. 61, 1993; HAC Fact
    4.48): the chance that t Miller-Rabin rounds to random bases pass a
    random odd k-bit composite is at most this, for k >= 21 and
    3 <= t <= k/9."""
    return k**1.5 * 2**t / t**0.5 * 4 ** (2 - (t * k) ** 0.5)


class TestProvingRounds:
    @pytest.mark.parametrize("bits", [65, 130, 256])
    def test_64_where_the_bound_does_not_reach(self, bits):
        assert rsa._proving_rounds(bits) == 64

    def test_pinned(self):
        assert (rsa._proving_rounds(512), rsa._proving_rounds(1024)) == (12, 6)

    def test_smallest_t_within_2_to_the_minus_128(self):
        sizes = range(65, 4097)
        rounds = [rsa._proving_rounds(k) for k in sizes]
        assert all(a >= b for a, b in zip(rounds, rounds[1:]))
        for k, t in zip(sizes, rounds):
            in_range = range(3, k // 9 + 1)
            if t == 64:
                # The worst-case bound of 64 rounds, 4^-64; no t the
                # average-case bound covers reaches it.
                assert all(_dlp_bound(k, u) > 2**-128 for u in in_range), k
            else:
                assert t in in_range and _dlp_bound(k, t) <= 2**-128, k
                assert t - 1 < 3 or _dlp_bound(k, t - 1) > 2**-128, k


class TestMethod1:
    def test_toy_key_accepts_true_pair(self):
        res = method1_factor(TOY, 5, 1)
        assert res.ok
        assert (res.p, res.q) == (239, 379)

    def test_rejection_stages(self):
        # d*e - 1 not divisible by k.
        assert method1_factor(TOY, 3, 7).reject == "inexact-phi"
        # phi estimate exceeds n + 1, so the p + q estimate goes negative.
        assert method1_factor(TOY, 7, 1).reject == "negative-sum"
        # Discriminant is not a perfect square.
        assert method1_factor(TOY, 2, 1).reject == "non-square"

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            method1_factor(TOY, 5, 0)

    @pytest.mark.parametrize("d, k", [(5, 1), (3, 7), (7, 1), (2, 1)])
    def test_try_returns_the_factor_result(self, d, k):
        got = method1_remainder(TOY.n, k, d * TOY.e - k * TOY.n)
        assert isinstance(got, Method1Result)
        assert got == method1_factor(TOY, d, k)

    @given(st.integers(min_value=1, max_value=500),
           st.integers(min_value=1, max_value=500))
    def test_only_true_pair_factors(self, d, k):
        res = method1_factor(TOY, d, k)
        if res.ok:
            assert res.p * res.q == TOY.n
            assert (d * TOY.e - 1) % k == 0


class TestKeygenWeak:
    @pytest.mark.parametrize("bits,ratio,seed", [
        (64, 2, 0), (96, 4, 1), (128, 16, 2), (96, 0.5, 3),
    ])
    def test_key_invariants(self, bits, ratio, seed):
        pub, priv = keygen_weak(bits, ratio, seed)
        assert is_probable_prime(priv.p) and is_probable_prime(priv.q)
        assert priv.p < priv.q < 2 * priv.p
        assert pub.n == priv.p * priv.q
        assert priv.phi == (priv.p - 1) * (priv.q - 1)
        assert pub.e * priv.d % priv.phi == 1
        assert pub.e < pub.n
        assert priv.d % 2 == 1
        root4 = isqrt(isqrt(pub.n))
        assert max(3, 0.9 * ratio * root4) - 1 <= priv.d <= 1.1 * ratio * root4

    # The first 32 hex digits of the SHA-256 of repr([(n, e, p, q, d), ...])
    # over seeds 0 and 0xC0FFEE and d ratios 0.5 and 16, as generated before
    # the primality test below 2^64 changed from twelve prime bases to
    # Sinclair's seven.
    @pytest.mark.parametrize("bits, digest", [
        (32, "664d0ca05974cb2397387a6a1cb05264"),
        (64, "cb0a351ecf191171016874907531ea39"),
        (96, "8cc27c4f5a5c381f128da3d381a8c4c2"),
        (128, "3a22c76d51da4f95af1d6f85e02e1bf0"),
        (256, "6aa4c4fa2f925e931e51898142b5d4e9"),
        (512, "07fd7b3e424b6692269f4b4de5afa5f7"),
        (1024, "9708f9a13dd3dc0d78ef60a5d0b17322"),
    ])
    def test_keys_unchanged(self, bits, digest):
        keys = [keygen_weak(bits, ratio, seed) for seed in (0, 0xC0FFEE) for ratio in (0.5, 16)]
        text = repr([(pub.n, pub.e, priv.p, priv.q, priv.d) for pub, priv in keys])
        assert hashlib.sha256(text.encode()).hexdigest()[:32] == digest

    def test_deterministic(self):
        assert keygen_weak(96, 4, 7) == keygen_weak(96, 4, 7)
        assert keygen_weak(96, 4, 7) != keygen_weak(96, 4, 8)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            keygen_weak(16, 4, 0)
        with pytest.raises(ValueError):
            keygen_weak(64, 1 / 512, 0)

    def test_unusable_window(self):
        # d window reaching past phi cannot be satisfied.
        with pytest.raises(GenerationError):
            keygen_weak(64, 2.0**50, 0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=1 << 32))
    def test_d_coprime_to_phi(self, seed):
        _, priv = keygen_weak(64, 4, seed)
        assert gcd(priv.d, priv.phi) == 1


class TestKeyFile:
    def test_roundtrip_full(self, tmp_path):
        path = tmp_path / "key.txt"
        pub, priv = keygen_weak(96, 4, 11)
        write_key(path, pub, priv)
        assert read_key(path) == (pub, priv)

    def test_roundtrip_public_only(self, tmp_path):
        path = tmp_path / "key.txt"
        pub, _ = keygen_weak(96, 4, 11)
        write_key(path, pub)
        assert read_key(path) == (pub, None)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "key.txt"
        path.write_text("\nn = 161d5\n\ne = 4649\n")
        pub, priv = read_key(path)
        assert (pub.n, pub.e, priv) == (0x161D5, 0x4649, None)

    @pytest.mark.parametrize("text,line", [
        ("n = xyz\n", 1),                       # not hex
        ("n = 15\nE = 3\n", 2),                 # uppercase name
        ("n = 15\nz = 3\n", 2),                 # unknown field
        ("n = 15\ne = 3\ne = 5\n", 3),          # duplicate
        ("e = 3\n", 0),                         # missing n
        ("n = 15\ne = 3\np = 3\n", 0),          # partial private half
        ("n = 15\ne = 3\np = 3\nq = 5\nd = 3\n", 0),  # p*q != n
        ("n = 1\ne = 3\n", 0),                  # n below 2 * 3
        ("n = 15\ne = 0\n", 0),                 # e below 1
    ])
    def test_format_errors(self, tmp_path, text, line):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(KeyFormatError) as exc_info:
            read_key(path)
        assert exc_info.value.line == line

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_key(tmp_path / "nope.txt")
