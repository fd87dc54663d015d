"""Unit tests for key material, weak-key generation, and verification."""

from math import gcd

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
    write_key,
)
from rsacf.rsa import is_probable_prime, method1_try

TOY = PublicKey(90581, 17993)  # p = 239, q = 379, d = 5, k = 1


class TestPrimality:
    def test_small_numbers(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(50):
            assert is_probable_prime(n) == (n in primes)

    def test_carmichael_numbers(self):
        for n in (561, 1105, 1729, 41041, 825265):
            assert not is_probable_prime(n)

    def test_large_prime_and_composite(self):
        p = (1 << 127) - 1  # Mersenne prime
        assert is_probable_prime(p)
        assert not is_probable_prime(p * ((1 << 61) - 1))


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
        got = method1_try(TOY.n, TOY.e, d, k)
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
