"""Unit tests for the fingerprint table used by the meet-in-the-middle search."""

import random
import time
import tracemalloc
from math import gcd

import pytest

from rsacf import (
    FingerprintTable,
    NotInvertibleError,
    fingerprint,
    fingerprint_width,
)
from rsacf.mitm_table import power_chain_fps

N = 104729 * 104723  # product of two primes, coprime to small bases


class TestFingerprint:
    def test_truncation(self):
        assert fingerprint(0xDEADBEEF, 16) == 0xBEEF
        assert fingerprint(0xDEADBEEF, 32) == 0xDEADBEEF

    def test_equal_inputs_equal_outputs(self):
        assert fingerprint(12345, 20) == fingerprint(12345, 20)

    def test_width_range_enforced(self):
        with pytest.raises(ValueError):
            fingerprint(1, 15)
        with pytest.raises(ValueError):
            fingerprint(1, 65)

    def test_width_formula(self):
        assert fingerprint_width(1024) == 28       # 2*10 + 8
        assert fingerprint_width(1 << 14) == 36
        assert fingerprint_width(2) == 16          # clamped low
        assert fingerprint_width(1 << 40) == 64    # clamped high
        assert fingerprint_width(4, 1024) == 28    # takes the max bound


class TestBuild:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            FingerprintTable.build(3, N, 0)
        with pytest.raises(ValueError):
            FingerprintTable.build(0, N, 4)
        with pytest.raises(ValueError):
            FingerprintTable.build(N, N, 4)
        with pytest.raises(ValueError):
            FingerprintTable.build(3, N, 64, w=8)
        with pytest.raises(ValueError):
            FingerprintTable.build(3, N, 64, w=65)

    def test_shared_factor_surfaces(self):
        with pytest.raises(NotInvertibleError) as exc_info:
            FingerprintTable.build(104729 * 2, N, 4)
        assert exc_info.value.gcd == 104729

    def test_build_cost_one_modmul_per_entry(self):
        table = FingerprintTable.build(3, N, 100)
        assert table.modmuls == 99
        assert table.R == 100

    def test_chain_values_are_powers(self):
        fps, modmuls, last = power_chain_fps(3, 3, N, 20, (1 << 40) - 1)
        assert modmuls == 19
        assert last == pow(3, 20, N)
        for r, fp in enumerate(fps, 1):
            assert fp == pow(3, r, N) & ((1 << 40) - 1)

    def test_nominal_bytes_matches_held_memory(self):
        # At w = 16 most of the 2^14 fingerprints repeat, so the lists of
        # repeats hold a share of the bytes.
        R = 1 << 14
        for w in (36, 16):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                table = FingerprintTable.build(3, N, R, w=w)
                held = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert abs(table.nominal_bytes - held) <= held / 10


class TestProbe:
    def test_no_false_negatives(self):
        R = 256
        table = FingerprintTable.build(3, N, R)
        for r in range(1, R + 1):
            assert r in table.probe(pow(3, r, N))

    def test_hits_ascending(self):
        table = FingerprintTable.build(3, N, 256)
        for r in (1, 100, 256):
            hits = table.probe(pow(3, r, N))
            assert hits == sorted(hits)

    def test_miss_on_absent_value(self):
        table = FingerprintTable.build(3, N, 64, w=64)
        # Full-width fingerprints make collisions impossible here.
        assert table.probe(pow(3, 65, N)) == []

    def test_duplicate_fingerprints(self):
        # 2^12 entries in 16-bit fingerprints: many fingerprints repeat.
        R, w = 1 << 12, 16
        table = FingerprintTable.build(3, N, R, w=w)
        low = [pow(3, r, N) & 0xFFFF for r in range(R + 1)]
        shared = {}
        for r in range(1, R + 1):
            shared.setdefault(low[r], []).append(r)
        assert len(shared) < R
        for r in range(1, R + 1):
            assert table.probe(pow(3, r, N)) == shared[low[r]]

    @pytest.mark.parametrize("gcd_filter", [False, True])
    def test_bulk_probe_matches_single_probes(self, gcd_filter):
        R, w = 1 << 10, 16
        table = FingerprintTable.build(3, N, R, w=w)
        rng = random.Random(3)
        # Half the stream is stored powers, half random residues.
        targets = [pow(3, rng.randrange(1, R + 1), N) if i % 2 else
                   rng.randrange(2, N) for i in range(600)]
        expected = [(s, r) for s, x in enumerate(targets, 1)
                    for r in table.probe(x, s, gcd_filter)]
        fps = [fingerprint(x, w) for x in targets]
        assert table.probe_fp(fps, gcd_filter) == expected
        assert len(expected) > 100

    def test_equal_fingerprints_cost_linear_time(self):
        # Each repeat of a fingerprint is appended in place, so 2^16 equal
        # fingerprints, as the constant stream at anchor -1 gives, take
        # milliseconds; copying the exponents per repeat would take seconds.
        count = 1 << 16
        table = FingerprintTable(32)
        t0 = time.perf_counter()
        table.extend([2] * count)
        hits = table.probe(2)
        elapsed = time.perf_counter() - t0
        assert hits == list(range(1, count + 1))
        assert elapsed < 1

    def test_counters(self):
        # Without the gcd filter a probe visits no row classes.
        table = FingerprintTable.build(3, N, 64)
        table.probe(pow(3, 5, N))
        assert table.probes == 1
        assert table.rows_examined == table.rows_skipped == 0


class TestGcdRows:
    def test_filter_keeps_every_coprime_hit(self):
        R = 256
        table = FingerprintTable.build(3, N, R)
        for s in range(1, 31):
            for r in random.Random(s).sample(range(1, R + 1), 8):
                target = pow(3, r, N)
                plain = table.probe(target, s)
                filtered = table.probe(target, s, gcd_filter=True)
                assert set(filtered) <= set(plain)
                for hit in plain:
                    if gcd(hit, s) == 1:
                        assert hit in filtered

    def test_skip_fraction_positive(self):
        table = FingerprintTable.build(3, N, 512)
        rng = random.Random(0)
        for s in range(1, 61):
            table.probe(rng.randrange(2, N), s, gcd_filter=True)
        assert table.rows_skipped > 0
        total = table.rows_skipped + table.rows_examined
        assert table.rows_skipped / total >= 0.25
