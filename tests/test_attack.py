"""Unit tests for the three attack engines and their shared plumbing."""

import random
import time
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from rsacf import (
    AttackConfig,
    PublicKey,
    approximation_target,
    keygen_weak,
    run_attack,
    vvt_exhaustive,
    wiener_classic,
)
from rsacf import attack, contfrac
from rsacf.attack import APPROX_MODES, BOUND_MODES, VARIANTS, anchor_index
from rsacf.rsa import is_probable_prime

TOY = PublicKey(90581, 17993)  # p = 239, q = 379, d = 5, k = 1

# 96-bit modulus, d about 4 * n^0.25; recoverable only through the minus
# form d = r*q_{m+1} - s*q_m within (r, s) bounds (16, 16).
MINUS_ONLY_SEEDS = (4590906539325665225, 5165043997650783813)


# Odd primes below 2^12, for hand-built moduli of two or three factors.
SMALL_PRIMES = [p for p in range(3, 1 << 12) if is_probable_prime(p)]


def _key(primes, d):
    """The public key of n = prod(primes) with secret exponent d."""
    return PublicKey(prod(primes), pow(d, -1, prod(p - 1 for p in primes)))


def _record_windows(monkeypatch):
    """Record (p0, q0, p1, q1, r_max, s_max) of every mitm window run."""
    windows = []
    window = attack._WINDOWS["mitm"]

    def record(pub, cfg, p0, q0, p1, q1, r_max, s_max, stats):
        windows.append((p0, q0, p1, q1, r_max, s_max))
        return window(pub, cfg, p0, q0, p1, q1, r_max, s_max, stats)

    monkeypatch.setitem(attack._WINDOWS, "mitm", record)
    return windows


class TestApproximationTarget:
    def test_plain(self):
        target, bound = approximation_target(TOY, "plain")
        assert target == Fraction(17993, 90581)
        assert bound == Fraction(2122, 1000) * Fraction(17993, 90581 * 300)

    def test_improved_denominator(self):
        # n + 1 - ceil(2*sqrt(n)) with ceil(2*sqrt(90581)) = 602.
        target, bound = approximation_target(TOY, "improved")
        assert target == Fraction(17993, 89980)
        assert bound == Fraction(1221, 10000) * Fraction(17993, 90581 * 300)

    def test_improved_closer_to_true_ratio(self):
        pub, priv = keygen_weak(96, 8, 3)
        k = (priv.d * pub.e - 1) // priv.phi
        true = Fraction(k, priv.d)
        plain, _ = approximation_target(pub, "plain")
        improved, _ = approximation_target(pub, "improved")
        assert abs(improved - true) < abs(plain - true)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            approximation_target(TOY, "magic")


class TestAttackConfig:
    def test_valid_default(self):
        AttackConfig(variant="mitm", r_max=4, s_max=4).validate()

    @pytest.mark.parametrize("kwargs", [
        {"variant": "nope"},
        {"variant": "mitm", "bound_mode": "nope", "r_max": 1, "s_max": 1},
        {"variant": "mitm", "r_max": 1, "s_max": 1, "approx": "nope"},
        {"variant": "mitm"},                                # missing bounds
        {"variant": "vvt", "r_max": 4},                     # missing s_max
        {"variant": "mitm", "bound_mode": "fixed4d"},      # missing d_ratio
        {"variant": "mitm", "bound_mode": "quotient", "d_ratio": 0},
        {"variant": "vvt", "r_max": -3, "s_max": 4},        # non-positive bound
        {"variant": "mitm", "bound_mode": "quotient", "d_ratio": float("inf")},
        {"variant": "vvt", "bound_mode": "fixed4d", "d_ratio": float("nan")},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            AttackConfig(**kwargs).validate()


class TestWienerClassic:
    def test_toy_key(self):
        res = wiener_classic(TOY)
        assert res.recovered
        assert (res.d, res.k, res.p, res.q) == (5, 1, 239, 379)

    def test_seeded_weak_keys(self):
        rng = random.Random(17)
        for _ in range(20):
            pub, priv = keygen_weak(96, 0.3, rng.randrange(1 << 63))
            res = wiener_classic(pub)
            assert res.recovered and res.d == priv.d

    def test_exhausts_on_large_d(self):
        # d around n^0.4 is far outside the convergent family.
        pub, _ = keygen_weak(64, 776.0, 0)
        assert wiener_classic(pub).outcome == "exhausted"


class TestVvtExhaustive:
    def test_extends_wiener(self):
        pub, priv = keygen_weak(96, 16, 0)
        assert wiener_classic(pub).outcome == "exhausted"
        res = vvt_exhaustive(pub, AttackConfig(variant="vvt", r_max=64, s_max=64))
        assert res.recovered and res.d == priv.d
        assert res.p * res.q == pub.n

    def test_minus_form(self):
        for seed in MINUS_ONLY_SEEDS:
            pub, priv = keygen_weak(96, 4, seed)
            plus = vvt_exhaustive(
                pub, AttackConfig(variant="vvt", r_max=16, s_max=16))
            assert plus.outcome == "exhausted"
            minus = vvt_exhaustive(
                pub, AttackConfig(variant="vvt", r_max=16, s_max=16,
                                  probe_minus_form=True))
            assert minus.recovered and minus.d == priv.d

    def test_success_rate_with_simple_bounds(self):
        # (4D, 4D) bounds with the minus form recover the bulk of D = 4 keys.
        rng = random.Random(4)
        cfg = AttackConfig(variant="vvt", r_max=16, s_max=16,
                           probe_minus_form=True)
        hits = 0
        for _ in range(60):
            pub, priv = keygen_weak(96, 4, rng.randrange(1 << 63))
            res = vvt_exhaustive(pub, cfg)
            hits += res.recovered and res.d == priv.d
        assert hits >= 54  # measured 193/200 at this configuration

    @pytest.mark.parametrize("bounds", [
        {"r_max": 32, "s_max": 32},
        {"bound_mode": "fixed4d", "d_ratio": 7.9},  # ceil(4 * 7.9) = 32
    ], ids=["explicit", "fixed-4d"])
    def test_trial_count_is_exact(self, bounds):
        # Exhausted key: every trial is made, so the count is the Wiener
        # pass and one trial per coprime (r, s) pair per anchor, all counted
        # here from scratch.
        pub, _ = keygen_weak(96, 2**16, 3)
        R = S = 32
        res = vvt_exhaustive(pub, AttackConfig(variant="vvt", **bounds))
        assert res.outcome == "exhausted"
        assert res.stats.m_tried == 3
        target, _ = approximation_target(pub)
        num, den = target.numerator, target.denominator
        convergents = []  # (k, d)
        h0, h1, k0, k1 = 0, 1, 1, 0
        while den:
            a, num, den = num // den, den, num % den
            h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
            convergents.append((h1, k1))
        wiener = sum(1 for k, d in convergents if k >= 1 and d >= 1)
        coprime = sum(1 for r in range(1, R + 1) for s in range(1, S + 1)
                      if gcd(r, s) == 1)
        assert res.stats.method1_trials == wiener + 3 * coprime == 1991

    def test_bound_modes(self):
        pub, priv = keygen_weak(96, 4, 5)
        for mode in ("fixed4d", "quotient"):
            res = vvt_exhaustive(
                pub, AttackConfig(variant="vvt", bound_mode=mode, d_ratio=4))
            assert res.recovered and res.d == priv.d


class TestMitmAttack:
    def test_recovers_weak_key(self):
        pub, priv = keygen_weak(96, 16, 0)
        res = run_attack(pub, AttackConfig(variant="mitm", r_max=64, s_max=64))
        assert res.recovered and res.d == priv.d
        assert res.stats.table_bytes > 0

    def test_modmul_budget_linear_in_bounds(self):
        pub, _ = keygen_weak(96, 16, 0)
        res = run_attack(pub, AttackConfig(variant="mitm", r_max=64, s_max=64))
        assert res.stats.modmuls <= 4 * (64 + 64) * max(res.stats.m_tried, 1)

    def test_agrees_with_exhaustive_oracle(self):
        # The plain plus form, then the minus form with the improved
        # approximation, with gcd rows off and on.
        minus = {"probe_minus_form": True, "approx": "improved"}
        rng = random.Random(8)
        for _ in range(25):
            pub, priv = keygen_weak(96, 4, rng.randrange(1 << 63))
            for extra, gcd_rows in (({}, False), (minus, False), (minus, True)):
                cfg_v = AttackConfig(variant="vvt", r_max=16, s_max=16, **extra)
                cfg_m = AttackConfig(variant="mitm", r_max=16, s_max=16,
                                     gcd_rows=gcd_rows, **extra)
                rv, rm = vvt_exhaustive(pub, cfg_v), run_attack(pub, cfg_m)
                assert rv.outcome == rm.outcome
                if rv.recovered:
                    assert (rv.d, rv.k) == (rm.d, rm.k)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(d_ratio=st.floats(0.25, 4), seed=st.integers(0, 2**63 - 1),
           bound_mode=st.sampled_from(BOUND_MODES),
           r_max=st.integers(1, 16), s_max=st.integers(1, 16),
           approx=st.sampled_from(APPROX_MODES),
           gcd_rows=st.booleans(), minus_form=st.booleans())
    # Beyond Wiener, recovered inside a quotient-bound window of 418 pairs.
    @example(d_ratio=2, seed=443, bound_mode="quotient", r_max=1, s_max=1,
             approx="plain", gcd_rows=False, minus_form=False)
    @example(d_ratio=4, seed=0, bound_mode="explicit", r_max=2, s_max=2,
             approx="plain", gcd_rows=True, minus_form=True)  # exhausted
    def test_agrees_with_oracle_over_bound_modes(
            self, d_ratio, seed, bound_mode, r_max, s_max, approx, gcd_rows,
            minus_form):
        # Two-prime keys only: on an n with three or more prime factors a
        # fingerprint collision may pass the factor check (see the README).
        pub, _ = keygen_weak(96, d_ratio, seed)
        cfg = AttackConfig(variant="mitm", r_max=r_max, s_max=s_max,
                           bound_mode=bound_mode, d_ratio=d_ratio, approx=approx,
                           gcd_rows=gcd_rows, probe_minus_form=minus_form)
        # Keep the oracle's quadratic work small: at most 2^14 (r, s) pairs
        # over all anchors tried.
        target, bound = approximation_target(pub, approx)
        cf = contfrac.expand(target)
        anchors = attack._m_candidates(cf, target, bound, cfg)
        assume(sum(r * s for r, s in (attack._bounds_for(cfg, cf, m) for m in anchors))
               <= 1 << 14)
        oracle, mitm = vvt_exhaustive(pub, cfg), run_attack(pub, cfg)
        event(f"{bound_mode} {oracle.outcome}")
        assert mitm.outcome == oracle.outcome
        assert (mitm.d, mitm.k) == (oracle.d, oracle.k)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(primes=st.lists(st.sampled_from(SMALL_PRIMES), min_size=2, max_size=3,
                           unique=True),
           d=st.integers(3, 1 << 10), r_max=st.integers(1, 16),
           s_max=st.integers(1, 16), approx=st.sampled_from(APPROX_MODES),
           gcd_rows=st.booleans(), minus_form=st.booleans())
    def test_small_odd_moduli(self, primes, d, r_max, s_max, approx, gcd_rows,
                              minus_form):
        # Any odd n of two or three distinct primes. On two primes the
        # engines agree; on three a fingerprint collision may pass the
        # factor check with a composite factor, so only p * q == n holds
        # (the README carve-out).
        while gcd(d, prod(p - 1 for p in primes)) != 1:
            d += 1
        pub = _key(primes, d)
        cfg = AttackConfig(r_max=r_max, s_max=s_max, approx=approx,
                           gcd_rows=gcd_rows, probe_minus_form=minus_form)
        oracle, mitm = vvt_exhaustive(pub, cfg), run_attack(pub, cfg)
        event(f"{len(primes)} primes: {oracle.outcome}, {mitm.outcome}")
        for res in (oracle, mitm):
            assert res.outcome in ("recovered", "exhausted")
            if res.recovered:
                assert 1 < res.p and res.p * res.q == pub.n
        if len(primes) == 2:
            assert (mitm.outcome, mitm.d, mitm.k) == (oracle.outcome, oracle.d, oracle.k)

    def test_agrees_with_oracle_at_anchor_minus_one(self):
        # At anchor -1, q_{-1} = 0, so the stream 2*b^s is the constant 2
        # and d = r: keys with a small d that Wiener misses (an unbalanced
        # n) are found there, the 96-bit keys are not.
        keys = [_key((1009, 1000000007), 37), _key((101, 2**61 - 1), 47),
                _key((7, 1000003), 19)]
        keys += [keygen_weak(96, ratio, seed)[0] for ratio, seed in
                 ((2**20, 123), (4, 5), (16, 0))]
        recovered = 0
        for pub in keys:
            for R, S, minus_form in ((64, 64, False), (64, 16, True), (8, 64, False)):
                cfg = AttackConfig(r_max=R, s_max=S, probe_minus_form=minus_form,
                                   m_candidates=(-1,))
                oracle, mitm = vvt_exhaustive(pub, cfg), run_attack(pub, cfg)
                assert (mitm.outcome, mitm.d, mitm.k) == (oracle.outcome, oracle.d, oracle.k)
                recovered += mitm.recovered
        assert 0 < recovered < 3 * len(keys)

    def test_anchor_minus_one_window_is_linear(self):
        # The constant stream at anchor -1 repeats one fingerprint S times.
        # Each repeat is stored in O(1), so this window costs about what
        # any other anchor's does (about 0.1 s); storing the repeats in
        # quadratic time would take about 2 s.
        pub, _ = keygen_weak(96, 2**20, 123)
        t0 = time.perf_counter()
        res = run_attack(pub, AttackConfig(r_max=1 << 16, s_max=1 << 16,
                                           m_candidates=(-1,)))
        elapsed = time.perf_counter() - t0
        assert res.outcome == "exhausted"
        assert res.stats.modmuls == (1 << 16) - 1 + (1 << 16)
        assert elapsed < 1

    @pytest.mark.parametrize("d_ratio, seed, outcome, gcd_rows", [
        (2**20, 123, "exhausted", True),
        (16, 0, "recovered", True),  # beyond Wiener, so recovered inside a window
        (2**20, 123, "exhausted", False),
        (16, 0, "recovered", False),
    ], ids=["exhausted", "recovered", "exhausted-no-rows", "recovered-no-rows"])
    def test_probe_counters(self, monkeypatch, d_ratio, seed, outcome, gcd_rows):
        # Per anchor, each stage looks its new r up in the index of each
        # stream's earlier s (empty at the first stage), and the new s of
        # both streams up in the index of r. A window stops after the stage
        # that recovers, the first whose bound covers the key's (r, s). With
        # the filter a lookup at s visits the 30 classes of r mod 30 and
        # skips a class c when gcd(c, s, 30) > 1; a lookup of r counts no
        # classes, and without the filter there are none to count.
        pub, _ = keygen_weak(96, d_ratio, seed)
        assert wiener_classic(pub).outcome == "exhausted"
        monkeypatch.setattr(attack, "MITM_FIRST_STAGE", 16)  # stages 16, 32, 64
        windows = _record_windows(monkeypatch)
        R = S = 64
        res = run_attack(pub, AttackConfig(
            variant="mitm", r_max=R, s_max=S, gcd_rows=gcd_rows,
            probe_minus_form=True))
        assert res.outcome == outcome
        tops = [R] * len(windows)  # the bound of each window's last stage
        if res.recovered:
            p0, q0, p1, q1 = windows[-1][:4]
            # d = r*q1 + t*q0 and k = r*p1 + t*p0, with t = -s in the minus form.
            det = q1 * p0 - q0 * p1
            r, t = (res.d * p0 - res.k * q0) // det, (res.k * q1 - res.d * p1) // det
            assert (r * q1 + t * q0, r * p1 + t * p0) == (res.d, res.k)
            top = attack.MITM_FIRST_STAGE
            while top < max(r, abs(t)):
                top *= 2
            assert top < R  # the window stops before its bounds
            tops[-1] = top
        first = attack.MITM_FIRST_STAGE
        examined = skipped = 0
        for top in tops:
            for s in range(1, top + 1):
                admitted = sum(1 for c in range(30) if gcd(c, s, 30) == 1)
                examined += 2 * admitted
                skipped += 2 * (30 - admitted)
        if not gcd_rows:
            examined = skipped = 0
        assert res.stats.probes == sum(2 * top + 2 * (top - first) for top in tops)
        assert res.stats.rows_examined == examined
        assert res.stats.rows_skipped == skipped

    @pytest.mark.parametrize("minus_form", [False, True], ids=["plus", "minus"])
    @pytest.mark.parametrize("gcd_rows", [False, True], ids=["no-rows", "rows"])
    def test_each_match_tried_once(self, monkeypatch, minus_form, gcd_rows):
        # 16-bit fingerprints over 300 x 300 pairs match by accident a few
        # times per anchor. Whatever stage finds a match, the window must
        # try each (r, s, sign) whose fingerprints match exactly once, and
        # its chains must cost what one full table and one full stream
        # per sign cost.
        monkeypatch.setattr(attack, "fingerprint_width", lambda r_max, s_max=0: 16)
        windows = _record_windows(monkeypatch)
        pub, _ = keygen_weak(96, 2**20, 123)
        n, e = pub.n, pub.e
        R = S = 300
        res = run_attack(pub, AttackConfig(
            variant="mitm", r_max=R, s_max=S, gcd_rows=gcd_rows,
            probe_minus_form=minus_form))
        assert res.outcome == "exhausted"
        matches = 0
        for p0, q0, p1, q1, _, _ in windows:
            a, bq = pow(2, e * q1, n), pow(2, e * q0, n)
            rs_of = {}
            for r in range(1, R + 1):
                rs_of.setdefault(pow(a, r, n) & 0xFFFF, []).append(r)
            for base in (pow(bq, -1, n), bq)[:1 + minus_form]:
                for s in range(1, S + 1):
                    for r in rs_of.get(2 * pow(base, s, n) % n & 0xFFFF, ()):
                        matches += not gcd_rows or gcd(r, s, 30) == 1
        assert res.stats.collisions == matches > 0
        assert res.stats.modmuls == len(windows) * (R - 1 + (1 + minus_form) * S)

    @pytest.mark.parametrize("R, S, r_stored, s_stored", [
        (300, 300, 300, 256),  # the last stage's s segment is not stored
        (300, 100, 128, 100),  # nor any r segment after the last s one
        (50, 300, 50, 0),      # one r segment, looked up by every s
    ])
    def test_indexes_hold_what_later_lookups_use(self, monkeypatch, R, S,
                                                 r_stored, s_stored):
        # Stages 64, 128, 256, ...: a segment is stored only when a later
        # stage looks it up from the other side.
        indexes = []

        class Kept(attack.FingerprintTable):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                indexes.append(self)

        monkeypatch.setattr(attack, "FingerprintTable", Kept)
        pub, _ = keygen_weak(96, 2**20, 123)
        res = run_attack(pub, AttackConfig(variant="mitm", r_max=R, s_max=S,
                                           m_candidates=(anchor_index(pub),)))
        assert res.outcome == "exhausted"
        r_index, s_index = indexes  # made in this order
        assert (r_index.R, s_index.R) == (r_stored, s_stored)

    @pytest.mark.parametrize("first_stage", [1, 4])
    def test_stages_agree_with_oracle(self, monkeypatch, first_stage):
        # Small first stages, so that keys are found at every stage of a
        # window: the outcome and (d, k) stay the oracle's, with each flag.
        monkeypatch.setattr(attack, "MITM_FIRST_STAGE", first_stage)
        rng = random.Random(first_stage)
        for i in range(24):
            pub, _ = keygen_weak(96, 4, rng.randrange(1 << 63))
            flags = {"gcd_rows": bool(i & 1), "probe_minus_form": bool(i & 2),
                     "approx": "improved" if i & 4 else "plain"}
            oracle = vvt_exhaustive(pub, AttackConfig(
                variant="vvt", r_max=16, s_max=12, **flags))
            mitm = run_attack(pub, AttackConfig(
                variant="mitm", r_max=16, s_max=12, **flags))
            assert (mitm.outcome, mitm.d, mitm.k) == (oracle.outcome, oracle.d, oracle.k)

    def test_recovered_key_costs_its_own_rs(self):
        # A 1024-bit key whose (r, s) lies within the first stage of its
        # first anchor: the window stops there, long before the 2^15 chain
        # steps of a full table and stream at R = S = 2^14.
        pub, priv = keygen_weak(1024, 4, 0)
        res = run_attack(pub, AttackConfig(variant="mitm", r_max=1 << 14, s_max=1 << 14))
        assert res.recovered and res.d == priv.d
        assert res.stats.m_tried == 1
        assert res.stats.modmuls < 1 << 9

    def test_minus_form_matches_oracle(self):
        for seed in MINUS_ONLY_SEEDS:
            pub, priv = keygen_weak(96, 4, seed)
            res = run_attack(
                pub, AttackConfig(variant="mitm", r_max=16, s_max=16,
                                  probe_minus_form=True))
            assert res.recovered and res.d == priv.d

    def test_gcd_rows_do_not_change_outcome(self):
        rng = random.Random(12)
        for _ in range(15):
            pub, priv = keygen_weak(96, 8, rng.randrange(1 << 63))
            base = run_attack(
                pub, AttackConfig(variant="mitm", r_max=32, s_max=32))
            rows = run_attack(
                pub, AttackConfig(variant="mitm", r_max=32, s_max=32,
                                  gcd_rows=True))
            assert base.outcome == rows.outcome
            assert (base.d, base.k) == (rows.d, rows.k)
            if rows.stats.rows_skipped:
                assert rows.stats.probes > 0

    def test_gcd_break(self):
        res = run_attack(PublicKey(2 * 97, 3),
                         AttackConfig(variant="mitm", r_max=4, s_max=4))
        assert res.outcome == "gcd-break"
        assert (res.p, res.q) == (2, 97)

    def test_restricted_window(self):
        pub, _ = keygen_weak(96, 2**20, 123)
        m_prime = anchor_index(pub)
        assert m_prime == 15
        res = run_attack(
            pub, AttackConfig(variant="mitm", r_max=8, s_max=8,
                              m_candidates=(m_prime,)))
        assert res.outcome == "exhausted"
        assert res.stats.m_tried == 1


class TestRunAttack:
    def test_dispatch(self):
        assert run_attack(TOY, AttackConfig(variant="wiener")).recovered
        assert run_attack(TOY, AttackConfig(variant="vvt", r_max=2, s_max=2)).recovered
        assert run_attack(TOY, AttackConfig(variant="mitm", r_max=2, s_max=2)).recovered

    def test_validates_config(self):
        with pytest.raises(ValueError):
            run_attack(TOY, AttackConfig(variant="mitm"))

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("n, e", [
        (8, 3), (12, 3), (16, 9), (194, 3), (4 * 1000003, 3),
    ])
    def test_even_modulus_splits_in_every_variant(self, n, e, variant):
        res = run_attack(PublicKey(n, e),
                         AttackConfig(variant=variant, r_max=4, s_max=4))
        assert res.outcome == "gcd-break"
        assert (res.p, res.q) == (2, n // 2)
