"""Unit tests for the three attack engines and their shared plumbing."""

import random
import time
from dataclasses import replace
from fractions import Fraction
from itertools import product
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
from rsacf import attack, bench, contfrac, workers
from rsacf.attack import APPROX_MODES, BOUND_MODES, VARIANTS, anchor_index
from rsacf.cli import main
from rsacf.numeric import isqrt
from rsacf.rsa import is_probable_prime, method1_remainder, write_key

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
    """Record (p0, q0, p1, q1, r_max, s_max) of every mitm window opened,
    and check that a window is given the previous one's side exactly when
    its anchor follows that one's, and B alone only if first."""
    windows = []

    def recorder(kind):
        def record(pub, cfg, stats, anchor, r_max, s_max, keep, side, base):
            follows = bool(windows) and windows[-1][2:4] == anchor[:2]
            assert (side is not None) == follows
            assert base is None or side is not None or not windows
            windows.append((*anchor, r_max, s_max))
            return kind(pub, cfg, stats, anchor, r_max, s_max, keep, side, base)
        return record

    for name in ("_StageWindow", "_RootWindow"):
        monkeypatch.setattr(attack, name, recorder(getattr(attack, name)))
    return windows


def _record_indexes(monkeypatch):
    """Every FingerprintTable the attack makes, kept alive, in order."""
    indexes = []

    class Kept(attack.FingerprintTable):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            indexes.append(self)

    monkeypatch.setattr(attack, "FingerprintTable", Kept)
    return indexes


def _pow_cost(exp):
    """Multiplications of a square-and-multiply power: one square per bit
    after the first and one multiply per set bit after the first."""
    return max(exp.bit_length() + bin(exp).count("1") - 2, 0)


def _reference_scan(n, e, p0, q0, p1, q1, r_max, s_max, minus_form):
    """attack.vvt_scan pair by pair: every coprime (r, s), in (s, r, sign)
    order, goes through the factor check of d*e - k*n, the minus form when
    d > 0 and k >= 1."""
    trials = 0
    for s in range(1, s_max + 1):
        for r in range(1, r_max + 1):
            if gcd(r, s) != 1:
                continue
            for t in ((s, -s) if minus_form else (s,)):
                d, k = r * q1 + t * q0, r * p1 + t * p0
                if d < 1 or k < 1:
                    continue
                trials += 1
                got = method1_remainder(n, k, d * e - k * n)
                if got[2] is None:
                    return (d, k, got[0], got[1]), trials
    return None, trials


def _convergents(target):
    """The (numerator, denominator) convergents of a rational, from scratch."""
    num, den = target.numerator, target.denominator
    out = []
    h0, h1, k0, k1 = 0, 1, 1, 0
    while den:
        a, num, den = num // den, den, num % den
        h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
        out.append((h1, k1))
    return out


def _method1_reference(n, e, d, k):
    """The factor check of (d, k), k >= 1, from d*e - 1 itself: (p, q), or
    the reject tag method1_remainder gives."""
    t = d * e - 1
    if t % k:
        return "inexact-phi"
    psum = n + 1 - t // k
    if psum < 0:
        return "negative-sum"
    disc = psum * psum - 4 * n
    root = isqrt(disc) if disc >= 0 else -1
    if root * root != disc:
        return "non-square"
    p, q = (psum - root) // 2, (psum + root) // 2
    if p <= 1 or p * q != n:
        return "product-mismatch"
    return p, q


def _check_wiener_pass(pub):
    """Hold each target's key context to the factor check of d*e - 1 at
    every convergent (k, d), and its Wiener pass to those checks in order;
    return the outcomes and cases met."""
    n, e = pub.n, pub.e
    cases = set()
    for approx in APPROX_MODES:
        context = attack.key_context(pub, approx)
        hit, trials = None, 0
        for k, d in context.cf.convergents:
            if k < 1 or d < 1:
                continue
            rem = d * e - k * n
            got = method1_remainder(n, k, rem)
            want = _method1_reference(n, e, d, k)
            assert (got.reject or (got.p, got.q)) == want
            cases.add(want if isinstance(want, str) else "factored")
            if k > abs(rem - 1):
                cases.add("k > |D - 1|")
            if hit is None:
                trials += 1
                if got.ok:
                    hit = d, k, got.p, got.q
        assert (context.wiener, context.wiener_trials) == (hit, trials)
    return cases


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
        {"variant": "mitm", "r_max": 2**22 + 1, "s_max": 1},       # a side over the cap
        {"variant": "vvt", "r_max": 2**14 + 1, "s_max": 2**14},    # a box over the cap
        {"variant": "mitm", "bound_mode": "fixed4d", "d_ratio": 2**21},  # 4D over the cap
        {"variant": "vvt", "bound_mode": "fixed4d", "d_ratio": 1e308},   # 4D not finite
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            AttackConfig(**kwargs).validate()

    @pytest.mark.parametrize("kwargs", [
        {"variant": "mitm", "r_max": 2**22, "s_max": 2**22},
        {"variant": "vvt", "r_max": 2**14, "s_max": 2**14},
        {"variant": "mitm", "bound_mode": "fixed4d", "d_ratio": 2**20},
        {"variant": "wiener", "r_max": 2**40, "s_max": 2**40},  # no window
        {"variant": "mitm", "bound_mode": "quotient", "d_ratio": 2**40},  # per anchor
    ])
    def test_bounds_at_or_under_the_cap_admitted(self, kwargs):
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


class TestKeyContext:
    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(bits=st.integers(64, 512), log_d=st.floats(-4, 20),
           seed=st.integers(0, (1 << 63) - 1))
    @example(bits=64, log_d=-4, seed=0)  # recovered by the Wiener pass
    @example(bits=512, log_d=20, seed=1)
    def test_wiener_pass_matches_the_factor_check(self, bits, log_d, seed):
        pub, priv = keygen_weak(bits, 2.0**log_d, seed)
        _check_wiener_pass(pub)
        # e > n: the same d, with k grown by d * (n // phi + 1).
        _check_wiener_pass(PublicKey(pub.n, pub.e + (pub.n // priv.phi + 1) * priv.phi))

    def test_wiener_pass_cases(self):
        rng = random.Random(18)
        cases = set()
        for _ in range(8):
            primes = []
            while len(primes) < 3:
                p = rng.getrandbits(40) | 1 << 39 | 1
                if is_probable_prime(p) and p not in primes:
                    primes.append(p)
            phi = prod(p - 1 for p in primes)
            d = rng.randrange(3, 1 << 20) | 1
            while gcd(d, phi) != 1:
                d += 2
            cases |= _check_wiener_pass(_key(primes, d))
        cases |= _check_wiener_pass(TOY)
        assert cases >= {"factored", "inexact-phi", "negative-sum", "non-square",
                         "k > |D - 1|"}, cases

    def test_context_is_the_keys_setup(self):
        pub, _ = keygen_weak(96, 2**20, 123)
        for approx in APPROX_MODES:
            context = attack.key_context(pub, approx)
            target, bound = approximation_target(pub, approx)
            assert (context.pub, context.approx) == (pub, approx)
            assert (context.target, context.bound) == (target, bound)
            assert context.cf == contfrac.expand(target)
            assert context.m_prime == contfrac.locate_m_prime(target, bound)

    def test_run_attack_refuses_another_keys_context(self):
        pub, _ = keygen_weak(96, 16, 0)
        other, _ = keygen_weak(96, 16, 1)
        cfg = AttackConfig(r_max=64, s_max=64)
        with pytest.raises(ValueError, match="context"):
            run_attack(pub, cfg, attack.key_context(other))
        with pytest.raises(ValueError, match="context"):
            run_attack(pub, cfg, attack.key_context(pub, "improved"))
        res = run_attack(pub, cfg, attack.key_context(pub))
        assert (res.outcome, res.stats) == ("recovered", replace(
            run_attack(pub, cfg).stats, wall_time=res.stats.wall_time))


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
        wiener = sum(1 for k, d in _convergents(target) if k >= 1 and d >= 1)
        coprime = sum(1 for r in range(1, R + 1) for s in range(1, S + 1)
                      if gcd(r, s) == 1)
        assert res.stats.method1_trials == wiener + 3 * coprime == 1991

    @pytest.mark.parametrize("seed, offset, minus_form, hit, trials", [
        (3, 0, False, (5, 6), 44),  # plus-form hit at r = 5 of row s = 6
        (3, 0, True, (5, 6), 77),  # the same with the minus form tried
        (4, 1, True, (4, -3), 39),  # minus-form hit at r = 4 of row s = 3
    ], ids=["plus", "plus-with-minus", "minus"])
    def test_trial_count_on_a_hit_row(self, seed, offset, minus_form, hit, trials):
        # The hit lies mid-row at s > 1, so the count stops inside a row:
        # the Wiener pass, then every coprime pair in (s, r, sign) order up
        # to the true (d, k), all counted here from scratch.
        pub, priv = keygen_weak(96, 4, seed)
        R = S = 12
        m = anchor_index(pub) + offset
        res = vvt_exhaustive(pub, AttackConfig(
            variant="vvt", r_max=R, s_max=S, probe_minus_form=minus_form,
            m_candidates=(m,)))
        assert res.recovered and res.d == priv.d
        target, _ = approximation_target(pub)
        convergents = _convergents(target)
        wiener = sum(1 for k, d in convergents if k >= 1 and d >= 1)
        (p0, q0), (p1, q1) = convergents[m], convergents[m + 1]
        tried = [(r, t, r * q1 + t * q0, r * p1 + t * p0)
                 for s in range(1, S + 1) for r in range(1, R + 1) if gcd(r, s) == 1
                 for t in ((s, -s) if minus_form else (s,))]
        tried = [(r, t, d, k) for r, t, d, k in tried if d >= 1 and k >= 1]
        count = [(d, k) for _, _, d, k in tried].index((res.d, res.k)) + 1
        r, t, d, k = tried[count - 1]
        assert (r, t) == hit and (d, k) == (res.d, res.k)
        assert res.stats.method1_trials == wiener + count == wiener + trials

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(bits=st.integers(32, 96), d_ratio=st.sampled_from([0.5, 1, 2, 4, 16]),
           seed=st.integers(0, 2**63 - 1), approx=st.sampled_from(APPROX_MODES),
           pick=st.integers(0, 1 << 10), near=st.booleans(),
           r_max=st.integers(1, 40), s_max=st.integers(1, 64),
           minus_form=st.booleans(), j=st.sampled_from([0, 1, 3]))
    @example(bits=96, d_ratio=4, seed=4, approx="plain", pick=1, near=True,
             r_max=12, s_max=12, minus_form=True, j=0)  # a minus-form hit
    @example(bits=64, d_ratio=1, seed=0, approx="plain", pick=0, near=False,
             r_max=40, s_max=40, minus_form=True, j=3)  # anchor -1 with e > n
    # Rows 15, 30 and 60 (gcd(s, 30) = 15 or 30) start their minus pairs at
    # r = 9, 18 and 35, inside a class of r mod gcd(s, 30); exhausted.
    @example(bits=96, d_ratio=16, seed=3, approx="plain", pick=1, near=True,
             r_max=40, s_max=64, minus_form=True, j=0)
    # Rows 15, 30 and 45 start at r = 3, 6 and 9; a minus-form hit at
    # (r, s) = (10, 47).
    @example(bits=96, d_ratio=16, seed=10, approx="plain", pick=1, near=True,
             r_max=40, s_max=64, minus_form=True, j=0)
    def test_scan_matches_pair_by_pair_reference(
            self, bits, d_ratio, seed, approx, pick, near, r_max, s_max,
            minus_form, j):
        # Any anchor m >= -1 (near: m' to m' + 2, where the keys lie), and
        # e + j*n, which gives the same key but a target above 1 for j > 0.
        pub, _ = keygen_weak(bits, d_ratio, seed)
        e = pub.e + j * pub.n
        target, bound = approximation_target(PublicKey(pub.n, e), approx)
        cf = contfrac.expand(target)
        top = len(cf.convergents) - 2
        m_prime = contfrac.locate_m_prime(target, bound, cf)
        if near and m_prime is not None:
            m = min(m_prime + pick % 3, top)
        else:
            m = pick % (top + 2) - 1
        args = (pub.n, e, *cf.convergent(m), *cf.convergent(m + 1), r_max, s_max,
                minus_form)
        want = _reference_scan(*args)
        event("hit" if want[0] else "exhausted")
        assert attack.vvt_scan(*args) == want

    @pytest.mark.parametrize("minus_form", [False, True])
    def test_row_filter_skips_r_sharing_2_3_5_with_s(self, monkeypatch, minus_form):
        # The filter makes one remainder for each r that shares no prime of
        # 30 with s, from r = 1 (plus form) or the row's first minus pair,
        # r_lo; the window stays in this process (below workers.MIN_WORK).
        pub, _ = keygen_weak(96, 2**16, 11)
        R = S = 60
        target, _ = approximation_target(pub)
        cf = contfrac.expand(target)
        m = anchor_index(pub)
        (p0, q0), (p1, q1) = cf.convergent(m), cf.convergent(m + 1)
        args = (pub.n, pub.e, p0, q0, p1, q1, R, S, minus_form)
        assert p1 > 0 and workers.ways(R * S, pub.n.bit_length()) == 1
        want, inside = 0, 0
        for s in range(1, S + 1):
            w = gcd(s, 30)
            want += sum(1 for r in range(1, R + 1) if gcd(r, w) == 1)
            r_lo = max(s * p0 // p1, s * q0 // q1) + 1
            if minus_form and r_lo <= R:
                want += sum(1 for r in range(r_lo, R + 1) if gcd(r, w) == 1)
                inside += gcd(r_lo, w) > 1
        assert want < 0.7 * R * S * (1 + minus_form)  # vs one remainder a pair
        assert inside or not minus_form  # a row's minus pairs start mid-class
        calls = []
        real_mod = attack.mod

        def counted(a, b):
            calls.append(None)
            return real_mod(a, b)

        with monkeypatch.context() as mp:
            mp.setattr(attack, "mod", counted)
            got = attack.vvt_scan(*args)
        assert len(calls) == want
        assert got[0] is None and got == _reference_scan(*args)

    def test_scan_matches_reference_on_three_primes(self):
        # n = 11 * 13 * 1009 with e inverse to (143 - 1) * (1009 - 1): the
        # factor check passes with the composite p = 143, and other pairs
        # may pass too, so the first in (s, r, sign) order must be found.
        pub = PublicKey(11 * 13 * 1009, pow(5, -1, 142 * 1008))
        hits = 0
        for approx in APPROX_MODES:
            target, _ = approximation_target(pub, approx)
            cf = contfrac.expand(target)
            for m in range(-1, len(cf.convergents) - 1):
                for minus_form in (False, True):
                    args = (pub.n, pub.e, *cf.convergent(m), *cf.convergent(m + 1),
                            24, 24, minus_form)
                    want = _reference_scan(*args)
                    hits += want[0] is not None
                    assert attack.vvt_scan(*args) == want
        assert hits

    def test_coprime_count(self):
        # The closed-form count against gcds, for every s <= 1024 and random
        # (lo, hi], with the primes vvt_scan hands it for r_max = hi.
        rng = random.Random(15)
        for s in range(1, 1025):
            lo = rng.randrange(0, 200)
            hi = lo + rng.randrange(0, 200)
            divisors = attack._prime_divisors(s, hi)
            assert divisors == [p for p in range(2, min(s, hi) + 1)
                                if s % p == 0 and is_probable_prime(p)]
            assert attack._coprime_count(lo, hi, divisors) == sum(
                1 for r in range(lo + 1, hi + 1) if gcd(r, s) == 1)

    def test_coprime_pairs(self):
        # A block's plus pairs in closed form against gcds, for blocks that
        # start at row 1 and past it, empty ones and r_max above and below
        # the block's rows.
        rng = random.Random(21)
        for _ in range(300):
            r_max, s_lo = rng.randrange(1, 120), rng.randrange(1, 120)
            s_hi = s_lo + rng.randrange(0, 120)
            assert attack._coprime_pairs(r_max, s_lo, s_hi) == sum(
                1 for s in range(s_lo, s_hi) for r in range(1, r_max + 1)
                if gcd(r, s) == 1)

    def test_bound_modes(self):
        pub, priv = keygen_weak(96, 4, 5)
        for mode in ("fixed4d", "quotient"):
            res = vvt_exhaustive(
                pub, AttackConfig(variant="vvt", bound_mode=mode, d_ratio=4))
            assert res.recovered and res.d == priv.d


class TestQuotientBounds:
    def test_true_rs_lies_in_a_tried_box(self):
        # The quotient bounds' claim, under each target's own error
        # constant: a key with d about D * n^0.25 that the Wiener pass
        # misses has its (r, s), solved from the private key, inside the
        # box rs_bounds gives at one of the anchors the search tries (|s|
        # for the minus form). Measured: at most 0.38 of a bound under the
        # plain target and 0.28 under the improved one, over 1,800 keys.
        rng = random.Random(16)
        used, checked = {}, 0
        for approx in APPROX_MODES:
            for D in (2, 16, 256):
                cfg = AttackConfig(bound_mode="quotient", d_ratio=D, approx=approx)
                for _ in range(20):
                    pub, priv = keygen_weak(rng.choice((96, 128, 192, 256)), D,
                                            rng.randrange(1 << 63))
                    d, k = priv.d, (pub.e * priv.d - 1) // priv.phi
                    context = attack.key_context(pub, approx)
                    cf = context.cf
                    if (k, d) in cf.convergents:
                        continue
                    fractions = []
                    for m in attack._m_candidates(context, cfg):
                        (p0, q0), (p1, q1) = cf.convergent(m), cf.convergent(m + 1)
                        det = q1 * p0 - q0 * p1
                        r, s = (d * p0 - k * q0) * det, (q1 * k - p1 * d) * det
                        r_max, s_max = attack._bounds_for(cfg, cf, m)
                        if r >= 1:
                            fractions.append(max(r / r_max, abs(s) / s_max))
                    used[approx, D] = max(used.get((approx, D), 0),
                                          min(fractions, default=float("inf")))
                    checked += 1
        assert checked >= 60
        assert max(used.values()) <= 1, used

    def test_m_prime_box_holds_what_later_boxes_hold(self):
        # A key that a later anchor's quotient box holds, m' + 1's or
        # m' + 2's, lies in m''s box too: in the plus form (0 <= s) and
        # with the minus form's |s|. So a quotient search of m' alone would
        # miss no key that the later anchors hold. Keys with no m' and keys
        # the Wiener pass recovers are skipped.
        checked, later = 0, 0
        for bits, D, seed in product((96, 128), (4, 16, 64), range(60)):
            pub, priv = keygen_weak(bits, D, seed)
            d, k = priv.d, (pub.e * priv.d - 1) // priv.phi
            for approx in APPROX_MODES:
                cfg = AttackConfig(bound_mode="quotient", d_ratio=D, approx=approx)
                context = attack.key_context(pub, approx)
                if context.m_prime is None or context.wiener is not None:
                    continue
                held = []  # per anchor: (plus form, minus form's |s|)
                for m in attack._m_candidates(context, cfg):
                    r, s = bench._rs_at(context.cf, m, d, k)
                    r_max, s_max = attack._bounds_for(cfg, context.cf, m)
                    held.append((1 <= r <= r_max and 0 <= s <= s_max,
                                 1 <= r <= r_max and abs(s) <= s_max))
                for form in (0, 1):
                    if any(box[form] for box in held[1:]):
                        later += 1
                        assert held[0][form], (bits, D, approx, seed, held)
                checked += 1
        assert checked >= 500 and later > 0

    @pytest.mark.parametrize("approx", APPROX_MODES)
    def test_next_s_bound_covers_this_r_bound(self, approx):
        # Anchor m hands its plus stream, r up to r_max(m), to anchor m + 1
        # as its s side, and keeps all of it without reading anchor m + 1's
        # bounds: under quotient bounds s_max(m + 1) >= r_max(m) at every
        # anchor, since both hold t3 * (a_{m+2} + 1) * D. The expansions'
        # last anchors read quotients past their end as 0.
        rng = random.Random(27)
        for _ in range(200):
            x = Fraction(rng.randrange(1, 1 << rng.choice((16, 64, 256))),
                         rng.randrange(1, 1 << 64))
            cf = contfrac.expand(x)
            cfg = AttackConfig(bound_mode="quotient", approx=approx,
                               d_ratio=rng.choice((2**-8, 0.5, 1, 3.7, 2**16)))
            for m in range(-1, len(cf) - 2):
                assert attack._bounds_for(cfg, cf, m + 1)[1] >= attack._bounds_for(cfg, cf, m)[0]


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
        context = attack.key_context(pub, approx)
        cf = context.cf
        anchors = attack._m_candidates(context, cfg)
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

    def test_anchor_minus_one_window_is_linear(self, monkeypatch):
        # At anchor -1 the s side is the constant 2 and d = r, so the
        # window builds only the chain a^r = 2^(e*r), one step per r from 1
        # after the power 2^e, and looks 2 up in its index once per stage.
        # It costs about what any other anchor's window does (about 0.1 s);
        # storing the S repeats of a constant stream in quadratic time
        # took 2 s. A segment split over workers adds one power a range
        # after its first, below the segment's length.
        pub, _ = keygen_weak(96, 2**20, 123)
        exps = []
        charged = attack._charge

        def record(exp, stats):
            exps.append(exp)
            return charged(exp, stats)

        monkeypatch.setattr(attack, "_charge", record)
        t0 = time.perf_counter()
        res = run_attack(pub, AttackConfig(r_max=1 << 16, s_max=1 << 16,
                                           m_candidates=(-1,)))
        elapsed = time.perf_counter() - t0
        assert res.outcome == "exhausted"
        assert exps[0] == pub.e and all(x <= 1 << 15 for x in exps[1:])
        assert res.stats.modmuls == (1 << 16) + sum(map(_pow_cost, exps))
        assert res.stats.probes == 11  # stages 64, 128, ..., 2^16
        assert elapsed < 1

    @pytest.mark.parametrize("d_ratio, seed, outcome, gcd_rows", [
        (2**20, 123, "exhausted", True),
        (16, 0, "recovered", True),  # beyond Wiener, so recovered inside a window
        (2**20, 123, "exhausted", False),
        (16, 0, "recovered", False),
    ], ids=["exhausted", "recovered", "exhausted-no-rows", "recovered-no-rows"])
    def test_probe_counters(self, monkeypatch, d_ratio, seed, outcome, gcd_rows):
        # Three consecutive anchors. At the first, each stage looks the new
        # r of both streams (plus and minus form) up in the index of the s
        # side's earlier s (empty at the first stage), then the new s up in
        # both streams' indexes. Each later anchor's s side is the plus
        # stream of the one before, stored up to R = S, so it never grows:
        # a stage only looks the new r of both streams up in it. A window
        # stops after the stage that recovers, the first whose bound covers
        # the key's (r, s), or its r alone at a later anchor. With the
        # filter a lookup at s visits the 30 classes of r mod 30 and skips a
        # class c when gcd(c, s, 30) > 1; a lookup of r counts no classes,
        # and without the filter there are none to count.
        pub, _ = keygen_weak(96, d_ratio, seed)
        assert wiener_classic(pub).outcome == "exhausted"
        monkeypatch.setattr(attack, "MITM_FIRST_STAGE", 16)  # stages 16, 32, 64
        windows = _record_windows(monkeypatch)
        R = S = 64
        res = run_attack(pub, AttackConfig(
            variant="mitm", r_max=R, s_max=S, gcd_rows=gcd_rows,
            probe_minus_form=True))
        assert res.outcome == outcome
        assert len(windows) == 3 or res.recovered
        tops = [R] * len(windows)  # the bound of each window's last stage
        if res.recovered:
            p0, q0, p1, q1 = windows[-1][:4]
            # d = r*q1 + t*q0 and k = r*p1 + t*p0, with t = -s in the minus form.
            det = q1 * p0 - q0 * p1
            r, t = (res.d * p0 - res.k * q0) // det, (res.k * q1 - res.d * p1) // det
            assert (r * q1 + t * q0, r * p1 + t * p0) == (res.d, res.k)
            top = attack.MITM_FIRST_STAGE
            while top < (max(r, abs(t)) if len(windows) == 1 else r):
                top *= 2
            assert top < R  # the window stops before its bounds
            tops[-1] = top
        first = attack.MITM_FIRST_STAGE
        examined = skipped = 0
        for s in range(1, tops[0] + 1):
            admitted = sum(1 for c in range(30) if gcd(c, s, 30) == 1)
            examined += 2 * admitted
            skipped += 2 * (30 - admitted)
        if not gcd_rows:
            examined = skipped = 0
        probes = 2 * tops[0] + 2 * (tops[0] - first) + sum(2 * top for top in tops[1:])
        assert res.stats.probes == probes
        assert res.stats.rows_examined == examined
        assert res.stats.rows_skipped == skipped

    @pytest.mark.parametrize("minus_form", [False, True], ids=["plus", "minus"])
    @pytest.mark.parametrize("gcd_rows", [False, True], ids=["no-rows", "rows"])
    def test_each_match_tried_once(self, monkeypatch, minus_form, gcd_rows):
        # 16-bit fingerprints over 300 x 300 pairs match by accident a few
        # times per anchor. Whatever stage finds a match, the window must
        # try each (r, s, sign) whose fingerprints match exactly once. With
        # A_j = 2^(e*q_{j+1}), a = A_m and b = A_{m-1}, anchors m', m'+2
        # match the s side 2*b^-s against a^r (plus form) and 4*a^-r (minus
        # form), and anchor m'+1 matches b^s against 2*a^-r and a^r/2; the
        # s side of each later anchor is the plus stream of the one before.
        # So the chains cost one stream per sign at each anchor and one s
        # side at the first, one step per value, plus the powers: B = 2^e
        # and b = B^q0 at the first anchor, a = B^q1 at each, and one
        # modular inverse per form a^-r or b^-s.
        monkeypatch.setattr(attack, "MITM_WIDTH", 16)
        windows = _record_windows(monkeypatch)
        pub, _ = keygen_weak(96, 2**20, 123)
        n, e = pub.n, pub.e
        R = S = 300
        res = run_attack(pub, AttackConfig(
            variant="mitm", r_max=R, s_max=S, gcd_rows=gcd_rows,
            probe_minus_form=minus_form))
        assert res.outcome == "exhausted"
        assert len(windows) == 3
        matches = modmuls = 0
        for i, (p0, q0, p1, q1, _, _) in enumerate(windows):
            a, b = pow(2, e * q1, n), pow(2, e * q0, n)
            halved = i % 2  # the s side is b^s
            if i == 0:
                modmuls += _pow_cost(e) + _pow_cost(q0) + 1 + S
            modmuls += _pow_cost(q1) + R + minus_form * R + (halved or minus_form)
            side = ((b, 1) if halved else (pow(b, -1, n), 2))
            forms = [(pow(a, -1, n), 2) if halved else (a, 1),
                     (a, pow(2, -1, n)) if halved else (pow(a, -1, n), 4)]
            ss_of = {}
            for s in range(1, S + 1):
                ss_of.setdefault(side[1] * pow(side[0], s, n) % n & 0xFFFF, []).append(s)
            for base, const in forms[:1 + minus_form]:
                for r in range(1, R + 1):
                    for s in ss_of.get(const * pow(base, r, n) % n & 0xFFFF, ()):
                        matches += not gcd_rows or gcd(r, s, 30) == 1
        assert res.stats.collisions == matches > 0
        assert res.stats.modmuls == modmuls

    @pytest.mark.parametrize("R, S, r_stored, s_stored", [
        (300, 300, 300, 256),  # the last stage's s segment is not stored
        (300, 100, 128, 100),  # nor any r segment after the last s one
        (50, 300, 50, 0),      # one r segment, looked up by every s
    ])
    def test_indexes_hold_what_later_lookups_use(self, monkeypatch, R, S,
                                                 r_stored, s_stored):
        # Stages 64, 128, 256, ...: at a lone anchor a segment is stored
        # only when a later stage looks it up from the other side.
        indexes = _record_indexes(monkeypatch)
        pub, _ = keygen_weak(96, 2**20, 123)
        res = run_attack(pub, AttackConfig(variant="mitm", r_max=R, s_max=S,
                                           m_candidates=(anchor_index(pub),)))
        assert res.outcome == "exhausted"
        s_index, r_index = indexes  # made in this order
        assert (r_index.R, s_index.R) == (r_stored, s_stored)

    @pytest.mark.parametrize("R, S, shared_stored, s_stored, next_r_stored", [
        (300, 300, 300, 256, 0),  # the next s side covers its S and never
        (300, 100, 128, 100, 0),  # grows, though it holds no r past 128
        (50, 300, 50, 0, 50),     # it grows past 50, so the next r is stored
    ])
    def test_kept_stream_holds_what_the_next_anchor_uses(
            self, monkeypatch, R, S, shared_stored, s_stored, next_r_stored):
        # Two consecutive anchors: the first keeps its plus stream as the
        # second's s side, stored up to that anchor's S at least, besides
        # what its own lookups stored.
        indexes = _record_indexes(monkeypatch)
        pub, _ = keygen_weak(96, 2**20, 123)
        m = anchor_index(pub)
        res = run_attack(pub, AttackConfig(variant="mitm", r_max=R, s_max=S,
                                           m_candidates=(m, m + 1)))
        assert res.outcome == "exhausted"
        s_index, shared, next_r = indexes  # made in this order
        assert (shared.R, s_index.R, next_r.R) == (shared_stored, s_stored, next_r_stored)

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

    def test_recovered_key_costs_its_own_rs(self, monkeypatch):
        # A 1024-bit key whose (r, s) lies within the first stage of its
        # first anchor: the window stops there, long before the 2^15 chain
        # steps of a full table and stream at R = S = 2^14. Besides the
        # chains it pays the powers B = 2^e, B^q0 and B^q1 and one inverse.
        windows = _record_windows(monkeypatch)
        pub, priv = keygen_weak(1024, 4, 0)
        res = run_attack(pub, AttackConfig(variant="mitm", r_max=1 << 14, s_max=1 << 14))
        assert res.recovered and res.d == priv.d
        assert res.stats.m_tried == 1
        (_, q0, _, q1, _, _), = windows
        powers = _pow_cost(pub.e) + _pow_cost(q0) + _pow_cost(q1) + 1
        assert res.stats.modmuls - powers < 1 << 9

    # Under the improved target's error constant, d_ratio 2.1 gives boxes
    # a side about what 0.5 gave when its bounds used the plain one
    # (0.5 * sqrt(2.122 / 0.1221) = 2.08).
    @pytest.mark.parametrize("bounds, key_ratio, seed, m_tried", [
        ({"bound_mode": "quotient", "d_ratio": 2.1}, 16, 622, 2),
        ({"bound_mode": "quotient", "d_ratio": 2.1}, 64, 528, 3),
        ({"r_max": 16, "s_max": 4}, 8, 56, 2),
        ({"r_max": 16, "s_max": 4}, 16, 103, 3),
    ], ids=["quotient-m+1", "quotient-m+2", "explicit-m+1", "explicit-m+2"])
    def test_keys_found_through_a_shared_side(self, monkeypatch, bounds, key_ratio,
                                              seed, m_tried):
        # Keys beyond the first anchor, found at m'+1 or m'+2 with the s
        # side the anchor before handed on. Quotient bounds differ from
        # anchor to anchor and always have r_max(m) <= s_max(m + 1), so the
        # shared side grows further there, and these keys' s lies past
        # r_max(m). With explicit bounds R > S it is stored past the next
        # anchor's S, which yields no hit beyond S.
        windows = _record_windows(monkeypatch)
        pub, priv = keygen_weak(96, key_ratio, seed)
        cfg = AttackConfig(approx="improved", **bounds)
        oracle, mitm = vvt_exhaustive(pub, cfg), run_attack(pub, cfg)
        assert mitm.recovered and mitm.d == priv.d
        assert (mitm.outcome, mitm.d, mitm.k) == (oracle.outcome, oracle.d, oracle.k)
        assert mitm.stats.m_tried == oracle.stats.m_tried == m_tried
        (r_prev, _), (_, s_max) = (w[4:] for w in windows[-2:])
        p0, q0, p1, q1 = windows[-1][:4]
        s = (q1 * mitm.k - p1 * mitm.d) * (q1 * p0 - q0 * p1)
        if "r_max" in bounds:
            assert r_prev > s_max
        else:
            assert r_prev < s <= s_max

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

    def test_b_made_once_per_search(self, monkeypatch):
        # Anchors m' and m'+2 share no side, yet the search makes and charges
        # B = 2^e mod n once, at the first window, and gives it to both.
        pub, _ = keygen_weak(96, 2**20, 123)
        m = anchor_index(pub)
        cfg = AttackConfig(variant="mitm", r_max=64, s_max=64, m_candidates=(m, m + 2))
        bases, powers_of_2, mod_pow = [], [], attack.mod_pow

        def counted(base, exp, n):
            if base == 2:
                powers_of_2.append(exp)
            return mod_pow(base, exp, n)

        def recorder(kind):
            def record(pub, cfg, stats, anchor, r_max, s_max, keep, side, base):
                bases.append(base)
                return kind(pub, cfg, stats, anchor, r_max, s_max, keep, side, base)
            return record

        monkeypatch.setattr(attack, "mod_pow", counted)
        for name in ("_StageWindow", "_RootWindow"):
            monkeypatch.setattr(attack, name, recorder(getattr(attack, name)))
        res = run_attack(pub, cfg)
        assert (res.outcome, res.d, res.k) == ("exhausted", None, None)
        assert vvt_exhaustive(pub, cfg).outcome == "exhausted"
        assert res.stats.m_tried == 2
        assert powers_of_2 == [pub.e]
        assert bases == [pow(2, pub.e, pub.n)] * 2
        assert res.stats.modmuls == 701 - attack._muls(pub.e)


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

    @pytest.mark.parametrize("variant, bounds, message", [
        ("mitm", {"r_max": 2**23, "s_max": 1}, "exceed the cap"),
        ("vvt", {"r_max": 2**15, "s_max": 2**15}, "exceed the cap"),
        ("mitm", {"bound_mode": "fixed4d", "d_ratio": 1e308}, "not finite"),
    ], ids=["mitm-over-cap", "vvt-over-cap", "fixed4d-not-finite"])
    def test_even_modulus_with_refused_bounds(self, variant, bounds, message):
        # Bounds the same at every anchor are refused by validate(), before
        # the even-n split; wiener searches no window, so it splits n.
        pub = PublicKey(194, 3)
        with pytest.raises(ValueError, match=message):
            run_attack(pub, AttackConfig(variant=variant, **bounds))
        res = run_attack(pub, AttackConfig(variant="wiener", **bounds))
        assert (res.outcome, res.p, res.q) == ("gcd-break", 2, 97)

    @pytest.mark.parametrize("failure", ["not-finite", "over-cap"])
    @pytest.mark.parametrize("bounds, argv", [
        ({"r_max": 16, "s_max": 16}, ["--rmax", "16", "--smax", "16"]),
        ({"bound_mode": "quotient", "d_ratio": 4}, ["--bound-mode", "quotient",
                                                    "--d-ratio", "4"]),
    ], ids=["explicit", "quotient"])
    @pytest.mark.parametrize("variant", ["vvt", "mitm"])
    def test_later_anchor_bounds_checked_when_it_opens(
            self, monkeypatch, tmp_path, capsys, variant, bounds, argv, failure):
        # Anchor m'+1's bounds are not finite, or over the mitm cap (and so
        # the vvt one). A key found at m' never opens m'+1 and is recovered
        # as with sound bounds there, at the same cost. A key that m' misses
        # meets the error when m'+1 opens: refused (exit 2), never
        # reported exhausted.
        cfg = AttackConfig(variant=variant, **bounds)
        found, priv = keygen_weak(96, 4, 0)
        missed, _ = keygen_weak(96, 2**20, 123)
        want = {pub: run_attack(pub, cfg) for pub in (found, missed)}
        assert want[found].recovered and want[found].d == priv.d
        assert want[found].stats.m_tried == 1
        assert want[missed].outcome == "exhausted" and want[missed].stats.m_tried == 3
        bounds_for = attack._bounds_for
        m_prime = {attack.key_context(pub).cf: anchor_index(pub) for pub in want}

        def failing(cfg, cf, m):
            if m == m_prime[cf] + 1:
                if failure == "not-finite":
                    raise ValueError(f"quotient bounds at anchor index {m} are not finite")
                return attack.MITM_MAX_BOUND + 1, attack.MITM_MAX_BOUND + 1
            return bounds_for(cfg, cf, m)

        monkeypatch.setattr(attack, "_bounds_for", failing)
        message = "not finite" if failure == "not-finite" else "exceed the cap"
        for pub in (found, missed):
            got = None
            try:
                got = run_attack(pub, cfg)
            except ValueError as exc:
                assert pub is missed and message in str(exc)
            if pub is found:
                assert (got.outcome, got.d, got.k) == (
                    want[pub].outcome, want[pub].d, want[pub].k)
                assert replace(got.stats, wall_time=0) == replace(
                    want[pub].stats, wall_time=0)
            else:
                assert got is None
            key = tmp_path / "key.txt"
            write_key(key, pub)
            code = main(["attack", "--key", str(key), "--variant", variant, *argv])
            out, err = capsys.readouterr()
            if pub is found:
                assert code == 0 and f"d = {priv.d:x}" in out
            else:
                assert (code, out) == (2, "") and message in err
