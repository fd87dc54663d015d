"""Attack engines: classic Wiener, exhaustive (r, s) search, meet-in-the-middle.

All engines share a cheap convergent pre-pass: a hit there is free relative
to a table build. The exhaustive engine doubles as the testing oracle for
the meet-in-the-middle one.
"""

import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import ceil, gcd, isfinite

from . import contfrac
from .mitm_table import FingerprintTable, fingerprint_width, power_chain_fps
from .numeric import isqrt, mod_inv, mod_pow
from .rsa import PublicKey, method1_factor, method1_try

VARIANTS = ("wiener", "vvt", "mitm")
BOUND_MODES = ("explicit", "fixed4d", "quotient")
APPROX_MODES = ("plain", "improved")
# Largest r_max or s_max of a mitm window. At the cap, an exhausted window's
# indexes peak when its last r segment is looked up: the index of r and each
# stream's index then hold 2^21 entries, at about 96 B an entry
# (FingerprintTable.nominal_bytes, within 1% of the tracemalloc-held bytes
# at 2^14), about 0.2 GiB each. The streams' indexes are then let go and the
# index of r grows to 2^22 entries, 0.4 GiB. The chain segment being matched
# adds about 40 B a value, so a window at the cap stays under about 1 GiB.
MITM_MAX_BOUND = 1 << 22
# Bound of a mitm window's first stage, on each side; each later stage
# doubles it. A stage costs some microseconds of Python besides its chain
# steps, and a step on a 128-bit key about 0.2 us: bench success, whose
# windows are at most 64 a side, ran about 4% slower with a first stage of
# 16. On a 1024-bit key 64 costs a recovered key about 0.3 ms more than 16.
MITM_FIRST_STAGE = 64
# Largest r_max * s_max of a vvt window: 2^14 x 2^14, about 150 s of
# factor-recovery attempts at one anchor.
VVT_MAX_PAIRS = 1 << 28


@dataclass
class AttackConfig:
    variant: str = "mitm"
    r_max: int | None = None
    s_max: int | None = None
    bound_mode: str = "explicit"
    d_ratio: float | None = None  # for fixed4d / quotient bound modes
    approx: str = "plain"
    gcd_rows: bool = False
    probe_minus_form: bool = False
    m_candidates: tuple | None = None

    def validate(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.bound_mode not in BOUND_MODES:
            raise ValueError(f"unknown bound mode {self.bound_mode!r}")
        if self.approx not in APPROX_MODES:
            raise ValueError(f"unknown approximation mode {self.approx!r}")
        if self.variant in ("vvt", "mitm"):
            if self.bound_mode == "explicit":
                if min(self.r_max or 0, self.s_max or 0) < 1:
                    raise ValueError("explicit bound mode needs r_max and s_max >= 1")
            elif self.d_ratio is None or not (isfinite(self.d_ratio) and self.d_ratio > 0):
                raise ValueError(
                    f"{self.bound_mode} bound mode needs a finite positive d_ratio")


@dataclass
class Stats:
    modmuls: int = 0
    probes: int = 0
    collisions: int = 0
    method1_trials: int = 0
    table_bytes: int = 0
    rows_examined: int = 0
    rows_skipped: int = 0
    m_tried: int = 0
    wall_time: float = 0.0


@dataclass
class AttackResult:
    outcome: str  # recovered | exhausted | gcd-break
    d: int | None = None
    k: int | None = None
    p: int | None = None
    q: int | None = None
    stats: Stats = field(default_factory=Stats)

    @property
    def recovered(self) -> bool:
        return self.outcome == "recovered"


def approximation_target(pub: PublicKey, mode: str = "plain"):
    """Approximation target for k/d and a safe rational over-estimate of
    the error bound (sqrt(n) rounded down in the bound denominator, up in
    the improved target's denominator)."""
    n, e = pub.n, pub.e
    root = isqrt(n)
    if mode == "plain":
        return Fraction(e, n), Fraction(2122, 1000) * Fraction(e, n * root)
    if mode == "improved":
        two_root = isqrt(4 * n - 1) + 1  # ceil(2*sqrt(n))
        return (
            Fraction(e, n + 1 - two_root),
            Fraction(1221, 10000) * Fraction(e, n * root),
        )
    raise ValueError(f"unknown approximation mode {mode!r}")


def anchor_index(pub: PublicKey, approx: str = "plain"):
    """The attack's anchor index m' for this key, or None."""
    target, bound = approximation_target(pub, approx)
    return contfrac.locate_m_prime(target, bound, contfrac.expand(target))


def _first_recovered(pub, pairs, stats):
    """Try the (k, d) pairs in order, skipping any with k < 1 or d < 1, and
    return the first recovery as an AttackResult, or None. Counts one
    method1 trial per pair tried."""
    for k, d in pairs:
        if k < 1 or d < 1:
            continue
        stats.method1_trials += 1
        res = method1_factor(pub, d, k)
        if res.ok:
            return AttackResult("recovered", d, k, res.p, res.q, stats)
    return None


def wiener_classic(pub: PublicKey) -> AttackResult:
    """Try every convergent denominator of e/n as the secret exponent."""
    return run_attack(pub, AttackConfig(variant="wiener"))


def _m_candidates(cf, target, bound, cfg):
    if cfg.variant == "wiener":
        return []  # the Wiener pass alone
    top = len(cf) - 2  # need convergent m+1
    if cfg.m_candidates is not None:
        return [m for m in cfg.m_candidates if -1 <= m <= top]
    m_prime = contfrac.locate_m_prime(target, bound, cf)
    if m_prime is None:
        return list(range(-1, top + 1))
    return [m for m in (m_prime, m_prime + 1, m_prime + 2) if m <= top]


def _bounds_for(cfg, cf, m):
    if cfg.bound_mode == "explicit":
        return cfg.r_max, cfg.s_max
    try:
        if cfg.bound_mode == "fixed4d":
            r = s = 4 * cfg.d_ratio
        else:
            r, s = contfrac.rs_bounds(
                cf.quotient(m + 1), cf.quotient(m + 2), cf.quotient(m + 3), cfg.d_ratio)
        return max(1, ceil(r)), max(1, ceil(s))
    except OverflowError:
        # An infinite bound, or a partial quotient beyond the float range.
        raise ValueError(f"{cfg.bound_mode} bounds at anchor index {m} are not finite"
                         f" (d_ratio {cfg.d_ratio!r})") from None


def _anchor_search(pub, cfg, window):
    """The loop every engine shares: the Wiener pass over the target's
    convergents, then per anchor index m window(pub, cfg, p0, q0, p1, q1,
    r_max, s_max, stats), which searches the (r, s) window around
    convergents m and m + 1, bar the corners r = 1, s = 0 and r = 0, s = 1
    that the Wiener pass tried, and returns an AttackResult or None. An
    even n splits as 2 * (n // 2) before any search."""
    cfg.validate()
    stats = Stats()
    t0 = time.perf_counter()
    try:
        if pub.n % 2 == 0:
            return AttackResult("gcd-break", p=2, q=pub.n // 2, stats=stats)
        target, bound = approximation_target(pub, cfg.approx)
        cf = contfrac.expand(target)
        result = _first_recovered(pub, cf.convergents, stats)
        if result is not None:
            return result
        for m in _m_candidates(cf, target, bound, cfg):
            stats.m_tried += 1
            p0, q0 = cf.convergent(m)
            p1, q1 = cf.convergent(m + 1)
            r_max, s_max = _bounds_for(cfg, cf, m)
            result = window(pub, cfg, p0, q0, p1, q1, r_max, s_max, stats)
            if result is not None:
                return result
        return AttackResult("exhausted", stats=stats)
    finally:
        stats.wall_time = time.perf_counter() - t0


def vvt_scan(n, e, p0, q0, p1, q1, r_max, s_max, minus_form):
    """Exhaustive scan of d = r*q1 +/- s*q0 over [1,r_max] x [1,s_max].

    Only coprime (r, s) pairs are tested. Returns (hit, trials) where hit
    is (d, k, p, q) or None and trials counts factor-recovery attempts.
    """
    trials = 0
    for s in range(1, s_max + 1):
        sq0 = s * q0
        sp0 = s * p0
        d = sq0
        k = sp0
        two_sq0 = 2 * sq0
        two_sp0 = 2 * sp0
        for r in range(1, r_max + 1):
            d += q1
            k += p1
            if gcd(r, s) != 1:
                continue
            # k = s*p0 + r*p1 >= 1: p0, p1 >= 0 and never both 0.
            trials += 1
            got = method1_try(n, e, d, k)
            if got[2] is None:
                return (d, k, got[0], got[1]), trials
            if minus_form:
                dm = d - two_sq0
                km = k - two_sp0
                if dm > 0 and km >= 1:
                    trials += 1
                    got = method1_try(n, e, dm, km)
                    if got[2] is None:
                        return (dm, km, got[0], got[1]), trials
    return None, trials


def _scan_window(pub, cfg, p0, q0, p1, q1, r_max, s_max, stats):
    if r_max * s_max > VVT_MAX_PAIRS:
        raise ValueError(f"vvt bounds ({r_max}, {s_max}) exceed the cap of"
                         f" {VVT_MAX_PAIRS} pairs")
    hit, trials = vvt_scan(
        pub.n, pub.e, p0, q0, p1, q1, r_max, s_max, cfg.probe_minus_form)
    stats.method1_trials += trials
    if hit is None:
        return None
    return AttackResult("recovered", *hit, stats)


def vvt_exhaustive(pub: PublicKey, cfg: AttackConfig) -> AttackResult:
    """Exhaustive search over coprime (r, s) pairs, one factor-recovery
    attempt per pair. Quadratic in the bounds; serves as the oracle."""
    return run_attack(pub, replace(cfg, variant="vvt"))


def _note_indexes(stats, r_index, s_indexes):
    """Note the bytes a window's indexes hold together in stats.table_bytes,
    a peak, and charge the probes of the streams' indexes, whose lookups are
    done."""
    held = r_index.nominal_bytes
    for s_index in s_indexes:
        stats.probes += s_index.probes
        held += s_index.nominal_bytes
    stats.table_bytes = max(stats.table_bytes, held)


def _mitm_window(pub, cfg, p0, q0, p1, q1, r_max, s_max, stats):
    """Meet-in-the-middle search for a^r == 2*b^s (mod n), in stages.

    A stage with bound B covers r <= min(B, r_max) and s <= min(B, s_max);
    B starts at MITM_FIRST_STAGE and doubles until both bounds are reached.
    The chain of a^r and each probe stream of 2*b^s (and of 2*bq^s with the
    minus form) continue from stage to stage, and each side keeps a
    FingerprintTable from fingerprint to exponent. A stage looks its new r
    segment up in the stream indexes, which hold the earlier stages' s, then
    each new s segment up in the r index, which holds every r up to the
    stage's bound, so each (r, s, sign) of the window is matched exactly
    once. A segment is stored, and an index kept, only while a later lookup
    will use it. Hits are tried in (stage, s, sign, r) order, and the window
    stops at the first recovery: a key costs about max(r, s) modular
    multiplications at its anchor, and an exhausted window r_max - 1 plus
    s_max per stream, as many as one full table and one full stream per sign.
    """
    if max(r_max, s_max) > MITM_MAX_BOUND:
        raise ValueError(f"mitm bounds ({r_max}, {s_max}) exceed the cap of"
                         f" {MITM_MAX_BOUND} per side")
    n, e = pub.n, pub.e
    # n is odd, so the powers of 2 are units and invertible.
    a = mod_pow(2, e * q1, n)
    bq = mod_pow(2, e * q0, n)
    b = mod_inv(bq, n)
    w = fingerprint_width(r_max, s_max)
    mask = (1 << w) - 1
    # Probe streams: plus form a^r == 2*b^s, minus form a^r == 2*bq^s.
    bases = (b, bq) if cfg.probe_minus_form else (b,)
    r_index = FingerprintTable(w, r_max)
    s_indexes = [FingerprintTable(w) for _ in bases]
    # Each chain continues from its last value, a^r_top or 2*base^s_top.
    r_last, s_lasts = None, [2] * len(bases)
    bound, r_top, s_top = MITM_FIRST_STAGE, 0, 0  # bounds of the stages done
    try:
        while r_top < r_max or s_top < s_max:
            r_end, s_end = min(bound, r_max), min(bound, s_max)
            hits = []
            # A segment is freed once matched, before the next is made.
            if r_top < r_end:
                start = r_last * a % n if r_top else a
                fps, modmuls, r_last = power_chain_fps(start, a, n, r_end - r_top, mask)
                stats.modmuls += modmuls + (r_top > 0)
                if s_top:
                    hits += [(s, sign, r) for sign, s_index in enumerate(s_indexes)
                             for r, s in s_index.probe_fp(fps, cfg.gcd_rows, r_top + 1)]
                if r_end == r_max:
                    # No later r is looked up in the streams' indexes: let
                    # them go before the index of r grows for the last time.
                    _note_indexes(stats, r_index, s_indexes)
                    s_indexes = []
                if s_top < s_max:
                    r_index.extend(fps)
                del fps
            if s_top < s_end:
                for sign, base in enumerate(bases):
                    fps, modmuls, s_lasts[sign] = power_chain_fps(
                        s_lasts[sign] * base % n, base, n, s_end - s_top, mask)
                    stats.modmuls += modmuls + 1
                    hits += [(s, sign, r) for s, r
                             in r_index.probe_fp(fps, cfg.gcd_rows, s_top + 1)]
                    if r_end < r_max:
                        s_indexes[sign].extend(fps)
                    del fps
            r_top, s_top, bound = r_end, s_end, 2 * bound
            # Sign 0 (d = r*q1 + s*q0) before sign 1 (d = r*q1 - s*q0);
            # every hit that does not recover collides.
            pairs = []
            for s, sign, r in sorted(hits):
                t = -s if sign else s
                pairs.append((r * p1 + t * p0, r * q1 + t * q0))
            result = _first_recovered(pub, pairs, stats)
            if result is not None:
                stats.collisions += pairs.index((result.k, result.d))
                return result
            stats.collisions += len(pairs)
        return None
    finally:
        _note_indexes(stats, r_index, s_indexes)
        stats.probes += r_index.probes
        stats.rows_examined += r_index.rows_examined
        stats.rows_skipped += r_index.rows_skipped


_WINDOWS = {"vvt": _scan_window, "mitm": _mitm_window}


def run_attack(pub: PublicKey, cfg: AttackConfig) -> AttackResult:
    """The engine that cfg.variant names; wiener searches no window."""
    return _anchor_search(pub, cfg, _WINDOWS.get(cfg.variant))
