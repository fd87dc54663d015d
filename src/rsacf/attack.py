"""Attack engines: classic Wiener, exhaustive (r, s) search, meet-in-the-middle.

All engines share a key's set-up, made once per key (KeyContext), and its
cheap convergent pre-pass: a hit there is free relative to a table build.
The exhaustive engine doubles as the testing oracle for the
meet-in-the-middle one.
"""

import sys
import time
from array import array
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache
from itertools import accumulate, chain, cycle, islice, repeat
from math import ceil, gcd, isfinite
from operator import indexOf, mod

from . import contfrac, workers
from .mitm_table import ROW_MODULUS, FingerprintTable, fingerprint_width, power_chain_fps
from .numeric import isqrt, mod_inv, mod_pow
from .rsa import PublicKey, method1_factor, method1_remainder

VARIANTS = ("wiener", "vvt", "mitm")
BOUND_MODES = ("explicit", "fixed4d", "quotient")
APPROX_MODES = tuple(contfrac.ERROR_CONSTANT)
# Largest r_max or s_max of a mitm window. An index entry holds about 96 B
# at 52-bit fingerprints (FingerprintTable.nominal_bytes, within 1% of the
# tracemalloc-held bytes at 2^14 entries), a fingerprint in a chain segment
# about 40 B and one kept in a plain array 8 B. At the cap a search peaks in
# one of two places. An anchor whose s side grows until its last stage, with
# the minus form, ends with both r streams indexed to 2^22 entries, 0.75 GiB,
# while the last s segment, 2^21 values, 80 MiB, is matched. A later anchor
# whose s side is shared holds that index of 2^22 entries, 0.38 GiB, the kept
# plus stream's first 2^21 fingerprints and the r segments being matched,
# under 0.6 GiB. Either way a search at the cap stays under about 1 GiB.
# A segment split over workers (_Side.grow) comes back in arrays, 8 B a
# fingerprint, which this process reads, 16 MiB a worker for half of a
# 2^21 segment, while it joins them into its list. A worker is a forked
# copy of this process from its first split segment, a stage of at most
# 2,048 steps at 1024 bits or 16,384 at 96, with the pages of that moment
# shared until either side writes them; on top it holds its range as it
# makes it, about 56 MiB for half of a 2^21 segment (40 B a fingerprint,
# then 8 B packed and 8 B pickled).
MITM_MAX_BOUND = 1 << 22
# Width of every mitm index, the one the cap asks for (52 bits), so that an
# index serves the next anchor whatever its bounds. A 52-bit int takes a 32 B
# block of CPython's allocator; one of 64 bits, 36 B, takes a 48 B block.
MITM_WIDTH = fingerprint_width(MITM_MAX_BOUND)
# Bound of a mitm window's first stage, on each side; each later stage
# doubles it. A stage costs some microseconds of Python besides its chain
# steps, and a step on a 128-bit key about 0.2 us: bench success, whose
# windows are at most 64 a side, ran about 4% slower with a first stage of
# 16. On a 1024-bit key 64 costs a recovered key about 0.3 ms more than 16.
MITM_FIRST_STAGE = 64
# Largest r_max * s_max of a vvt window: 2^14 x 2^14 at one anchor, a
# scan of about 27 s of a 96-bit key and about 2 min of a 1024-bit one
# (about 100 ns a pair at 2^14 x 2^14 and 0.48 us at 2^12 x 2^12, on
# 2 vCPUs under CPython 3.11), nearly all of it the row filter's big-int %,
# which the wheel makes for about 0.64 of the pairs.
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
            if self.bound_mode != "quotient":
                # The same at every anchor: refused before any set-up.
                _check_bounds(self, *_bounds(self))


@dataclass
class Stats:
    """Counters of one attack.

    modmuls counts modular multiplications: one per value const * mult^j of
    a chain, and a mod_pow with exponent x as square-and-multiply does it,
    x.bit_length() - 1 squares and popcount(x) - 1 multiplies. A mod_inv,
    an extended Euclid rather than a chain of products, is charged as one;
    at 128 to 1024 bits it takes about the time of 30 to 50. The four
    reductions of a chain's limb table (mitm_table.power_chain_fps, from
    LIMB_MIN_BITS) are not charged: a step costs one either way.

    method1_trials counts factor-recovery attempts: the Wiener pass of the
    key's context (KeyContext.wiener_trials), which every search of the key
    is charged although the context makes it once, then the window's, one
    per mitm match tried and the vvt scan's closed-form count.
    """

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
    if mode not in APPROX_MODES:
        raise ValueError(f"unknown approximation mode {mode!r}")
    n, e = pub.n, pub.e
    bound = contfrac.ERROR_CONSTANT[mode] * Fraction(e, n * isqrt(n))
    if mode == "plain":
        return Fraction(e, n), bound
    two_root = isqrt(4 * n - 1) + 1  # ceil(2*sqrt(n))
    return Fraction(e, n + 1 - two_root), bound


@dataclass(frozen=True)
class KeyContext:
    """The set-up of one key under one approximation target, made once
    (key_context) and shared by every search of the key: the target and its
    error bound, the target's expansion, the anchor index m' or None, and
    the Wiener pass over the expansion, (d, k, p, q) of its recovery or
    None, with its trial count."""

    pub: PublicKey
    approx: str
    target: Fraction
    bound: Fraction
    cf: contfrac.ContFrac
    m_prime: int | None
    wiener: tuple | None
    wiener_trials: int


def _wiener_pass(n, e, cf):
    """(hit, trials): the first convergent p_i/q_i of cf, tried as
    (k, d) = (p_i, q_i) in order and skipped when p_i < 1, that factors n,
    as (d, k, p, q) or None, and the number tried.

    With D_i = e*q_i - n*p_i, the check needs only (n, p_i, D_i)
    (method1_remainder), and D_i follows the convergents' recurrence,
    D_i = a_i*D_{i-1} + D_{i-2} from D_{-2} = e and D_{-1} = -n: for the
    plain target e/n it is, up to sign and gcd(e, n), a remainder of the
    expansion's own Euclid, so no product as wide as d*e is formed.
    """
    trials = 0
    d1, d0 = -n, e  # D_{i-1}, D_{i-2}
    for a, (k, d) in zip(cf.quotients, cf.convergents):
        d1, d0 = a * d1 + d0, d1
        if k < 1:
            continue  # q_i >= 1 at every i >= 0
        trials += 1
        got = method1_remainder(n, k, d1)
        if got.reject is None:
            return (d, k, got.p, got.q), trials
    return None, trials


def key_context(pub: PublicKey, approx: str = "plain") -> KeyContext:
    """The key's set-up under the approx target; see KeyContext."""
    target, bound = approximation_target(pub, approx)
    cf = contfrac.expand(target)
    m_prime = contfrac.locate_m_prime(target, bound, cf)
    return KeyContext(pub, approx, target, bound, cf, m_prime,
                      *_wiener_pass(pub.n, pub.e, cf))


def anchor_index(pub: PublicKey, approx: str = "plain"):
    """The attack's anchor index m' for this key, or None."""
    return key_context(pub, approx).m_prime


def _first_recovered(pub, pairs, stats):
    """Try the (k, d) pairs of a window's matches in order, skipping any
    with k < 1 or d < 1, with method1_factor, and return the first recovery
    as an AttackResult, or None. Counts one method1 trial per pair tried."""
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


def _bounds(cfg, cf=None, m=None):
    """(r_max, s_max) of anchor m of the expansion cf: cfg's own under
    explicit bounds, 4 * d_ratio on each side under fixed4d, and
    contfrac.rs_bounds' under quotient bounds, the only mode that reads cf
    and m; validate() passes neither, for the modes whose bounds are the
    same at every anchor. Bounds that are not finite are refused."""
    if cfg.bound_mode == "explicit":
        return cfg.r_max, cfg.s_max
    try:
        if cfg.bound_mode == "fixed4d":
            r = s = 4 * cfg.d_ratio
        else:
            r, s = contfrac.rs_bounds(cf.quotient(m + 1), cf.quotient(m + 2),
                                      cf.quotient(m + 3), cfg.d_ratio, cfg.approx)
        return max(1, ceil(r)), max(1, ceil(s))
    except OverflowError:
        # An infinite bound, or a partial quotient beyond the float range.
        at = f" at anchor index {m}" if cfg.bound_mode == "quotient" else ""
        raise ValueError(f"{cfg.bound_mode} bounds{at} are not finite"
                         f" (d_ratio {cfg.d_ratio!r})") from None


def _windows(context, cfg):
    """(m, r_max, s_max, keep) of each anchor m that a search with cfg
    opens, in order, with its bounds (_bounds), made as the anchor is
    reached: bounds refused at a later anchor raise only there. wiener
    opens none. Without cfg.m_candidates the anchors are m', m' + 1 and
    m' + 2, or every index when the key has no m'; any anchor past the
    expansion's last but one (convergent m + 1 is needed) is dropped.
    bench answers its success rows from the same anchors.

    keep is how many fingerprints of anchor m's plus stream it hands on
    as anchor m + 1's s side, when m + 1 is opened next, else 0: as many as
    m + 1 reads of it. That anchor's s_max is s_max at every anchor under
    explicit and fixed4d bounds, and at least r_max(m) under quotient
    bounds, where both hold t3 * (a_{m+2} + 1) * D (contfrac.rs_bounds),
    so keep needs no bounds of m + 1.
    """
    if cfg.variant == "wiener":
        return  # the Wiener pass alone
    m_prime, top = context.m_prime, len(context.cf) - 2
    if cfg.m_candidates is not None:
        ms = [m for m in cfg.m_candidates if -1 <= m <= top]
    elif m_prime is None:
        ms = range(-1, top + 1)
    else:
        ms = range(m_prime, min(m_prime + 3, top + 1))
    for m, after in zip(ms, [*ms[1:], None]):
        r_max, s_max = _bounds(cfg, context.cf, m)
        keep = r_max if cfg.bound_mode == "quotient" else min(r_max, s_max)
        yield m, r_max, s_max, (after == m + 1) * keep


def _check_bounds(cfg, r_max, s_max):
    """Refuse bounds over cfg.variant's cap: a mitm side over MITM_MAX_BOUND,
    a vvt box over VVT_MAX_PAIRS."""
    if cfg.variant == "mitm" and max(r_max, s_max) > MITM_MAX_BOUND:
        raise ValueError(f"mitm bounds ({r_max}, {s_max}) exceed the cap of"
                         f" {MITM_MAX_BOUND} per side")
    if cfg.variant == "vvt" and r_max * s_max > VVT_MAX_PAIRS:
        raise ValueError(f"vvt bounds ({r_max}, {s_max}) exceed the cap of"
                         f" {VVT_MAX_PAIRS} pairs")


def _anchor_windows(context, cfg, stats, base=None):
    """The loop every engine shares, over the key's context: the context's
    Wiener pass, charged to stats, then per anchor index m a window
    (_ScanWindow for vvt, _StageWindow for mitm at every m, -1 included),
    which searches the (r, s) box around convergents m and m + 1, bar the
    corners r = 1, s = 0 and r = 0, s = 1 that the Wiener pass tried. Each
    stage of a window gives its (k, d) pairs, tried here in order
    (_first_recovered); the first recovery ends the search, and every pair
    tried before it collides.

    The anchors, their bounds and keep come from _windows, one at a time,
    and the loop checks each anchor's bounds (_check_bounds) when it opens
    it, so bounds that are not finite or over a cap at a later anchor
    refuse the search only once it gets there. Once the first anchor's
    bounds pass, a mitm search makes B = 2^e mod n, or takes the B given
    here, charges it once and gives it to every window. Where keep is not
    0, window m hands its plus stream on to anchor m + 1 as its s side,
    with at least its first keep fingerprints stored (hand_off).
    """
    stats.method1_trials += context.wiener_trials
    if context.wiener is not None:
        return AttackResult("recovered", *context.wiener, stats)
    pub, cf = context.pub, context.cf
    side = None  # the plus stream the window before hands on
    for i, (m, r_max, s_max, keep) in enumerate(_windows(context, cfg)):
        stats.m_tried += 1
        _check_bounds(cfg, r_max, s_max)
        if cfg.variant == "mitm" and i == 0:
            # n is odd, so the powers of 2 are units and invertible.
            _charge(pub.e, stats)
            base = mod_pow(2, pub.e, pub.n) if base is None else base
        kind = _ScanWindow if cfg.variant == "vvt" else _StageWindow
        window = kind(pub, cfg, stats, cf.convergent(m) + cf.convergent(m + 1),
                      r_max, s_max, keep, side, base)
        for pairs in window.stages():
            result = _first_recovered(pub, pairs, stats)
            if result is not None:
                stats.collisions += pairs.index((result.k, result.d))
                window.close()
                return result
            stats.collisions += len(pairs)
        side = window.hand_off()
    return AttackResult("exhausted", stats=stats)


def _prime_divisors(s, limit):
    """The distinct primes of s up to limit, by trial division."""
    out, p = [], 2
    while p <= limit and p * p <= s:
        if s % p == 0:
            out.append(p)
            while s % p == 0:
                s //= p
        p += 1
    if 1 < s <= limit:
        out.append(s)  # a prime: every smaller one is divided out
    return out


def _coprime_count(lo, hi, primes):
    """How many r in (lo, hi], 0 <= lo <= hi, have no factor in primes (all
    distinct), by inclusion-exclusion over their products up to hi."""
    terms = [(1, 1)]
    for p in primes:
        terms += [(d * p, -sign) for d, sign in terms if d * p <= hi]
    count = 0
    for d, sign in terms:
        count += sign * (hi // d - lo // d)
    return count


@cache
def _mobius(bits):
    """mu(d) at d = 0 (unused), 1, ..., 2^bits - 1, by a sieve: one table
    per size for the life of the process, twice at most the size asked."""
    top = (1 << bits) - 1
    mu, composite = [1] * (top + 1), [False] * (top + 1)
    for p in range(2, top + 1):
        if not composite[p]:
            composite[p::p] = [True] * (top // p)
            mu[p::p] = [-m for m in mu[p::p]]
            mu[p * p::p * p] = [0] * (top // (p * p))
    return tuple(mu)


def _coprime_pairs(r_max, s_lo, s_hi):
    """How many coprime (r, s) have 1 <= r <= r_max and s_lo <= s < s_hi:
    by Moebius inversion, the sum over d <= min(r_max, s_hi - 1) of
    mu(d) * (r_max // d) * (how many of those s d divides)."""
    top = min(r_max, s_hi - 1)
    mu = _mobius(top.bit_length())
    return sum(mu[d] * (r_max // d) * ((s_hi - 1) // d - (s_lo - 1) // d)
               for d in range(1, top + 1))


def _wheel(w):
    """(classes, below, gaps) of the r coprime to w: their residues in
    [1, w], how many of those are <= t at t = 0..w-1, and the gap from each
    to the next, the last to w + 1."""
    classes = [c for c in range(1, w + 1) if gcd(c, w) == 1]
    return (classes, [sum(c <= t for c in classes) for t in range(w)],
            [b - a for a, b in zip(classes, classes[1:] + [w + 1])])


# The row filter's wheel, mitm_table.ROW_MODULUS: row s makes no remainder
# for an r that shares a prime of it with s, that is for an r not coprime to
# w = gcd(s, ROW_MODULUS).
_WHEELS = {w: _wheel(w) for w in range(1, ROW_MODULUS + 1) if ROW_MODULUS % w == 0}


def _walks(r_max, p1):
    """The walk of each row s, by s mod ROW_MODULUS: the r >= 1 coprime to
    w = gcd(s, ROW_MODULUS), in order, as (w, phi, classes, below, steps, top),
    with classes and below those of _wheel(w) and phi = len(classes). The
    i-th r, from 0, is r_i = (i // phi) * w + classes[i % phi], and top
    counts the r_i <= r_max. steps are the gaps r_{i+1} - r_i times p1 from
    i = 0 on, twice over, so that steps[j:j + phi] are those from any
    i = j mod phi on."""
    walks = {w: (w, len(classes), classes, below, [g * p1 for g in gaps] * 2,
                 r_max // w * len(classes) + below[r_max % w])
             for w, (classes, below, gaps) in _WHEELS.items()}
    return [walks[gcd(s, ROW_MODULUS)] for s in range(ROW_MODULUS)]


def _rank(walk, r):
    """How many r_i of walk (_walks) are <= r, r >= 0."""
    w, phi, _, below = walk[:4]
    return r // w * phi + below[r % w]


def _zeros_at(rems, first, walk, sign):
    """(r_i, sign) of walk (_walks) for each zero of the iterator rems,
    whose values stand for r_first, r_first+1, ..., r_top-1, found by
    C-level searches; a 0 put after the last value ends them."""
    w, phi, classes, _, _, top = walk
    rems, at, out = chain(rems, (0,)), first - 1, []
    while True:
        at += indexOf(rems, 0) + 1
        if at == top:
            return out
        out.append((at // phi * w + classes[at % phi], sign))


def _walk_zeros(x, base, p1, i, walk, sign):
    """(r, sign) of each r_j, i <= j < top, of walk (_walks) with
    base + r_j*p1 | x, in one C-level pass over the divisors in r order:
    a range when walk has one class, else a sum of its gaps."""
    w, phi, classes, _, steps, top = walk
    j = i % phi
    first = base + (i // phi * w + classes[j]) * p1
    if phi == 1:
        divisors = range(first, first + (top - i) * steps[0], steps[0])
    else:
        divisors = accumulate(cycle(steps[j:j + phi]), initial=first)
    return _zeros_at(map(mod, repeat(x, top - i), divisors), i, walk, sign)


def _scan_rows(n, e, p0, q0, p1, q1, r_max, s_lo, s_hi, minus_form):
    """vvt_scan over the rows s_lo <= s < s_hi: (hit, trials), trials
    counted from row s_lo."""
    dl = e * (p1 * q0 - p0 * q1)  # p1*D0 - p0*D1
    # A row's minus pairs (d = r*q1 - s*q0 > 0, k = r*p1 - s*p0 >= 1) are
    # those with r >= r_lo, which grows with s: once past r_max, no later
    # row has any. With p1 = 0 no row has any. Started at 1, r_lo takes at
    # every row the value that a scan from row 1 gives it.
    r_lo = 1 if minus_form and p1 else r_max + 1
    walks = _walks(r_max, p1)
    trials = 0  # all but the plus pairs of whole rows, which _coprime_pairs counts
    for s in range(s_lo, s_hi):
        sp0 = s * p0
        if p1:
            walk = walks[s % ROW_MODULUS]
            found = _walk_zeros(s * dl - p1, sp0, p1, 0, walk, 0)
            if r_lo <= r_max:
                r_lo = max(sp0 // p1, s * q0 // q1) + 1
                if r_lo <= r_max:
                    found += _walk_zeros(
                        -s * dl - p1, -sp0, p1, _rank(walk, r_lo - 1), walk, 1)
                    found.sort()
        else:
            # k = s*p0 on the whole row (anchor -1 with a target below 1),
            # so test k | r*D1 + s*D0 - 1 itself, D1 taken mod k, at every r
            # (walks[1], the walk of w = 1).
            k = sp0
            step = e * q1 % k or k
            c = (s * (e * q0 - n * p0) - 1) % k
            found = _zeros_at(map(mod, range(
                c + step, c + r_max * step + 1, step), repeat(k)), 0, walks[1], 0)
        for r, sign in found:
            if gcd(r, s) != 1:
                continue
            t = -s if sign else s
            d, k = r * q1 + t * q0, r * p1 + t * p0
            got = method1_remainder(n, k, d * e - k * n)
            if got[2] is None:
                ps = _prime_divisors(s, r_max)
                trials += _coprime_count(0, r, ps)
                if r >= r_lo:
                    trials += _coprime_count(r_lo - 1, r - 1, ps) + sign
                return (d, k, got[0], got[1]), trials + _coprime_pairs(r_max, s_lo, s)
        if r_lo <= r_max:
            trials += _coprime_count(r_lo - 1, r_max, _prime_divisors(s, r_max))
    return None, trials + _coprime_pairs(r_max, s_lo, s_hi)


def _row_blocks(r_max, s_max, bits):
    """Lists of row ranges (lo, hi), which cover the rows 1..s_max in order:
    one range below workers.MIN_WORK, else one per process in each list.
    The first list's ranges are the fewest rows that reach MIN_WORK, and
    each list's double the last's, so that a hit waits at most for the
    ranges beside its own, no longer than its own range takes."""
    ways = workers.ways(r_max * s_max, bits)
    size = s_max if ways == 1 else -(-workers.MIN_WORK // (r_max * bits))
    lo = 1
    while lo <= s_max:
        rows = ways * size
        if s_max + 1 - lo < 2 * rows:
            rows = s_max + 1 - lo  # no shorter list after this one
        cuts = [lo + rows * i // ways for i in range(ways + 1)]
        yield [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]
        lo, size = lo + rows, 2 * size


def vvt_scan(n, e, p0, q0, p1, q1, r_max, s_max, minus_form):
    """Exhaustive scan of d = r*q1 +/- s*q0 over [1,r_max] x [1,s_max].

    Only coprime (r, s) pairs are tested, in (s, r, sign) order, sign 0
    (d = r*q1 + s*q0, k = r*p1 + s*p0) before sign 1 (d = r*q1 - s*q0,
    k = r*p1 - s*p0, tried when d > 0 and k >= 1). Returns (hit, trials)
    where hit is (d, k, p, q) or None and trials counts factor-recovery
    attempts, as if every coprime pair were tried until the hit.

    Each row s is filtered first. With D_i = e*q_i - n*p_i, d*e - 1 =
    k*n + r*D1 + s*D0 - 1, so the check's first test is k | r*D1 + s*D0 - 1;
    p1 times it, less D1*k, gives k | s*(p1*D0 - p0*D1) - p1, and
    p1*D0 - p0*D1 = e*(p1*q0 - p0*q1) = +/-e: a test free of r (with -s for
    sign 1). Only the r that pass it are checked; the others cannot pass.

    The filter makes no remainder for an r that shares 2, 3 or 5 with s:
    such a pair is never tried. With w = gcd(s, 30), row s walks the r
    coprime to w in order (_walks), the classes of r mod w with
    gcd(c, w) = 1 interleaved: its divisors k come in one C-level pass, a
    range when w is 1 or 2, else a running sum of the walk's gaps times
    p1. The minus form's walk starts at its first r >= r_lo. That is about
    0.64 of the remainders of every r, and w = 1 is the scan of every r.
    The zeros go through the gcd(r, s) test and the factor check in
    (r, sign) order. Trials are counted in closed form: a block's plus
    pairs by Moebius inversion (_coprime_pairs), and each row's minus pairs
    and a hit row's by inclusion-exclusion over the primes of s.

    The rows go in contiguous blocks (_row_blocks), each list of blocks at
    once over workers.run, and the blocks' answers are merged in s order:
    the trials of every block before the first hit, then the hit block's.
    """
    trials = 0
    for blocks in _row_blocks(r_max, s_max, n.bit_length()):
        for hit, count in workers.run(_scan_rows, [
                (n, e, p0, q0, p1, q1, r_max, lo, hi, minus_form) for lo, hi in blocks]):
            trials += count
            if hit is not None:
                return hit, trials
    return None, trials


def vvt_exhaustive(pub: PublicKey, cfg: AttackConfig) -> AttackResult:
    """Exhaustive search over coprime (r, s) pairs, one factor-recovery
    attempt per pair. Quadratic in the bounds; serves as the oracle."""
    return run_attack(pub, replace(cfg, variant="vvt"))


def _muls(exp):
    """The multiplications of a power with exponent exp, as square-and-multiply
    makes it: exp.bit_length() - 1 squares and popcount(exp) - 1 multiplies."""
    return max(exp.bit_length() + exp.bit_count() - 2, 0)


def _charge(exp, stats):
    """Charge a power with exponent exp to stats.modmuls (_muls), and return
    the charge. Every power goes through here, made here or on a worker."""
    muls = _muls(exp)
    stats.modmuls += muls
    return muls


def _power(base, exp, n):
    """mod_pow as a worker's job. A job's function is pickled by name, so a
    wrapped mod_pow (a tracer's, a test's) is looked up when the job runs."""
    return mod_pow(base, exp, n)


def _call(fn, *args):
    """fn(*args): puts different functions in one workers.run job list."""
    return fn(*args)


def _powers(base, exps, n, stats):
    """[base^x mod n for x in exps], each charged to stats.modmuls, in one
    job list over workers.run when their multiplications are worth
    splitting (workers.ways). A list of one power is made in this process
    either way, since workers.run runs a one-job list here."""
    muls = sum(_charge(x, stats) for x in exps)
    jobs = [(base, x, n) for x in exps]
    if workers.ways(muls, n.bit_length()) == 1:
        return [mod_pow(*job) for job in jobs]
    return workers.run(_power, jobs)


def _inv(a, n, stats):
    """mod_inv, charged to stats.modmuls as one multiplication."""
    stats.modmuls += 1
    return mod_inv(a, n)


def _chain(start, mult, n, count, mask, packed):
    """The fingerprints of start * mult^j mod n, j < count, and the last
    value; packed, the fingerprints come in an array('Q'), 8 B each through
    a worker's pipe, else in a list, as the chain makes them."""
    fps, _, last = power_chain_fps(start, mult, n, count, mask)
    return (array("Q", fps) if packed else fps), last


class _Side:
    """The chain const * mult^j, j = 1, 2, ..., of one side of a mitm window,
    and the fingerprints it keeps: those of the exponents 1..index.R in its
    index, those of the next ones up to top in pending, a plain array of
    64-bit words (8 B a fingerprint, not the 40 B of a list of ints) that
    the next anchor indexes."""

    def __init__(self, const, mult, row_bound=0):
        self.const, self.mult = const, mult
        self.last, self.top = const, 0  # const * mult^top
        self.index = FingerprintTable(MITM_WIDTH, row_bound)
        self.pending = array("Q")

    def grow(self, end, n, stats):
        """Fingerprints of the exponents top + 1..end, in order, one modular
        multiplication each. Worth splitting (workers.ways), they go in
        near-equal ranges over workers.run, and a range from exponent
        top + 1 + lo, lo > 0, starts from last * mult^(lo + 1), a power
        charged to stats.modmuls besides the chain's steps."""
        count, mult = end - self.top, self.mult
        ways = workers.ways(count, n.bit_length())
        jobs, lo = [], 0
        for i in range(1, ways + 1):
            hi = count * i // ways
            start = self.last * (_powers(mult, (lo + 1,), n, stats)[0] if lo else mult) % n
            jobs.append((start, mult, n, hi - lo, (1 << MITM_WIDTH) - 1, lo > 0))
            lo = hi
        stats.modmuls += count
        parts = workers.run(_chain, jobs)
        fps = parts[0][0]
        for part, _ in parts[1:]:
            fps.extend(part)
        self.last, self.top = parts[-1][1], end
        return fps


def _stage_bounds(r_max, s_max, s_top=0):
    """(r_top, r_end, s_top, s_end) of each stage of a mitm window: the r
    and s it holds before the stage, from 0 and s_top, and the bounds the
    stage reaches, min(T, r_max) and min(T, s_max), with T from
    MITM_FIRST_STAGE, doubled each stage until both bounds are reached."""
    bound, r_top = MITM_FIRST_STAGE, 0
    while r_top < r_max or s_top < s_max:
        r_end, s_end = min(bound, r_max), min(bound, s_max)
        yield r_top, r_end, s_top, s_end
        r_top, s_top, bound = r_end, max(s_top, s_end), 2 * bound


class _Window:
    """What the anchor loop (_anchor_windows) asks of a window of anchor m:
    stages(), which yields each stage's (k, d) pairs to try, in order, then
    close() after a recovery or hand_off() once the stages run out; a
    stage lets an index go early with close(*kept) itself. The
    indexes a window holds are those of its s side and of its r streams;
    the first stream is its plus stream."""

    s_side, streams, keep = None, (), 0

    def close(self, *kept):
        """Note the bytes the indexes and pending arrays hold together in
        stats.table_bytes, a peak, then charge each index's probes and rows
        to stats and let it go, all but those of the sides kept."""
        stats = self.stats
        sides = [side for side in (self.s_side, *self.streams)
                 if side is not None and side.index is not None]
        stats.table_bytes = max(stats.table_bytes, sum(
            side.index.nominal_bytes + sys.getsizeof(side.pending) for side in sides))
        for side in sides:
            if side not in kept:
                stats.probes += side.index.probes
                stats.rows_examined += side.index.rows_examined
                stats.rows_skipped += side.index.rows_skipped
                side.index = None

    def hand_off(self):
        """Close the exhausted window. When keep, its plus stream keeps its
        index and is returned as anchor m + 1's s side; else None."""
        plus = self.streams[0] if self.keep else None
        self.close(plus)
        return plus


class _ScanWindow(_Window):
    """vvt's window: one vvt_scan of the whole box, a stage whose only pair
    is its hit, if any. The scan counts its trials in closed form, the
    hit's among them, which is charged instead when the hit is tried. It
    holds no index and hands nothing on."""

    def __init__(self, pub, cfg, stats, anchor, r_max, s_max, keep, side, base):
        self.scan = (pub.n, pub.e, *anchor, r_max, s_max, cfg.probe_minus_form)
        self.stats = stats

    def stages(self):
        hit, trials = vvt_scan(*self.scan)
        self.stats.method1_trials += trials - (hit is not None)
        yield [] if hit is None else [(hit[1], hit[0])]


class _StageWindow(_Window):
    """Meet-in-the-middle window of anchor m, searched in stages.

    With B = 2^e mod n (base) and A_j = B^(q_{j+1}), anchor m solves
    A_m^r * A_{m-1}^s == 2 (the plus form, d = r*q1 + s*q0) or
    A_m^r * A_{m-1}^-s == 2 (the minus form, d = r*q1 - s*q0), with
    anchor = (p0, q0, p1, q1) its convergents m and m + 1. Its s side is
    the chain 2*A_{m-1}^-s or A_{m-1}^s; against it the plus form puts the
    r stream a^r or 2*a^-r, with a = A_m, and the minus form, at every
    anchor but -1, 4*a^-r or a^r/2. The plus stream a^r (2*a^-r) of
    anchor m is the s side A_m^s (2*A_m^-s) of anchor m + 1: when keep is
    not 0, hand_off returns it, with at least its first keep fingerprints
    stored.
    Every window is given B, made and charged by the anchor loop. One
    opened without such a side pays two powers of about q bits, B^(q0) and
    B^(q1), as one job list (_powers); given one, it pays one, a = B^(q1),
    and one chain per stream.
    Anchor -1 is no exception: there q0 = 0, so B^(q0) = 1 and the s side
    2*A_{-2}^-s is the constant 2, and a^r == 2 exactly when 4*a^-r == 2.
    Its window costs what any first window costs, r_max + s_max chain
    steps and one inverse, with the minus form or without: it makes no
    minus stream, since no minus pair there can be the key's. There d = r
    and a minus pair's k = r*a_0 - s <= d*a_0 - 1, while any (d, k) that
    method1_factor accepts has e*d - 1 = k*phi' with
    phi' = n + 1 - (p' + q') <= n + 1 - ceil(2*sqrt(n)), so that
    a_0 <= target <= e/phi' gives k >= d*a_0. So a window makes the minus
    stream where q0 >= 1, at every m >= 0, where p1 >= 1 as well.

    A stage with bound T covers r <= min(T, r_max) and s <= min(T, s_max)
    (_stage_bounds). A stage looks the r streams' new segments up in the s
    side's index, which holds every s it has, then the s side's new segment,
    if it still grows, up in each stream's index, which holds every r up to
    the stage's bound, so each (r, s, sign) of the window is matched exactly
    once; an s side given stored past s_max yields no hit beyond it. A
    segment is stored while a later lookup will use it, and the plus
    stream's up to keep also, in a plain array once no lookup of this anchor
    uses it. stages() gives each stage's hits as (k, d) pairs in (s, sign,
    r) order, so a search tries them in (stage, s, sign, r) order and stops
    at the first recovery: a key costs about max(r, s) modular
    multiplications at its anchor, or about r given a side, and an exhausted
    window r_max per stream plus s_max, or plus what s_max asks past the
    side given.
    """

    def __init__(self, pub, cfg, stats, anchor, r_max, s_max, keep, side, base):
        n, (_, q0, _, q1) = pub.n, anchor
        if side is not None:
            side.index.extend(side.pending)
            side.pending = array("Q")
            side.index.row_bound = 0  # r is looked up in it now
            a, = _powers(base, (q1,), n, stats)
        else:
            b, a = _powers(base, (q0, q1), n, stats)
            side = _Side(2, _inv(b, n, stats))
        halved = side.const == 1  # the s side is A_{m-1}^s
        minus = cfg.probe_minus_form and q0 >= 1
        a_inv = _inv(a, n, stats) if halved or minus else None
        forms = [(2, a_inv) if halved else (1, a), ((n + 1) // 2, a) if halved else (4, a_inv)]
        self.pub, self.cfg, self.stats, self.anchor = pub, cfg, stats, anchor
        self.r_max, self.s_max, self.keep, self.s_side = r_max, s_max, keep, side
        self.streams = [_Side(const, mult, r_max)
                        for const, mult in forms[:1 + minus]]

    def stages(self):
        n, stats, gcd_rows, keep = self.pub.n, self.stats, self.cfg.gcd_rows, self.keep
        r_max, s_max, s_side, streams = self.r_max, self.s_max, self.s_side, self.streams
        for r_top, r_end, s_top, s_end in _stage_bounds(r_max, s_max, s_side.top):
            hits = []
            # A segment is freed once matched, before the next is made.
            if r_top < r_end:
                segments = [stream.grow(r_end, n, stats) for stream in streams]
                if s_top:
                    for sign, fps in enumerate(segments):
                        hits += [(s, sign, r) for r, s in s_side.index.probe_fp(
                            fps, gcd_rows, r_top + 1) if s <= s_max]
                if r_end == r_max:
                    # No later r is looked up in the s side: let its
                    # index go before the streams grow for the last time.
                    self.close(*streams)
                for stream, fps in zip(streams, segments):
                    if s_top < s_max:
                        stream.index.extend(fps)
                    elif stream is streams[0] and r_top < keep:
                        stream.pending.extend(islice(fps, keep - r_top))
                del segments, fps
            if s_top < s_end:
                fps = s_side.grow(s_end, n, stats)
                for sign, stream in enumerate(streams):
                    hits += [(s, sign, r) for s, r
                             in stream.index.probe_fp(fps, gcd_rows, s_top + 1)]
                if r_end < r_max:
                    s_side.index.extend(fps)
                del fps
            yield self._pairs(hits)

    def _pairs(self, hits):
        """The (k, d) of each hit (s, sign, r), in order: sign 0
        (d = r*q1 + s*q0) before sign 1 (d = r*q1 - s*q0)."""
        p0, q0, p1, q1 = self.anchor
        return [(r * p1 + t * p0, r * q1 + t * q0)
                for t, r in ((-s if sign else s, r) for s, sign, r in sorted(hits))]


def run_attack(pub: PublicKey, cfg: AttackConfig, context: KeyContext | None = None
               ) -> AttackResult:
    """The engine that cfg.variant names; wiener searches no window.

    context is the key's set-up under cfg.approx (key_context), made here
    when None; a caller that searches one key more than once passes its
    own. cfg.validate() comes first: it holds vvt or mitm bounds the same
    at every anchor (explicit, fixed4d) to the variant's cap. An even n
    then splits as 2 * (n // 2) before any set-up or search. When a mitm
    search under such bounds makes the context and the power B = 2^e mod n
    is worth splitting (workers.ways), B is made on a worker meanwhile and
    handed to the anchor loop, which charges it only if the first window
    opens. Quotient bounds need the context, so a quotient search makes it
    here, and the loop makes B once the first anchor's bounds pass: nothing
    is forked before they do.
    """
    cfg.validate()
    stats = Stats()
    t0 = time.perf_counter()
    try:
        if pub.n % 2 == 0:
            return AttackResult("gcd-break", p=2, q=pub.n // 2, stats=stats)
        base = None
        if context is None:
            if (cfg.variant == "mitm" and cfg.bound_mode != "quotient"
                    and workers.ways(_muls(pub.e), pub.n.bit_length()) > 1):
                context, base = workers.run(_call, [
                    (key_context, pub, cfg.approx), (_power, 2, pub.e, pub.n)])
            else:
                context = key_context(pub, cfg.approx)
        elif (context.pub, context.approx) != (pub, cfg.approx):
            raise ValueError("the key context is of another key or approximation target")
        return _anchor_windows(context, cfg, stats, base)
    finally:
        stats.wall_time = time.perf_counter() - t0
