"""Attack engines: classic Wiener, exhaustive (r, s) search, meet-in-the-middle.

All engines share a cheap convergent pre-pass: a hit there is free relative
to a table build. The exhaustive engine doubles as the testing oracle for
the meet-in-the-middle one.
"""

import sys
import time
from array import array
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import islice, repeat
from math import ceil, gcd, isfinite
from operator import indexOf, mod

from . import contfrac, workers
from .mitm_table import ROW_MODULUS, FingerprintTable, fingerprint_width, power_chain_fps
from .numeric import isqrt, mod_inv, mod_pow
from .rsa import PublicKey, method1_factor, method1_try

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
# 62 s scan of a 96-bit key and about 6 min of a 1024-bit one (230 ns and
# 1.4 us a pair on 2 vCPUs under CPython 3.11, nearly all of it the row
# filter's big-int %).
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
    """Counters of one attack.

    modmuls counts modular multiplications: one per value const * mult^j of
    a chain, and a mod_pow with exponent x as square-and-multiply does it,
    x.bit_length() - 1 squares and popcount(x) - 1 multiplies. A mod_inv,
    an extended Euclid rather than a chain of products, is charged as one;
    at 128 to 1024 bits it takes about the time of 30 to 50.
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
    """The anchor indices a search with cfg tries, in order; bench answers
    its success rows from the same list."""
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
                cf.quotient(m + 1), cf.quotient(m + 2), cf.quotient(m + 3), cfg.d_ratio,
                cfg.approx)
        return max(1, ceil(r)), max(1, ceil(s))
    except OverflowError:
        # An infinite bound, or a partial quotient beyond the float range.
        raise ValueError(f"{cfg.bound_mode} bounds at anchor index {m} are not finite"
                         f" (d_ratio {cfg.d_ratio!r})") from None


def _anchor_search(pub, cfg, window):
    """The loop every engine shares: the Wiener pass over the target's
    convergents, then per anchor index m window(pub, cfg, p0, q0, p1, q1,
    r_max, s_max, stats, shared, keep), which searches the (r, s) window
    around convergents m and m + 1, bar the corners r = 1, s = 0 and
    r = 0, s = 1 that the Wiener pass tried, and returns (an AttackResult
    or None, shared). When anchor m + 1 is searched next, keep is its
    s_max, and the shared that window m returns, or None, is handed to it;
    otherwise keep is 0 and the next window gets None. An even n splits as
    2 * (n // 2) before any search."""
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
        ms = _m_candidates(cf, target, bound, cfg)
        shared = None
        for i, m in enumerate(ms):
            stats.m_tried += 1
            p0, q0 = cf.convergent(m)
            p1, q1 = cf.convergent(m + 1)
            r_max, s_max = _bounds_for(cfg, cf, m)
            keep = 0
            if ms[i + 1:i + 2] == [m + 1]:
                try:
                    keep = _bounds_for(cfg, cf, m + 1)[1]
                except ValueError:
                    pass  # raised again when anchor m + 1 is reached
            result, shared = window(
                pub, cfg, p0, q0, p1, q1, r_max, s_max, stats, shared, keep)
            if result is not None:
                return result
        return AttackResult("exhausted", stats=stats)
    finally:
        stats.wall_time = time.perf_counter() - t0


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


def _zeros_at(rems, first, sign):
    """(position, sign) of each zero of the iterator rems, whose first value
    sits at position first, found by C-level searches."""
    at, out = first - 1, []
    try:
        while True:
            at += indexOf(rems, 0) + 1
            out.append((at, sign))
    except ValueError:
        return out


def _scan_rows(n, e, p0, q0, p1, q1, r_max, s_lo, s_hi, minus_form):
    """vvt_scan over the rows s_lo <= s < s_hi: (hit, trials), trials
    counted from row s_lo."""
    dl = e * (p1 * q0 - p0 * q1)  # p1*D0 - p0*D1
    # A row's minus pairs (d = r*q1 - s*q0 > 0, k = r*p1 - s*p0 >= 1) are
    # those with r >= r_lo, which grows with s: once past r_max, no later
    # row has any. With p1 = 0 no row has any. Started at 1, r_lo takes at
    # every row the value that a scan from row 1 gives it.
    r_lo = 1 if minus_form and p1 else r_max + 1
    trials = 0
    for s in range(s_lo, s_hi):
        sp0 = s * p0
        if p1:
            found = _zeros_at(map(mod, repeat(s * dl - p1), range(
                sp0 + p1, sp0 + r_max * p1 + 1, p1)), 1, 0)
            if r_lo <= r_max:
                r_lo = max(sp0 // p1, s * q0 // q1) + 1
                if r_lo <= r_max:
                    found += _zeros_at(map(mod, repeat(-s * dl - p1), range(
                        r_lo * p1 - sp0, r_max * p1 - sp0 + 1, p1)), r_lo, 1)
                    found.sort()
        else:
            # k = s*p0 on the whole row (anchor -1 with a target below 1),
            # so test k | r*D1 + s*D0 - 1 itself, D1 taken mod k.
            k = sp0
            step = e * q1 % k or k
            c = (s * (e * q0 - n * p0) - 1) % k
            found = _zeros_at(map(mod, range(
                c + step, c + r_max * step + 1, step), repeat(k)), 1, 0)
        for r, sign in found:
            if gcd(r, s) != 1:
                continue
            t = -s if sign else s
            d, k = r * q1 + t * q0, r * p1 + t * p0
            got = method1_try(n, e, d, k)
            if got[2] is None:
                ps = _prime_divisors(s, r_max)
                trials += _coprime_count(0, r, ps)
                if r >= r_lo:
                    trials += _coprime_count(r_lo - 1, r - 1, ps) + sign
                return (d, k, got[0], got[1]), trials
        ps = _prime_divisors(s, r_max)
        trials += _coprime_count(0, r_max, ps)
        if r_lo <= r_max:
            trials += _coprime_count(r_lo - 1, r_max, ps)
    return None, trials


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


def _scan_window(pub, cfg, p0, q0, p1, q1, r_max, s_max, stats, shared, keep):
    if r_max * s_max > VVT_MAX_PAIRS:
        raise ValueError(f"vvt bounds ({r_max}, {s_max}) exceed the cap of"
                         f" {VVT_MAX_PAIRS} pairs")
    hit, trials = vvt_scan(
        pub.n, pub.e, p0, q0, p1, q1, r_max, s_max, cfg.probe_minus_form)
    stats.method1_trials += trials
    if hit is None:
        return None, None
    return AttackResult("recovered", *hit, stats), None


def vvt_exhaustive(pub: PublicKey, cfg: AttackConfig) -> AttackResult:
    """Exhaustive search over coprime (r, s) pairs, one factor-recovery
    attempt per pair. Quadratic in the bounds; serves as the oracle."""
    return run_attack(pub, replace(cfg, variant="vvt"))


def _pow(base, exp, n, stats):
    """mod_pow, charged to stats.modmuls as square-and-multiply."""
    stats.modmuls += max(exp.bit_length() + exp.bit_count() - 2, 0)
    return mod_pow(base, exp, n)


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
            start = self.last * (_pow(mult, lo + 1, n, stats) if lo else mult) % n
            jobs.append((start, mult, n, hi - lo, (1 << MITM_WIDTH) - 1, lo > 0))
            lo = hi
        stats.modmuls += count
        parts = workers.run(_chain, jobs)
        fps = parts[0][0]
        for part, _ in parts[1:]:
            fps.extend(part)
        self.last, self.top = parts[-1][1], end
        return fps

    @property
    def nominal_bytes(self) -> int:
        """Bytes the index and the pending array hold."""
        return self.index.nominal_bytes + sys.getsizeof(self.pending)


def _drop_index(stats, side):
    """Charge the probes and rows of side's index to stats and let it go."""
    stats.probes += side.index.probes
    stats.rows_examined += side.index.rows_examined
    stats.rows_skipped += side.index.rows_skipped
    side.index = None


def _note(stats, sides):
    """Note the bytes the sides hold together in stats.table_bytes, a peak."""
    stats.table_bytes = max(stats.table_bytes, sum(side.nominal_bytes for side in sides))


def _mitm_window(pub, cfg, p0, q0, p1, q1, r_max, s_max, stats, shared, keep):
    """Meet-in-the-middle search of anchor m, in stages.

    With B = 2^e mod n (base) and A_j = B^(q_{j+1}), anchor m solves
    A_m^r * A_{m-1}^s == 2 (the plus form, d = r*q1 + s*q0) or
    A_m^r * A_{m-1}^-s == 2 (the minus form, d = r*q1 - s*q0). Its s side is
    the chain 2*A_{m-1}^-s or A_{m-1}^s; against it the plus form puts the
    r stream a^r or 2*a^-r, with a = A_m, and the minus form 4*a^-r or
    a^r/2. The plus stream a^r (2*a^-r) of anchor m is the s side A_m^s
    (2*A_m^-s) of anchor m + 1. So when keep, the s_max of anchor m + 1, is
    not 0, an exhausted window returns (None, (plus stream, B)), with at
    least the stream's first min(r_max, keep) fingerprints stored. A first
    window pays the power B and two powers of about q bits, B^(q0) and
    B^(q1); given shared, a window pays one, a = B^(q1), and one chain per
    stream.

    A stage with bound T covers r <= min(T, r_max) and s <= min(T, s_max);
    T starts at MITM_FIRST_STAGE and doubles until both bounds are reached.
    A stage looks the r streams' new segments up in the s side's index,
    which holds every s it has, then the s side's new segment, if it still
    grows, up in each stream's index, which holds every r up to the stage's
    bound, so each (r, s, sign) of the window is matched exactly once; a
    shared s side stored past s_max yields no hit beyond it. A segment is
    stored while a later lookup will use it, and the plus stream's up to
    keep also, in a plain array once no lookup of this anchor uses it.
    Hits are tried in (stage, s, sign, r) order, and the window stops at the
    first recovery: a key costs about max(r, s) modular multiplications at
    its anchor, or about r given shared, and an exhausted window r_max per
    stream plus s_max, or plus what s_max asks past the shared side.

    At anchor -1, q0 = 0: A_{-2} = 1, the s side is the constant 2 and the
    congruence is a^r == 2 whatever s is. That window builds and indexes
    only a^r, looks 2 up in it once per stage, and tries each match with
    every s of the stage in the same order.
    """
    if max(r_max, s_max) > MITM_MAX_BOUND:
        raise ValueError(f"mitm bounds ({r_max}, {s_max}) exceed the cap of"
                         f" {MITM_MAX_BOUND} per side")
    n = pub.n
    if shared is None:
        # n is odd, so the powers of 2 are units and invertible.
        base = _pow(2, pub.e, n, stats)
        s_side = _Side(2, _inv(_pow(base, q0, n, stats), n, stats)) if q0 else None
    else:
        s_side, base = shared
        s_side.index.extend(s_side.pending)
        s_side.pending = array("Q")
        s_side.index.row_bound = 0  # r is looked up in it now
    a = _pow(base, q1, n, stats)
    halved = s_side is not None and s_side.const == 1  # the s side is A_{m-1}^s
    minus_stream = cfg.probe_minus_form and q0 != 0
    a_inv = _inv(a, n, stats) if halved or minus_stream else None
    forms = [(2, a_inv) if halved else (1, a)]
    if minus_stream:
        forms.append(((n + 1) // 2, a) if halved else (4, a_inv))
    streams = [_Side(const, mult, r_max) for const, mult in forms]
    plus = streams[0]
    signs = (0, 1) if cfg.probe_minus_form else (0,)
    rs = []  # at anchor -1, the r whose a^r matches 2
    handed = None
    bound, r_top, s_top = MITM_FIRST_STAGE, 0, 0  # bounds of the stages done
    try:
        while r_top < r_max or s_top < s_max:
            r_end, s_end = min(bound, r_max), min(bound, s_max)
            hits = []
            if s_side is None:
                if r_top < r_end:
                    plus.index.extend(plus.grow(r_end, n, stats))
                    rs = plus.index.probe(2)
                hits = [(s, sign, r) for r in rs
                        for s in range(1 if r > r_top else s_top + 1, s_end + 1)
                        if not (cfg.gcd_rows and gcd(r, s, ROW_MODULUS) > 1)
                        for sign in signs]
            else:
                # A segment is freed once matched, before the next is made.
                if r_top < r_end:
                    segments = [stream.grow(r_end, n, stats) for stream in streams]
                    if s_side.top:
                        for sign, fps in enumerate(segments):
                            hits += [(s, sign, r) for r, s in s_side.index.probe_fp(
                                fps, cfg.gcd_rows, r_top + 1) if s <= s_max]
                    if r_end == r_max:
                        # No later r is looked up in the s side: let its
                        # index go before the streams grow for the last time.
                        _note(stats, [s_side, *streams])
                        _drop_index(stats, s_side)
                    for stream, fps in zip(streams, segments):
                        if s_side.top < s_max:
                            stream.index.extend(fps)
                        elif stream is plus and r_top < keep:
                            stream.pending.extend(islice(fps, keep - r_top))
                    del segments, fps
                if s_side.top < s_end:
                    first = s_side.top + 1
                    fps = s_side.grow(s_end, n, stats)
                    for sign, stream in enumerate(streams):
                        hits += [(s, sign, r) for s, r
                                 in stream.index.probe_fp(fps, cfg.gcd_rows, first)]
                    if r_end < r_max:
                        s_side.index.extend(fps)
                    del fps
                s_end = s_side.top  # past s_max when a shared side holds more
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
                return result, None
            stats.collisions += len(pairs)
        if keep:
            handed = plus, base
        return None, handed
    finally:
        sides = [side for side in (s_side, *streams)
                 if side is not None and side.index is not None]
        _note(stats, sides)
        for side in sides:
            if handed is None or side is not plus:
                _drop_index(stats, side)


_WINDOWS = {"vvt": _scan_window, "mitm": _mitm_window}


def run_attack(pub: PublicKey, cfg: AttackConfig) -> AttackResult:
    """The engine that cfg.variant names; wiener searches no window."""
    return _anchor_search(pub, cfg, _WINDOWS.get(cfg.variant))
