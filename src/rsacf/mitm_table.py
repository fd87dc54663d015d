"""Meet-in-the-middle fingerprint indexes over the powers x^j mod n.

An index stores only a truncated fingerprint (the low w bits of x^j mod n)
plus the exponent j, and grows by segments of consecutive exponents. One
hash maps each fingerprint to its first exponent; a side hash maps a
repeated fingerprint to a list of its later exponents, appended in place,
so each repeat costs O(1). The mitm window (attack._StageWindow) keeps
one index over its s side and one per r stream (the plus form's, and the
minus form's at every anchor but -1), all at the width that its
largest admitted window asks for (attack.MITM_WIDTH), so that an index can
serve the next anchor whatever its bounds, grows both sides stage by
stage, and looks each new segment up in bulk in the other side's index,
one call per segment.

With the gcd filter a hit (s, r) is kept only when gcd(r, s, 30) = 1: no
prime of 2*3*5 divides both, so no coprime pair is lost. The filter costs
nothing per probe since it runs on hits only. Its counters report, per
fingerprint looked up at s in an index with a row bound, the classes of r
modulo 30 that it admits (rows examined) or rules out (rows skipped); an
unfiltered probe, or one into an index without a row bound, counts no rows.
"""

import sys
from functools import cache
from itertools import compress
from math import gcd

from .numeric import NotInvertibleError

# 2*3*5: the smallest primes rule out the most (r, s) pairs, about 36% of
# the classes of r for a random s, and 30 classes stay cheap to count.
ROW_MODULUS = 30
MIN_WIDTH = 16
MAX_WIDTH = 64
# The modulus size from which power_chain_fps steps by its limb table. On
# 2 vCPUs (CPython 3.11) the limb step ran 0.92x the plain step's speed at
# 512 bits, about 1.0x from 544 to 640, 1.10x at 672 and 1.2-1.3x at 1024;
# below 512 it loses more (0.72x at 256 and 384).
LIMB_MIN_BITS = 640


def _check_width(w):
    if not MIN_WIDTH <= w <= MAX_WIDTH:
        raise ValueError(f"width must be in [{MIN_WIDTH}, {MAX_WIDTH}], got {w}")


def fingerprint(x: int, w: int) -> int:
    """Low w bits of x; equal inputs give equal fingerprints."""
    _check_width(w)
    return x & ((1 << w) - 1)


def fingerprint_width(r_max: int, s_max: int = 0) -> int:
    """2 * ceil(log2(max(r_max, s_max))) + 8, clamped to [16, 64]."""
    top = max(r_max, s_max, 2)
    w = 2 * (top - 1).bit_length() + 8
    return min(max(w, MIN_WIDTH), MAX_WIDTH)


def power_chain_fps(start, mult, n, count, mask):
    """Fingerprints of start, start*mult, ... (count >= 1 values, mod n).

    Returns (fps, modmuls, last): one modular multiplication per step after
    the first value, and the last value, from which a chain continues.

    From LIMB_MIN_BITS, a step splits cur into four k-bit limbs,
    k = ceil(bits / 4), and multiplies limb i by t_i = mult * 2^(k*i) mod n,
    made once a chain: the sum is about k + 2 bits wider than n, so its one
    % n divides far less than cur * mult % n, whose dividend is n's bits
    wider. Both give the same residue. The four reductions that make the
    table are not counted in modmuls.
    """
    fps = [start & mask]
    append = fps.append
    cur = start
    bits = n.bit_length()
    if bits < LIMB_MIN_BITS:
        for _ in range(count - 1):
            cur = cur * mult % n
            append(cur & mask)
        return fps, count - 1, cur
    k = -(-bits // 4)
    k2, k3, km = 2 * k, 3 * k, (1 << k) - 1
    t0 = mult % n
    t1 = (t0 << k) % n
    t2 = (t1 << k) % n
    t3 = (t2 << k) % n
    for _ in range(count - 1):
        cur = ((cur & km) * t0 + (cur >> k & km) * t1 + (cur >> k2 & km) * t2
               + (cur >> k3) * t3) % n
        append(cur & mask)
    return fps, count - 1, cur


@cache
def _admitted_rows(n_rows):
    """Per s mod 30, how many of the row classes r = 1..n_rows have
    gcd(r, s, 30) = 1. Eight distinct patterns: which of 2, 3, 5 divide s."""
    return tuple(sum(gcd(r, s, ROW_MODULUS) == 1 for r in range(1, n_rows + 1))
                 for s in range(ROW_MODULUS))


class FingerprintTable:
    """Index from fingerprint to exponent. It grows by extend; a lookup
    (probe_fp) is read-only apart from counters."""

    def __init__(self, w, row_bound=0):
        _check_width(w)
        self.w = w
        self.R = 0  # stored exponents: 1..R
        self._index = {}  # fp -> its first exponent
        self._repeats = {}  # fp -> its later exponents, an ascending list
        # A probe counts the classes mod 30 of the exponents 1..row_bound;
        # 0 counts none. The owner may change it between probes.
        self.row_bound = row_bound
        self.modmuls = 0
        self.probes = 0
        self.rows_examined = 0
        self.rows_skipped = 0

    @classmethod
    def build(cls, a, n, R, w=None):
        """Index fingerprint(a^r mod n) for r in [1, R], one modmul per step."""
        if R < 1:
            raise ValueError("R must be >= 1")
        if not 0 < a < n:
            raise ValueError("need 0 < a < n")
        g = gcd(a, n)
        if g != 1:
            # A shared factor breaks n outright; surface it.
            raise NotInvertibleError(a, n, g)
        table = cls(fingerprint_width(R) if w is None else w, R)
        fps, table.modmuls, _ = power_chain_fps(a, a, n, R, (1 << table.w) - 1)
        table.extend(fps)
        return table

    def extend(self, fps):
        """Store fps[i] under exponent R + 1 + i."""
        index, repeats = self._index, self._repeats
        for j, fp in enumerate(fps, self.R + 1):
            if index.setdefault(fp, j) != j:
                repeats.setdefault(fp, []).append(j)
        self.R += len(fps)

    @property
    def nominal_bytes(self) -> int:
        """Bytes the table holds, measured from its objects: both hashes,
        the lists of repeats, and one w-bit fingerprint int and one exponent
        int per entry."""
        return (sys.getsizeof(self._index) + sys.getsizeof(self._repeats)
                + sum(map(sys.getsizeof, self._repeats.values()))
                + self.R * (sys.getsizeof(1 << (self.w - 1)) + sys.getsizeof(self.R)))

    def probe_fp(self, fps, gcd_filter: bool = False, first: int = 1) -> list:
        """(s, r) for every stored r whose fingerprint equals fps[s - first],
        in (s, r) order; with the filter, only those with gcd(r, s, 30) = 1.

        Counts one probe at each s = first..first+len(fps)-1 and, with the
        filter and a row bound, the row classes r mod 30 that each s admits
        (rows examined) and rules out (rows skipped)."""
        ss = range(first, first + len(fps))
        self.probes += len(ss)
        n_rows = min(self.row_bound, ROW_MODULUS)
        if gcd_filter and n_rows:
            admitted = _admitted_rows(n_rows)
            examined = sum(admitted[s % ROW_MODULUS] for s in ss)
            self.rows_examined += examined
            self.rows_skipped += len(ss) * n_rows - examined
        index, repeats, hits = self._index, self._repeats, []
        for s in compress(ss, map(index.__contains__, fps)):
            fp = fps[s - first]
            hits.extend((s, r) for r in (index[fp], *repeats.get(fp, ()))
                        if not gcd_filter or gcd(r, s, ROW_MODULUS) == 1)
        return hits
