"""Meet-in-the-middle fingerprint table over the powers a^r mod n.

Entries store only a truncated fingerprint (the low w bits of a^r mod n)
plus the exponent r, partitioned into rows by the residues of r modulo a
small prime set so probes with known s can skip rows that cannot satisfy
gcd(r, s) = 1.
"""

from array import array
from bisect import bisect_left
from math import gcd

from .numeric import NotInvertibleError

DEFAULT_ROW_PRIMES = (2, 3, 5)
MIN_WIDTH = 16
MAX_WIDTH = 64


def fingerprint(x: int, w: int) -> int:
    """Low w bits of x; equal inputs give equal fingerprints."""
    if not MIN_WIDTH <= w <= MAX_WIDTH:
        raise ValueError(f"width must be in [{MIN_WIDTH}, {MAX_WIDTH}], got {w}")
    return x & ((1 << w) - 1)


def fingerprint_width(r_max: int, s_max: int = 0) -> int:
    """2 * ceil(log2(max(r_max, s_max))) + 8, clamped to [16, 64]."""
    top = max(r_max, s_max, 2)
    w = 2 * (top - 1).bit_length() + 8
    return min(max(w, MIN_WIDTH), MAX_WIDTH)


def power_chain_fps(start, mult, n, count, mask):
    """Fingerprints of start, start*mult, ... (count values, mod n).

    Returns (fps, modmuls); one modular multiplication per step after the
    first value.
    """
    fps = []
    append = fps.append
    cur = start
    for i in range(count):
        append(cur & mask)
        if i + 1 < count:
            cur = cur * mult % n
    return fps, max(count - 1, 0)


class FingerprintTable:
    """Immutable after build; probes are read-only apart from counters."""

    def __init__(self, R, w, rows, modmuls):
        self.R = R
        self.w = w
        self._rows = rows  # residue tuple -> (sorted fp array, r array)
        self.modmuls = modmuls
        self.probes = 0
        self.rows_examined = 0
        self.rows_skipped = 0

    @classmethod
    def build(cls, a, n, R, w=None):
        """Insert fingerprint(a^r mod n) for r in [1, R], one modmul per step."""
        if R < 1:
            raise ValueError("R must be >= 1")
        if not 0 < a < n:
            raise ValueError("need 0 < a < n")
        g = gcd(a, n)
        if g != 1:
            # A shared factor breaks n outright; surface it.
            raise NotInvertibleError(a, n, g)
        if w is None:
            w = fingerprint_width(R)
        mask = (1 << w) - 1
        fps, modmuls = power_chain_fps(a, a, n, R, mask)
        buckets = {}
        for r, fp in enumerate(fps, 1):
            key = tuple(r % p for p in DEFAULT_ROW_PRIMES)
            buckets.setdefault(key, []).append((fp, r))
        rows = {}
        for key, pairs in buckets.items():
            pairs.sort()
            rows[key] = (
                array("Q", (fp for fp, _ in pairs)),
                array("Q", (r for _, r in pairs)),
            )
        return cls(R, w, rows, modmuls)

    @property
    def entries(self) -> int:
        return self.R

    @property
    def nominal_bytes(self) -> int:
        # Compact budget: w fingerprint bits plus an 8-byte index per entry.
        return self.R * (self.w // 8 + 8)

    def row_skipped(self, key, s: int) -> bool:
        """True when no r in this row can have gcd(r, s) = 1."""
        return any(s % p == 0 and res == 0 for p, res in zip(DEFAULT_ROW_PRIMES, key))

    def probe_fp(self, fp: int, s: int = 0, gcd_filter: bool = False) -> list:
        """All stored r whose fingerprint equals fp, ascending."""
        hits = []
        for key, (fps, rs) in self._rows.items():
            if gcd_filter and self.row_skipped(key, s):
                self.rows_skipped += 1
                continue
            self.rows_examined += 1
            i = bisect_left(fps, fp)
            while i < len(fps) and fps[i] == fp:
                hits.append(rs[i])
                i += 1
        self.probes += 1
        hits.sort()
        return hits

    def probe(self, target: int, s: int = 0, gcd_filter: bool = False) -> list:
        return self.probe_fp(fingerprint(target, self.w), s, gcd_filter)
