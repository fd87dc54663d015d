"""Continued fractions of exact rationals and candidate fraction enumeration.

Convergents follow the standard recurrence with seeds p_{-1}/q_{-1} = 1/0
and p_0/q_0 = a_0/1, so index m = -1 is legal wherever an index appears.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

WORLEY_BUDGET = 1 << 16  # candidate fractions, bounding worley_enumerate's time and memory


@dataclass(frozen=True)
class ContFrac:
    """Finite continued fraction: partial quotients plus convergents.

    quotients[i] is a_i; convergents[m] is (p_m, q_m) for m >= 0.
    """

    quotients: tuple
    convergents: tuple

    def __len__(self):
        return len(self.quotients)

    def convergent(self, m: int) -> tuple:
        if m == -1:
            return (1, 0)
        return self.convergents[m]

    def quotient(self, i: int) -> int:
        # Out-of-range quotients read as 0 so bound formulas degrade gracefully.
        return self.quotients[i] if 0 <= i < len(self.quotients) else 0

    def value(self) -> Fraction:
        p, q = self.convergents[-1]
        return Fraction(p, q)


@dataclass(frozen=True)
class WorleyCandidate:
    """One fraction (r*p_{m+1} +/- s*p_m) / (r*q_{m+1} +/- s*q_m)."""

    m: int
    r: int
    s: int
    sign: str  # '+' or '-'
    frac: Fraction
    satisfies: bool  # whether |alpha - frac| < c / den(frac)^2


def expand(x: Fraction) -> ContFrac:
    """Canonical continued fraction expansion of a nonnegative rational.

    The Euclidean algorithm yields the canonical form directly (final
    partial quotient >= 2 whenever the expansion has length > 1).
    """
    if x < 0:
        raise ValueError("expansion defined for nonnegative rationals only")
    num, den = x.numerator, x.denominator
    quotients, convergents = [], []
    p1, q1, p0, q0 = 0, 1, 1, 0  # p_{-2}, q_{-2}, p_{-1}, q_{-1}
    while den:
        a, rem = divmod(num, den)
        quotients.append(a)
        p0, p1 = a * p0 + p1, p0
        q0, q1 = a * q0 + q1, q0
        convergents.append((p0, q0))
        num, den = den, rem
    return ContFrac(tuple(quotients), tuple(convergents))


def worley_enumerate(x: Fraction, c) -> list:
    """All fractions of the two-convergent combination form with r*s < 2c.

    By Worley's theorem this set contains every p/q with |x - p/q| < c/q^2.
    Candidates are emitted in increasing m, then increasing r*s, deduplicated
    after reduction; zero denominators and r = s = 0 encode no fraction and
    are skipped. Raises ValueError, before building any, when there would be
    more than WORLEY_BUDGET of them.
    """
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"c must be finite and positive, got {c!r}")
    c = Fraction(c)
    cf = expand(x)
    two_c = 2 * c
    # Two signs per anchor index and pair: (1, 0), (0, 1) and each r, s >= 1
    # with r*s < 2c, that is r < 2c and s <= s_top(r). Those with r = 1
    # alone give at least 4c fractions, so 4c > WORLEY_BUDGET is refused
    # before the pairs are counted.
    num, den = two_c.numerator, two_c.denominator

    def s_top(r):
        return (num - 1) // (r * den)

    r_range = range(1, math.ceil(two_c))
    if 4 * c > WORLEY_BUDGET or 2 * len(cf) * (2 + sum(map(s_top, r_range))) > WORLEY_BUDGET:
        raise ValueError(f"c = {float(c):g} would build more than"
                         f" {WORLEY_BUDGET} candidate fractions")
    pairs = [(1, 0), (0, 1)] + [(r, s) for r in r_range for s in range(1, s_top(r) + 1)]
    pairs.sort(key=lambda rs: (rs[0] * rs[1], rs[0], rs[1]))

    out = []
    seen = set()
    for m in range(-1, len(cf) - 1):
        pm, qm = cf.convergent(m)
        pm1, qm1 = cf.convergent(m + 1)
        for r, s in pairs:
            for sign, tag in ((1, "+"), (-1, "-")):
                if s == 0 and sign == -1:
                    continue
                den = r * qm1 + sign * s * qm
                if den <= 0:
                    continue
                frac = Fraction(r * pm1 + sign * s * pm, den)
                if frac in seen:
                    continue
                seen.add(frac)
                ok = abs(x - frac) < c / frac.denominator**2
                out.append(WorleyCandidate(m, r, s, tag, frac, ok))
    return out


def locate_m_prime(ef: Fraction, bound: Fraction, cf: ContFrac | None = None):
    """Largest odd index m' with p_{m'}/q_{m'} - ef > bound, or None.

    cf is the expansion of ef. Its odd convergents fall strictly towards
    ef, so the odd indices that pass the test are a prefix 1, 3, ..., m',
    whatever the bound, and a bisection over the odd indices finds its end
    in about log2(len(cf)) tests. Each test is exact and in integers: with
    ef = x_num/x_den and bound = b_num/b_den (denominators positive),
    p/q - ef > bound is (p*x_den - x_num*q) * b_den > b_num * q * x_den.
    Callers pass a bound that safely over-estimates the real error term.
    """
    if cf is None:
        cf = expand(ef)
    ef, bound = Fraction(ef), Fraction(bound)
    x_num, x_den = ef.numerator, ef.denominator
    b_num, b_den = bound.numerator, bound.denominator
    # Odd index 2i + 1 for i in [0, len(cf) // 2): those below lo pass,
    # those from hi up fail.
    lo, hi = 0, len(cf) // 2
    while lo < hi:
        mid = (lo + hi) // 2
        p, q = cf.convergent(2 * mid + 1)
        if (p * x_den - x_num * q) * b_den > b_num * q * x_den:
            lo = mid + 1
        else:
            hi = mid
    return 2 * lo - 1 if lo else None


def rs_bounds(a_next: int, a_next2: int, a_next3: int, D):
    """Heuristic search bounds on (r, s) for a given D = d / n^0.25."""
    if D < 0:
        raise ValueError("D must be nonnegative")
    t3 = math.sqrt(2.122 * (a_next3 + 2))
    t2 = math.sqrt(2.122 * (a_next2 + 2))
    r_max = max(t3 * (a_next2 + 1) * D, t2 * D)
    s_max = max(2 * t3 * D, t2 * (a_next + 1) * D)
    return (r_max, s_max)
