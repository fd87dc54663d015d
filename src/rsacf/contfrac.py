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
    quotients = []
    while den:
        a, rem = divmod(num, den)
        quotients.append(a)
        num, den = den, rem
    convergents = []
    p1, q1 = 1, 0  # p_{-1}, q_{-1}
    p0, q0 = quotients[0], 1
    convergents.append((p0, q0))
    for a in quotients[1:]:
        p0, p1 = a * p0 + p1, p0
        q0, q1 = a * q0 + q1, q0
        convergents.append((p0, q0))
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
    # with r*s < 2c. Those with r = 1 alone give at least 4c fractions, so
    # 4c > WORLEY_BUDGET is refused before the pairs are counted.
    num, den = two_c.numerator, two_c.denominator
    if 4 * c > WORLEY_BUDGET or 2 * len(cf) * (2 + sum(
            (num - 1) // (r * den) for r in range(1, math.ceil(two_c)))) > WORLEY_BUDGET:
        raise ValueError(f"c = {float(c):g} would build more than"
                         f" {WORLEY_BUDGET} candidate fractions")
    pairs = [(1, 0), (0, 1)]
    r = 1
    while r < two_c:
        s = 1
        while r * s < two_c:
            pairs.append((r, s))
            s += 1
        r += 1
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

    Comparisons are exact rational arithmetic; callers pass a bound that
    safely over-estimates the real error term.
    """
    if cf is None:
        cf = expand(ef)
    top = len(cf) - 1
    if top % 2 == 0:
        top -= 1
    for m in range(top, 0, -2):
        p, q = cf.convergent(m)
        if Fraction(p, q) - ef > bound:
            return m
    return None


def rs_bounds(a_next: int, a_next2: int, a_next3: int, D):
    """Heuristic search bounds on (r, s) for a given D = d / n^0.25."""
    if D < 0:
        raise ValueError("D must be nonnegative")
    t3 = math.sqrt(2.122 * (a_next3 + 2))
    t2 = math.sqrt(2.122 * (a_next2 + 2))
    r_max = max(t3 * (a_next2 + 1) * D, t2 * D)
    s_max = max(2 * t3 * D, t2 * (a_next + 1) * D)
    return (r_max, s_max)
