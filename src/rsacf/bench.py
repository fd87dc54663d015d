"""Desk-scale reproduction of the success-rate and bound-comparison tables."""

import random
from dataclasses import dataclass, replace
from math import ceil, isfinite

from .attack import AttackConfig, anchor_index, run_attack
from .rsa import MIN_D_RATIO, keygen_weak

# (bound on r, bound on s) as multiples of D.
SUCCESS_BOUND_ROWS = (
    (4, 4),
    (2, 2),
    (1, 1),
    (1, 4),
    (4, 1),
    (0.5, 2),
    (2, 0.5),
    (0.25, 4),
    (4, 0.25),
)

DEFAULT_BOUND_TABLE_ROWS = (512, 768, 1024, 2048)


@dataclass(frozen=True)
class SuccessRow:
    r_bound_mult: float
    s_bound_mult: float
    trials: int
    successes: int

    @property
    def rate(self) -> float:
        return self.successes / self.trials


def success_table(bits, d_ratio, trials, seed, *, approx="plain"):
    """Success rate of the meet-in-the-middle attack per (r, s) bound row.

    Each attack runs with the gcd filter on; a miss gets the minus-form
    rescue. The same seeded keys are reused for every row (paired samples),
    which keeps the between-row comparisons low-variance at desk-scale
    trial counts.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (isfinite(d_ratio) and d_ratio > 0):
        raise ValueError(f"d_ratio must be finite and positive, got {d_ratio!r}")
    rng = random.Random(seed)
    # d_ratio is the cap of the operating range d < d_ratio * n^0.25; each
    # trial key gets a secret exponent drawn uniformly below that cap.
    keys = []
    for _ in range(trials):
        ratio = max(d_ratio * rng.random(), MIN_D_RATIO)
        keys.append(keygen_weak(bits, ratio, rng.randrange(1 << 63)))
    anchors = [anchor_index(pub, approx) for pub, _ in keys]
    rows = []
    for r_mult, s_mult in SUCCESS_BOUND_ROWS:
        r_max = max(1, ceil(r_mult * d_ratio))
        s_max = max(1, ceil(s_mult * d_ratio))
        cfg = AttackConfig(
            variant="mitm",
            r_max=r_max,
            s_max=s_max,
            approx=approx,
            gcd_rows=True,
        )
        successes = 0
        for (pub, _), m_prime in zip(keys, anchors):
            if run_attack(pub, cfg).recovered:
                successes += 1
            elif m_prime is not None and _minus_rescue(pub, m_prime, cfg):
                successes += 1
        rows.append(SuccessRow(r_mult, s_mult, trials, successes))
    return rows


def _minus_rescue(pub, m_prime, cfg):
    """Rescue pass for the row cfg at the middle window index m' + 1 with
    the bounds swapped.

    The candidate family behind the reference table pairs the plus form
    d = r*q_{m+1} + s*q_m over the whole window with a minus form anchored
    at m' + 1 in which the s bound limits the coefficient of the larger
    convergent, i.e. d = r'*q_{m'+2} - s'*q_{m'+1} with r' <= s_max and
    s' <= r_max. The rescue is one mitm run: its own Wiener pass, then at
    m' + 1 the plus and the minus stream, both with the swapped bounds.
    """
    return run_attack(pub, replace(
        cfg, r_max=cfg.s_max, s_max=cfg.r_max, probe_minus_form=True,
        m_candidates=(m_prime + 1,))).recovered


def bound_table(rows=DEFAULT_BOUND_TABLE_ROWS):
    """Reachable-d bit bounds: meet-in-the-middle (2^30 * n^0.25) vs LLL (n^0.292)."""
    if any(log2n < 1 for log2n in rows):
        raise ValueError("bench: every log2(n) row must be >= 1")
    return [
        (log2n, round(30 + 0.25 * log2n), round(0.292 * log2n))
        for log2n in rows
    ]


def format_success_table(rows):
    lines = ["r_bound  s_bound  trials  successes  rate"]
    for row in rows:
        lines.append(
            f"{row.r_bound_mult:>6g}D {row.s_bound_mult:>7g}D"
            f" {row.trials:>7d} {row.successes:>10d}  {row.rate:.3f}"
        )
    return "\n".join(lines)


def format_bound_table(rows):
    lines = ["log2_n  mitm_bound_bits  lll_bound_bits"]
    for log2n, mitm_bits, lll_bits in rows:
        lines.append(f"{log2n:>6d} {mitm_bits:>16d} {lll_bits:>15d}")
    return "\n".join(lines)
