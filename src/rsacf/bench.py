"""Desk-scale reproduction of the success-rate and bound-comparison tables."""

import random
from dataclasses import dataclass, replace
from math import ceil, isfinite
from operator import itemgetter

from . import workers
# anchor_index is not called here. It stays importable as bench.anchor_index,
# a name perfbench/spans.py traces (test_every_traced_name_exists).
from .attack import (AttackConfig, _windows, anchor_index, key_context,  # noqa: F401
                     run_attack)
from .rsa import MIN_D_RATIO, GenerationError, keygen_weak

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

# A key of success_table, in operations of its bits for workers.ways; see
# workers.MIN_WORK for the figures behind it.
KEY_OPS = 1 << 11


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

    A row (R, S) recovers a key when its mitm attack, with the gcd filter
    on, does, or else when the minus-form rescue at (S, R) does. The same
    seeded keys are reused for every row (paired samples), which keeps the
    between-row comparisons low-variance at desk-scale trial counts.

    Every row's box, and its rescue's, lies inside the largest row bounds,
    so each key gets one search at those bounds and, when that misses and
    the anchor m' exists, one rescue. On a two-prime n, which keygen_weak
    makes, a recovered (d, k) is the true pair, and each row is answered by
    comparison: a Wiener hit succeeds in every row; otherwise a row succeeds
    when the key's (r, s) at some tried anchor, or its rescue's at m' + 1,
    lies in the row's box.

    Each key, made and searched, is a job of workers.run; the keys go in
    interleaved shares and their per-row counts are summed. A share replays
    the seeded draws itself (_draws), so that nothing held here grows with
    trials.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (isfinite(d_ratio) and d_ratio > 0):
        raise ValueError(f"d_ratio must be finite and positive, got {d_ratio!r}")
    bounds = [(max(1, ceil(r_mult * d_ratio)), max(1, ceil(s_mult * d_ratio)))
              for r_mult, s_mult in SUCCESS_BOUND_ROWS]
    cfg = AttackConfig(
        variant="mitm",
        r_max=max(r for r, _ in bounds),
        s_max=max(s for _, s in bounds),
        approx=approx,
        gcd_rows=True,
    )
    # Refused here, before any key is made or any job sent.
    cfg.validate()
    ways = workers.ways(trials, KEY_OPS * bits)
    parts = workers.run(_count_rows, [(bits, (d_ratio, trials, seed, i, ways), cfg, bounds)
                                      for i in range(ways)])
    errors = [error for _, error in parts if error is not None]
    if errors:
        raise min(errors, key=itemgetter(0))[1]  # the one a serial run meets
    successes = [sum(column) for column in zip(*(counts for counts, _ in parts))]
    return [SuccessRow(r_mult, s_mult, trials, count)
            for (r_mult, s_mult), count in zip(SUCCESS_BOUND_ROWS, successes)]


def _draws(d_ratio, trials, seed, share, ways):
    """(i, d ratio, key seed) of the trials i = share, share + ways, ...
    of success_table, in order, from the one stream seeded with seed that
    every share replays. d_ratio is the cap of the operating range
    d < d_ratio * n^0.25; each trial key gets a secret exponent drawn
    uniformly below that cap."""
    rng = random.Random(seed)
    for i in range(trials):
        draw = i, max(d_ratio * rng.random(), MIN_D_RATIO), rng.randrange(1 << 63)
        if i % ways == share:
            yield draw


def _count_rows(bits, draws, cfg, bounds):
    """The successes per row of bounds over the keys of _draws(*draws), and
    None, or (i, the error) of the first draw i whose key could not be
    made, which ends the job."""
    counts = [0] * len(bounds)
    for i, ratio, key_seed in _draws(*draws):
        try:
            pub, _ = keygen_weak(bits, ratio, key_seed)
        except (GenerationError, ValueError) as exc:
            return counts, (i, exc)
        for j, hit in enumerate(_rows_recovered(pub, cfg, bounds)):
            counts[j] += hit
    return counts, None


def _rows_recovered(pub, cfg, bounds):
    """Whether each row (R, S) of bounds recovers the key pub, from one
    search at cfg's bounds, which hold every row's, and at most one rescue,
    both over one key context."""
    context = key_context(pub, cfg.approx)
    cf, m_prime = context.cf, context.m_prime
    result = run_attack(pub, cfg, context)
    if not result.recovered and m_prime is not None:
        result = _minus_rescue(context, cfg)
    if not result.recovered:
        return [False] * len(bounds)
    if not result.stats.m_tried:
        return [True] * len(bounds)  # the Wiener pass, which every row runs
    plus = [_rs_at(cf, m, result.d, result.k) for m, *_ in _windows(context, cfg)]
    rescue = None
    if m_prime is not None and m_prime + 1 <= len(cf) - 2:
        rescue = _rs_at(cf, m_prime + 1, result.d, result.k)
    return [any(1 <= r <= r_max and 0 <= s <= s_max for r, s in plus)
            or (rescue is not None and 1 <= rescue[0] <= s_max and abs(rescue[1]) <= r_max)
            for r_max, s_max in bounds]


def _rs_at(cf, m, d, k):
    """The integers (r, s) with d = r*q_{m+1} + s*q_m and k = r*p_{m+1} + s*p_m;
    the determinant q_{m+1}*p_m - q_m*p_{m+1} is +-1."""
    p0, q0 = cf.convergent(m)
    p1, q1 = cf.convergent(m + 1)
    det = q1 * p0 - q0 * p1
    return (d * p0 - k * q0) * det, (q1 * k - p1 * d) * det


def _minus_rescue(context, cfg):
    """The rescue of the bounds cfg for the key of context, whose m' is not
    None: one mitm run at the middle window index m' + 1 with the bounds
    swapped, as an AttackResult.

    The candidate family behind the reference table pairs the plus form
    d = r*q_{m+1} + s*q_m over the whole window with a minus form anchored
    at m' + 1 in which the s bound limits the coefficient of the larger
    convergent, i.e. d = r'*q_{m'+2} - s'*q_{m'+1} with r' <= s_max and
    s' <= r_max. The run takes the key's Wiener pass from context, which
    the search before it shares, so it makes none of its own and only
    counts its trials; then at m' + 1 it searches the plus and the minus
    stream, both with the swapped bounds. success_table runs it at most
    once per key, at the largest row bounds.
    """
    return run_attack(context.pub, replace(
        cfg, r_max=cfg.s_max, s_max=cfg.r_max, probe_minus_form=True,
        m_candidates=(context.m_prime + 1,)), context)


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
