"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with plain `pytest`; each criterion reports its verdict on the terminal
even when output capture is active. Criteria use fixed seeds so the whole
suite is deterministic.
"""

import json
import random
import time
from fractions import Fraction

from rsacf import (
    AttackConfig,
    FingerprintTable,
    fingerprint,
    fingerprint_width,
    keygen_weak,
    run_attack,
    vvt_exhaustive,
    wiener_classic,
    worley_enumerate,
)
from rsacf.attack import anchor_index
from rsacf.cli import main

# Reference success percentages for the nine (r, s) bound rows.
REFERENCE_SUCCESS_ROWS = {
    (4, 4): 98, (2, 2): 89, (1, 1): 65,
    (1, 4): 86, (4, 1): 74, (0.5, 2): 70,
    (2, 0.5): 47, (0.25, 4): 54, (4, 0.25): 28,
}

REFERENCE_BOUND_ROWS = [
    (512, 158, 150), (768, 222, 224), (1024, 286, 299), (2048, 542, 598),
]


def _verdict(capfd, num, passed, detail):
    with capfd.disabled():
        print(f"criterion {num:2d}: {'PASS' if passed else 'FAIL'} - {detail}",
              flush=True)
    assert passed, f"criterion {num}: {detail}"


def test_criterion_01_wiener_always_succeeds(capfd):
    """200 weak 128-bit keys with d < n^0.25 / 3: 100% recovery, < 10 s."""
    rng = random.Random(1001)
    t0 = time.perf_counter()
    hits = 0
    for _ in range(200):
        pub, priv = keygen_weak(128, 0.3, rng.randrange(1 << 63))
        res = wiener_classic(pub)
        hits += res.recovered and res.d == priv.d
    elapsed = time.perf_counter() - t0
    _verdict(capfd, 1, hits == 200 and elapsed < 10.0,
             f"wiener recovered {hits}/200 keys in {elapsed:.2f}s (< 10s)")


def test_criterion_02_oracle_equivalence(capfd):
    """mitm and exhaustive engines agree on outcome and (d, k), gcd rows on/off."""
    rng = random.Random(2002)
    keys = divergences = 0
    for d_ratio in (2, 4, 8):
        bound = 4 * d_ratio
        for _ in range(34):
            pub, _ = keygen_weak(96, d_ratio, rng.randrange(1 << 63))
            oracle = vvt_exhaustive(
                pub, AttackConfig(variant="vvt", r_max=bound, s_max=bound))
            for gcd_rows in (False, True):
                res = run_attack(pub, AttackConfig(
                    variant="mitm", r_max=bound, s_max=bound,
                    gcd_rows=gcd_rows))
                if res.outcome != oracle.outcome or (
                        res.recovered and (res.d, res.k) != (oracle.d, oracle.k)):
                    divergences += 1
            keys += 1
    _verdict(capfd, 2, keys >= 100 and divergences == 0,
             f"{divergences} divergences over {keys} keys "
             f"(96-bit, D in {{2,4,8}}, gcd rows on and off)")


def test_criterion_03_success_rate_table(capfd):
    """bench success --bits 128 --d-ratio 16 --trials 500 within +/-8 points."""
    code = main(["bench", "success", "--bits", "128", "--d-ratio", "16",
                 "--trials", "500", "--json"])
    out, _ = capfd.readouterr()
    rows = {(r["r_bound_mult"], r["s_bound_mult"]): 100.0 * r["rate"]
            for r in json.loads(out)}
    worst = max(abs(rows[key] - ref)
                for key, ref in REFERENCE_SUCCESS_ROWS.items())
    ordered = (rows[(4, 4)] >= rows[(2, 2)] >= rows[(1, 1)]
               and rows[(1, 4)] > rows[(4, 1)])
    _verdict(capfd, 3, code == 0 and worst <= 8.0 and ordered,
             f"all nine rows within {worst:.1f} points (<= 8); "
             f"orderings 4D,4D >= 2D,2D >= D,D and D,4D > 4D,D hold: {ordered}")


def test_criterion_04_bound_table_exact(capfd):
    """bench bounds reproduces all four reference rows with zero tolerance."""
    code = main(["bench", "bounds", "--json"])
    out, _ = capfd.readouterr()
    rows = [(r["log2n"], r["mitm_bound_bits"], r["lll_bound_bits"])
            for r in json.loads(out)]
    _verdict(capfd, 4, code == 0 and rows == REFERENCE_BOUND_ROWS,
             f"bound table rows {rows} match exactly")


def test_criterion_05_complexity_crossover(capfd):
    """mitm is O(r_max + s_max) modmuls per index; exhaustive is quadratic."""
    pub, _ = keygen_weak(96, 2**20, 123)  # d too large for either engine
    m_prime = anchor_index(pub)
    r_max = s_max = 1 << 14
    mitm = run_attack(pub, AttackConfig(
        variant="mitm", r_max=r_max, s_max=s_max))
    mitm_budget = 4 * (r_max + s_max) * mitm.stats.m_tried
    vvt = run_attack(pub, AttackConfig(
        variant="vvt", r_max=r_max, s_max=s_max, m_candidates=(m_prime,)))
    vvt_floor = r_max * s_max // 4
    ok = (mitm.outcome == "exhausted" and vvt.outcome == "exhausted"
          and mitm.stats.modmuls <= mitm_budget
          and vvt.stats.method1_trials >= vvt_floor)
    _verdict(capfd, 5, ok,
             f"mitm {mitm.stats.modmuls} modmuls <= {mitm_budget}; "
             f"exhaustive {vvt.stats.method1_trials} trials >= {vvt_floor} "
             f"at r_max = s_max = 2^14")


def test_criterion_06_worley_completeness(capfd):
    """Brute-forced good approximations are always emitted; rs < 2c holds."""
    rng = random.Random(606)
    misses = bad_pairs = checked = 0
    for _ in range(100):
        den = rng.randrange(2, 1001)
        num = rng.randrange(1, den)
        x = Fraction(num, den)
        for c in (0.5, 1, 2, 3):
            cands = worley_enumerate(x, c)
            for cand in cands:
                if cand.r * cand.s >= 2 * c:
                    bad_pairs += 1
            emitted = {cand.frac for cand in cands if cand.satisfies}
            bound = Fraction(c)
            for q in range(1, 51):
                base = round(x * q)
                for p in range(max(0, base - 2), base + 3):
                    frac = Fraction(p, q)
                    if abs(x - frac) < bound / frac.denominator**2:
                        checked += 1
                        if frac not in emitted:
                            misses += 1
    _verdict(capfd, 6, misses == 0 and bad_pairs == 0,
             f"{misses} misses over {checked} brute-forced approximations; "
             f"{bad_pairs} emitted pairs violate rs < 2c")


def test_criterion_07_fingerprint_behavior(capfd):
    """Low accidental-collision rate; zero false negatives for R <= 512."""
    pub, _ = keygen_weak(128, 4, 7)
    n = pub.n
    table = FingerprintTable.build(3, n, 1024, w=fingerprint_width(1024))
    stored = {pow(3, r, n) for r in range(1, 1025)}
    rng = random.Random(77)
    probes = collisions = 0
    while probes < 10**4:
        x = rng.randrange(2, n)
        if x in stored:
            continue
        probes += 1
        collisions += bool(table.probe_fp([fingerprint(x, table.w)]))
    small = FingerprintTable.build(3, n, 512)
    false_negs = sum(1 for r in range(1, 513)
                     if (1, r) not in small.probe_fp([fingerprint(pow(3, r, n), small.w)]))
    rate = collisions / probes
    _verdict(capfd, 7, rate < 2**-6 and false_negs == 0,
             f"collision rate {rate:.5f} < 2^-6 over {probes} probes "
             f"(w = {table.w}); {false_negs} false negatives for R = 512")


def test_criterion_08_gcd_rows(capfd):
    """Row skip fraction >= 25% for primes {2,3,5}; outcomes unchanged."""
    pub, _ = keygen_weak(128, 4, 7)
    table = FingerprintTable.build(3, pub.n, 512)
    rng = random.Random(5)
    for s in range(1, 101):
        table.probe_fp([fingerprint(rng.randrange(2, pub.n), table.w)], True, s)
    fraction = table.rows_skipped / (table.rows_skipped + table.rows_examined)
    # Outcome invariance: every attack in the criterion-2 sweep already ran
    # with gcd rows on and off; re-check a fresh sample here.
    rng = random.Random(808)
    changed = 0
    for _ in range(25):
        key_pub, _ = keygen_weak(96, 8, rng.randrange(1 << 63))
        plain = run_attack(key_pub, AttackConfig(
            variant="mitm", r_max=32, s_max=32))
        rows = run_attack(key_pub, AttackConfig(
            variant="mitm", r_max=32, s_max=32, gcd_rows=True))
        changed += (plain.outcome, plain.d, plain.k) != (
            rows.outcome, rows.d, rows.k)
    _verdict(capfd, 8, fraction >= 0.25 and changed == 0,
             f"skip fraction {fraction:.3f} >= 0.25; "
             f"{changed}/25 outcomes changed by the filter")


def test_criterion_09_improved_approximation(capfd):
    """Improved k/d target dominates the plain one at (D, D) bounds."""
    rng = random.Random(9)
    plain_hits = improved_hits = 0
    for _ in range(500):
        pub, _ = keygen_weak(96, 16, rng.randrange(1 << 63))
        plain_hits += run_attack(pub, AttackConfig(
            variant="mitm", r_max=16, s_max=16, approx="plain")).recovered
        improved_hits += run_attack(pub, AttackConfig(
            variant="mitm", r_max=16, s_max=16, approx="improved")).recovered
    _verdict(capfd, 9, improved_hits >= plain_hits,
             f"improved {improved_hits}/500 >= plain {plain_hits}/500 "
             f"at bounds (D, D), D = 16")


def test_criterion_10_headline_range_out_of_scope(capfd):
    """D = 2^30 on 1024-bit n needs a table beyond desk-scale memory."""
    r_max = 1 << 30
    w = fingerprint_width(r_max)
    # The bytes per entry FingerprintTable.nominal_bytes measures on a built
    # table of this width, scaled from 2^10 entries to 2^30.
    pub, _ = keygen_weak(128, 4, 7)
    sample = FingerprintTable.build(3, pub.n, 1 << 10, w=w)
    nominal = sample.nominal_bytes * (r_max // sample.R)
    _verdict(capfd, 10, nominal > 8 * 2**30,
             f"D = 2^30 table needs ~{nominal / 2**30:.0f} GiB "
             f"(w = {w}); not reproduced at desk scale, criteria 1-9 "
             f"are the substitute suite")
