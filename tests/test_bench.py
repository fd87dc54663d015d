"""Unit tests for the table-reproduction harness."""

import random
import tracemalloc
from collections import Counter

import pytest

from rsacf import attack, bench, contfrac, rsa, workers
from rsacf.bench import (
    SUCCESS_BOUND_ROWS,
    bound_table,
    format_bound_table,
    format_success_table,
    success_table,
)

# ((bits, d_ratio, trials, seed, approx), successes per row), as computed by
# running every row's attack and rescue on its own. At 64 bits and
# d_ratio 0.1 every row's bounds clamp to 1.
GOLDEN_TABLES = [
    ((128, 4, 16, 0, 'plain'), [16, 16, 6, 12, 10, 10, 9, 9, 7]),
    ((128, 4, 16, 1, 'plain'), [16, 16, 13, 16, 13, 14, 8, 9, 8]),
    ((128, 4, 16, 2, 'plain'), [15, 12, 10, 13, 12, 11, 6, 11, 7]),
    ((128, 4, 16, 3, 'plain'), [15, 14, 8, 14, 9, 10, 7, 7, 6]),
    ((128, 4, 16, 0, 'improved'), [16, 16, 16, 16, 16, 16, 16, 16, 15]),
    ((128, 4, 16, 1, 'improved'), [16, 16, 16, 16, 16, 16, 16, 16, 16]),
    ((128, 4, 16, 2, 'improved'), [16, 16, 16, 16, 16, 16, 16, 16, 16]),
    ((128, 4, 16, 3, 'improved'), [16, 16, 16, 16, 16, 16, 16, 16, 16]),
    ((128, 16, 16, 0, 'plain'), [15, 14, 12, 13, 14, 12, 7, 9, 4]),
    ((128, 16, 16, 1, 'plain'), [16, 15, 12, 14, 14, 10, 9, 7, 5]),
    ((128, 16, 16, 2, 'plain'), [16, 15, 11, 15, 12, 10, 7, 9, 6]),
    ((128, 16, 16, 3, 'plain'), [16, 15, 10, 15, 11, 11, 7, 9, 1]),
    ((128, 16, 16, 0, 'improved'), [16, 16, 15, 16, 15, 16, 15, 16, 15]),
    ((128, 16, 16, 1, 'improved'), [16, 16, 16, 16, 16, 15, 16, 15, 16]),
    ((128, 16, 16, 2, 'improved'), [16, 16, 16, 16, 16, 16, 16, 16, 16]),
    ((128, 16, 16, 3, 'improved'), [16, 16, 16, 16, 16, 16, 16, 16, 15]),
    ((128, 64, 16, 0, 'plain'), [16, 13, 10, 13, 13, 7, 6, 8, 3]),
    ((128, 64, 16, 1, 'plain'), [15, 14, 10, 14, 11, 13, 6, 12, 5]),
    ((128, 64, 16, 2, 'plain'), [16, 15, 9, 13, 11, 9, 6, 7, 6]),
    ((128, 64, 16, 3, 'plain'), [16, 14, 10, 12, 14, 8, 6, 6, 4]),
    ((128, 64, 16, 0, 'improved'), [16, 16, 16, 16, 16, 16, 15, 16, 14]),
    ((128, 64, 16, 1, 'improved'), [16, 16, 16, 16, 16, 16, 16, 15, 16]),
    ((128, 64, 16, 2, 'improved'), [16, 16, 16, 16, 16, 16, 16, 16, 16]),
    ((128, 64, 16, 3, 'improved'), [16, 16, 16, 16, 16, 16, 16, 14, 15]),
    ((64, 0.1, 16, 0, 'plain'), [16, 16, 16, 16, 16, 16, 16, 16, 16]),
    ((64, 0.1, 16, 1, 'improved'), [16, 16, 16, 16, 16, 16, 16, 16, 16]),
    ((96, 8, 16, 0, 'plain'), [15, 13, 10, 13, 12, 11, 9, 9, 4]),
    ((96, 8, 16, 1, 'improved'), [16, 16, 16, 16, 16, 16, 16, 15, 16]),
]

# Rescues of success_table(128, 16, 16, seed), seed = 0..9: 22 over 160 keys.
RESCUES = (2, 1, 3, 2, 2, 0, 6, 2, 1, 3)


class TestBoundTable:
    def test_reference_rows_exact(self):
        assert bound_table() == [
            (512, 158, 150),
            (768, 222, 224),
            (1024, 286, 299),
            (2048, 542, 598),
        ]

    def test_custom_rows(self):
        assert bound_table((100,)) == [(100, 55, 29)]

    @pytest.mark.parametrize("rows", [(0,), (-4,), (512, 0)])
    def test_rejects_row_below_one(self, rows):
        with pytest.raises(ValueError):
            bound_table(rows)


class TestSuccessTable:
    def test_deterministic(self):
        a = success_table(64, 4, 10, seed=3)
        b = success_table(64, 4, 10, seed=3)
        assert [(r.r_bound_mult, r.s_bound_mult, r.successes) for r in a] == \
               [(r.r_bound_mult, r.s_bound_mult, r.successes) for r in b]

    def test_row_structure(self):
        rows = success_table(64, 2, 5, seed=1)
        assert [(r.r_bound_mult, r.s_bound_mult) for r in rows] == \
               list(SUCCESS_BOUND_ROWS)
        for row in rows:
            assert row.trials == 5
            assert 0 <= row.successes <= row.trials
            assert row.rate == row.successes / row.trials

    def test_wider_bounds_do_better(self):
        rows = {(r.r_bound_mult, r.s_bound_mult): r.successes
                for r in success_table(96, 8, 40, seed=2)}
        assert rows[(4, 4)] >= rows[(2, 2)] >= rows[(1, 1)]

    @pytest.mark.parametrize("args, successes", GOLDEN_TABLES)
    def test_golden_rows(self, args, successes):
        bits, d_ratio, trials, seed, approx = args
        rows = success_table(bits, d_ratio, trials, seed, approx=approx)
        assert [row.successes for row in rows] == successes

    @pytest.mark.parametrize("seed", range(len(RESCUES)))
    def test_one_search_and_one_rescue_per_key(self, monkeypatch, seed):
        # Per modulus n: one key context, so one expansion and one Wiener
        # pass; one search over it, and at most one rescue, which takes the
        # same context, makes one run_attack call itself and no expansion
        # or Wiener pass. The keys run here, serially: a worker forked
        # earlier would not see the counting patches.
        monkeypatch.setattr(workers, "MIN_WORK", float("inf"))
        searches, rescues, passes = Counter(), Counter(), Counter()
        expansions, contexts = [], {}
        search, rescue = bench.run_attack, bench._minus_rescue
        expand, wiener_pass = contfrac.expand, attack._wiener_pass

        def counted_search(pub, cfg, context=None):
            searches[pub.n] += 1
            assert context is contexts.setdefault(pub.n, context) is not None
            return search(pub, cfg, context)

        def counted_rescue(context, cfg):
            rescues[context.pub.n] += 1
            before = len(expansions), passes.total()
            result = rescue(context, cfg)
            assert (len(expansions), passes.total()) == before
            return result

        def counted_pass(n, e, cf):
            passes[n] += 1
            return wiener_pass(n, e, cf)

        monkeypatch.setattr(bench, "run_attack", counted_search)
        monkeypatch.setattr(bench, "_minus_rescue", counted_rescue)
        monkeypatch.setattr(contfrac, "expand", lambda x: expansions.append(x) or expand(x))
        monkeypatch.setattr(attack, "_wiener_pass", counted_pass)
        success_table(128, 16, 16, seed)
        assert len(searches) == 16
        assert all(searches[n] - rescues[n] == 1 for n in searches)
        assert max(rescues.values(), default=0) <= 1
        assert rescues.total() == RESCUES[seed]
        assert len(expansions) == 16
        assert passes == Counter(dict.fromkeys(searches, 1))

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("args", [
        GOLDEN_TABLES[8][0],  # plain
        GOLDEN_TABLES[13][0],  # improved
        GOLDEN_TABLES[24][0],  # every bound clamped to 1
        (128, 16, 8, 1, "plain"),  # the CLI's JSON golden
    ], ids=["plain", "improved", "clamped", "cli-json"])
    def test_split_rows_match_serial(self, monkeypatch, args, cpus):
        # 16 keys in 3 shares are uneven (6, 5, 5).
        bits, d_ratio, trials, seed, approx = args
        monkeypatch.setattr(workers, "_cpus", lambda: cpus)
        rows = {}
        for min_work in (float("inf"), 0):
            monkeypatch.setattr(workers, "MIN_WORK", min_work)
            rows[min_work] = success_table(bits, d_ratio, trials, seed, approx=approx)
        assert workers.ways(trials, bench.KEY_OPS * bits) == cpus
        assert rows[0] == rows[float("inf")]
        workers.shutdown()  # the next test forks after its own patches

    def test_primes_above_2_64_searched_in_jobs(self, monkeypatch):
        # At 160 bits a key's primes have 80 bits, so keygen_weak's search
        # could split them; inside a key's job, here or in the worker, it
        # runs serially, and every table is the one made with workers off.
        searches, prime_pair = [], rsa._prime_pair

        def in_job(rng, bits):
            searches.append(bits)
            if workers.ways(1 << 30, bits) != 1:
                raise AssertionError("a prime search split inside a job")
            return prime_pair(rng, bits)

        monkeypatch.setattr(rsa, "_prime_pair", in_job)
        monkeypatch.setattr(workers, "_cpus", lambda: 2)
        rows = {}
        for min_work in (float("inf"), 0):
            workers.shutdown()
            monkeypatch.setattr(workers, "MIN_WORK", min_work)
            rows[min_work] = success_table(160, 16, 8, 5)
        workers.shutdown()
        # 8 searches with workers off, then this process's share of 4.
        assert searches == [80] * 12
        assert rows[0] == rows[float("inf")]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_memory_here_does_not_grow_with_trials(self, monkeypatch, cpus):
        # Each share replays the seeded draws itself, so this process holds
        # no list of them: 40,000 trials of stubbed keys, whose draws held
        # about 6.5 MiB as a list, peak under 1 MiB here, traced, whether
        # this process makes every key or shares them with a worker.
        workers.shutdown()  # a worker forked from here sees the stubs
        monkeypatch.setattr(workers, "_cpus", lambda: cpus)
        monkeypatch.setattr(bench, "keygen_weak", lambda bits, ratio, seed: (seed, None))
        monkeypatch.setattr(bench, "_rows_recovered",
                            lambda pub, cfg, bounds: [pub % 2] * len(bounds))
        trials = 40_000
        tracemalloc.start()
        try:
            rows = success_table(64, 4, trials, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            workers.shutdown()  # no later test meets a stubbed worker
        assert workers.ways(trials, bench.KEY_OPS * 64) == cpus
        rng = random.Random(0)  # each trial draws its d ratio, then its key seed
        odd = sum((rng.random(), rng.randrange(1 << 63))[1] % 2 for _ in range(trials))
        assert [row.successes for row in rows] == [odd] * len(SUCCESS_BOUND_ROWS)
        assert peak < 1 << 20

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            success_table(64, 4, 0, seed=0)


class TestFormatting:
    def test_success_format(self):
        rows = success_table(64, 2, 3, seed=0)
        text = format_success_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("r_bound")
        assert len(lines) == 1 + len(SUCCESS_BOUND_ROWS)

    def test_bounds_format(self):
        text = format_bound_table(bound_table())
        assert text.splitlines()[0].startswith("log2_n")
        assert "158" in text and "598" in text
