#!/usr/bin/env python3
"""rsacf benchmark: three closed-loop workloads, checked, with a traced mode.

    python3 perfbench/run.py --workload mitm1024 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from src/. One
process, one thread. The run repeats whole rounds of the same operations
until --seconds have passed, checks every output against arithmetic done
apart from the program (checks.py), and prints one JSON object as the last
line of stdout: the end-to-end metrics with --trace 0, the per-layer ones
with --trace 1. Result and trace files go to .perfbench-out/. See README.md
for the workloads, the metrics and reference figures.
"""

import argparse
import importlib
import io
import json
import random
import resource
import statistics
import sys
import tempfile
import tracemalloc
import traceback
from contextlib import redirect_stderr, redirect_stdout
from math import ceil
from pathlib import Path
from time import perf_counter

import checks
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
MODULES = ("rsacf", "rsacf.attack", "rsacf.bench", "rsacf.cli", "rsacf.contfrac",
           "rsacf.mitm_table", "rsacf.rsa")
SETUPS = 3  # set-ups per run; setup_s is their median
WARMUP_SEED = 0xC0FFEE
MIB = 1 << 20


def load_program():
    """Import the program from src/; returns (modules, seconds taken)."""
    src = ROOT / "src"
    if not (src / "rsacf" / "__init__.py").is_file():
        sys.exit("perfbench: src/rsacf not found; run from the root of a checkout")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    mods = {name: importlib.import_module(name) for name in MODULES}
    took = perf_counter() - t0
    if not Path(mods["rsacf"].__file__).resolve().is_relative_to(src):
        sys.exit("perfbench: rsacf was imported from outside this checkout's src/")
    return mods, took


class KeyWorkload:
    """A fixed mix of recovered and exhausted keys, one attack per operation.

    Keys are drawn with the program's keygen_weak and classified by
    checks.KeyFacts; a candidate of the wrong class is redrawn, outside
    every timer. Recovered keys are found at the first anchor; exhausted
    keys are out of reach at all three anchors.
    """

    bits = bound = 0
    mix = ()  # (expected outcome, d / n^0.25, count), interleaved in order

    def __init__(self, mods, seed, workdir):
        self.mods = mods
        self.workdir = workdir
        rng = random.Random(f"{type(self).__name__}:{seed}")
        self.keys = []  # (sub-seed, d ratio, facts)
        for outcome, ratio, count in self.mix:
            for _ in range(count):
                self.keys.append(self._draw(rng, outcome, ratio))
        self.keys = _interleave(self.keys, [c for _, _, c in self.mix])
        self.exhausted = [i for i, (_, _, f) in enumerate(self.keys)
                          if f.mitm_reach(self.bound, self.bound) is None]
        self.ops = [self._op(i) for i in range(len(self.keys))]
        self.attacks_per_op = 1

    def _draw(self, rng, outcome, ratio):
        for _ in range(64):
            sub = rng.randrange(1 << 63)
            pub, priv = self.mods["rsacf.rsa"].keygen_weak(self.bits, ratio, sub)
            facts = checks.KeyFacts(pub, priv)
            reach = facts.mitm_reach(self.bound, self.bound)
            if len(facts.anchors) != 3:
                continue
            if outcome == "recovered" and reach == facts.m_prime:
                return sub, ratio, facts
            if outcome == "exhausted" and reach is None:
                return sub, ratio, facts
        raise RuntimeError(f"no {outcome} key in 64 draws at d ratio {ratio}")

    def set_up(self, i):
        """Generate every key and its key file, then warm up on exhausted key i."""
        rsa = self.mods["rsacf.rsa"]
        for j, (sub, ratio, _) in enumerate(self.keys):
            pub, _ = rsa.keygen_weak(self.bits, ratio, sub)
            rsa.write_key(self._path(j), pub)
        self.ops[self.exhausted[i % len(self.exhausted)]]()

    def _path(self, j):
        return str(Path(self.workdir) / f"key{j}.txt")


class Mitm1024(KeyWorkload):
    bits, bound = 1024, 16384
    # Recovered keys are the majority, so op_s.p50 is a recovered key's
    # attack (chains and table build); the exhausted keys carry most of the
    # time (probe loop) and so set attacks_per_s.
    mix = (("recovered", 4, 5), ("exhausted", 2**20, 3))

    def _op(self, i):
        argv = ["attack", "--key", self._path(i), "--variant", "mitm",
                "--rmax", str(self.bound), "--smax", str(self.bound)]
        cli = self.mods["rsacf.cli"]

        def op():
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return code, out.getvalue()
        return op

    def check(self, i, out):
        code, text = out
        return checks.check_cli_attack(self.keys[i][2], self.bound, self.bound, code, text)


class Oracle96(KeyWorkload):
    bits, bound = 96, 512
    # Exhausted keys are the large majority, so op_s.p50 is a full scan of
    # three windows (the same trial count for every key) and lands in the
    # middle of their spread, which comes from operand sizes.
    mix = (("exhausted", 2**16, 13), ("recovered", 64, 3))

    def _op(self, i):
        attack = self.mods["rsacf.attack"]
        pub = self.keys[i][2].pub
        cfg = attack.AttackConfig(variant="vvt", r_max=self.bound, s_max=self.bound)

        def op():
            res = attack.vvt_exhaustive(pub, cfg)
            return res.outcome, res.d, res.p, res.q
        return op

    def check(self, i, out):
        return checks.check_outcome(self.keys[i][2], self.bound, self.bound, *out)


class Success128:
    """bench.success_table(128, 16, 16, s) over a fixed list of seeds s."""

    bits, d_ratio, trials, calls = 128, 16, 16, 16

    def __init__(self, mods, seed, workdir):
        self.mods = mods
        rng = random.Random(f"Success128:{seed}")
        self.seeds = [rng.randrange(1 << 63) for _ in range(self.calls)]
        self.bounds = [(max(1, ceil(r * self.d_ratio)), max(1, ceil(s * self.d_ratio)))
                       for r, s in mods["rsacf.bench"].SUCCESS_BOUND_ROWS]
        self.ops = [self._op(s) for s in self.seeds]
        self.attacks_per_op = self.trials * len(self.bounds)
        self._facts = {}

    def _op(self, call_seed):
        bench = self.mods["rsacf.bench"]

        def op():
            rows = bench.success_table(self.bits, self.d_ratio, self.trials, call_seed)
            return [(r.trials, r.successes) for r in rows]
        return op

    def set_up(self, i):
        # A fixed seed, so that set-up time does not depend on the draw.
        self.mods["rsacf.bench"].success_table(self.bits, self.d_ratio, self.trials, WARMUP_SEED)

    def _keys(self, call_seed):
        # The keys success_table draws for this seed: a ratio uniform below
        # d_ratio (at least 2^-8), then a key seed, per trial.
        if call_seed not in self._facts:
            keygen = self.mods["rsacf.rsa"].keygen_weak
            rng = random.Random(call_seed)
            facts = []
            for _ in range(self.trials):
                ratio = max(self.d_ratio * rng.random(), 1.0 / 256)
                facts.append(checks.KeyFacts(*keygen(self.bits, ratio, rng.randrange(1 << 63))))
            self._facts[call_seed] = facts
        return self._facts[call_seed]

    def check(self, i, out):
        bad = [f"row trials {t} != {self.trials}" for t, _ in out if t != self.trials]
        return bad + checks.check_success_rows(
            self._keys(self.seeds[i]), self.bounds, [n for _, n in out])


WORKLOADS = {"mitm1024": Mitm1024, "success128": Success128, "oracle96": Oracle96}


def _interleave(items, counts):
    """Round-robin over consecutive groups of the given sizes."""
    groups, at = [], 0
    for c in counts:
        groups.append(items[at:at + c])
        at += c
    out = []
    for k in range(max(counts)):
        out.extend(g[k] for g in groups if k < len(g))
    return out


class Log:
    """Outputs, times and failures of the operations of one run."""

    def __init__(self, n_ops):
        self.outputs = []  # (op index, output)
        self.times = [[] for _ in range(n_ops)]  # per op index, one per round
        self.attempted = self.failed = 0

    def round(self, wl, tracer=None):
        t_round = perf_counter()
        for i, op in enumerate(wl.ops):
            if tracer is not None:
                tracer.op_index = self.attempted
            self.attempted += 1
            t0 = perf_counter()
            try:
                out = op()
            except Exception:
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            self.times[i].append(perf_counter() - t0)
            self.outputs.append((i, out))
        return perf_counter() - t_round

    def op_p50(self):
        times = [t for ts in self.times for t in ts]
        return statistics.median(times) if times else 0.0

    def round_s(self):
        """One round's time, each operation taken at its median over the
        rounds, so a burst of load on the machine moves it little."""
        return sum(statistics.median(ts) for ts in self.times if ts)


def run_plain(wl, seconds):
    log, elapsed = Log(len(wl.ops)), 0.0
    while not log.attempted or elapsed < seconds:
        elapsed += log.round(wl)
    return log


def run_traced(wl, seconds, tracer):
    """Alternate an untraced and a traced round until seconds have passed."""
    plain, traced = Log(len(wl.ops)), Log(len(wl.ops))
    t_plain = t_traced = 0.0
    while not traced.attempted or t_plain + t_traced < seconds:
        t_plain += plain.round(wl)
        tracer.install()
        try:
            t_traced += traced.round(wl, tracer)
        finally:
            tracer.uninstall()
    return plain, traced, t_plain, t_traced


def build_peak_mb(wl, mods):
    """Peak bytes allocated inside any one table build of operation 0,
    under tracemalloc in a pass of its own."""
    table = getattr(mods["rsacf.mitm_table"], "FingerprintTable", None)
    if table is None or "build" not in vars(table):
        return 0.0
    raw = vars(table)["build"]
    peaks = [0]

    def build(cls, *args, **kwargs):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = raw.__func__(cls, *args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return result

    table.build = classmethod(build)
    tracemalloc.start()
    try:
        wl.ops[0]()
    finally:
        tracemalloc.stop()
        table.build = raw
    return max(peaks) / MIB


def layer_metrics(tracer, setup_totals, n_ops, overhead_pct, peak_mb):
    t = tracer.totals
    s, calls, counts = t.self_s, t.calls, t.counts

    def per_op(x):
        return x / n_ops

    kg_calls = calls["rsa.keygen_weak"] + setup_totals.calls["rsa.keygen_weak"]
    kg_s = s["rsa.keygen_weak"] + setup_totals.self_s["rsa.keygen_weak"]
    m1 = calls["rsa.method1_factor"]
    scan_s = s["kernel.vvt_scan"]
    return {
        "mitm_table.probe_fp.s": (per_op(s["mitm_table.probe_fp"]), "s"),
        "mitm_table.probes.n": (per_op(calls["mitm_table.probe_fp"]), "count"),
        "mitm_table.rows_examined.n": (per_op(counts["mitm_table.rows_examined"]), "count"),
        "mitm_table.rows_skipped.n": (per_op(counts["mitm_table.rows_skipped"]), "count"),
        "mitm_table.build.s": (per_op(s["mitm_table.build"]), "s"),
        "mitm_table.build.peak_alloc_mb": (peak_mb, "MiB"),
        "mitm_table.nominal_mb": (counts["mitm_table.nominal_bytes"] / MIB, "MiB"),
        "kernel.power_chain_fps.s": (per_op(s["kernel.power_chain_fps"]), "s"),
        "kernel.power_chain_fps.modmuls.n": (per_op(counts["kernel.power_chain_fps.modmuls"]), "count"),
        "kernel.vvt_scan.s": (per_op(scan_s), "s"),
        "kernel.vvt_scan.trials.n": (per_op(counts["kernel.vvt_scan.trials"]), "count"),
        "kernel.vvt_scan.trials_per_s": (counts["kernel.vvt_scan.trials"] / scan_s if scan_s else 0.0, "1/s"),
        "numeric.mod_pow.s": (per_op(s["numeric.mod_pow"]), "s"),
        "numeric.mod_inv.s": (per_op(s["numeric.mod_inv"]), "s"),
        "contfrac.expand.s": (per_op(s["contfrac.expand"]), "s"),
        "contfrac.locate_m_prime.s": (per_op(s["contfrac.locate_m_prime"]), "s"),
        "rsa.method1_factor.s": (per_op(s["rsa.method1_factor"]), "s"),
        "rsa.method1_factor.n": (per_op(m1), "count"),
        "rsa.method1_factor.useful_ratio": (counts["rsa.method1_factor.ok"] / m1 if m1 else 0.0, "ratio"),
        "rsa.keygen_weak.s": (kg_s / kg_calls if kg_calls else 0.0, "s"),
        "attack.self_s": (per_op(sum(v for k, v in s.items() if k.startswith("attack."))), "s"),
        "attack.m_tried.n": (per_op(counts["attack.m_tried"]), "count"),
        "attack.collisions.n": (per_op(counts["attack.collisions"]), "count"),
        "bench.success_table.self_s": (per_op(s["bench.success_table"]), "s"),
        "bench.minus_rescue.n": (per_op(calls["bench.minus_rescue"]), "count"),
        "cli.self_s": (per_op(s["cli.main"]), "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


def check_all(wl, logs):
    problems = []
    for log in logs:
        for i, out in log.outputs:
            problems += [f"op {i}: {p}" for p in wl.check(i, out)]
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    mods, import_s = load_program()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl = WORKLOADS[args.workload](mods, args.seed, workdir)
        if args.trace:
            tracer = Tracer(mods)
            tracer.install()
            try:
                wl.set_up(0)
            finally:
                tracer.uninstall()
            setup_totals = tracer.new_totals()
            plain, traced, t_plain, t_traced = run_traced(wl, args.seconds, tracer)
            logs = (plain, traced)
            built = tracer.totals.calls["mitm_table.build"]
            peak_mb = build_peak_mb(wl, mods) if built else 0.0
            overhead = 100.0 * (t_traced / t_plain - 1.0)
            metrics = layer_metrics(tracer, setup_totals, traced.attempted, overhead, peak_mb)
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json.gz")
        else:
            setups = []
            for i in range(SETUPS):
                t0 = perf_counter()
                wl.set_up(i)
                setups.append(perf_counter() - t0)
            log = run_plain(wl, args.seconds)
            logs = (log,)
            round_s = log.round_s()
            metrics = {
                "attacks_per_s": (len(wl.ops) * wl.attacks_per_op / round_s if round_s else 0.0, "1/s"),
                "op_s.p50": (log.op_p50(), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
                "setup_s": (import_s + statistics.median(setups), "s"),
            }
    problems = check_all(wl, logs)
    for p in problems[:20]:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(log.attempted for log in logs),
        "failed": sum(log.failed for log in logs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
