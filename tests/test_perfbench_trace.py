"""The benchmark's span tracer still fits the program.

perfbench/spans.py patches named functions on the program's modules and
reads fields of their results (AttackResult.stats, Method1Result.ok, ...).
A rename there would pass every other test and break only the traced
benchmark run, so one traced call per workload's path runs here.
"""

import importlib
import importlib.util
import io
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
# The program modules perfbench/run.py loads and the tracer patches.
MODULES = ("rsacf", "rsacf.attack", "rsacf.bench", "rsacf.cli", "rsacf.contfrac",
           "rsacf.mitm_table", "rsacf.rsa")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _trace(mods, call):
    """call() untraced, then traced: (untraced result, traced result, totals)."""
    plain = call()
    tracer = _load_spans().Tracer(mods)
    tracer.install()
    try:
        traced = call()
    finally:
        tracer.uninstall()
    return plain, traced, tracer.totals


def _modules():
    return {name: importlib.import_module(name) for name in MODULES}


def test_traced_success_table_matches_untraced():
    mods = _modules()
    plain, traced, totals = _trace(
        mods, lambda: mods["rsacf.bench"].success_table(128, 16, 2, 5))
    assert traced == plain
    assert totals.counts["mitm_table.rows_examined"] > 0
    assert totals.counts["rsa.method1_factor.ok"] > 0
    assert totals.calls["bench.success_table"] == 1


def test_traced_vvt_exhaustive_matches_untraced():
    # The oracle96 workload's path.
    mods = _modules()
    attack = mods["rsacf.attack"]
    pub, _ = mods["rsacf.rsa"].keygen_weak(96, 16, 0)
    cfg = attack.AttackConfig(variant="vvt", r_max=64, s_max=64)

    def call():
        res = attack.vvt_exhaustive(pub, cfg)
        return res.outcome, res.d, res.k, res.p, res.q, replace(res.stats, wall_time=0)

    plain, traced, totals = _trace(mods, call)
    assert traced == plain
    assert totals.counts["kernel.vvt_scan.trials"] > 0
    assert totals.calls["attack.vvt_exhaustive"] == 1


def test_traced_cli_mitm_attack_matches_untraced(tmp_path, monkeypatch):
    # The mitm1024 workload's path, on a small key.
    mods = _modules()
    rsa, attack = mods["rsacf.rsa"], mods["rsacf.attack"]
    pub, _ = rsa.keygen_weak(96, 16, 0)
    key = str(tmp_path / "key.txt")
    rsa.write_key(key, pub)
    argv = ["attack", "--key", key, "--variant", "mitm", "--rmax", "64", "--smax", "64"]

    def call():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = mods["rsacf.cli"].main(argv)
        return code, out.getvalue()

    plain, traced, totals = _trace(mods, call)
    assert traced == plain
    assert totals.counts["kernel.power_chain_fps.modmuls"] > 0
    # The figure --stats reports as table_bytes is what the search's indexes
    # hold together at their peak, measured here under tracemalloc.
    pub, _ = rsa.keygen_weak(96, 2**20, 123)
    m = attack.anchor_index(pub)
    indexes = []

    class Kept(mods["rsacf.mitm_table"].FingerprintTable):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            indexes.append(self)  # keeps the search's indexes alive

    def held_by_indexes(cfg):
        indexes.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = attack.run_attack(pub, cfg)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert res.outcome == "exhausted"
        return res.stats.table_bytes, held

    monkeypatch.setattr(attack, "FingerprintTable", Kept)
    # One anchor with r_max > s_max: the s side's index and the r stream's
    # reach their final size, 2^10 entries, before the s side's is let go,
    # so kept alive they hold that peak.
    table_bytes, held = held_by_indexes(attack.AttackConfig(
        variant="mitm", r_max=1 << 12, s_max=1 << 10, m_candidates=(m,)))
    assert [index.R for index in indexes] == [1 << 10, 1 << 10]
    assert abs(table_bytes - held) <= held / 10
    # Two anchors: the first, at (64, 64), hands its r stream on, and the
    # second, at (2^12, 2^10), grows that side to 2^10 entries as its s
    # side while its own r stream reaches 2^10; the first's s side stores
    # nothing. The peak is the shared side and the next side together.
    # validate() asks for the bounds with no anchor (m None): the config's.
    bounds = {None: (1, 1), m: (64, 64), m + 1: (1 << 12, 1 << 10)}
    monkeypatch.setattr(attack, "_bounds", lambda cfg, cf=None, m=None: bounds[m])
    table_bytes, held = held_by_indexes(attack.AttackConfig(
        variant="mitm", r_max=1, s_max=1, m_candidates=(m, m + 1)))
    assert [index.R for index in indexes] == [0, 1 << 10, 1 << 10]
    assert abs(table_bytes - held) <= held / 10


def test_every_traced_name_exists():
    # A traced name missing from the program is skipped silently and its
    # metrics read 0, so a rename must fail here instead.
    spans = _load_spans()
    for module, attr, *_ in spans.TARGETS:
        assert hasattr(importlib.import_module(module), attr), (module, attr)
    table = importlib.import_module("rsacf.mitm_table").FingerprintTable
    for attr, *_ in spans.TABLE_TARGETS:
        assert hasattr(table, attr), attr
