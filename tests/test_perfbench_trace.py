"""The benchmark's span tracer still fits the program.

perfbench/spans.py patches named functions on the program's modules and
reads fields of their results (AttackResult.stats, Method1Result.ok, ...).
A rename there would pass every other test and break only the traced
benchmark run, so one traced call runs here.
"""

import importlib
import importlib.util
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


def test_traced_success_table_matches_untraced():
    mods = {name: importlib.import_module(name) for name in MODULES}
    bench = mods["rsacf.bench"]
    plain = bench.success_table(128, 16, 2, 5)
    tracer = _load_spans().Tracer(mods)
    tracer.install()
    try:
        traced = bench.success_table(128, 16, 2, 5)
    finally:
        tracer.uninstall()
    assert traced == plain
    counts = tracer.totals.counts
    assert counts["mitm_table.rows_examined"] > 0
    assert counts["rsa.method1_factor.ok"] > 0
    assert tracer.totals.calls["bench.success_table"] == 1


def test_every_traced_name_exists():
    # A traced name missing from the program is skipped silently and its
    # metrics read 0, so a rename must fail here instead.
    spans = _load_spans()
    for module, attr, *_ in spans.TARGETS:
        assert hasattr(importlib.import_module(module), attr), (module, attr)
    table = importlib.import_module("rsacf.mitm_table").FingerprintTable
    for attr, *_ in spans.TABLE_TARGETS:
        assert hasattr(table, attr), attr
