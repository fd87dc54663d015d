"""Span tracing around the program's layer boundaries, from outside the program.

The tracer replaces functions on the modules that look them up (a name
imported with `from .x import f` is looked up in the importing module, so
that is where the wrapper goes) and restores them on `uninstall`. Each call
records one span: name, start, end, parent span and operation index; calls
to a leaf are summed per parent span instead. Spans stay in memory and are
written out once, at the end of the run. Self time is a span's duration
minus the durations of its direct children.

Names missing from the program are skipped, so the tracer keeps working
when a layer is folded into another; its metrics then read 0.
"""

import gzip
import json
from array import array
from collections import Counter, defaultdict
from time import perf_counter


def _stats_counts(counts, result):
    st = getattr(result, "stats", None)
    if st is None:
        return
    counts["attack.m_tried"] += st.m_tried
    counts["attack.collisions"] += st.collisions
    counts["mitm_table.rows_examined"] += st.rows_examined
    counts["mitm_table.rows_skipped"] += st.rows_skipped


def _chain_counts(counts, result):
    counts["kernel.power_chain_fps.modmuls"] += result[1]


def _scan_counts(counts, result):
    counts["kernel.vvt_scan.trials"] += result[1]


def _method1_counts(counts, result):
    counts["rsa.method1_factor.ok"] += result.ok


def _build_counts(counts, result):
    counts["mitm_table.nominal_bytes"] = max(
        counts["mitm_table.nominal_bytes"], result.nominal_bytes)


# (module, attribute, span name, count hook, leaf). Spans are named after
# the layer that owns the function, not the module it is looked up in. A
# leaf is called thousands of times per operation and calls nothing traced:
# it gets no span of its own, only a (calls, seconds) total per parent span.
TARGETS = (
    ("rsacf.cli", "main", "cli.main", None, False),
    ("rsacf.cli", "run_attack", "attack.run_attack", _stats_counts, False),
    ("rsacf.bench", "success_table", "bench.success_table", None, False),
    ("rsacf.bench", "_minus_rescue", "bench.minus_rescue", None, False),
    ("rsacf.bench", "run_attack", "attack.run_attack", _stats_counts, False),
    ("rsacf.bench", "keygen_weak", "rsa.keygen_weak", None, False),
    ("rsacf.bench", "anchor_index", "attack.anchor_index", None, False),
    ("rsacf.rsa", "keygen_weak", "rsa.keygen_weak", None, False),
    ("rsacf.attack", "vvt_exhaustive", "attack.vvt_exhaustive", _stats_counts, False),
    ("rsacf.attack", "method1_factor", "rsa.method1_factor", _method1_counts, True),
    ("rsacf.attack", "mod_pow", "numeric.mod_pow", None, True),
    ("rsacf.attack", "mod_inv", "numeric.mod_inv", None, True),
    ("rsacf.attack", "power_chain_fps", "kernel.power_chain_fps", _chain_counts, False),
    ("rsacf.attack", "vvt_scan", "kernel.vvt_scan", _scan_counts, False),
    ("rsacf.mitm_table", "power_chain_fps", "kernel.power_chain_fps", _chain_counts, False),
    ("rsacf.contfrac", "expand", "contfrac.expand", None, False),
    ("rsacf.contfrac", "locate_m_prime", "contfrac.locate_m_prime", None, False),
)
# Methods of FingerprintTable, patched on the class: (attribute, span name,
# count hook, leaf, is a classmethod).
TABLE_TARGETS = (
    ("build", "mitm_table.build", _build_counts, False, True),
    ("probe_fp", "mitm_table.probe_fp", None, True, False),
)


class Totals:
    """Self time and call count per span name, and the hooks' counts."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()


class Tracer:
    def __init__(self, modules):
        self._modules = modules  # dotted name -> module object
        self._saved = []
        self.names = []
        self._ids = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.leaves = defaultdict(lambda: [0, 0.0])  # (parent, name id) -> [calls, s]
        self.totals = Totals()
        self.op_index = -1  # -1 marks set-up work
        self._stack = []  # [span index, seconds in child spans]

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn, hook):
        nid = self._id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.op.append(self.op_index)
            self.end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.end[idx] = t1
                dur = t1 - t0
                totals = self.totals
                totals.self_s[name] += dur - frame[1]
                totals.calls[name] += 1
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(totals.counts, result)
            return result

        return traced

    def _wrap_leaf(self, name, fn, hook):
        nid = self._id(name)
        stack = self._stack
        leaves = self.leaves

        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                totals = self.totals
                totals.self_s[name] += dur
                totals.calls[name] += 1
                if stack:
                    frame = stack[-1]
                    frame[1] += dur
                    agg = leaves[frame[0], nid]
                    agg[0] += 1
                    agg[1] += dur
            if hook is not None:
                hook(totals.counts, result)
            return result

        return traced

    def new_totals(self):
        """Start fresh totals; returns the ones collected so far."""
        old, self.totals = self.totals, Totals()
        return old

    def install(self):
        for mod_name, attr, name, hook, leaf in TARGETS:
            mod = self._modules.get(mod_name)
            if mod is None or not hasattr(mod, attr):
                continue
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            wrap = self._wrap_leaf if leaf else self._wrap
            setattr(mod, attr, wrap(name, fn, hook))
        table = getattr(self._modules.get("rsacf.mitm_table"), "FingerprintTable", None)
        for attr, name, hook, leaf, is_classmethod in TABLE_TARGETS:
            if table is None or attr not in vars(table):
                continue
            raw = vars(table)[attr]
            self._saved.append((table, attr, raw))
            wrap = self._wrap_leaf if leaf else self._wrap
            if is_classmethod:
                setattr(table, attr, classmethod(wrap(name, raw.__func__, hook)))
            else:
                setattr(table, attr, wrap(name, raw, hook))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """All spans, column-wise, times in seconds from the first span, and
        the leaf totals as [parent span, name id, calls, seconds]."""
        base = self.start[0] if self.start else 0.0
        doc = {
            "names": self.names,
            "name": list(self.name_id),
            "start": [round(t - base, 7) for t in self.start],
            "end": [round(t - base, 7) for t in self.end],
            "parent": list(self.parent),
            "op": list(self.op),
            "leaves": [[p, nid, c, round(sec, 7)] for (p, nid), (c, sec) in self.leaves.items()],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
