"""Span tracing for the per-layer split of a benchmark run.

The lab itself carries no instrumentation.  ``Tracer.install`` replaces the
public functions of each layer with wrappers that record a span (name, start,
end, parent span, iteration) around every call, plus a few counts taken at
the same boundaries; ``uninstall`` puts the originals back, so untraced
iterations run the unmodified code.  Spans stay in memory until the run ends.

Layers are the package's modules:

* ``terms``: ``Knowledge.deduce``, ``Knowledge.closure`` (first call per
  knowledge object, i.e. a closure build) and ``Knowledge.learn``;
* ``goals``: ``check_all``, ``check_correspondence`` and ``check_secrecy``,
  plus a count of ``Trace.events`` scans;
* ``attacks``: ``audit_trace`` and script execution (the honest script and
  every attack and control script the harness runs, or a workload's own
  driving phase), which is where ``roles``, ``network`` and ``world`` work;
* ``scenarios``: ``build_world``.

A span's self time is its duration minus the durations of its direct
children, so script time excludes the deduction it triggers and secrecy
checking excludes nested ``deduce``.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import statistics
import time
from contextlib import contextmanager

from rsplab import attacks, goals, harness, scenarios
from rsplab.events import MessageOp, Note, Trace
from rsplab.network import GateViolation
from rsplab.terms import Knowledge
from rsplab.world import Adversary

# layer -> span names whose self time belongs to it; "harness" is whatever
# an iteration spends outside the other layers (matrix loops, rendering,
# digests, the workload's own checks)
LAYERS = {
    "terms": ("terms.deduce", "terms.closure", "terms.learn"),
    "goals": ("goals.check_all", "goals.correspondence", "goals.secrecy"),
    "attacks.audit": ("attacks.audit",),
    "attacks.script": ("attacks.script",),
    "scenarios.build_world": ("scenarios.build_world",),
    "harness": ("iteration", "harness.matrix.plain", "harness.matrix.r10_ds",
                "harness.matrix.r10_ac", "harness.render_json"),
}

# per_layer metrics: (name, unit); a tuple that BENCHMARK.json mirrors
LAYER_METRICS = (
    ("terms.deduce.calls", "count"),
    ("terms.deduce.s", "s"),
    ("terms.closure.builds", "count"),
    ("terms.closure.s", "s"),
    ("terms.closure.size.p50", "terms"),
    ("terms.closure.size.max", "terms"),
    ("terms.closure.reuse_ratio", "ratio"),
    ("terms.learn.calls", "count"),
    ("terms.learn.s", "s"),
    ("terms.self_s", "s"),
    ("terms.share", "frac"),
    ("goals.correspondence.calls", "count"),
    ("goals.correspondence.self_s", "s"),
    ("goals.correspondence.share", "frac"),
    ("goals.secrecy.calls", "count"),
    ("goals.secrecy.self_s", "s"),
    ("goals.self_s", "s"),
    ("goals.share", "frac"),
    ("events.trace_scans", "count"),
    ("attacks.audit.calls", "count"),
    ("attacks.audit.self_s", "s"),
    ("attacks.audit.s", "s"),
    ("attacks.audit.entries", "count"),
    ("attacks.audit.share", "frac"),
    ("attacks.script.calls", "count"),
    ("attacks.script.self_s", "s"),
    ("attacks.script.share", "frac"),
    ("network.gate.sends", "count"),
    ("network.gate.refused", "count"),
    ("roles.aborts", "count"),
    ("scenarios.build_world.calls", "count"),
    ("scenarios.build_world.self_s", "s"),
    ("scenarios.build_world.share", "frac"),
    ("harness.self_s", "s"),
    ("harness.share", "frac"),
    ("tracing.iter_s.p50", "s"),
    ("tracing.overhead_frac", "frac"),
)

# printed for the matrix workload only; elsewhere they would read 0 s on
# every run, which is not a measurement
MATRIX_ONLY_METRICS = (
    ("harness.matrix.plain_s", "s"),
    ("harness.matrix.r10_s", "s"),
    ("harness.render_json.s", "s"),
)


class Tracer:
    """Spans and counts of the traced iterations of one run."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1, iteration]
        self.spans: list = []
        self.counts: dict = collections.defaultdict(collections.Counter)
        self.closure_sizes: dict = collections.defaultdict(list)
        self._stack: list = []
        self._iteration = -1
        # knowledge objects whose closure was built this iteration; holding
        # them keeps their ids unique until the iteration ends
        self._built: dict = {}
        self._patches = self._make_patches()

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> list:
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._iteration]
        self.spans.append(rec)
        stack.append(len(self.spans) - 1)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return wrapper

    # -- wrappers --------------------------------------------------------------

    def _make_patches(self) -> list:
        built = self._built
        counts = self.counts
        spanned = self._spanned

        orig_closure = Knowledge.closure

        def closure(k):
            if id(k) in built:
                return orig_closure(k)
            rec = self._open("terms.closure")
            try:
                result = orig_closure(k)
            finally:
                self._close(rec)
            built[id(k)] = k
            self.closure_sizes[self._iteration].append(len(result))
            return result

        deduce_span = spanned("terms.deduce", Knowledge.deduce)

        def deduce(k, goal):
            if id(k) in built:
                counts[self._iteration]["terms.closure.reused"] += 1
            return deduce_span(k, goal)

        orig_check_all = goals.check_all
        check_all_span = spanned("goals.check_all", orig_check_all)

        def check_all(trace, knowledge, catalog=None):
            result = check_all_span(trace, knowledge, catalog)
            c = counts[self._iteration]
            for entry in trace.entries:
                if isinstance(entry, MessageOp) and entry.by_adversary:
                    c["network.gate.sends"] += 1
                elif isinstance(entry, Note) and entry.kind == "abort":
                    c["roles.aborts"] += 1
            return result

        audit_span = spanned("attacks.audit", attacks.audit_trace)

        def audit_trace(trace):
            counts[self._iteration]["attacks.audit.entries"] += len(trace.entries)
            return audit_span(trace)

        orig_events = Trace.events

        def events(trace):
            counts[self._iteration]["events.trace_scans"] += 1
            return orig_events(trace)

        orig_require = Adversary.require

        def require(adversary, t, what="term"):
            try:
                return orig_require(adversary, t, what)
            except GateViolation:
                counts[self._iteration]["network.gate.refused"] += 1
                raise

        def scripted(fn):
            return spanned("attacks.script", fn)

        orig_registry = harness.attack_registry
        orig_controls = harness.negative_controls
        build_world = spanned("scenarios.build_world", scenarios.build_world)

        replacements = [
            (Knowledge, "closure", closure),
            (Knowledge, "deduce", deduce),
            (Knowledge, "learn", spanned("terms.learn", Knowledge.learn)),
            (goals, "check_all", check_all),
            (harness, "check_all", check_all),
            (goals, "check_correspondence",
             spanned("goals.correspondence", goals.check_correspondence)),
            (goals, "check_secrecy", spanned("goals.secrecy", goals.check_secrecy)),
            (Trace, "events", events),
            (Adversary, "require", require),
            (attacks, "audit_trace", audit_trace),
            (harness, "audit_trace", audit_trace),
            (harness, "honest_script", scripted(harness.honest_script)),
            (harness, "attack_registry",
             lambda: [dataclasses.replace(s, run=scripted(s.run))
                      for s in orig_registry()]),
            (harness, "negative_controls",
             lambda cfg: [dataclasses.replace(c, run=scripted(c.run))
                          for c in orig_controls(cfg)]),
            (scenarios, "build_world", build_world),
            (harness, "build_world", build_world),
        ]
        return [(obj, attr, getattr(obj, attr), new)
                for obj, attr, new in replacements]

    def install(self, iteration: int) -> None:
        self._iteration = iteration
        for obj, attr, _orig, new in self._patches:
            setattr(obj, attr, new)

    def uninstall(self) -> None:
        for obj, attr, orig, _new in reversed(self._patches):
            setattr(obj, attr, orig)
        self._built.clear()

    # -- results ---------------------------------------------------------------

    def per_iteration(self) -> dict:
        """iteration -> {span name: [calls, total self time, total time]}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _it in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = collections.defaultdict(
            lambda: collections.defaultdict(lambda: [0, 0.0, 0.0]))
        for i, (name, start, end, _parent, it) in enumerate(self.spans):
            agg = out[it][name]
            agg[0] += 1
            agg[1] += (end - start) - child[i]
            agg[2] += end - start
        return out

    def layer_metrics(self, untraced_p50: float) -> dict:
        """Per-layer metrics: the median over traced iterations of each
        iteration's value."""
        rows = []
        for it, by_name in sorted(self.per_iteration().items()):
            def calls(name):
                return by_name[name][0] if name in by_name else 0

            def self_s(name):
                return by_name[name][1] if name in by_name else 0.0

            def total_s(name):
                return by_name[name][2] if name in by_name else 0.0

            c = self.counts[it]
            wall = total_s("iteration")
            sizes = sorted(self.closure_sizes[it]) or [0]
            layer_s = {layer: sum(self_s(n) for n in names)
                       for layer, names in LAYERS.items()}
            deduce_calls = calls("terms.deduce")
            row = {
                "terms.deduce.calls": deduce_calls,
                "terms.deduce.s": self_s("terms.deduce"),
                "terms.closure.builds": calls("terms.closure"),
                "terms.closure.s": self_s("terms.closure"),
                "terms.closure.size.p50": statistics.median(sizes),
                "terms.closure.size.max": sizes[-1],
                "terms.closure.reuse_ratio":
                    c["terms.closure.reused"] / deduce_calls if deduce_calls else 0.0,
                "terms.learn.calls": calls("terms.learn"),
                "terms.learn.s": self_s("terms.learn"),
                "terms.self_s": layer_s["terms"],
                "goals.correspondence.calls": calls("goals.correspondence"),
                "goals.correspondence.self_s": self_s("goals.correspondence"),
                "goals.correspondence.share": self_s("goals.correspondence") / wall,
                "goals.secrecy.calls": calls("goals.secrecy"),
                "goals.secrecy.self_s": self_s("goals.secrecy"),
                "goals.self_s": layer_s["goals"],
                "events.trace_scans": c["events.trace_scans"],
                "attacks.audit.calls": calls("attacks.audit"),
                "attacks.audit.self_s": layer_s["attacks.audit"],
                "attacks.audit.s": total_s("attacks.audit"),
                "attacks.audit.entries": c["attacks.audit.entries"],
                "attacks.script.calls": calls("attacks.script"),
                "attacks.script.self_s": layer_s["attacks.script"],
                "network.gate.sends": c["network.gate.sends"],
                "network.gate.refused": c["network.gate.refused"],
                "roles.aborts": c["roles.aborts"],
                "scenarios.build_world.calls": calls("scenarios.build_world"),
                "scenarios.build_world.self_s": layer_s["scenarios.build_world"],
                "harness.self_s": layer_s["harness"],
                "tracing.iter_s.p50": wall,
            }
            row.update({f"{layer}.share": v / wall for layer, v in layer_s.items()})
            if "harness.matrix.plain" in by_name:
                row["harness.matrix.plain_s"] = total_s("harness.matrix.plain")
                row["harness.matrix.r10_s"] = (total_s("harness.matrix.r10_ds")
                                               + total_s("harness.matrix.r10_ac"))
                row["harness.render_json.s"] = total_s("harness.render_json")
            rows.append(row)
        out = {name: statistics.median(row[name] for row in rows)
               for name in rows[0]}
        out["tracing.overhead_frac"] = out["tracing.iter_s.p50"] / untraced_p50 - 1
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write('["name", "start", "end", "parent", "iteration"]\n')
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
