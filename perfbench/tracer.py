"""Spans around calls into jointgrid's modules, installed from outside the package.

The tracer replaces selected public functions and methods with wrappers
while a traced op runs, then puts the originals back.  A wrapper records
the call count and the span's self time: its duration minus the time of
the spans it caused.  Because ``from module import name`` copies a
reference, every jointgrid module namespace holding the original object is
patched, not just the defining one.

A target that no longer exists is skipped, so its metrics read 0 calls;
the traced run keeps working when a later version of the package deletes
or stops calling a function.
"""

from __future__ import annotations

import importlib
import sys
import weakref
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("grid", "synthesis", "network", "idr", "cascade", "estimation", "cli")


def _synthesis_counts(tracer, args, network, self_s):
    tracer.counts["synthesis.entities"] += len(network.registry)
    tracer.counts["synthesis.rules"] += sum(len(rs.rules) for rs in network.rule_sets.values())


def _cascade_counts(tracer, args, trace, self_s):
    if tracer.first_use(args[1]):  # run_cascade(network, rule_set, scenario)
        tracer.cold_run_s += self_s
    tracer.counts["cascade.steps"] += trace.converged_at
    tracer.counts["cascade.entities_changed"] += sum(len(step) for step in trace.changed)


def _measurement_counts(tracer, args, measurements, self_s):
    tracer.counts["estimation.measurements"] += len(measurements)


# (span name, module, attribute, hook called with the call's arguments,
# result and self time).  A span's name is its metric prefix; the first
# dotted part is its layer.
SPANS = (
    ("grid.load", "jointgrid.grid", "load_grid", None),
    ("synthesis.build", "jointgrid.synthesis", "build_joint_network", _synthesis_counts),
    ("network.validate", "jointgrid.network", "validate", None),
    ("network.entity_ids", "jointgrid.network", "JointNetwork.entity_ids", None),
    ("idr.evaluate", "jointgrid.idr", "evaluate", None),
    ("cascade.run", "jointgrid.cascade", "run_cascade", _cascade_counts),
    ("cascade.final_state", "jointgrid.cascade", "CascadeTrace.final_state", None),
    ("cascade.availability", "jointgrid.cascade", "data_availability", None),
    ("cascade.footprint", "jointgrid.cascade", "footprint_diff", None),
    ("estimation.compare", "jointgrid.estimation", "compare_models", None),
    ("estimation.simulate", "jointgrid.estimation", "simulate_measurements", _measurement_counts),
    ("estimation.build_system", "jointgrid.estimation", "build_system", None),
    ("estimation.solve", "jointgrid.estimation", "solve_with_anchors", None),
    ("estimation.wls", "jointgrid.estimation", "wls_solve", None),
    ("estimation.write_csv", "jointgrid.estimation", "write_errors_csv", None),
    ("cli.main", "jointgrid.cli", "main", None),
    ("cli.network_payload", "jointgrid.cli", "network_payload", None),
    ("cli.rule_file_text", "jointgrid.cli", "rule_file_text", None),
)

# Functions that call themselves through their module's global name.  Only
# calls from other modules are wrapped, so one span covers the whole
# recursion instead of one span per tree node.
RECURSIVE = {"idr.evaluate"}


class Tracer:
    """Span self times, call counts and counters, summed over traced ops."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.cold_run_s = 0.0  # self time of each rule set's first cascade
        self._open = []  # child time of each open span, innermost last
        self._patches = []  # (namespace, attribute, original)
        self._seen_rule_sets = {}  # id -> weakref, to tell cold cascades from warm

    def __enter__(self):
        for name, module_name, attribute, hook in SPANS:
            self._install(name, module_name, attribute, hook)
        return self

    def __exit__(self, *exc_info):
        for namespace, attribute, original in reversed(self._patches):
            setattr(namespace, attribute, original)
        self._patches.clear()
        return False

    def _install(self, name, module_name, attribute, hook):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return
        owner_name, _, attr = attribute.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            return
        wrapper = self._wrap(name, original, hook)
        if owner is not module:  # a method: patch the class once
            self._patch(owner, attr, original, wrapper)
            return
        for other_name, other in list(sys.modules.items()):
            if other is None or not (other_name == "jointgrid" or other_name.startswith("jointgrid.")):
                continue
            if name in RECURSIVE and other is module:
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._patch(other, key, original, wrapper)

    def _patch(self, namespace, attribute, original, wrapper):
        self._patches.append((namespace, attribute, original))
        setattr(namespace, attribute, wrapper)

    def _wrap(self, name, func, hook):
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self_s = duration - self._open.pop()
                self.self_s[name] += self_s
                self.calls[name] += 1
                if self._open:
                    self._open[-1] += duration
            if hook is not None:
                hook(self, args, result, self_s)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def first_use(self, rule_set) -> bool:
        """True on the first cascade seen for this rule-set object: it compiles."""
        ref = self._seen_rule_sets.get(id(rule_set))
        if ref is not None and ref() is rule_set:
            return False
        try:
            self._seen_rule_sets[id(rule_set)] = weakref.ref(rule_set)
        except TypeError:  # not weak-referenceable: keep it alive instead
            self._seen_rule_sets[id(rule_set)] = lambda: rule_set
        return True

    def reset(self):
        """Drop what was recorded so far; rule sets already seen stay warm."""
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.cold_run_s = 0.0

    def layer_seconds(self, layer: str) -> float:
        return sum(t for name, t in self.self_s.items() if name.split(".")[0] == layer)


def per_layer_metrics(tracer: Tracer, ops: int, op_s: float, overhead_s: float,
                      artifact_files: int, artifact_bytes: int) -> dict:
    """Per-op layer metrics from a tracer that watched ``ops`` traced ops
    taking ``op_s`` seconds in all."""
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    solves = calls["estimation.solve"]
    raw = {
        "grid.load_s": (s["grid.load"], "s"),
        "synthesis.build_s": (s["synthesis.build"], "s"),
        "synthesis.entities": (counts["synthesis.entities"], "count"),
        "synthesis.rules": (counts["synthesis.rules"], "count"),
        "network.validate_s": (s["network.validate"], "s"),
        "network.entity_ids_s": (s["network.entity_ids"], "s"),
        "network.entity_ids_calls": (calls["network.entity_ids"], "count"),
        "idr.evaluate_s": (s["idr.evaluate"], "s"),
        "idr.evaluate_calls": (calls["idr.evaluate"], "count"),
        "cascade.run_s": (s["cascade.run"], "s"),
        "cascade.run_calls": (calls["cascade.run"], "count"),
        "cascade.cold_run_s": (tracer.cold_run_s, "s"),
        "cascade.steps": (counts["cascade.steps"], "count"),
        "cascade.entities_changed": (counts["cascade.entities_changed"], "count"),
        "cascade.final_state_s": (s["cascade.final_state"], "s"),
        "cascade.availability_s": (s["cascade.availability"], "s"),
        "cascade.footprint_s": (s["cascade.footprint"], "s"),
        "estimation.compare_s": (s["estimation.compare"], "s"),
        "estimation.simulate_s": (s["estimation.simulate"], "s"),
        "estimation.simulate_calls": (calls["estimation.simulate"], "count"),
        "estimation.measurements": (counts["estimation.measurements"], "count"),
        "estimation.build_system_s": (s["estimation.build_system"], "s"),
        "estimation.solve_s": (s["estimation.solve"], "s"),
        "estimation.wls_s": (s["estimation.wls"], "s"),
        "estimation.wls_calls": (calls["estimation.wls"], "count"),
        "estimation.write_csv_s": (s["estimation.write_csv"], "s"),
        "cli.main_s": (s["cli.main"], "s"),
        "cli.network_payload_s": (s["cli.network_payload"], "s"),
        "cli.rule_file_text_s": (s["cli.rule_file_text"], "s"),
        "cli.rule_file_text_calls": (calls["cli.rule_file_text"], "count"),
        "cli.artifact_bytes": (artifact_bytes, "bytes"),
        "cli.artifact_files": (artifact_files, "count"),
    }
    metrics = {name: {"value": value / ops, "unit": unit} for name, (value, unit) in raw.items()}
    # Ratio with base = solves: 1.0 means no solve retried with anchors.
    metrics["estimation.wls_calls_per_solve"] = {
        "value": calls["estimation.wls"] / solves if solves else 0.0, "unit": "ratio"}
    for layer in LAYERS:
        metrics[f"{layer}.share"] = {"value": tracer.layer_seconds(layer) / op_s, "unit": "ratio"}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return metrics
