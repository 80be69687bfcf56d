"""Span tracing for the benchmark's traced pass.

The tracer wraps the public entry points of each schedmech layer and records
one span per call: name, step, start, end, parent, self wall time, self CPU
time of the calling thread, whether the call raised, and one layer-specific
count.  Modules import these functions by name (``from .assignment import
solve_min_work``), so a wrapper is installed at every module attribute that
holds the original function, not only where it is defined; ``uninstall``
puts every original back.

Spans stay in memory until the run ends.  Self time is a span's duration
minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from collections import Counter, defaultdict

LAYERS = ("distributions", "instances", "assignment", "mechanisms", "optbounds", "campaign")

# Per-layer metrics in the order they are reported.  Every workload reports
# all of them; a layer the workload never reaches reads 0.
METRICS = (
    ("distributions.sample_calls", "count"),
    ("distributions.sample_s", "s"),
    ("distributions.values_drawn", "count"),
    ("instances.sample_calls", "count"),
    ("instances.sample_s", "s"),
    ("assignment.solve_calls", "count"),
    ("assignment.solve_s", "s"),
    ("assignment.lsa_calls", "count"),
    ("assignment.lsa_s", "s"),
    ("assignment.lsa_cells", "count"),
    ("assignment.lsa_ratio", "1"),
    ("assignment.greedy_calls", "count"),
    ("assignment.greedy_s", "s"),
    ("mechanisms.run_calls", "count"),
    ("mechanisms.run_s", "s"),
    ("mechanisms.pivot_solves", "count"),
    ("mechanisms.pivot_s", "s"),
    ("mechanisms.audit_calls", "count"),
    ("mechanisms.audit_s", "s"),
    ("mechanisms.audit_solves", "count"),
    ("optbounds.reference_calls", "count"),
    ("optbounds.reference_s", "s"),
    ("campaign.run_s", "s"),
    ("campaign.emit_s", "s"),
    ("campaign.version_s", "s"),
    ("campaign.report_bytes", "count"),
) + tuple(
    item
    for layer in LAYERS
    for item in ((f"{layer}.wait_s", "s"), (f"{layer}.failed_calls", "count"))
) + (
    ("trace.overhead_ratio", "1"),
    ("trace.wall_s", "s"),
    ("trace.untraced_s", "s"),
)

# Span record fields, in tuple order.  ``count`` holds values drawn for
# distributions.sample, cost-matrix cells for assignment.lsa, report bytes
# for campaign.emit, and 1 for an assignment.solve that is a Clarke pivot.
FIELDS = ("name", "step", "start", "end", "parent", "self_s", "self_cpu_s", "failed", "count")


def _values_drawn(args, kwargs, result):
    return int(getattr(result, "size", 1))


def _lsa_cells(args, kwargs, result):
    rows, cols = args[0].shape
    return rows * cols


def _report_bytes(args, kwargs, result):
    return len(result.encode())


class Tracer:
    """Installs span-recording wrappers into the loaded schedmech modules."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.step = -1
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._pivot_rcs: dict[int, weakref.ref] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import schedmech.assignment as assignment
        import schedmech.campaign as campaign
        import schedmech.distributions as distributions
        import schedmech.instances as instances
        import schedmech.mechanisms as mechanisms
        import schedmech.optbounds as optbounds

        if self._patches:
            raise RuntimeError("tracer already installed")
        for cls in _subclasses(distributions.DistributionSpec):
            if "sample" in vars(cls):
                self._patch_attr(cls, "sample", self._wrap("distributions.sample", cls.sample, _values_drawn))
        self._patch_attr(
            assignment.RangeConstraint, "excluding", self._tag_pivot(assignment.RangeConstraint.excluding)
        )
        functions = [
            ("instances.sample", instances.sample_instance, None),
            ("assignment.solve", assignment.solve_min_work, self._is_pivot),
            ("assignment.lsa", assignment.linear_sum_assignment, _lsa_cells),
            ("assignment.greedy", assignment.first_best_makespan_greedy, None),
            ("mechanisms.run", mechanisms.run_mechanism, None),
            ("mechanisms.run", mechanisms.run_minimum_work, None),
            ("mechanisms.run", mechanisms.run_bounded_overload, None),
            ("mechanisms.run", mechanisms.run_sieve, None),
            ("mechanisms.run", mechanisms.run_sieve_bounded_overload, None),
            ("mechanisms.audit", mechanisms.ic_audit, None),
            ("optbounds.reference", optbounds.opt_reference, None),
            ("campaign.run", campaign.run_campaign, None),
            ("campaign.emit", campaign.emit_report, _report_bytes),
            ("campaign.version", campaign.version_string, None),
        ]
        for name, fn, count in functions:
            wrapper = self._wrap(name, fn, count)
            for module in _schedmech_modules():
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch_attr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._pivot_rcs.clear()

    def _patch_attr(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._record(name, fn, count, args, kwargs)

        return traced

    def _record(self, name, fn, count, args, kwargs):
        stack = self._stack
        index = len(self.spans)
        self.spans.append(None)  # reserved, so a parent precedes its children
        parent = stack[-1][0] if stack else -1
        frame = [index, 0.0, 0.0]
        stack.append(frame)
        failed = True
        result = None
        cpu0 = time.thread_time()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = time.perf_counter()
            cpu = time.thread_time() - cpu0
            wall = end - start
            stack.pop()
            if stack:
                stack[-1][1] += wall
                stack[-1][2] += cpu
            n = count(args, kwargs, result) if count is not None and not failed else 0
            self.spans[index] = (
                name, self.step, start, end, parent, wall - frame[1], cpu - frame[2], failed, n
            )

    def _tag_pivot(self, excluding):
        pivots = self._pivot_rcs

        @functools.wraps(excluding)
        def tagged(rc, machine):
            result = excluding(rc, machine)
            key = id(result)
            pivots[key] = weakref.ref(result, lambda _ref, key=key: pivots.pop(key, None))
            return result

        return tagged

    def _is_pivot(self, args, kwargs, result):
        rc = args[1] if len(args) > 1 else kwargs.get("rc")
        ref = self._pivot_rcs.get(id(rc))
        return int(ref is not None and ref() is rc)

    # -- output -------------------------------------------------------------

    def write(self, path, header: dict) -> None:
        """Write a header line, then one JSON object per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(dict(zip(FIELDS, span))) + "\n")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _schedmech_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "schedmech" or name.startswith("schedmech."))
    ]


def summarize(spans, traced_wall: float, untraced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics, plus each layer's self time for the accounting line."""
    calls = Counter()
    self_s = defaultdict(float)
    counts = Counter()
    layer_self = dict.fromkeys(LAYERS, 0.0)
    wait = dict.fromkeys(LAYERS, 0.0)
    failed = dict.fromkeys(LAYERS, 0)
    in_audit = []
    run_calls = pivot_solves = audit_solves = 0
    pivot_s = 0.0
    for span in spans:
        name, _step, start, end, parent, own, own_cpu, bad, n = span
        layer = name.split(".", 1)[0]
        calls[name] += 1
        self_s[name] += own
        counts[name] += n
        layer_self[layer] += own
        wait[layer] += max(0.0, own - own_cpu)
        failed[layer] += bad
        parent_name = spans[parent][0] if parent >= 0 else None
        in_audit.append(name == "mechanisms.audit" or (parent >= 0 and in_audit[parent]))
        if name == "mechanisms.run" and parent_name != "mechanisms.run":
            run_calls += 1
        if name == "assignment.solve":
            audit_solves += in_audit[-1]
            if n:
                pivot_solves += 1
                pivot_s += end - start
    solves = calls["assignment.solve"]
    metrics = {
        "distributions.sample_calls": calls["distributions.sample"],
        "distributions.sample_s": self_s["distributions.sample"],
        "distributions.values_drawn": counts["distributions.sample"],
        "instances.sample_calls": calls["instances.sample"],
        "instances.sample_s": self_s["instances.sample"],
        "assignment.solve_calls": solves,
        "assignment.solve_s": self_s["assignment.solve"],
        "assignment.lsa_calls": calls["assignment.lsa"],
        "assignment.lsa_s": self_s["assignment.lsa"],
        "assignment.lsa_cells": counts["assignment.lsa"],
        "assignment.lsa_ratio": calls["assignment.lsa"] / solves if solves else 0.0,
        "assignment.greedy_calls": calls["assignment.greedy"],
        "assignment.greedy_s": self_s["assignment.greedy"],
        "mechanisms.run_calls": run_calls,
        "mechanisms.run_s": self_s["mechanisms.run"],
        "mechanisms.pivot_solves": pivot_solves,
        "mechanisms.pivot_s": pivot_s,
        "mechanisms.audit_calls": calls["mechanisms.audit"],
        "mechanisms.audit_s": self_s["mechanisms.audit"],
        "mechanisms.audit_solves": audit_solves,
        "optbounds.reference_calls": calls["optbounds.reference"],
        "optbounds.reference_s": self_s["optbounds.reference"],
        "campaign.run_s": self_s["campaign.run"],
        "campaign.emit_s": self_s["campaign.emit"],
        "campaign.version_s": self_s["campaign.version"],
        "campaign.report_bytes": counts["campaign.emit"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.wait_s"] = wait[layer]
        metrics[f"{layer}.failed_calls"] = failed[layer]
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_s"] = traced_wall - sum(layer_self.values())
    return metrics, layer_self
