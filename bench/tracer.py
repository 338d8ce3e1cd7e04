"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of each hpcbundle module from the
outside, at the name the caller looks them up under, and restores the
originals on exit.  Spans (name, tag, start, end, parent) stay in memory
until the run ends; a span's self time is its duration minus the time its
direct children cover.  Hot helpers that are too small to span are only
counted.
"""

from __future__ import annotations

import csv
import functools
import time
from collections import Counter
from pathlib import Path
from typing import Callable

FREE_BUCKETS = ((4, "lt4"), (16, "4to15"), (64, "16to63"), (256, "64to255"), (None, "ge256"))
MEMBER_BUCKETS = ((8, "lt8"), (32, "8to31"), (128, "32to127"), (None, "ge128"))

DISPATCHER_METHODS = ("ingest", "submit", "on_event", "analyze_bundle", "monitor")


def bucket(n: int, buckets) -> str:
    for limit, label in buckets:
        if limit is None or n < limit:
            return label
    raise AssertionError("the last bucket is unbounded")


class Tracer:
    """Wraps functions for one traced replay; `restore` undoes the wrapping."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, tag, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.peak_queue_depth = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner: object, attr: str, make: Callable) -> None:
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def span(self, owner: object, attr: str, name: str,
             tag: Callable | None = None, after: Callable | None = None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``tag(args)`` runs before the call and labels the span (a size
        bucket); ``after(args, kwargs, result)`` records counts.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(original):
            def wrapper(*args, **kwargs):
                record = [name, tag(args) if tag else "", 0.0, 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(record)
                record[2] = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    record[3] = clock()
                    stack.pop()
                if after:
                    after(args, kwargs, result)
                return result
            return wrapper

        self._patch(owner, attr, make)

    def count(self, owner: object, attr: str, name: str,
              before: Callable | None = None) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                if before:
                    before(args)
                return original(*args, **kwargs)
            return wrapper

        self._patch(owner, attr, make)

    def aggregate(self) -> dict[tuple[str, str], list]:
        """``(name, tag) -> [calls, total seconds, self seconds]``."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[tuple[str, str], list] = {}
        for index, (name, tag, start, end, _) in enumerate(self.spans):
            entry = totals.setdefault((name, tag), [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered[index]
        return totals

    def write(self, path: Path) -> None:
        """Write every span as CSV, times in microseconds from the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["index", "name", "tag", "start_us", "end_us", "parent"])
            for index, (name, tag, start, end, parent) in enumerate(self.spans):
                writer.writerow([index, name, tag, f"{(start - origin) * 1e6:.3f}",
                                 f"{(end - origin) * 1e6:.3f}", parent])


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of hpcbundle; call before building a Simulation."""
    from hpcbundle import bundling, dispatcher, packing, simcluster, stepgraph

    counts = tracer.counts

    def insert_tag(args) -> str:
        size = len(args[0].free_list)
        counts["free_rects"] += size
        return bucket(size, FREE_BUCKETS)

    def insert_after(args, kwargs, placement) -> None:
        if placement is None:
            counts["insert_misses"] += 1

    def form_tag(args) -> str:
        depth = len(args[1].queue)
        counts["queue_depth"] += depth
        tracer.peak_queue_depth = max(tracer.peak_queue_depth, depth)
        return ""

    def form_after(args, kwargs, bundle) -> None:
        if bundle is None:
            return
        counts["bundles_formed"] += 1
        counts["jobs_packed"] += len(bundle.members)
        if kwargs.get("force", len(args) > 3 and args[3]):
            counts["bundles_forced"] += 1

    def graph_after(args, kwargs, graph) -> None:
        counts["graph_members"] += len(graph.nodes)
        counts["graph_edges"] += len(graph.edges)

    def cancel_before(args) -> None:
        backend, handle = args[0], args[1]
        run = backend.runs.get(handle)
        if (run is not None and run.started_at is None and not run.finalized
                and not backend.suppressed(run.site_id, backend.sim.now)):
            counts["cancels_queued"] += 1

    tracer.span(packing.PackingBin, "insert", "packing.insert", insert_tag, insert_after)
    tracer.span(bundling.SiteRegistry, "try_form_bundle", "bundling.try_form_bundle",
                form_tag, form_after)
    tracer.span(bundling.SiteRegistry, "flush_due_sites", "bundling.flush_due_sites")
    tracer.span(dispatcher, "step_graph", "stepgraph.step_graph",
                lambda args: bucket(len(args[0]), MEMBER_BUCKETS), graph_after)
    tracer.span(stepgraph, "beneath_relation", "stepgraph.beneath_relation")
    tracer.span(stepgraph, "transitive_reduction", "stepgraph.transitive_reduction")
    tracer.span(dispatcher, "emit_make", "stepgraph.emit_make")
    for method in DISPATCHER_METHODS:
        tracer.span(dispatcher.Dispatcher, method, f"dispatcher.{method}")
    tracer.span(simcluster.Simulation, "run", "simcluster.loop")
    tracer.span(simcluster, "schedule_steps", "simcluster.schedule_steps")
    tracer.span(simcluster.SimCluster, "on_bundle_start", "simcluster.on_bundle_start")
    tracer.span(simcluster.Simulation, "materialize", "io.artifacts")
    tracer.count(simcluster.Simulation, "push", "events")
    tracer.count(simcluster.Simulation, "record", "records")
    tracer.count(simcluster.SimCluster, "advance", "advances")
    tracer.count(simcluster.SimCluster, "cancel", "cancel_calls", cancel_before)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics that come from spans and counts of one traced replay."""
    totals = tracer.aggregate()
    counts = tracer.counts

    def pick(name: str, tag: str | None = None) -> tuple[int, float]:
        """(calls, self seconds) of a span name, for one tag or all tags."""
        calls, self_s = 0, 0.0
        for (span_name, span_tag), (n, _, own) in totals.items():
            if span_name == name and (tag is None or span_tag == tag):
                calls += n
                self_s += own
        return calls, self_s

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    inserts, insert_self = pick("packing.insert")
    forms, form_self = pick("bundling.try_form_bundle")
    graphs, graph_self = pick("stepgraph.step_graph")
    events = counts["events"]
    loop_self = pick("simcluster.loop")[1]
    m: dict[str, float] = {
        "packing.insert.calls": inserts,
        "packing.insert.self_s": insert_self,
        "packing.insert.miss_ratio": ratio(counts["insert_misses"], inserts),
        "packing.free_rects.mean": ratio(counts["free_rects"], inserts),
        "packing.inserts_per_packed_job": ratio(inserts, counts["jobs_packed"]),
        "bundling.try_form_bundle.calls": forms,
        "bundling.try_form_bundle.self_s": form_self,
        "bundling.try_form_bundle.formed_ratio": ratio(counts["bundles_formed"], forms),
        "bundling.queue_depth.mean": ratio(counts["queue_depth"], forms),
        "bundling.queue_depth.max": tracer.peak_queue_depth,
        "bundling.flush_due_sites.self_s": pick("bundling.flush_due_sites")[1],
        "bundling.bundles_forced_share": ratio(counts["bundles_forced"], counts["bundles_formed"]),
        "stepgraph.step_graph.calls": graphs,
        "stepgraph.step_graph.self_s": graph_self,
        "stepgraph.edges_per_member": ratio(counts["graph_edges"], counts["graph_members"]),
        "simcluster.events": events,
        "simcluster.loop.self_s": loop_self,
        "simcluster.loop.us_per_event": ratio(loop_self * 1e6, events),
        "simcluster.advance.calls": counts["advances"],
        "simcluster.record.calls": counts["records"],
        "dispatcher.cancels_queued": counts["cancels_queued"],
        "io.artifacts.self_s": pick("io.artifacts")[1],
        "trace.pack_bundle_share": ratio(insert_self + form_self, wall_s),
    }
    for _, label in FREE_BUCKETS:
        calls, self_s = pick("packing.insert", label)
        m[f"packing.insert.mean_us.{label}"] = ratio(self_s * 1e6, calls)
    for _, label in MEMBER_BUCKETS:
        calls, self_s = pick("stepgraph.step_graph", label)
        m[f"stepgraph.step_graph.calls.{label}"] = calls
        m[f"stepgraph.step_graph.self_s.{label}"] = self_s
    for name in ("beneath_relation", "transitive_reduction", "emit_make"):
        m[f"stepgraph.{name}.self_s"] = pick(f"stepgraph.{name}")[1]
    for method in DISPATCHER_METHODS:
        m[f"dispatcher.{method}.self_s"] = pick(f"dispatcher.{method}")[1]
    for method in ("on_event", "analyze_bundle"):
        m[f"dispatcher.{method}.calls"] = pick(f"dispatcher.{method}")[0]
    for name in ("schedule_steps", "on_bundle_start"):
        m[f"simcluster.{name}.self_s"] = pick(f"simcluster.{name}")[1]
    return m
