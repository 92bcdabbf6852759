"""Span arithmetic and the per-layer metrics of a traced run.

A span is a dict with ``id``, ``parent``, ``qid`` (the query, or ``setup-N``
for the N-th set-up), ``name``, ``start`` and ``end`` in milliseconds, and
``attrs``.  A layer's self time is its span's duration minus the part of that
interval covered by its child spans; children running in parallel threads
are merged first, and a child outliving its parent (an abandoned fetch)
counts only while the parent is open.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# Span name -> per-layer metric holding its self time.
SELF_TIME = {
    "classify_input": "inputs.classify_ms",
    "route": "routing.route_ms",
    "normalize_records": "aggregate.normalize_ms",
    "dedup": "aggregate.dedup_ms",
    "resolve_candidates": "aggregate.resolve_ms",
    "best_match": "aggregate.rank_ms",
    "filter_relevance": "aggregate.filter_ms",
    "build_report": "report.build_ms",
    "render": "report.render_ms",
}
SETUP_TIME = {
    "import": "cli.import_ms",
    "registry": "routing.registry_ms",
    "load_corpus": "collect.corpus.load_ms",
}
# (span name, attribute) -> per-layer count metric.
COUNTS = {
    ("route", "collectors"): "routing.collectors_routed",
    ("execute_stack", "timeouts"): "collect.executor.timeouts",
    ("execute_stack", "errors"): "collect.executor.errors",
    ("normalize_records", "in"): "aggregate.records_in",
    ("normalize_records", "out"): "aggregate.records_kept",
    ("dedup", "out"): "aggregate.records_unique",
    ("resolve_candidates", "out"): "aggregate.candidates",
    ("filter_relevance", "out"): "aggregate.records_reported",
    ("render", "bytes"): "report.bytes",
}
QUERY_TIMES = sorted(SELF_TIME.values()) + [
    "collect.adapters.fetch_ms",
    "collect.corpus.fetch_ms",
    "collect.executor.queue_ms",
    "collect.executor.wall_ms",
]
QUERY_COUNTS = sorted(COUNTS.values()) + [
    "collect.adapters.requests",
    "collect.corpus.records_returned",
]
SETUP_METRICS = sorted(SETUP_TIME.values()) + ["collect.corpus.facts"]


def covered(start: float, end: float, intervals) -> float:
    """Length of the union of *intervals*, each clipped to [start, end]."""
    total = 0.0
    reach = start
    for left, right in sorted((max(a, start), min(b, end)) for a, b in intervals):
        if right <= reach:
            continue
        total += right - max(left, reach)
        reach = right
    return total


def self_times(spans) -> dict:
    """Span id -> self time in ms."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: span["end"] - span["start"]
        - covered(span["start"], span["end"], children[span["id"]])
        for span in spans
    }


def per_query(spans) -> dict:
    """qid -> {metric: value} for every query and set-up found in *spans*."""
    own = self_times(spans)
    by_id = {span["id"]: span for span in spans}
    values: dict = defaultdict(lambda: defaultdict(float))
    for span in spans:
        row = values[span["qid"]]
        name = span["name"]
        if name in SELF_TIME:
            row[SELF_TIME[name]] += own[span["id"]]
        elif name in SETUP_TIME:
            row[SETUP_TIME[name]] += own[span["id"]]
        elif name == "execute_stack":
            row["collect.executor.wall_ms"] += span["end"] - span["start"]
        elif name == "fetch":
            parent = by_id.get(span["parent"])
            if parent is not None:
                row["collect.executor.queue_ms"] += span["start"] - parent["start"]
            busy = span["end"] - span["start"]
            if span["attrs"]["backend"] == "http":
                row["collect.adapters.fetch_ms"] += busy
                row["collect.adapters.requests"] += 1
            else:
                row["collect.corpus.fetch_ms"] += busy
                row["collect.corpus.records_returned"] += span["attrs"].get("records", 0)
        if name == "load_corpus":
            row["collect.corpus.facts"] += span["attrs"]["facts"]
        for (span_name, attr), metric in COUNTS.items():
            if name == span_name:
                row[metric] += span["attrs"].get(attr, 0)
    return values


def layer_metrics(spans, overhead_ms: float, threads_live_max: int):
    """Per-layer metric values plus the rows of the human-readable table.

    Times are medians over traced queries (set-up times over set-ups); counts
    are means per traced query.
    """
    rows = per_query(spans)
    queries = [row for qid, row in rows.items() if not str(qid).startswith("setup")]
    setups = [row for qid, row in rows.items() if str(qid).startswith("setup")]
    metrics: dict = {}
    for name in QUERY_TIMES:
        metrics[name] = statistics.median(row[name] for row in queries) if queries else 0.0
    for name in QUERY_COUNTS:
        metrics[name] = statistics.fmean(row[name] for row in queries) if queries else 0.0
    for name in SETUP_METRICS:
        metrics[name] = statistics.median(row[name] for row in setups) if setups else 0.0
    records_in = sum(row["aggregate.records_in"] for row in queries)
    records_kept = sum(row["aggregate.records_kept"] for row in queries)
    metrics["aggregate.kept_ratio"] = records_kept / records_in if records_in else 1.0
    metrics["collect.executor.threads_live_max"] = threads_live_max
    metrics["trace.overhead_ms"] = overhead_ms

    table = []
    own = self_times(spans)
    totals: dict = defaultdict(lambda: [0, 0.0])
    for span in spans:
        key = ("setup " if str(span["qid"]).startswith("setup") else "") + span["name"]
        totals[key][0] += 1
        totals[key][1] += own[span["id"]]
    for key, (count, total) in sorted(totals.items(), key=lambda item: -item[1][1]):
        table.append(f"  self {key:<26} {count:>7} spans {total:>12.1f} ms total")

    def ratio(label, part, base):
        share = part / base if base else float("nan")
        table.append(f"  ratio {label:<38} {share:.4f} ({part:g} of {base:g})")

    fetches = [s for s in spans if s["name"] == "fetch"]
    routed = sum(row["routing.collectors_routed"] for row in queries)
    ratio("records_kept / records_in", records_kept, records_in)
    ratio("records_unique / records_kept",
          sum(row["aggregate.records_unique"] for row in queries), records_kept)
    ratio("records_reported / records_unique",
          sum(row["aggregate.records_reported"] for row in queries),
          sum(row["aggregate.records_unique"] for row in queries))
    ratio("fetches without error / fetches",
          sum("error" not in s["attrs"] for s in fetches), len(fetches))
    ratio("timeouts / collectors routed",
          sum(row["collect.executor.timeouts"] for row in queries), routed)
    table.append(f"  traced queries {len(queries)}, set-ups {len(setups)}")
    return metrics, table
