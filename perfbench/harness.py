"""The measurement harness shared by every workload.

One run of ``perfbench/run.py`` measures one workload in one of two modes:

* ``--trace 0`` sets the workload up several times (the median is
  ``setup_s``), runs one closed-loop timed pass of ``--seconds`` with the
  benchmark's timers off, checks the answers against a cold, serial,
  all-optimisations-off reference, and prints the end-to-end metrics.
* ``--trace 1`` runs the same pass twice on fresh set-ups, first
  untraced and then with :mod:`perfbench.tracing` installed, checks that
  both passes did the same work (deterministic workloads), and prints the
  per-layer metrics plus the tracing overhead.

The last line of standard output is the JSON result object; every line
before it is a human-readable report.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

def reference_options():
    """The evaluation every answer is compared with: cold, serial,
    per-binding dispatch, greedy planning, no digests and no caches."""
    from repro.core.planner import PlannerOptions

    return PlannerOptions(batch_bind_joins=False, cost_based=False,
                          adaptive=False, parallel_stages=False,
                          result_cache=False, plan_cache=False,
                          digest_sieve=False)


def reference_rows(pinned, instance, query) -> Counter:
    """Multiset of ``query``'s rows under the reference evaluation of ``pinned``."""
    result = pinned.execute(instance, query, options=reference_options(),
                            cache=False, max_workers=1)
    return multiset(result.rows)


def multiset(rows) -> Counter:
    return Counter(tuple(sorted((k, repr(v)) for k, v in row.items())) for row in rows)


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method; the value itself for one sample)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def calibration_seconds() -> float:
    """Time of a fixed pure-CPU loop: a drift gauge, never a normaliser."""
    start = time.perf_counter()
    acc = 0
    for i in range(3_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class PassResult:
    """What one timed pass did and observed."""

    latencies: list[float] = field(default_factory=list)
    queries: int = 0
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    #: Work counts over the first ``window`` operations (deterministic
    #: on single-client workloads).
    counts: dict[str, float] = field(default_factory=dict)
    #: Ingest-batch acknowledgement times and ingest-to-delivery lags (s).
    acks: list[float] = field(default_factory=list)
    freshness: list[float] = field(default_factory=list)
    queue_waits: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    #: Peak resident memory when the count window closed: fixed work, so
    #: a faster program that gets further in the pass is not penalised.
    rss_peak_mb: float = 0.0

    @property
    def queries_per_s(self) -> float:
        return self.queries / self.elapsed if self.elapsed > 0 else 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


#: Counts compared between the untraced and traced pass, per workload.
COMPARED_COUNTS = {
    "bindjoin_sweep": (
        "executor.source_calls", "executor.batched_calls",
        "executor.bindings_shipped", "executor.rows_fetched",
        "digest.sieved_bindings", "cache.hits", "cache.misses",
        "cache.evictions", "planner.plan_cache_hits", "planner.replans",
        "answers.rows"),
    "live_ingest": (
        "executor.source_calls", "executor.batched_calls",
        "executor.bindings_shipped", "executor.rows_fetched",
        "query.cache_hits", "query.cache_misses", "cache.repair_attempts",
        "cache.repaired", "cache.repair_fallbacks", "ingest.version_bumps",
        "ingest.batches", "service.standing_deliveries",
        "standing.rows_delivered", "answers.rows"),
}


def _end_to_end(result: PassResult, setups: list[float]) -> dict[str, tuple[float, str]]:
    latencies_ms = [1000 * s for s in result.latencies]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "query_p50_ms": (percentile(latencies_ms, 50), "ms"),
        "query_p95_ms": (percentile(latencies_ms, 95), "ms"),
        "queries_per_s": (result.queries_per_s, "1/s"),
        "rss_peak_mb": (result.rss_peak_mb, "MB"),
        "ingest_ack_p50_ms": (1000 * percentile(result.acks, 50), "ms"),
        "freshness_p50_ms": (1000 * percentile(result.freshness, 50), "ms"),
    }


def _reported_only(result: PassResult) -> dict[str, tuple[float, str]]:
    """Metrics printed in the report but kept out of ``BENCHMARK.json``."""
    out = {"error_rate": (result.failed / max(result.attempted, 1), "ratio")}
    if result.freshness:
        out["freshness_p95_ms"] = (1000 * percentile(result.freshness, 95), "ms")
    if len(result.latencies) >= 1000:
        out["query_p99_ms"] = (1000 * percentile(result.latencies, 99), "ms")
    return out


def _ms_per_op(totals, name: str, ops: int) -> float:
    layer = totals.get(name)
    return 1000 * layer.self_seconds / ops if layer is not None and ops else 0.0


def _per_layer(result: PassResult, totals, overhead: float,
               counts_match: bool) -> dict[str, tuple[float, str]]:
    c = result.counts
    ops = max(result.ops, 1)
    probes = c.get("cache.hits", 0) + c.get("cache.misses", 0)
    plan_probes = c.get("planner.plan_cache_hits", 0) + c.get("planner.plan_cache_misses", 0)
    reaching = c.get("digest.sieved_bindings", 0) + c.get("executor.bindings_shipped", 0)
    batches = c.get("ingest.batches", 0)
    out: dict[str, tuple[float, str]] = {
        "service.queue_wait_ms": (
            1000 * statistics.fmean(result.queue_waits) if result.queue_waits else 0.0, "ms"),
        "service.groups": (c.get("service.groups", 0), "count"),
        "service.grouped_tickets": (c.get("service.grouped_tickets", 0), "count"),
        "service.shared_subqueries": (c.get("service.shared_subqueries", 0), "count"),
        "service.fused_probes": (c.get("service.fused_probes", 0), "count"),
        "service.pin_ms": (_ms_per_op(totals, "service.pin", ops), "ms"),
        "service.standing_refreshes": (c.get("service.standing_refreshes", 0), "count"),
        "service.standing_deliveries": (c.get("service.standing_deliveries", 0), "count"),
        "service.standing_refresh_ms": (
            _ms_per_op(totals, "service.standing_refresh", ops), "ms"),
        "planner.plan_ms": (_ms_per_op(totals, "planner.plan", ops), "ms"),
        "planner.plan_cache_hit_rate": (
            c.get("planner.plan_cache_hits", 0) / plan_probes if plan_probes else 0.0, "ratio"),
        "planner.replans": (c.get("planner.replans", 0), "count"),
        "executor.self_ms": (_ms_per_op(totals, "executor.execute", ops), "ms"),
        "executor.source_calls": (c.get("executor.source_calls", 0), "count"),
        "executor.batched_calls": (c.get("executor.batched_calls", 0), "count"),
        "executor.bindings_shipped": (c.get("executor.bindings_shipped", 0), "count"),
        "executor.rows_fetched": (c.get("executor.rows_fetched", 0), "count"),
        "cache.hit_rate": (c.get("cache.hits", 0) / probes if probes else 0.0, "ratio"),
        "cache.hits": (c.get("cache.hits", 0), "count"),
        "cache.misses": (c.get("cache.misses", 0), "count"),
        "cache.evictions": (c.get("cache.evictions", 0), "count"),
        "cache.probe_ms": (_ms_per_op(totals, "cache.probe", ops), "ms"),
        "cache.repair_attempts": (c.get("cache.repair_attempts", 0), "count"),
        "cache.repaired": (c.get("cache.repaired", 0), "count"),
        "cache.repair_fallbacks": (c.get("cache.repair_fallbacks", 0), "count"),
        "cache.repair_ms": (_ms_per_op(totals, "cache.repair", ops), "ms"),
        "digest.sieved_bindings": (c.get("digest.sieved_bindings", 0), "count"),
        "digest.sieved_ratio": (
            c.get("digest.sieved_bindings", 0) / reaching if reaching else 0.0, "ratio"),
    }
    for model in ("rdf", "sql", "fulltext", "json"):
        layer = totals.get(f"sources.{model}")
        out[f"sources.{model}.calls"] = (layer.calls / ops if layer else 0.0, "count")
        out[f"sources.{model}.rows"] = (layer.rows / ops if layer else 0.0, "count")
        out[f"sources.{model}.ms"] = (_ms_per_op(totals, f"sources.{model}", ops), "ms")
    out["relational.execute_ms"] = (_ms_per_op(totals, "relational.execute", ops), "ms")
    out["rdf.bgp_ms"] = (_ms_per_op(totals, "rdf.bgp", ops), "ms")
    out["fulltext.search_ms"] = (_ms_per_op(totals, "fulltext.search", ops), "ms")
    out["json.match_ms"] = (_ms_per_op(totals, "json.match", ops), "ms")
    for model in ("json", "fulltext", "rdf", "sql"):
        layer = totals.get(f"ingest.{model}")
        out[f"ingest.{model}.ack_ms"] = (
            1000 * layer.self_seconds / layer.calls if layer and layer.calls else 0.0, "ms")
    out["ingest.version_bumps_per_batch"] = (
        c.get("ingest.version_bumps", 0) / batches if batches else 0.0, "ratio")
    out["stats.summaries_built"] = (c.get("stats.summaries_built", 0), "count")
    out["stats.summaries_absorbed"] = (c.get("stats.summaries_absorbed", 0), "count")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    out["trace.counts_match"] = (1 if counts_match else 0, "bool")
    return out


def fingerprint(seed: int) -> dict[str, object]:
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {"nproc": os.cpu_count(), "cpus_used": affinity,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(), "seed": seed}


def _timed_setup(workload, seed: int) -> float:
    gc.collect()
    start = time.perf_counter()
    workload.setup(seed)
    return time.perf_counter() - start


def run(workload, seed: int, seconds: float, trace: bool) -> int:
    """Measure ``workload`` once and print the report plus the JSON result."""
    info = fingerprint(seed)
    info["workload"] = workload.name
    info["calibration_before_s"] = calibration_seconds()
    if trace:
        metrics, result, problems = _traced_run(workload, seed, seconds)
    else:
        metrics, result, problems = _untraced_run(workload, seed, seconds)
    info["calibration_after_s"] = calibration_seconds()
    print("fingerprint " + json.dumps(info, sort_keys=True))
    attempted = max(result.attempted, 1)
    print(f"{workload.name}: {result.queries} queries, {result.ops} ops in "
          f"{result.elapsed:.2f} s; attempted {result.attempted}, failed "
          f"{result.failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.4f} {unit}")
    if not trace:
        for name, (value, unit) in _reported_only(result).items():
            print(f"  {name:34s} {value:14.4f} {unit}  (report only)")
    for key in sorted(result.counts):
        print(f"  count {key:28s} {result.counts[key]}")
    for message in result.errors + problems:
        print(f"  ERROR {message}")
    correct = result.failed == 0 and not problems
    payload = {"correct": correct, "attempted": attempted,
               "failed": result.failed + len(problems),
               "metrics": {name: {"value": value, "unit": unit}
                           for name, (value, unit) in metrics.items()}}
    print(json.dumps(payload, sort_keys=True))
    return 0


def _untraced_run(workload, seed: int, seconds: float):
    setups = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.close()
        setups.append(_timed_setup(workload, seed))
    try:
        result = workload.run_pass(seed, seconds)
        workload.verify(result)
        workload.write_probe(result)
    finally:
        workload.close()
    return _end_to_end(result, setups), result, []


def _traced_run(workload, seed: int, seconds: float):
    from perfbench import tracing

    _timed_setup(workload, seed)
    try:
        plain = workload.run_pass(seed, seconds)
    finally:
        workload.close()
    _timed_setup(workload, seed)
    recorder = tracing.Recorder()
    installed = tracing.install(recorder)
    try:
        traced = workload.run_pass(seed, seconds)
    finally:
        installed.uninstall()
    try:
        workload.verify(traced)
    finally:
        workload.close()
    problems = []
    compared = COMPARED_COUNTS.get(workload.name, ())
    mismatched = [key for key in compared
                  if plain.counts.get(key) != traced.counts.get(key)]
    if mismatched:
        problems.append("traced pass did different work: " + ", ".join(
            f"{key} {plain.counts.get(key)} vs {traced.counts.get(key)}"
            for key in mismatched))
    overhead = (plain.queries_per_s / traced.queries_per_s
                if traced.queries_per_s else 0.0)
    totals = tracing.rollup(recorder.spans)
    metrics = _per_layer(traced, totals, overhead, not mismatched)
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.errors.extend(plain.errors)
    return metrics, traced, problems


def add_trace(counts: Counter, trace) -> None:
    """Fold one query's :class:`ExecutionTrace` into ``counts``."""
    counts["executor.source_calls"] += len(trace.calls)
    counts["executor.batched_calls"] += trace.batched_calls()
    counts["executor.bindings_shipped"] += sum(
        call.bindings_in for call in trace.calls if call.batched)
    counts["executor.rows_fetched"] += trace.total_rows_fetched()
    counts["digest.sieved_bindings"] += trace.sieved_bindings
    counts["query.cache_hits"] += trace.cache_hits
    counts["query.cache_misses"] += trace.cache_misses
    counts["planner.replans"] += trace.replans


def global_counters(instance, service=None) -> dict[str, float]:
    """Cumulative counters of the instance's caches, catalog and service."""
    cache = instance.cache
    results, plans = cache.results.stats, cache.plans.stats
    repair = cache.repair.stats.as_dict()
    catalog = instance.statistics()
    out = {
        "cache.hits": results.hits, "cache.misses": results.misses,
        "cache.evictions": results.evictions,
        "planner.plan_cache_hits": plans.hits,
        "planner.plan_cache_misses": plans.misses,
        "cache.repair_attempts": repair["attempts"],
        "cache.repaired": repair["repaired"],
        "cache.repair_fallbacks": sum(repair["fallbacks"].values()),
        "stats.summaries_built": catalog.summaries_built,
        "stats.summaries_absorbed": catalog.summaries_absorbed,
    }
    if service is not None:
        stats = service.stats()
        mqo = stats.get("mqo", {})
        for key in ("groups", "grouped_tickets", "shared_subqueries", "fused_probes"):
            out[f"service.{key}"] = mqo.get(key, 0)
        standing = stats.get("standing", {})
        out["service.standing_refreshes"] = standing.get("refreshes", 0)
        out["service.standing_deliveries"] = standing.get("deliveries", 0)
    return out


class Window:
    """Counts over the first ``size`` operations of a pass.

    Per-query trace counts accumulate in :attr:`counts`; the global
    counters are differenced between :meth:`open` and :meth:`close`.
    """

    def __init__(self, size: int):
        self.size = size
        self.counts: Counter = Counter()
        self._start: Optional[dict[str, float]] = None
        self.rss_peak_mb = 0.0
        self.closed = False

    def open(self, instance, service=None) -> None:
        self._start = global_counters(instance, service)

    def close(self, instance, service=None) -> None:
        end = global_counters(instance, service)
        for key, value in end.items():
            self.counts[key] = value - self._start.get(key, 0)
        self.rss_peak_mb = rss_peak_mb()
        self.closed = True
