"""Benchmark-owned span timers around each layer's public entry points.

:func:`install` patches class and module attributes in the benchmark
process only (nothing under ``src/`` changes) so that every call into a
layer records a span: name, start, end, parent span and request id.
The current span lives in a :class:`contextvars.ContextVar`, so spans
opened on a ``WorkPool`` thread nest under the span that submitted the
work (the pool runs each item in a copy of the caller's context).  Spans
stay in memory until :func:`rollup` folds them into per-layer self time:
a span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

_CURRENT: contextvars.ContextVar[Optional[tuple[int, int]]] = contextvars.ContextVar(
    "perfbench_span", default=None)


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: int
    rows: int = 0


@dataclass
class Recorder:
    """Collects spans from every thread of the benchmark process."""

    spans: list[Span] = field(default_factory=list)
    _ids: itertools.count = field(default_factory=lambda: itertools.count(1))

    def wrap(self, name: str, fn: Callable,
             rows: Callable[[object], int] | None = None) -> Callable:
        """``fn`` timed as a span called ``name``.

        ``rows`` maps the return value to a row count stored on the span
        (source wrappers report how many rows they shipped).
        """
        record = self.spans.append
        ids = self._ids

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent = _CURRENT.get()
            span_id = next(ids)
            request = parent[1] if parent is not None else span_id
            token = _CURRENT.set((span_id, request))
            start = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                _CURRENT.reset(token)
                record(Span(span_id, name, start, end,
                            parent[0] if parent is not None else None, request,
                            rows(out) if rows is not None and out is not None else 0))

        return timed


def _rows_of(result) -> int:
    return len(result)


def _batch_rows_of(result) -> int:
    return sum(len(rows) for rows in result)


def _targets():
    """``(owner, attribute, span name, row counter)`` for every timed entry point."""
    import repro.cache.repair as repair_module
    import repro.core.sources as sources_module
    import repro.service.mediator as mediator_module
    import repro.service.snapshots as snapshots_module
    from repro.cache.repair import RepairEngine
    from repro.cache.results import CachedSource
    from repro.core.executor import MixedQueryExecutor
    from repro.core.planner import QueryPlanner
    from repro.core.sources import FullTextSource, JSONSource, RDFSource, RelationalSource
    from repro.fulltext.store import FullTextStore
    from repro.json.matcher import TreePatternMatcher
    from repro.json.store import JSONDocumentStore
    from repro.relational.database import Database
    from repro.relational.table import Table
    from repro.service.standing import StandingQueryRegistry

    targets = [
        (mediator_module, "pin_instance", "service.pin", None),
        (snapshots_module, "pin_instance", "service.pin", None),
        (StandingQueryRegistry, "_refresh", "service.standing_refresh", None),
        (QueryPlanner, "plan", "planner.plan", None),
        (QueryPlanner, "plan_tail", "planner.plan", None),
        (MixedQueryExecutor, "execute", "executor.execute", None),
        (CachedSource, "execute", "cache.probe", None),
        (CachedSource, "execute_batch", "cache.probe", None),
        (CachedSource, "peek", "cache.probe", None),
        (RepairEngine, "repair", "cache.repair", None),
        (Database, "execute", "relational.execute", None),
        (sources_module, "evaluate_bgp", "rdf.bgp", None),
        (repair_module, "evaluate_bgp", "rdf.bgp", None),
        (FullTextStore, "search", "fulltext.search", None),
        (TreePatternMatcher, "match", "json.match", None),
        (TreePatternMatcher, "match_columns", "json.match", None),
        (TreePatternMatcher, "match_batch", "json.match", None),
        (JSONDocumentStore, "add_all", "ingest.json", None),
        (FullTextStore, "add_all", "ingest.fulltext", None),
        (RDFSource, "add_triples", "ingest.rdf", None),
        (Table, "insert_many", "ingest.sql", None),
    ]
    for model, cls in (("rdf", RDFSource), ("sql", RelationalSource),
                       ("fulltext", FullTextSource), ("json", JSONSource)):
        targets.append((cls, "execute", f"sources.{model}", _rows_of))
        targets.append((cls, "execute_batch", f"sources.{model}", _batch_rows_of))
    return targets


class Installed:
    """Undo handle of :func:`install` (restores every patched attribute)."""

    def __init__(self, patched: list[tuple[object, str, object, bool]]):
        self._patched = patched

    def uninstall(self) -> None:
        for owner, attribute, original, owned in reversed(self._patched):
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._patched = []


def install(recorder: Recorder) -> Installed:
    """Wrap every layer entry point of :func:`_targets` in ``recorder``'s timers.

    An attribute a class only inherits is patched on that class and
    deleted again on uninstall, so the parent class is never touched.
    """
    patched = []
    for owner, attribute, name, rows in _targets():
        owned = attribute in vars(owner)
        original = getattr(owner, attribute) if not owned else vars(owner)[attribute]
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot time {owner!r}.{attribute}")
        setattr(owner, attribute, recorder.wrap(name, original, rows))
        patched.append((owner, attribute, original, owned))
    return Installed(patched)


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


@dataclass
class LayerTotals:
    self_seconds: float = 0.0
    calls: int = 0
    rows: int = 0


def rollup(spans: list[Span]) -> dict[str, LayerTotals]:
    """Per span name: summed self time, outermost call count and rows.

    A call nested directly in a span of the same name (a wrapper's
    ``execute_batch`` falling back to its own ``execute``) is part of
    its parent's call, so only the outermost one counts as a call.
    """
    by_id = {span.span_id: span for span in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for span in spans:
        layer = totals[span.name]
        duration = span.end - span.start
        layer.self_seconds += duration - _covered(
            children.get(span.span_id, []), span.start, span.end)
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is None or parent.name != span.name:
            layer.calls += 1
            layer.rows += span.rows
    return dict(totals)
