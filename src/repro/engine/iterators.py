"""Volcano-style iterator operators over binding tuples.

The paper's mediator performs "the remaining processing (joins etc.) on
subquery results ... within our in-house iterator-based execution engine".
This module is that engine: every operator consumes and produces *binding
tuples* (dictionaries mapping variable names to values), so the same
operators serve RDF bindings, relational rows and full-text hits once the
source wrappers have normalised them.

Internally the hot path is *batch-oriented*: operators exchange
:class:`~repro.engine.batch.BindingBatch` objects (shared column header +
tuple rows) through :meth:`Operator.batches`, and only materialise dict
rows at the per-row interface boundary.  An operator implements either
``_produce`` (row at a time) or ``_produce_batches`` (batch at a time);
the base class derives the missing one.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from repro.engine.batch import (
    DEFAULT_BATCH_SIZE,
    BatchAccumulator,
    BindingBatch,
    batches_from_rows,
    merge_spec,
    tuple_getter,
)
from repro.errors import MixedQueryError

#: A binding tuple: variable name -> value.
Row = dict[str, object]


@dataclass
class OperatorStats:
    """Per-operator row counters, collected when tracing is enabled."""

    produced: int = 0
    consumed: int = 0


class Operator:
    """Base class of every iterator operator.

    Subclasses override ``_produce`` (yield dict rows) or
    ``_produce_batches`` (yield :class:`BindingBatch` objects); each
    default implementation is derived from the other, so batch-native and
    row-native operators compose freely.
    """

    def __init__(self, name: str | None = None):
        self.name = name or type(self).__name__
        self.stats = OperatorStats()

    def __iter__(self) -> Iterator[Row]:
        for row in self._produce():
            self.stats.produced += 1
            yield row

    def _produce(self) -> Iterator[Row]:
        for batch in self._produce_batches():
            yield from batch.dicts()

    def _produce_batches(self) -> Iterator[BindingBatch]:
        yield from batches_from_rows(self._produce(), DEFAULT_BATCH_SIZE)

    def batches(self) -> Iterator[BindingBatch]:
        """Evaluate the operator batch-wise (the engine's hot path)."""
        for batch in self._produce_batches():
            self.stats.produced += len(batch)
            yield batch

    def rows(self) -> list[Row]:
        """Fully evaluate the operator and return its output as a list."""
        return list(self)

    def estimated_size(self) -> int | None:
        """Known output row count, or ``None`` when it cannot be told cheaply."""
        return None

    def explain(self, indent: int = 0) -> str:
        """Return an indented textual plan rooted at this operator."""
        lines = [("  " * indent) + self.describe()]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        """One line description used by :meth:`explain`."""
        return self.name

    def children(self) -> Sequence["Operator"]:
        """Child operators (empty for leaves)."""
        return ()


class MaterializedScan(Operator):
    """Leaf operator over an already materialised list of rows.

    Rows are converted to columnar batches once at construction; every
    iteration re-materialises fresh dicts, so callers may mutate the
    output without corrupting the scan.
    """

    def __init__(self, rows: Iterable[Row], name: str = "scan"):
        super().__init__(name)
        self._batches = list(batches_from_rows(iter(rows), DEFAULT_BATCH_SIZE))
        self._count = sum(len(b) for b in self._batches)

    @classmethod
    def of_batches(cls, batches: Iterable[BindingBatch], name: str = "scan") -> "MaterializedScan":
        """A scan over already columnar batches (kept as they are)."""
        scan = cls((), name)
        scan._batches = [batch for batch in batches if batch.rows]
        scan._count = sum(len(b) for b in scan._batches)
        return scan

    def _produce_batches(self) -> Iterator[BindingBatch]:
        yield from self._batches

    def estimated_size(self) -> int:
        return self._count

    def describe(self) -> str:
        return f"{self.name}({self._count} rows)"


class CallbackScan(Operator):
    """Leaf operator that pulls rows from a callable at iteration time.

    Used by the mediator to defer a source sub-query until the plan
    actually needs its rows.
    """

    def __init__(self, fetch: Callable[[], Iterable[Row]], name: str = "fetch"):
        super().__init__(name)
        self._fetch = fetch

    def _produce(self) -> Iterator[Row]:
        for row in self._fetch():
            yield dict(row)


class Select(Operator):
    """Filter rows by a predicate."""

    def __init__(self, child: Operator, predicate: Callable[[Row], bool], name: str = "select"):
        super().__init__(name)
        self.child = child
        self.predicate = predicate

    def _produce(self) -> Iterator[Row]:
        for row in self.child:
            self.stats.consumed += 1
            if self.predicate(row):
                yield row

    def children(self) -> Sequence[Operator]:
        return (self.child,)


class Project(Operator):
    """Keep (and optionally rename) a subset of the variables."""

    def __init__(self, child: Operator, columns: Sequence[str],
                 renames: dict[str, str] | None = None, name: str = "project"):
        super().__init__(name)
        self.child = child
        self.columns = list(columns)
        self.renames = renames or {}

    def _produce_batches(self) -> Iterator[BindingBatch]:
        columns = tuple(self.columns)
        out_columns = tuple(self.renames.get(c, c) for c in columns)
        for batch in self.child.batches():
            self.stats.consumed += len(batch)
            if batch.columns == columns:
                # Already in output order: the row tuples are reused as-is.
                yield BindingBatch(out_columns, batch.rows)
                continue
            yield BindingBatch(out_columns, list(map(batch.projector(columns), batch.rows)))

    def estimated_size(self) -> int | None:
        return self.child.estimated_size()

    def describe(self) -> str:
        return f"{self.name}({', '.join(self.columns)})"

    def children(self) -> Sequence[Operator]:
        return (self.child,)


class Extend(Operator):
    """Add a computed variable to every row."""

    def __init__(self, child: Operator, variable: str, compute: Callable[[Row], object],
                 name: str = "extend"):
        super().__init__(name)
        self.child = child
        self.variable = variable
        self.compute = compute

    def _produce(self) -> Iterator[Row]:
        for row in self.child:
            self.stats.consumed += 1
            row = dict(row)
            row[self.variable] = self.compute(row)
            yield row

    def children(self) -> Sequence[Operator]:
        return (self.child,)


class NestedLoopJoin(Operator):
    """Join two inputs with an arbitrary condition (inner join)."""

    def __init__(self, left: Operator, right: Operator,
                 condition: Callable[[Row, Row], bool] | None = None, name: str = "nljoin"):
        super().__init__(name)
        self.left = left
        self.right = right
        self.condition = condition

    def _produce(self) -> Iterator[Row]:
        right_rows = self.right.rows()
        for left_row in self.left:
            self.stats.consumed += 1
            for right_row in right_rows:
                if self.condition is None or self.condition(left_row, right_row):
                    if _compatible(left_row, right_row):
                        yield {**left_row, **right_row}

    def children(self) -> Sequence[Operator]:
        return (self.left, self.right)


class HashJoin(Operator):
    """Equi-join on the variables shared by both inputs (natural join).

    The hash table is built on the side whose size hint is smaller (the
    right side when the hints cannot tell) and the other side is
    *streamed* batch-wise against it with explicit ``keys``.  When
    ``keys`` is not given they are inferred from the variables present
    on both sides, which requires collecting the probe side's batches
    first (still columnar — no per-row dict materialisation).
    """

    def __init__(self, left: Operator, right: Operator, keys: Sequence[str] | None = None,
                 name: str = "hashjoin"):
        super().__init__(name)
        self.left = left
        self.right = right
        self.keys = list(keys) if keys is not None else None

    def _produce_batches(self) -> Iterator[BindingBatch]:
        left_size = self.left.estimated_size()
        right_size = self.right.estimated_size()
        build_is_left = (left_size is not None and right_size is not None
                         and left_size < right_size)
        build_op, probe_op = (self.left, self.right) if build_is_left \
            else (self.right, self.left)

        build_batches = list(build_op.batches())
        probe_batches = probe_op.batches()

        keys = self.keys
        collected: list[BindingBatch] | None = None
        if keys is None:
            # Natural join: the keys are the variables present on *any*
            # row of both sides, so every probe header must be known
            # before bucketing — collect the probe batches.
            collected = list(probe_batches)
            build_vars: set[str] = set()
            for batch in build_batches:
                build_vars.update(batch.columns)
            probe_vars: set[str] = set()
            for batch in collected:
                probe_vars.update(batch.columns)
            keys = sorted(build_vars & probe_vars)

        def probe_stream() -> Iterator[BindingBatch]:
            if collected is not None:
                yield from collected
            else:
                yield from probe_batches

        out = BatchAccumulator(DEFAULT_BATCH_SIZE)
        merges: dict[tuple, tuple] = {}

        def emit(probe_columns: tuple[str, ...], probe_row: tuple,
                 build_columns: tuple[str, ...], build_rows: list[tuple]):
            spec = merges.get((probe_columns, build_columns))
            if spec is None:
                spec = self._spec(probe_columns, build_columns, build_is_left)
                merges[(probe_columns, build_columns)] = spec
            out_columns, merge = spec
            if build_is_left:
                merged = [merge(build_row + probe_row) for build_row in build_rows]
            else:
                merged = [merge(probe_row + build_row) for build_row in build_rows]
            return out.extend(out_columns, merged)

        if not keys:
            # Degenerate to a cross product.
            for probe_batch in probe_stream():
                self.stats.consumed += len(probe_batch)
                for build_batch in build_batches:
                    for probe_row in probe_batch.rows:
                        done = emit(probe_batch.columns, probe_row,
                                    build_batch.columns, build_batch.rows)
                        if done is not None:
                            yield done
            done = out.flush()
            if done is not None:
                yield done
            return

        # Build phase: bucket the build side by its key tuple.  A bucket
        # holds runs of consecutive rows sharing one header, in order.
        buckets: dict[tuple, list[tuple[tuple[str, ...], list[tuple]]]] = {}
        for batch in build_batches:
            key_of = batch.projector(keys)
            columns = batch.columns
            for row in batch.rows:
                key = key_of(row)
                runs = buckets.get(key)
                if runs is None:
                    buckets[key] = [(columns, [row])]
                elif runs[-1][0] == columns:
                    runs[-1][1].append(row)
                else:
                    runs.append((columns, [row]))

        # Probe phase: stream the other side against the table.
        for probe_batch in probe_stream():
            self.stats.consumed += len(probe_batch)
            key_of = probe_batch.projector(keys)
            for probe_row in probe_batch.rows:
                runs = buckets.get(key_of(probe_row))
                if not runs:
                    continue
                for build_columns, build_rows in runs:
                    done = emit(probe_batch.columns, probe_row, build_columns, build_rows)
                    if done is not None:
                        yield done
        done = out.flush()
        if done is not None:
            yield done

    def _spec(self, probe_columns: tuple[str, ...], build_columns: tuple[str, ...],
              build_is_left: bool):
        # Merged rows must behave like {**left_row, **right_row} with the
        # operator's original left/right orientation.
        if build_is_left:
            return merge_spec(build_columns, probe_columns)
        return merge_spec(probe_columns, build_columns)

    def describe(self) -> str:
        keys = self.keys if self.keys is not None else "natural"
        return f"{self.name}(keys={keys})"

    def children(self) -> Sequence[Operator]:
        return (self.left, self.right)


class BindJoin(Operator):
    """Dependent join: re-evaluate the right side once per left binding.

    This is the operator behind the mediator's "bindings for data sources
    must be obtained before the source can be queried" rule — the ``fetch``
    callable receives the current left-hand bindings (typically to fill in
    sub-query parameters or even the identity of the target source) and
    returns matching rows from the source.
    """

    def __init__(self, left: Operator, fetch: Callable[[Row], Iterable[Row]],
                 name: str = "bindjoin", deduplicate_calls: bool = True,
                 call_key: Callable[[Row], tuple] | None = None):
        super().__init__(name)
        self.left = left
        self.fetch = fetch
        self.deduplicate_calls = deduplicate_calls
        self.call_key = call_key
        self.calls = 0
        self._key_orders: dict[frozenset, tuple[str, ...]] = {}

    def _default_key(self, row: Row) -> tuple:
        return _schema_call_key(row, self._key_orders)

    def _produce(self) -> Iterator[Row]:
        cache: dict[tuple, list[Row]] = {}
        key_of = self.call_key or self._default_key
        for left_row in self.left:
            self.stats.consumed += 1
            key = key_of(left_row)
            if self.deduplicate_calls and key in cache:
                fetched = cache[key]
            else:
                self.calls += 1
                fetched = [dict(r) for r in self.fetch(left_row)]
                if self.deduplicate_calls:
                    cache[key] = fetched
            for right_row in fetched:
                if _compatible(left_row, right_row):
                    yield {**left_row, **right_row}

    def children(self) -> Sequence[Operator]:
        return (self.left,)


class BatchBindJoin(Operator):
    """Dependent join shipping *batches* of distinct bindings to a source.

    Instead of one sub-query call per distinct left binding (the classic
    mediator bottleneck), left rows are consumed batch-wise, their
    distinct call keys collected into groups of ``batch_size``, and one
    ``fetch_batch`` call answers the whole group — the source wrapper
    turns it into a native IN-list / disjunctive pushdown when it can.

    ``variables`` names the left variables a call depends on (default:
    every left column); a left row's call key and shipped binding are
    the values of those of them present in its header, read by column
    position.  ``sieve`` is an optional semi-join filter (typically
    backed by the source's digest value sets): bindings it rejects are
    proven to have no match at the source and are never shipped.
    ``probe`` is an optional per-binding result-cache lookup consulted
    after the sieve: a non-``None`` list of :class:`BindingBatch` answers
    the binding without shipping it, so a batch reaching the source
    consists of cache misses only.  ``fetch_batch`` receives a list of
    binding dicts and must return one dict-row list per binding, in
    order.

    The join is columnar: each call key's answer is held as batches and
    merged rows are built by one ``itemgetter`` per pair of headers,
    mirroring ``{**left, **right}`` for rows that agree on every shared
    variable.  Output order is left-row order, then answer order.
    """

    def __init__(self, left: Operator, fetch_batch: Callable[[list[Row]], list[list[Row]]],
                 variables: Sequence[str] | None = None,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 sieve: Callable[[Row], bool] | None = None,
                 probe: Callable[[Row], list[BindingBatch] | None] | None = None,
                 name: str = "batchbind"):
        super().__init__(name)
        self.left = left
        self.fetch_batch = fetch_batch
        self.variables = sorted(variables) if variables is not None else None
        self.batch_size = max(1, batch_size)
        self.sieve = sieve
        self.probe = probe
        self.calls = 0
        self.bindings_shipped = 0
        self.sieved_out = 0
        self.cache_hits = 0
        #: Cross-query MQO sharing attributed to this join by the
        #: executor: miss bindings that rode another in-flight query's
        #: fused source call / were answered by its single-flight slot.
        self.fused_probes = 0
        self.shared_results = 0

    def _keying(self, columns: tuple[str, ...]) -> tuple[tuple[str, ...], Callable]:
        """The bound variable names of a left header and their value getter."""
        positions = {c: i for i, c in enumerate(columns)}
        wanted = self.variables if self.variables is not None else sorted(columns)
        names = tuple(v for v in wanted if v in positions)
        return names, tuple_getter([positions[v] for v in names])

    def _produce_batches(self) -> Iterator[BindingBatch]:
        answers: dict[tuple, list[BindingBatch]] = {}
        pending: list[tuple[tuple[str, ...], tuple, tuple]] = []
        queued: dict[tuple, Row] = {}
        merges: dict[tuple, tuple] = {}
        out = BatchAccumulator(DEFAULT_BATCH_SIZE)
        for batch in self.left.batches():
            self.stats.consumed += len(batch)
            columns = batch.columns
            names, values_of = self._keying(columns)
            for row in batch.rows:
                values = values_of(row)
                key = (names, values)
                try:
                    answer = answers.get(key)
                except TypeError:
                    key = (names, tuple(map(_hashable, values)))
                    answer = answers.get(key)
                if answer is not None and not pending:
                    # Answer already known and nothing queued ahead of this
                    # row: stream it out immediately, preserving order.
                    for done in self._join(columns, row, answer, merges, out):
                        yield done
                    continue
                pending.append((columns, row, key))
                if answer is None and key not in queued:
                    queued[key] = dict(zip(names, values))
                if len(queued) >= self.batch_size:
                    self._flush(queued, answers)
                    queued = {}
                    yield from self._drain(pending, answers, merges, out)
                    pending = []
        if queued:
            self._flush(queued, answers)
        yield from self._drain(pending, answers, merges, out)
        done = out.flush()
        if done is not None:
            yield done

    # ------------------------------------------------------------------
    def _flush(self, queued: dict[tuple, Row], answers: dict[tuple, list[BindingBatch]]) -> None:
        to_ship: list[tuple[tuple, Row]] = []
        for key, binding in queued.items():
            if self.sieve is not None and not self.sieve(binding):
                # The digest proves no source row can match this binding.
                answers[key] = []
                self.sieved_out += 1
                continue
            if self.probe is not None:
                hit = self.probe(binding)
                if hit is not None:
                    # The cross-query result cache already knows the answer.
                    answers[key] = hit
                    self.cache_hits += 1
                    continue
            to_ship.append((key, binding))
        if not to_ship:
            return
        self.calls += 1
        self.bindings_shipped += len(to_ship)
        fetched = self.fetch_batch([binding for _, binding in to_ship])
        if len(fetched) != len(to_ship):
            raise MixedQueryError(
                f"batched fetch of {self.name!r} returned {len(fetched)} result lists "
                f"for {len(to_ship)} bindings"
            )
        for (key, _), rows in zip(to_ship, fetched):
            answers[key] = list(batches_from_rows(rows, DEFAULT_BATCH_SIZE))

    def _drain(self, pending: list[tuple[tuple[str, ...], tuple, tuple]],
               answers: dict[tuple, list[BindingBatch]], merges: dict[tuple, tuple],
               out: BatchAccumulator) -> Iterator[BindingBatch]:
        for columns, row, key in pending:
            yield from self._join(columns, row, answers[key], merges, out)

    @staticmethod
    def _join(columns: tuple[str, ...], row: tuple, answer: list[BindingBatch],
              merges: dict[tuple, tuple], out: BatchAccumulator) -> Iterator[BindingBatch]:
        for right in answer:
            spec = merges.get((columns, right.columns))
            if spec is None:
                out_columns, merge = merge_spec(columns, right.columns)
                right_positions = right.positions()
                shared = tuple((i, right_positions[c]) for i, c in enumerate(columns)
                               if c in right_positions)
                spec = merges[(columns, right.columns)] = (out_columns, merge, shared)
            out_columns, merge, shared = spec
            if not shared:
                merged = [merge(row + other) for other in right.rows]
            elif len(shared) == 1:
                (li, ri), = shared
                value = row[li]
                merged = [merge(row + other) for other in right.rows if value == other[ri]]
            else:
                merged = [merge(row + other) for other in right.rows
                          if all(row[li] == other[ri] for li, ri in shared)]
            if merged:
                done = out.extend(out_columns, merged)
                if done is not None:
                    yield done

    def children(self) -> Sequence[Operator]:
        return (self.left,)


class Distinct(Operator):
    """Remove duplicate rows (order-preserving).

    A row's key is its sorted header plus its values in that order; the
    sorted column order is computed once per batch schema (via
    :meth:`BindingBatch.sorted_pairs`), so a row costs one ``itemgetter``
    call and one set probe.
    """

    def __init__(self, child: Operator, name: str = "distinct"):
        super().__init__(name)
        self.child = child

    def _produce_batches(self) -> Iterator[BindingBatch]:
        seen: set[tuple] = set()
        for batch in self.child.batches():
            self.stats.consumed += len(batch)
            pairs = batch.sorted_pairs()
            names = tuple(c for c, _ in pairs)
            values_of = tuple_getter([i for _, i in pairs])
            keep: list[tuple] = []
            for row in batch.rows:
                key = (names, values_of(row))
                try:
                    fresh = key not in seen
                except TypeError:
                    # Unhashable values (lists, sets, dicts) key by their
                    # hashable form, which equals the hashable value they
                    # mirror: [1, 2] and (1, 2) are duplicates.
                    key = (names, tuple(map(_hashable, key[1])))
                    fresh = key not in seen
                if fresh:
                    seen.add(key)
                    keep.append(row)
            if keep:
                yield BindingBatch(batch.columns, keep)

    def children(self) -> Sequence[Operator]:
        return (self.child,)


class Sort(Operator):
    """Sort rows by one or more variables."""

    def __init__(self, child: Operator, keys: Sequence[tuple[str, bool]], name: str = "sort"):
        super().__init__(name)
        self.child = child
        self.keys = list(keys)

    def _produce(self) -> Iterator[Row]:
        rows = self.child.rows()
        self.stats.consumed += len(rows)
        for variable, descending in reversed(self.keys):
            rows.sort(key=lambda r: _sort_key(r.get(variable)), reverse=descending)
        yield from rows

    def describe(self) -> str:
        return f"{self.name}({self.keys})"

    def children(self) -> Sequence[Operator]:
        return (self.child,)


class Limit(Operator):
    """Pass through at most ``count`` rows."""

    def __init__(self, child: Operator, count: int, name: str = "limit"):
        super().__init__(name)
        self.child = child
        self.count = count

    def _produce(self) -> Iterator[Row]:
        if self.count <= 0:
            return
        produced = 0
        for row in self.child:
            self.stats.consumed += 1
            yield row
            produced += 1
            if produced >= self.count:
                return

    def describe(self) -> str:
        return f"{self.name}({self.count})"

    def children(self) -> Sequence[Operator]:
        return (self.child,)


class Union(Operator):
    """Concatenate the outputs of several children."""

    def __init__(self, operands: Sequence[Operator], name: str = "union"):
        super().__init__(name)
        self.operands = list(operands)

    def _produce_batches(self) -> Iterator[BindingBatch]:
        for operand in self.operands:
            for batch in operand.batches():
                self.stats.consumed += len(batch)
                yield batch

    def children(self) -> Sequence[Operator]:
        return tuple(self.operands)


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate to compute per group."""

    function: str  # count | sum | avg | min | max | collect
    variable: str | None
    output: str


class Aggregate(Operator):
    """Group rows by key variables and compute aggregates per group."""

    def __init__(self, child: Operator, group_by: Sequence[str],
                 aggregates: Sequence[AggregateSpec], name: str = "aggregate"):
        super().__init__(name)
        self.child = child
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)

    def _produce(self) -> Iterator[Row]:
        groups: dict[tuple, list[Row]] = defaultdict(list)
        for row in self.child:
            self.stats.consumed += 1
            key = tuple(_hashable(row.get(k)) for k in self.group_by)
            groups[key].append(row)
        for key, rows in groups.items():
            out: Row = dict(zip(self.group_by, (rows[0].get(k) for k in self.group_by)))
            for spec in self.aggregates:
                out[spec.output] = _compute(spec, rows)
            yield out

    def describe(self) -> str:
        functions = ", ".join(f"{a.function}({a.variable or '*'})" for a in self.aggregates)
        return f"{self.name}(by={self.group_by}, {functions})"

    def children(self) -> Sequence[Operator]:
        return (self.child,)


def _compute(spec: AggregateSpec, rows: list[Row]) -> object:
    function = spec.function.lower()
    if function == "count" and spec.variable is None:
        return len(rows)
    values = [row.get(spec.variable) for row in rows if row.get(spec.variable) is not None]
    if function == "count":
        return len(values)
    if function == "collect":
        return list(values)
    if not values:
        return None
    if function == "sum":
        return sum(values)
    if function == "avg":
        return sum(values) / len(values)
    if function == "min":
        return min(values)
    if function == "max":
        return max(values)
    raise MixedQueryError(f"unsupported aggregate function {spec.function!r}")


def _schema_call_key(row: Row, key_orders: dict[frozenset, tuple[str, ...]]) -> tuple:
    """Canonical call key of a row; sorted variable order cached per schema."""
    schema = frozenset(row)
    order = key_orders.get(schema)
    if order is None:
        order = tuple(sorted(schema))
        key_orders[schema] = order
    return tuple((k, _hashable(row[k])) for k in order)


def _compatible(left: Row, right: Row) -> bool:
    """True when the two rows agree on every shared variable."""
    for key, value in right.items():
        if key in left and left[key] != value:
            return False
    return True


def _hashable(value: object) -> object:
    if isinstance(value, (list, set)):
        return tuple(value)
    if isinstance(value, dict):
        return tuple(sorted(value.items()))
    return value


def _sort_key(value: object) -> tuple:
    if value is None:
        return (2, "")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (0, value)
    return (1, str(value))
