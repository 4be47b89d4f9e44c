"""Columnar binding batches for the execution hot path.

The per-row representation of the iterator engine (one ``dict`` per
binding tuple) is convenient but costly: every operator boundary copies
dictionaries and recomputes ``tuple(sorted(...))`` keys per row.  A
:class:`BindingBatch` amortises that work across a group of rows sharing
one schema: the column header is stored once, rows are plain tuples, and
per-schema artefacts (column positions, canonical key order, projection
functions) are computed once per batch instead of once per row.

Batches are *schema-uniform by construction*: :func:`batches_from_rows`
starts a new batch whenever the key set of the incoming row changes, so
the "variable absent from this row" semantics of the dict representation
is preserved exactly (an absent variable is never padded with ``None``).
"""

from __future__ import annotations

from itertools import groupby, islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

#: A binding tuple at the mediator level: variable name -> value.
Row = dict[str, object]

#: Default number of rows per batch on the engine hot path.
DEFAULT_BATCH_SIZE = 256


def tuple_getter(keys: Sequence) -> Callable[[object], tuple]:
    """``operator.itemgetter`` over ``keys`` that always returns a tuple.

    ``itemgetter`` returns a bare value for a single key (and rejects
    none); row tuples need a tuple for every width.  Works on row
    tuples (integer positions) and on dict rows (column names) alike.
    """
    if len(keys) == 1:
        key = keys[0]
        return lambda row: (row[key],)
    if not keys:
        return lambda row: ()
    return itemgetter(*keys)


class BindingBatch:
    """A group of binding tuples sharing one column header.

    ``columns`` is the shared header; ``rows`` holds one value tuple per
    binding, aligned with ``columns``.  Derived structures (column
    positions, the canonical sorted key order used for deduplication) are
    built lazily and cached on the batch.
    """

    __slots__ = ("columns", "rows", "_positions", "_sorted_pairs")

    def __init__(self, columns: Sequence[str], rows: list[tuple]):
        self.columns = tuple(columns)
        self.rows = rows
        self._positions: dict[str, int] | None = None
        self._sorted_pairs: tuple[tuple[str, int], ...] | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_dicts(cls, rows: Sequence[Row]) -> "BindingBatch":
        """Build a batch from dict rows sharing one key set."""
        if not rows:
            return cls((), [])
        columns = tuple(rows[0])
        return cls(columns, [tuple(row[c] for c in columns) for row in rows])

    # ------------------------------------------------------------------
    def positions(self) -> dict[str, int]:
        """Column name -> index in every row tuple (cached)."""
        if self._positions is None:
            self._positions = {c: i for i, c in enumerate(self.columns)}
        return self._positions

    def sorted_pairs(self) -> tuple[tuple[str, int], ...]:
        """``(column, index)`` pairs in sorted column order (cached).

        This is the once-per-batch replacement for the per-row
        ``tuple(sorted(row.items()))`` key computation.
        """
        if self._sorted_pairs is None:
            positions = self.positions()
            self._sorted_pairs = tuple((c, positions[c]) for c in sorted(self.columns))
        return self._sorted_pairs

    def projector(self, columns: Sequence[str]) -> Callable[[tuple], tuple]:
        """A function extracting ``columns`` from a row tuple (``None`` if absent)."""
        positions = self.positions()
        if all(c in positions for c in columns):
            return tuple_getter([positions[c] for c in columns])
        indices = [positions.get(c) for c in columns]
        return lambda row: tuple(None if i is None else row[i] for i in indices)

    def dicts(self) -> list[Row]:
        """One fresh dict per row (the per-row interface boundary)."""
        columns = self.columns
        return [dict(zip(columns, row)) for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"BindingBatch(columns={self.columns}, rows={len(self.rows)})"


def batches_from_rows(rows: Iterable[Row],
                      size: int = DEFAULT_BATCH_SIZE) -> Iterator[BindingBatch]:
    """Group an iterable of dict rows into schema-uniform batches.

    Consecutive rows with the same key set land in the same batch (up to
    ``size`` rows); a schema change or a full batch starts a new one, so
    row order is preserved exactly.  Rows are consumed lazily.
    """
    size = max(1, size)
    for keys, group in groupby(rows, key=dict.keys):
        columns = tuple(keys)
        get = tuple_getter(columns)
        while True:
            chunk = list(map(get, islice(group, size)))
            if not chunk:
                break
            yield BindingBatch(columns, chunk)


def merge_spec(left_columns: Sequence[str],
               right_columns: Sequence[str]) -> tuple[tuple[str, ...], Callable[[tuple], tuple]]:
    """How to merge a left and a right row tuple into one output tuple.

    Mirrors ``{**left, **right}``: the output header is the left columns
    followed by the right-only columns, and a column present on both
    sides takes the *right* value.  Returns ``(out_columns, merge)``;
    ``merge(left_row + right_row)`` builds the output tuple.
    """
    left_columns = tuple(left_columns)
    width = len(left_columns)
    right_positions = {c: width + i for i, c in enumerate(right_columns)}
    left_set = set(left_columns)
    out_columns = left_columns + tuple(c for c in right_columns if c not in left_set)
    picks = [right_positions.get(c, i) for i, c in enumerate(left_columns)]
    picks += [right_positions[c] for c in out_columns[width:]]
    return out_columns, tuple_getter(picks)


class BatchAccumulator:
    """Accumulates output rows grouped by header into batches.

    Join operators produce merged rows whose header depends on the pair
    of input batches; this helper buffers consecutive rows sharing a
    header and hands back a :class:`BindingBatch` once the header
    changes or ``size`` rows are buffered, so row order is preserved.
    """

    def __init__(self, size: int = DEFAULT_BATCH_SIZE):
        self.size = max(1, size)
        self._current: tuple[str, ...] | None = None
        self._rows: list[tuple] = []

    def extend(self, columns: tuple[str, ...], rows: list[tuple]) -> BindingBatch | None:
        """Buffer ``rows``; returns the batch this completed, if any."""
        done = None
        if columns != self._current:
            done = self.flush()
            self._current = columns
        self._rows.extend(rows)
        if done is None and len(self._rows) >= self.size:
            done = self.flush()
        return done

    def flush(self) -> BindingBatch | None:
        """The buffered rows as one batch (``None`` when empty)."""
        if not self._rows:
            return None
        batch = BindingBatch(self._current, self._rows)
        self._rows = []
        return batch
