"""The columnar answer path against dict-row references.

Rows travel as :class:`~repro.engine.batch.BindingBatch` tuples from the
result cache through bind joins, hash joins, projection and duplicate
elimination, and become dicts only in the answer.  These properties pin
that path to the dict-row semantics it replaces, written out here:
``{**left, **right}`` merges of rows that agree on every shared
variable, ``_hashable`` duplicate keys, and cache hits re-keyed through
``original_rows`` + ``translate_rows``.
"""

from __future__ import annotations

from itertools import groupby

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.lru import CacheStats
from repro.cache.repair import RepairEngine
from repro.cache.results import CachedSource, SubQueryResultCache
from repro.core.cmq import SourceAtom
from repro.core.sources import JSONQuery, JSONSource
from repro.engine import (
    BatchBindJoin,
    Distinct,
    HashJoin,
    MaterializedScan,
    Project,
    batches_from_rows,
)
from repro.json.store import JSONDocumentStore

VARIABLES = ("a", "b", "c", "d")

#: Values that stress equality: 1 == 1.0 == True, unhashable containers,
#: strings differing only by case, and None.
VALUES = st.one_of(
    st.sampled_from([0, 1, 1.0, True, False, 0.0, None, "x", "X", "y"]),
    st.lists(st.integers(0, 1), max_size=2),
    st.sets(st.integers(0, 1), max_size=2),
    st.dictionaries(st.sampled_from(["k", "l"]), st.integers(0, 1), max_size=2),
)
HASHABLE = st.sampled_from([0, 1, 1.0, True, False, 0.0, None, "x", "X", "y"])


def rows_of(values):
    """Rows over a random subset of VARIABLES (absent variables included)."""
    return st.lists(st.dictionaries(st.sampled_from(VARIABLES), values, max_size=4),
                    max_size=8)


def _hashable(value):
    if isinstance(value, (list, set)):
        return tuple(value)
    if isinstance(value, dict):
        return tuple(sorted(value.items()))
    return value


def _compatible(left, right):
    return all(left[key] == value for key, value in right.items() if key in left)


def typed(rows):
    """Rows compared with their value types: 1, 1.0 and True differ here.

    Key order inside a row is not compared: a batch header follows the
    first row of its key set, as it always has.
    """
    return [sorted((key, type(value).__name__, repr(value)) for key, value in row.items())
            for row in rows]


def outcome(run):
    """Rows, or the exception type both implementations must raise alike."""
    try:
        return typed(run())
    except TypeError:
        return "TypeError"


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

def reference_bind_join(left_rows, answer, variables):
    answers = {}
    out = []
    for left in left_rows:
        names = sorted(variables) if variables is not None else sorted(left)
        key = tuple((v, _hashable(left[v])) for v in names if v in left)
        if key not in answers:
            answers[key] = answer({v: left[v] for v in names if v in left})
        out.extend({**left, **right} for right in answers[key] if _compatible(left, right))
    return out, len(answers)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(left_rows=rows_of(VALUES), right_rows=rows_of(VALUES),
       variables=st.one_of(st.none(), st.lists(st.sampled_from(VARIABLES), unique=True)),
       batch_size=st.integers(1, 4))
def test_batch_bind_join_matches_dict_reference(left_rows, right_rows, variables, batch_size):
    def answer(binding):
        # A deterministic, binding-dependent subset of the right rows.
        salt = len(repr(sorted(binding.items(), key=repr)))
        return [dict(row) for i, row in enumerate(right_rows) if (i + salt) % 3]

    def probe(binding):
        if len(binding) % 2:
            return None
        return list(batches_from_rows(answer(binding), 2))

    expected, distinct_keys = reference_bind_join(left_rows, answer, variables)
    join = BatchBindJoin(MaterializedScan(left_rows),
                         lambda bindings: [answer(b) for b in bindings],
                         variables=variables, batch_size=batch_size, probe=probe)
    assert typed(join.rows()) == typed(expected)
    assert join.cache_hits + join.bindings_shipped == distinct_keys


def _runs(rows):
    return [list(run) for _, run in groupby(rows, key=dict.keys)]


def reference_hash_join(left_rows, right_rows, keys):
    if keys is None:
        keys = sorted({k for row in left_rows for k in row}
                      & {k for row in right_rows for k in row})
    build_is_left = len(left_rows) < len(right_rows)
    build, probe = (left_rows, right_rows) if build_is_left else (right_rows, left_rows)
    if not keys:
        # A cross product pairs runs of rows sharing a key set.
        return [{**left, **right}
                for probe_run in _runs(probe) for build_run in _runs(build)
                for row in probe_run for match in build_run
                for left, right in [(match, row) if build_is_left else (row, match)]]
    buckets = {}
    for row in build:
        buckets.setdefault(tuple(row.get(k) for k in keys), []).append(row)
    out = []
    for row in probe:
        for match in buckets.get(tuple(row.get(k) for k in keys), []):
            left, right = (match, row) if build_is_left else (row, match)
            out.append({**left, **right})
    return out


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(left_rows=rows_of(VALUES), right_rows=rows_of(VALUES),
       keys=st.one_of(st.none(), st.lists(st.sampled_from(VARIABLES), unique=True,
                                          max_size=2)))
def test_hash_join_matches_dict_reference(left_rows, right_rows, keys):
    got = outcome(lambda: HashJoin(MaterializedScan(left_rows), MaterializedScan(right_rows),
                                   keys=keys).rows())
    assert got == outcome(lambda: reference_hash_join(left_rows, right_rows, keys))


def reference_distinct(rows):
    seen = set()
    out = []
    for row in rows:
        key = tuple((c, _hashable(v)) for c, v in sorted(row.items()))
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=rows_of(VALUES),
       columns=st.lists(st.sampled_from(VARIABLES), unique=True, min_size=1))
def test_project_and_distinct_match_dict_reference(rows, columns):
    projected = [{c: row.get(c) for c in columns} for row in rows]
    assert typed(Project(MaterializedScan(rows), columns).rows()) == typed(projected)
    # 1, 1.0 and True are one value to DISTINCT (the first spelling stays),
    # and [0, 1] equals (0, 1); rows with different headers never match.
    assert typed(Distinct(Project(MaterializedScan(rows), columns)).rows()) == \
        typed(reference_distinct(projected))
    assert typed(Distinct(MaterializedScan(rows)).rows()) == typed(reference_distinct(rows))


# ---------------------------------------------------------------------------
# Cache-hit translation
# ---------------------------------------------------------------------------

FORMALS = ("p", "q", "r")


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.dictionaries(st.sampled_from(["?0", "?1", "?2"]), VALUES,
                                     max_size=3), max_size=6),
       renames=st.dictionaries(st.sampled_from(FORMALS), st.sampled_from(["u", "v", "p"]),
                               max_size=3),
       constants=st.dictionaries(st.sampled_from(FORMALS),
                                 st.sampled_from(["x", "X", 1, 1.0, True]), max_size=2))
def test_translate_batches_matches_translate_rows(rows, renames, constants):
    atom = SourceAtom(name="t", query=JSONQuery.from_text('{"p": ?p, "q": ?q, "r": ?r}'),
                      source="json://t", renames=renames, constants=constants)
    names = {"?0": "p", "?1": "q", "?2": "r"}
    original = [{names[k]: v for k, v in row.items()} for row in rows]
    expected = atom.translate_rows(original)
    batches = atom.translate_batches(rows, names)
    got = [row for batch in batches for row in batch.dicts()]
    assert typed(got) == typed(expected)


def test_translation_memo_follows_the_renaming():
    atom = SourceAtom(name="t", query=JSONQuery.from_text('{"p": ?p, "q": ?q}'),
                      source="json://t")
    rows = [{"p": 1}]
    assert atom.translate_batches(rows)[0].columns == ("p",)
    assert atom.translate_batches(rows, {"p": "q"})[0].columns == ("q",)
    assert atom.translate_batches(rows)[0].columns == ("p",)


def _proxy(source):
    cache = SubQueryResultCache()
    return CachedSource(source, cache, stats=CacheStats(), repair=RepairEngine(cache))


def _peeked(proxy, atom, bindings):
    """The columnar hit and the dict-row hit of one probe."""
    formal = atom.formal_bindings(bindings)
    batches = proxy.peek(atom.query, formal, translate=atom.translate_batches)
    rows = proxy.peek(atom.query, formal)
    assert batches is not None and rows is not None
    return [row for batch in batches for row in batch.dicts()], atom.translate_rows(rows)


def test_cache_hit_translation_with_renames_constants_and_repair():
    store = JSONDocumentStore("tweets")
    store.add_all([{"id": str(i), "user": f"u{i % 3}", "tag": tag, "n": i}
                   for i, tag in enumerate(["SIA2016", "sia2016", "other", "Sia2016"])])
    source = JSONSource("json://tweets", store)
    proxy = _proxy(source)
    query = JSONQuery.from_text('{"user": ?who, "tag": ?tag, "n": ?n}')
    # Renamed variables and a constant matched case-insensitively.
    atom = SourceAtom(name="tweets", query=query, source="json://tweets",
                      renames={"who": "account", "n": "count"},
                      constants={"tag": "SIA2016"})
    # A differently spelled query shares the entries under canonical names.
    other = SourceAtom(name="tweets2", query=JSONQuery.from_text(
        '{"user": ?someone, "tag": ?label, "n": ?k}'), source="json://tweets",
        renames={"someone": "account"}, constants={"label": "SIA2016"})
    proxy.execute(atom.query, atom.formal_bindings({}))
    # An entry whose rows spell the constant in other cases, or break it.
    formal = atom.formal_bindings({"account": "u9"})
    key, canon = proxy.cache.key_for(source, source.version(), query, formal)
    proxy.cache.insert(key, canon, [{"who": "u9", "tag": tag, "n": i}
                                    for i, tag in enumerate(["sia2016", "other", "SIA2016"])])
    for bindings in ({}, {"account": "u9"}):
        for probing in (atom, other):
            columnar, reference = _peeked(proxy, probing, bindings)
            assert columnar and typed(columnar) == typed(reference)
    assert _peeked(proxy, atom, {"account": "u9"})[0] == [
        {"account": "u9", "count": 0}, {"account": "u9", "count": 2}]

    # An insert orphans the entries; the columnar peek repairs one first.
    store.add({"id": "9", "user": "u0", "tag": "SIA2016", "n": 9})
    repairs = proxy.repair.stats.repaired
    columnar, reference = _peeked(proxy, atom, {})
    assert proxy.repair.stats.repaired == repairs + 1
    assert typed(columnar) == typed(reference)
    assert {"account": "u0", "count": 9} in columnar
    cold = atom.translate_rows(source.execute(query, atom.formal_bindings({})))
    assert sorted(map(repr, typed(columnar))) == sorted(map(repr, typed(cold)))

