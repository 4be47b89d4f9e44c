"""Unit tests for the Volcano-style iterator operators."""

import pytest

from repro.engine import (
    Aggregate,
    AggregateSpec,
    BatchBindJoin,
    BindingBatch,
    BindJoin,
    CallbackScan,
    Distinct,
    Extend,
    HashJoin,
    Limit,
    MaterializedScan,
    NestedLoopJoin,
    ParallelStats,
    Project,
    Select,
    Sort,
    Union,
    batches_from_rows,
    run_parallel,
    run_tasks,
)

PEOPLE = [
    {"id": "p1", "group": "left", "retweets": 10},
    {"id": "p2", "group": "right", "retweets": 40},
    {"id": "p3", "group": "left", "retweets": 25},
]

ACCOUNTS = [
    {"id": "p1", "handle": "alice"},
    {"id": "p2", "handle": "bob"},
    {"id": "p4", "handle": "dora"},
]


class TestLeafAndUnary:
    def test_materialized_scan_copies_rows(self):
        scan = MaterializedScan(PEOPLE)
        rows = scan.rows()
        rows[0]["id"] = "mutated"
        assert PEOPLE[0]["id"] == "p1"
        assert scan.stats.produced == 3

    def test_callback_scan_defers_evaluation(self):
        calls = []

        def fetch():
            calls.append(1)
            return PEOPLE

        scan = CallbackScan(fetch)
        assert calls == []
        assert len(scan.rows()) == 3
        assert calls == [1]

    def test_select(self):
        op = Select(MaterializedScan(PEOPLE), lambda r: r["group"] == "left")
        assert {r["id"] for r in op} == {"p1", "p3"}

    def test_project_with_renames(self):
        op = Project(MaterializedScan(PEOPLE), ["id", "group"], renames={"group": "current"})
        row = op.rows()[0]
        assert set(row) == {"id", "current"}

    def test_project_missing_column_yields_none(self):
        op = Project(MaterializedScan(PEOPLE), ["id", "missing"])
        assert op.rows()[0]["missing"] is None

    def test_extend_adds_computed_column(self):
        op = Extend(MaterializedScan(PEOPLE), "double", lambda r: r["retweets"] * 2)
        assert op.rows()[1]["double"] == 80

    def test_distinct(self):
        op = Distinct(MaterializedScan([{"a": 1}, {"a": 1}, {"a": 2}]))
        assert op.rows() == [{"a": 1}, {"a": 2}]

    def test_sort_multiple_keys(self):
        op = Sort(MaterializedScan(PEOPLE), [("group", False), ("retweets", True)])
        assert [r["id"] for r in op] == ["p3", "p1", "p2"]

    def test_sort_handles_none(self):
        rows = [{"x": None}, {"x": 2}, {"x": 1}]
        op = Sort(MaterializedScan(rows), [("x", False)])
        assert [r["x"] for r in op] == [1, 2, None]

    def test_limit(self):
        assert len(Limit(MaterializedScan(PEOPLE), 2).rows()) == 2
        assert Limit(MaterializedScan(PEOPLE), 0).rows() == []

    def test_union(self):
        op = Union([MaterializedScan(PEOPLE), MaterializedScan(ACCOUNTS)])
        assert len(op.rows()) == 6

    def test_explain_mentions_children(self):
        plan = Limit(Select(MaterializedScan(PEOPLE, name="people"), lambda r: True), 1)
        text = plan.explain()
        assert "limit" in text and "people" in text


class TestJoins:
    def test_hash_join_natural(self):
        join = HashJoin(MaterializedScan(PEOPLE), MaterializedScan(ACCOUNTS))
        rows = join.rows()
        assert {r["id"] for r in rows} == {"p1", "p2"}
        assert rows[0].keys() >= {"id", "group", "handle"}

    def test_hash_join_explicit_keys(self):
        join = HashJoin(MaterializedScan(PEOPLE), MaterializedScan(ACCOUNTS), keys=["id"])
        assert len(join.rows()) == 2

    def test_hash_join_without_shared_keys_is_cross_product(self):
        join = HashJoin(MaterializedScan([{"a": 1}, {"a": 2}]), MaterializedScan([{"b": 3}]))
        assert len(join.rows()) == 2

    def test_nested_loop_join_with_condition(self):
        join = NestedLoopJoin(MaterializedScan(PEOPLE), MaterializedScan([{"threshold": 20}]),
                              condition=lambda l, r: l["retweets"] > r["threshold"])
        assert {r["id"] for r in join.rows()} == {"p2", "p3"}

    def test_nested_loop_join_checks_shared_variable_compatibility(self):
        join = NestedLoopJoin(MaterializedScan(PEOPLE), MaterializedScan(ACCOUNTS))
        assert {r["id"] for r in join.rows()} == {"p1", "p2"}

    def test_bind_join_passes_bindings(self):
        seen = []

        def fetch(row):
            seen.append(row["id"])
            return [a for a in ACCOUNTS if a["id"] == row["id"]]

        join = BindJoin(MaterializedScan(PEOPLE), fetch)
        rows = join.rows()
        assert {r["handle"] for r in rows} == {"alice", "bob"}
        assert len(seen) == 3

    def test_bind_join_deduplicates_identical_calls(self):
        calls = []

        def fetch(row):
            calls.append(row["group"])
            return [{"group": row["group"], "label": row["group"].upper()}]

        left = MaterializedScan([{"group": "left"}, {"group": "left"}, {"group": "right"}])
        join = BindJoin(left, fetch, call_key=lambda r: (r["group"],))
        assert len(join.rows()) == 3
        assert join.calls == 2

    def test_bind_join_discards_incompatible_rows(self):
        def fetch(row):
            return [{"id": "different", "extra": 1}]

        join = BindJoin(MaterializedScan(PEOPLE), fetch)
        assert join.rows() == []


class TestBindingBatch:
    def test_batches_are_schema_uniform(self):
        rows = [{"a": 1}, {"a": 2}, {"b": 3}, {"a": 4}]
        batches = list(batches_from_rows(iter(rows)))
        assert [b.columns for b in batches] == [("a",), ("b",), ("a",)]
        assert [list(b.dicts()) for b in batches] == [
            [{"a": 1}, {"a": 2}], [{"b": 3}], [{"a": 4}]]

    def test_batch_size_limit(self):
        rows = [{"a": i} for i in range(7)]
        batches = list(batches_from_rows(iter(rows), size=3))
        assert [len(b) for b in batches] == [3, 3, 1]

    def test_projector_fills_missing_with_none(self):
        batch = BindingBatch.from_dicts([{"a": 1, "b": 2}])
        project = batch.projector(["b", "missing"])
        assert project(batch.rows[0]) == (2, None)

    def test_sorted_pairs_cached(self):
        batch = BindingBatch.from_dicts([{"b": 1, "a": 2}])
        assert batch.sorted_pairs() == (("a", 1), ("b", 0))
        assert batch.sorted_pairs() is batch.sorted_pairs()

    def test_operator_batches_match_rows(self):
        scan = MaterializedScan(PEOPLE)
        via_batches = [row for batch in scan.batches() for row in batch.dicts()]
        assert via_batches == MaterializedScan(PEOPLE).rows()

    def test_estimated_sizes(self):
        scan = MaterializedScan(PEOPLE)
        assert scan.estimated_size() == 3
        assert Project(scan, ["id"]).estimated_size() == 3
        assert Select(scan, lambda r: True).estimated_size() is None


class TestBatchBindJoin:
    def test_batches_distinct_bindings(self):
        batches = []

        def fetch_batch(bindings):
            batches.append(list(bindings))
            return [[a for a in ACCOUNTS if a["id"] == b["id"]] for b in bindings]

        join = BatchBindJoin(MaterializedScan(PEOPLE), fetch_batch, batch_size=10)
        rows = join.rows()
        assert {r.get("handle") for r in rows} == {"alice", "bob"}
        assert join.calls == 1
        assert len(batches) == 1 and len(batches[0]) == 3

    def test_matches_bind_join_output_order(self):
        def fetch(row):
            return [a for a in ACCOUNTS if a["id"] == row["id"]]

        def fetch_batch(bindings):
            return [fetch(b) for b in bindings]

        reference = BindJoin(MaterializedScan(PEOPLE), fetch).rows()
        batched = BatchBindJoin(MaterializedScan(PEOPLE), fetch_batch,
                                batch_size=2).rows()
        assert batched == reference

    def test_deduplicates_across_batches(self):
        shipped = []

        def fetch_batch(bindings):
            shipped.extend(b["group"] for b in bindings)
            return [[{"group": b["group"], "label": b["group"].upper()}]
                    for b in bindings]

        left = MaterializedScan([{"group": "left"}, {"group": "left"},
                                 {"group": "right"}, {"group": "left"}])
        join = BatchBindJoin(left, fetch_batch, variables=["group"], batch_size=1)
        assert len(join.rows()) == 4
        assert sorted(shipped) == ["left", "right"]
        assert join.bindings_shipped == 2

    def test_sieve_drops_bindings_without_calls(self):
        def fetch_batch(bindings):
            return [[{"id": b["id"], "hit": True}] for b in bindings]

        join = BatchBindJoin(MaterializedScan(PEOPLE), fetch_batch,
                             variables=["id"], sieve=lambda b: b["id"] == "p2", batch_size=10)
        rows = join.rows()
        assert [r["id"] for r in rows] == ["p2"]
        assert join.sieved_out == 2
        assert join.bindings_shipped == 1

    def test_all_sieved_means_no_call(self):
        def fetch_batch(bindings):  # pragma: no cover - must not run
            raise AssertionError("sieved batch must not be shipped")

        join = BatchBindJoin(MaterializedScan(PEOPLE), fetch_batch,
                             sieve=lambda b: False, batch_size=2)
        assert join.rows() == []
        assert join.calls == 0
        assert join.sieved_out == 3

    def test_misaligned_fetch_batch_raises(self):
        from repro.errors import MixedQueryError

        join = BatchBindJoin(MaterializedScan(PEOPLE), lambda bindings: [[]],
                             batch_size=10)
        with pytest.raises(MixedQueryError):
            join.rows()

    def test_discards_incompatible_rows(self):
        def fetch_batch(bindings):
            return [[{"id": "different", "extra": 1}] for _ in bindings]

        join = BatchBindJoin(MaterializedScan(PEOPLE), fetch_batch, batch_size=10)
        assert join.rows() == []


class TestHashJoinStreaming:
    def test_builds_on_smaller_side(self):
        big = MaterializedScan([{"id": f"p{i}", "n": i} for i in range(50)])
        small = MaterializedScan(ACCOUNTS)
        join = HashJoin(big, small)
        rows = join.rows()
        assert {r["id"] for r in rows} == {"p1", "p2", "p4"}
        # Probe side streamed: consumed counts the bigger input.
        assert join.stats.consumed == 50

    def test_natural_keys_cover_every_probe_batch_schema(self):
        # A shared variable appearing only in a *later* probe batch must
        # still become a join key (regression: first-batch-only inference
        # inferred keys=['a'] and let {'a':1,'c':99} join {'a':1,'c':1}).
        left = MaterializedScan([{"a": 1, "b": 10}, {"a": 1, "c": 99}])
        right = MaterializedScan([{"a": 1, "c": 1}])
        join = HashJoin(left, right)
        assert join.rows() == []  # keys are [a, c]; no row binds both alike

    def test_swapped_build_side_keeps_merge_semantics(self):
        # Explicit keys with a conflicting non-key column: the right
        # side's value must win, whichever side builds the hash table.
        left = MaterializedScan([{"k": 1, "v": "left"}, {"k": 1, "v": "left2"}])
        right = MaterializedScan([{"k": 1, "v": "right"}])
        rows = HashJoin(left, right, keys=["k"]).rows()
        assert [r["v"] for r in rows] == ["right", "right"]
        rows = HashJoin(right, left, keys=["k"]).rows()
        assert sorted(r["v"] for r in rows) == ["left", "left2"]


class TestAggregate:
    def test_group_by_count_and_sum(self):
        op = Aggregate(MaterializedScan(PEOPLE), ["group"], [
            AggregateSpec("count", None, "n"),
            AggregateSpec("sum", "retweets", "total"),
        ])
        by_group = {r["group"]: r for r in op}
        assert by_group["left"]["n"] == 2 and by_group["left"]["total"] == 35
        assert by_group["right"]["total"] == 40

    def test_global_aggregate_without_group(self):
        op = Aggregate(MaterializedScan(PEOPLE), [], [AggregateSpec("avg", "retweets", "avg")])
        assert op.rows()[0]["avg"] == pytest.approx(25.0)

    def test_min_max_collect(self):
        op = Aggregate(MaterializedScan(PEOPLE), [], [
            AggregateSpec("min", "retweets", "lo"),
            AggregateSpec("max", "retweets", "hi"),
            AggregateSpec("collect", "id", "ids"),
        ])
        row = op.rows()[0]
        assert (row["lo"], row["hi"]) == (10, 40)
        assert sorted(row["ids"]) == ["p1", "p2", "p3"]

    def test_nulls_ignored(self):
        rows = PEOPLE + [{"id": "p9", "group": "left", "retweets": None}]
        op = Aggregate(MaterializedScan(rows), ["group"], [AggregateSpec("count", "retweets", "n")])
        assert {r["group"]: r["n"] for r in op}["left"] == 2


class TestParallel:
    def test_results_preserve_order(self):
        operators = [MaterializedScan([{"i": i}]) for i in range(6)]
        outputs = run_parallel(operators, max_workers=3)
        assert [o[0]["i"] for o in outputs] == list(range(6))

    def test_stats_collected(self):
        stats = ParallelStats()
        run_parallel([MaterializedScan(PEOPLE), MaterializedScan(ACCOUNTS)],
                     max_workers=2, stats=stats)
        assert stats.tasks == 2
        assert len(stats.per_task_seconds) == 2
        assert stats.speedup >= 1.0

    def test_sequential_mode(self):
        outputs = run_parallel([MaterializedScan(PEOPLE)], max_workers=1)
        assert len(outputs) == 1

    def test_run_tasks(self):
        assert run_tasks([lambda: 1, lambda: 2], max_workers=2) == [1, 2]
