"""The benchmark's own checks: repeatable work counts and sound timers."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import harness, tracing
from perfbench.bindjoin import BindJoinSweep
from perfbench.live import LiveIngest


def _counts(workload, trace: bool) -> dict:
    workload.setup(11)
    recorder = tracing.Recorder()
    installed = tracing.install(recorder) if trace else None
    try:
        result = workload.run_pass(11, 0.0)
    finally:
        if installed is not None:
            installed.uninstall()
        workload.close()
    assert result.failed == 0, result.errors
    if trace:
        assert recorder.spans
    return {key: result.counts[key] for key in harness.COMPARED_COUNTS[workload.name]}


@pytest.mark.parametrize("make", [BindJoinSweep, LiveIngest], ids=["bindjoin", "live"])
def test_same_seed_repeats_work_counts_with_timers_on(make):
    """A second same-seed run, traced, does exactly the first run's work."""
    assert _counts(make(), trace=False) == _counts(make(), trace=True)


def test_uninstall_restores_every_entry_point():
    originals = [(owner, attribute, vars(owner).get(attribute))
                 for owner, attribute, _, _ in tracing._targets()]
    tracing.install(tracing.Recorder()).uninstall()
    for owner, attribute, original in originals:
        assert vars(owner).get(attribute) is original


def test_self_time_subtracts_the_union_of_children():
    spans = [tracing.Span(1, "outer", 0.0, 10.0, None, 1),
             tracing.Span(2, "inner", 1.0, 4.0, 1, 1),
             tracing.Span(3, "inner", 3.0, 6.0, 1, 1),
             tracing.Span(4, "inner", 3.5, 3.6, 3, 1, rows=5)]
    totals = tracing.rollup(spans)
    assert totals["outer"].self_seconds == pytest.approx(5.0)
    assert totals["inner"].calls == 2
    assert totals["inner"].self_seconds == pytest.approx(3.0 + 2.9 + 0.1)
    assert totals["inner"].rows == 0


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    result = harness.PassResult(latencies=[0.001, 0.002], acks=[0.001], freshness=[0.01])
    assert set(harness._end_to_end(result, [1.0])) == {m["name"] for m in spec["end_to_end"]}
    per_layer = harness._per_layer(result, {}, 1.0, True)
    assert set(per_layer) == {m["name"] for m in spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, (_, unit) in {**harness._end_to_end(result, [1.0]), **per_layer}.items():
        assert units[name] == unit, name
