"""``newsroom_reads``: the paper's query mix through the mediator service.

Two client threads run a closed loop: each sends one CMQ to
:class:`~repro.service.MediatorService` and waits for the answer before
drawing the next.  The mix is 50% party vocabulary, 20% qSIA, 15%
qSIA-JSON and 15% fact-checking; parameters are drawn Zipf-wise from the
corpus' topic terms, the three topic hashtags and the three fact-check
topics.  At this instance size every distinct query's sub-results and
plan fit the caches, so after warm-up the service queue, group
admission, planner, plan cache and cache probe do most of the work.
"""

from __future__ import annotations

import random
import threading
import time
from collections import defaultdict

from perfbench import harness
from perfbench.watch import write_probe

#: Demo instance size: ~3k tweets, so the ~3.4k distinct sub-query
#: results fit the 4,096-entry result cache.
POLITICIANS = 150
DATA_SEED = 42
CLIENTS = 2
#: One cycle of the 50/20/15/15 mix; each client walks it from its own
#: offset, so every seed sends the same proportions.
MIX_CYCLE = ("party", "qsia", "party", "fact", "party", "qsia_json", "party", "qsia",
             "party", "fact", "party", "qsia_json", "party", "qsia", "party", "fact",
             "party", "qsia_json", "party", "qsia")
HASHTAGS = ("SIA2016", "EtatDurgence", "chomage")
FACT_TOPICS = ("chomage", "agriculture", "elections")
#: Party-vocabulary terms whose answers are checked against the reference.
CHECKED_TERMS = 8
#: Completed queries whose work counts are reported.
WINDOW = 400


def topic_terms() -> list[str]:
    """Shared and phase terms of every topic, in declaration order (Zipf rank)."""
    from repro.datasets import TOPICS

    terms: list[str] = []
    for topic in TOPICS.values():
        for term in topic.shared_terms + tuple(
                word for phase in topic.phases for word in phase.core_terms):
            if term not in terms:
                terms.append(term)
    return terms


def zipf_weights(count: int, exponent: float = 1.0) -> list[float]:
    return [1.0 / (rank ** exponent) for rank in range(1, count + 1)]


class NewsroomReads:
    name = "newsroom_reads"

    def __init__(self):
        self.demo = None
        self.service = None
        self.queries = {}

    def setup(self, seed: int) -> None:
        from repro.datasets import (DemoConfig, build_demo_instance,
                                    fact_checking_query, party_vocabulary_query,
                                    qsia_json_query, qsia_query)
        from repro.service import MediatorService

        self.demo = demo = build_demo_instance(
            DemoConfig(politicians=POLITICIANS, seed=DATA_SEED))
        self.terms = topic_terms()
        self.weights = {n: zipf_weights(n) for n in {len(self.terms), len(HASHTAGS),
                                                     len(FACT_TOPICS)}}
        queries = {("party", term): party_vocabulary_query(demo, term)
                   for term in self.terms}
        for tag in HASHTAGS:
            queries[("qsia", tag)] = qsia_query(demo, tag)
            queries[("qsia_json", tag)] = qsia_json_query(demo, tag)
        for topic in FACT_TOPICS:
            queries[("fact", topic)] = fact_checking_query(demo, topic)
        self.queries = queries
        self.service = MediatorService(demo.instance)
        # Warm-up: every distinct query once, so the timed pass starts
        # with the working set in the result and plan caches.
        for query in queries.values():
            self.service.execute(query)

    def _draw(self, rng: random.Random, index: int):
        kind = MIX_CYCLE[index % len(MIX_CYCLE)]
        params = {"party": self.terms, "qsia": HASHTAGS, "qsia_json": HASHTAGS,
                  "fact": FACT_TOPICS}[kind]
        param = rng.choices(params, weights=self.weights[len(params)])[0]
        return kind, param

    def run_pass(self, seed: int, seconds: float) -> harness.PassResult:
        result = harness.PassResult()
        instance, service = self.demo.instance, self.service
        window = harness.Window(WINDOW)
        window.open(instance, service)
        lock = threading.Lock()
        self.row_counts = defaultdict(set)
        self.kept = defaultdict(list)
        deadline = time.perf_counter() + seconds

        def client(index: int) -> None:
            rng = random.Random(f"{seed}:client{index}")
            position = index * len(MIX_CYCLE) // CLIENTS
            while True:
                with lock:
                    if time.perf_counter() >= deadline and window.closed:
                        return
                key = self._draw(rng, position)
                position += 1
                started = time.perf_counter()
                try:
                    ticket = service.submit(self.queries[key])
                    answer = ticket.result(timeout=60)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    with lock:
                        result.attempted += 1
                        result.fail(f"{key}: {type(exc).__name__}: {exc}")
                    continue
                latency = time.perf_counter() - started
                with lock:
                    result.attempted += 1
                    result.latencies.append(latency)
                    result.queue_waits.append(ticket.started_at - ticket.submitted_at)
                    self.row_counts[key].add(len(answer.rows))
                    if len(self.kept[key]) < 2:
                        self.kept[key].append(answer.rows)
                    if not window.closed:
                        harness.add_trace(window.counts, answer.trace)
                        window.counts["answers.rows"] += len(answer.rows)
                        if len(result.latencies) >= window.size:
                            window.close(instance, service)

        started = time.perf_counter()
        threads = [threading.Thread(target=client, args=(i,), name=f"newsroom-client-{i}")
                   for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.elapsed = time.perf_counter() - started
        result.queries = result.ops = len(result.latencies)
        result.counts = dict(window.counts)
        result.rss_peak_mb = window.rss_peak_mb
        return result

    def verify(self, result: harness.PassResult) -> None:
        """Every non-party query plus a seeded sample of party terms vs the reference."""
        instance = self.demo.instance
        pinned = instance.pin()
        party = sorted(key for key in self.row_counts if key[0] == "party")
        rng = random.Random("newsroom-check")
        checked = [key for key in sorted(self.row_counts) if key[0] != "party"]
        checked += rng.sample(party, min(CHECKED_TERMS, len(party)))
        for key, counts in sorted(self.row_counts.items()):
            if len(counts) != 1:
                result.fail(f"{key}: answers with different sizes {sorted(counts)}")
        for key in checked:
            expected = harness.reference_rows(pinned, instance, self.queries[key])
            for rows in self.kept[key]:
                if harness.multiset(rows) != expected:
                    result.fail(f"{key}: answer differs from the reference")
            if self.row_counts[key] != {sum(expected.values())}:
                result.fail(f"{key}: answer sizes {sorted(self.row_counts[key])} "
                            f"vs reference {sum(expected.values())}")
        result.counts["answers.checked_queries"] = len(checked)

    def write_probe(self, result: harness.PassResult) -> None:
        write_probe(self.demo.instance, self.service, result)

    def close(self) -> None:
        if self.service is not None:
            self.service.shutdown()
        self.service = None
        self.demo = None
        self.queries = {}
