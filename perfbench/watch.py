"""Standing-query subscriptions that timestamp their deliveries.

Freshness is the time from an ingest call's return to the standing
callback that delivers the ingested row.  A :class:`Watch` registers one
standing CMQ on a :class:`~repro.service.MediatorService` and records
when each delivery arrived and how many rows it added, so a load loop
can wait for a round's rows and read off the lag.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

from perfbench.harness import multiset


class Watch:
    """One standing subscription plus the arrival time of every delivery."""

    def __init__(self, service, query):
        self.query = query
        self._cond = threading.Condition()
        self.added = 0
        #: (perf_counter at callback, cumulative rows added) per delivery.
        self.arrivals: list[tuple[float, int]] = []
        self.composed: Counter = Counter()
        self.subscription = service.register_standing(query, self._deliver)
        self.composed.update(multiset(self.subscription.rows))

    def _deliver(self, delta) -> None:
        now = time.perf_counter()
        with self._cond:
            self.added += len(delta.added)
            self.composed.update(multiset(delta.added))
            self.composed.subtract(multiset(delta.removed))
            self.arrivals.append((now, self.added))
            self._cond.notify_all()

    def wait_for(self, added: int, timeout: float) -> float | None:
        """When the cumulative added rows first reached ``added`` (None on timeout)."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self.added < added:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._cond.wait(remaining)
            return next(at for at, total in self.arrivals if total >= added)

    def composed_rows(self) -> Counter:
        with self._cond:
            return +self.composed


def version_vector(instance) -> dict:
    """Source versions keyed like a standing subscription's ``versions``."""
    vector = {uri: instance.source(uri).version() for uri in instance.source_uris()}
    vector["#glue"] = instance.graph.version
    return vector


def settled(instance, watches: list[Watch], timeout: float) -> bool:
    """Wait until every watch has been refreshed at the current versions.

    A delivery can come from a refresh that ran before the last store of
    a batch was written; the lockstep loop waits for the refresh that
    saw every write, so the reads that follow never race a refresh.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        vector = version_vector(instance)
        if all(w.subscription.versions == vector for w in watches):
            return True
        time.sleep(0.0005)
    return False


#: Rounds and subscriptions of the write probe run after a read-only pass.
PROBE_ROUNDS = 40
PROBE_WATCHES = 4


def write_probe(instance, service, result) -> None:
    """Glue-graph ingest rounds watched by standing queries.

    The read-only workloads have no ingest of their own; this probe runs
    after their timed pass so ``ingest_ack_p50_ms`` and the freshness
    metrics exist on every workload.  Each round adds one batch of glue
    triples, which every watch's standing query selects one row of.
    """
    watches = []
    for k in range(PROBE_WATCHES):
        query = (instance.builder(f"probe{k}", head=["a", "r"])
                 .graph(f"SELECT ?a ?r WHERE {{ ?a ttn:probeTag ttn:Tag{k} . "
                        f"?a ttn:probeRound ?r }}")
                 .build())
        watches.append(Watch(service, query))
    from repro.rdf import triple

    for round_no in range(1, PROBE_ROUNDS + 1):
        batch = []
        for k in range(PROBE_WATCHES):
            subject = f"ttn:Probe{round_no}_{k}"
            batch.append(triple(subject, "ttn:probeTag", f"ttn:Tag{k}"))
            batch.append(triple(subject, "ttn:probeRound", round_no))
        start = time.perf_counter()
        instance.add_glue_triples(batch)
        acked = time.perf_counter()
        result.acks.append(acked - start)
        lags = []
        for watch in watches:
            arrived = watch.wait_for(round_no, timeout=5.0)
            result.attempted += 1
            if arrived is None:
                result.fail(f"probe round {round_no}: {watch.query.name} not delivered")
            else:
                lags.append(max(arrived - acked, 0.0))
        if lags:
            result.freshness.append(max(lags))
        if not settled(instance, watches, timeout=5.0):
            result.fail(f"probe round {round_no}: standing refresh never settled")
    for watch in watches:
        watch.subscription.cancel()
