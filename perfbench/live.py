"""``live_ingest``: ingest batches beside reads, in lockstep.

One thread runs rounds in lockstep.  Each round batch-ingests into every
store model of the demo instance (tweets into the JSON and full-text
stores, glue triples, INSEE rows), waits until the four standing queries
watching those stores have delivered the round's rows, then re-runs a
fixed five-query panel through :class:`~repro.service.MediatorService`.
It is the only workload that uses delta journals, cache repair,
copy-on-write snapshot pins, the stores' write paths, catalog absorption
and standing refresh, so a read-path gain paid for by writes (or the
reverse) shows here.

Each standing query depends on exactly one written store, so a round
delivers each of them once however the refresher's debounce splits the
batch; each round waits for the refresh that saw every write before the
panel runs, which keeps the panel's work counts deterministic.
"""

from __future__ import annotations

import random
import time

from perfbench import harness
from perfbench.watch import Watch, settled

POLITICIANS = 120
DATA_SEED = 42
TWEETS_PER_BATCH = 8
WATCHED_TAG = "breaking"
WATCHED_WORD = "urgence"
#: Rounds whose work counts are reported (and compared across passes).
WINDOW = 20
#: Rounds of the window whose panel answers are checked against the reference.
CHECKED_ROUNDS = 3
#: Seconds a round may wait for its standing deliveries.
DELIVERY_TIMEOUT = 5.0


class LiveIngest:
    name = "live_ingest"

    def __init__(self):
        self.demo = None
        self.service = None

    def setup(self, seed: int) -> None:
        from repro.datasets import (DemoConfig, build_demo_instance,
                                    fact_checking_query, party_vocabulary_query,
                                    qsia_json_query, qsia_query)
        from repro.datasets.loader import INSEE_URI, TWEETS_JSON_URI
        from repro.service import MediatorService

        self.demo = demo = build_demo_instance(
            DemoConfig(politicians=POLITICIANS, seed=DATA_SEED))
        instance = demo.instance
        self.head = demo.head_of_state()
        self.service = MediatorService(instance)
        head_bgp = ("SELECT ?id ?dept WHERE { ?x ttn:position ttn:headOfState . "
                    "?x ttn:twitterAccount ?id . ?x ttn:birthDepartment ?dept }")
        standing = {
            "rdf": (instance.builder("articles", head=["a", "r"])
                    .graph("SELECT ?a ?r WHERE { ?a ttn:publishedRound ?r }")
                    .build()),
            "fulltext": qsia_query(demo, WATCHED_TAG),
            "json": (instance.builder("headJson", head=["t", "id"])
                     .graph(head_bgp)
                     .json("tweetJson", source=TWEETS_JSON_URI,
                           pattern='{ text: ?t, user.screen_name: ?id, '
                                   f'entities.hashtags: "{WATCHED_TAG}" }}')
                     .build()),
            "sql": (instance.builder("headRates", head=["dept", "year", "rate"])
                    .graph(head_bgp)
                    .sql("unemployment", source=INSEE_URI,
                         sql="SELECT dept_code AS dept, year AS year, rate AS rate "
                             "FROM unemployment WHERE dept_code = {dept}")
                    .build()),
        }
        self.watches = {model: Watch(self.service, query)
                        for model, query in standing.items()}
        # Two mid-cost queries make up the middle of the panel's latency
        # distribution, so query_p50_ms falls inside one population.
        self.panel = [qsia_query(demo, WATCHED_TAG), qsia_json_query(demo, WATCHED_TAG),
                      qsia_json_query(demo, "chomage"),
                      fact_checking_query(demo, "chomage"),
                      party_vocabulary_query(demo, WATCHED_WORD)]
        for query in self.panel:
            self.service.execute(query)
        self.rounds = 0
        self.expected = {model: watch.added for model, watch in self.watches.items()}

    # ------------------------------------------------------------------
    def _batch(self, rng: random.Random, round_no: int):
        """One round's writes: tweets, glue triples and INSEE rows."""
        from repro.datasets import DEPARTMENTS, Tweet
        from repro.rdf import triple

        politicians = self.demo.politicians
        tweets = []
        for k in range(TWEETS_PER_BATCH):
            author = self.head if k == 0 else rng.choice(politicians)
            tags = (WATCHED_TAG,) if k == 0 else (rng.choice(("SIA2016", "chomage")),)
            words = [WATCHED_WORD] if rng.random() < 0.5 else []
            words += [f"r{round_no}n{k}", "direct"]
            tweets.append(Tweet(
                tweet_id=900_000_000_000 + round_no * 100 + k,
                created_at=f"2016-03-{1 + round_no % 28:02d}T10:{k:02d}:00",
                week="2016-W10", text=" ".join(words + [f"#{t}" for t in tags]),
                user_id=int(author.politician_id[3:]), user_name=author.name,
                screen_name=author.twitter_account,
                user_description=f"{author.position} - {author.group}",
                followers_count=author.followers,
                retweet_count=rng.randrange(500), favorite_count=rng.randrange(500),
                hashtags=tags, group=author.group, party_id=author.party_id))
        article = f"ttn:Article{round_no}"
        glue = [triple(article, "ttn:publishedRound", round_no),
                triple(article, "ttn:cites", rng.choice(politicians).uri)]
        others = [code for code, _, _ in DEPARTMENTS if code != self.head.birth_department]
        depts = [self.head.birth_department] + rng.sample(others, 2)
        rows = [{"dept_code": dept, "year": 3000 + round_no, "quarter": 1 + i,
                 "rate": round(5 + rng.random() * 8, 2)} for i, dept in enumerate(depts)]
        return tweets, glue, rows

    def _ingest(self, tweets, glue, rows) -> dict[str, tuple[float, float, int]]:
        """Write every store; per model ``(start, ack, version bumps)``.

        The JSON store goes first: it is the slowest write, and the
        refresher's debounce starts at the first store's notification.
        """
        from repro.datasets.loader import INSEE_URI, TWEETS_JSON_URI, TWEETS_URI

        instance = self.demo.instance
        sources = {"json": instance.source(TWEETS_JSON_URI),
                   "fulltext": instance.source(TWEETS_URI),
                   "rdf": instance.glue_source,
                   "sql": instance.source(INSEE_URI)}
        writes = {
            "json": lambda: sources["json"].store.add_all(t.to_json() for t in tweets),
            "fulltext": lambda: sources["fulltext"].store.add_all(t.record() for t in tweets),
            "rdf": lambda: instance.add_glue_triples(glue),
            "sql": lambda: sources["sql"].database.table("unemployment").insert_many(rows),
        }
        out = {}
        for model, write in writes.items():
            before = sources[model].version()
            start = time.perf_counter()
            write()
            acked = time.perf_counter()
            out[model] = (start, acked, sources[model].version() - before)
        return out

    def _round(self, rng: random.Random, result: harness.PassResult,
               window: harness.Window | None, keep: bool) -> None:
        """Ingest one batch, wait for its deliveries, re-run the panel."""
        instance, service = self.demo.instance, self.service
        self.rounds += 1
        round_no = self.rounds
        writes = self._ingest(*self._batch(rng, round_no))
        result.acks.append(max(ack for _, ack, _ in writes.values())
                           - min(start for start, _, _ in writes.values()))
        lags = []
        for model, watch in self.watches.items():
            self.expected[model] += 1
            result.attempted += 1
            arrived = watch.wait_for(self.expected[model], DELIVERY_TIMEOUT)
            if arrived is None:
                result.fail(f"round {round_no}: {model} row never delivered")
                self.expected[model] = watch.added
            else:
                lags.append(max(arrived - writes[model][1], 0.0))
        if lags:
            result.freshness.append(max(lags))
        if not settled(instance, list(self.watches.values()), DELIVERY_TIMEOUT):
            result.fail(f"round {round_no}: standing refresh never settled")
        for query in self.panel:
            begin = time.perf_counter()
            result.attempted += 1
            try:
                ticket = service.submit(query)
                answer = ticket.result(timeout=60)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                result.fail(f"round {round_no} {query.name}: "
                            f"{type(exc).__name__}: {exc}")
                continue
            result.latencies.append(time.perf_counter() - begin)
            result.queue_waits.append(ticket.started_at - ticket.submitted_at)
            if window is not None:
                harness.add_trace(window.counts, answer.trace)
                window.counts["answers.rows"] += len(answer.rows)
            if keep:
                self.kept.append((round_no, query, ticket.pinned, answer.rows))
        if window is not None:
            window.counts["ingest.batches"] += len(writes)
            window.counts["ingest.version_bumps"] += sum(
                bumps for _, _, bumps in writes.values())

    def run_pass(self, seed: int, seconds: float) -> harness.PassResult:
        instance, service = self.demo.instance, self.service
        result = harness.PassResult()
        window = harness.Window(WINDOW)
        window.open(instance, service)
        rng = random.Random(f"{seed}:ingest")
        sample = set(random.Random(f"{seed}:check").sample(range(WINDOW), CHECKED_ROUNDS))
        self.kept = []
        delivered = sum(watch.added for watch in self.watches.values())
        started = time.perf_counter()
        deadline = started + seconds
        done = 0
        while time.perf_counter() < deadline or not window.closed:
            in_window = done < window.size
            self._round(rng, result, window if in_window else None,
                        keep=done in sample)
            done += 1
            if done == window.size:
                window.close(instance, service)
                window.counts["standing.rows_delivered"] = sum(
                    watch.added for watch in self.watches.values()) - delivered
        result.elapsed = time.perf_counter() - started
        result.queries = len(result.latencies)
        result.ops = done
        result.counts = dict(window.counts)
        result.rss_peak_mb = window.rss_peak_mb
        return result

    def verify(self, result: harness.PassResult) -> None:
        """Sampled panel answers on their pinned snapshots, and the standing
        queries' composed deltas against a final re-run, vs the reference."""
        instance = self.demo.instance
        for round_no, query, pinned, rows in self.kept:
            if harness.multiset(rows) != harness.reference_rows(pinned, instance, query):
                result.fail(f"round {round_no} {query.name}: answer differs "
                            "from the reference")
        final = instance.pin()
        for model, watch in self.watches.items():
            result.attempted += 1
            if watch.composed_rows() != harness.reference_rows(final, instance, watch.query):
                result.fail(f"standing {model}: composed deltas differ from a re-run")
        result.counts["answers.checked_queries"] = len(self.kept) + len(self.watches)

    def write_probe(self, result: harness.PassResult) -> None:
        """Ingest and freshness come from the rounds themselves."""

    def close(self) -> None:
        if self.service is not None:
            self.service.shutdown()
        self.service = None
        self.demo = None
