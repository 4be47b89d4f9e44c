"""``bindjoin_sweep``: bind-join-heavy CMQs through the library path.

One client calls ``MixedInstance.execute(query, digests=catalog)`` in a
closed loop, the path the paper's experiments use and the only one that
runs the digest sieve (the service never passes digests).  Each query
joins a glue BGP selecting one cohort (~250 of 3,000 accounts) with an
SQL, full-text or JSON bind atom carrying a fresh constant.  Only one
account in three exists in the probed sources, so two thirds of the
bindings are sieved.  The fresh constants keep the working set far
beyond the 4,096-entry result cache: the sieve, batched bind join,
wrapper dispatch and the source engines do the work, the cache little.
"""

from __future__ import annotations

import random
import time

from perfbench import harness
from perfbench.watch import write_probe

ACCOUNTS = 3000
COHORTS = 12
DATA_SEED = 7
KINDS = ("sql", "fulltext", "json")
#: Queries run before the timed pass: enough misses to fill the cache.
WARMUP_QUERIES = 60
#: Queries whose work counts are reported (and compared across passes).
WINDOW = 60
#: Queries of the window whose answers are checked against the reference.
CHECKED_QUERIES = 6

SQL_URI = "sql://accounts"
FULLTEXT_URI = "solr://profiles"
JSON_URI = "json://posts"


def build_instance():
    """Glue: 3,000 accounts in 12 cohorts; sources: every third account."""
    from repro.core import MixedInstance
    from repro.fulltext.store import FieldConfig, FullTextStore
    from repro.json.store import JSONDocumentStore
    from repro.rdf import Graph, triple
    from repro.relational import Database

    rng = random.Random(DATA_SEED)
    glue = Graph("bindjoin-glue")
    rows, documents, posts = [], [], []
    for i in range(ACCOUNTS):
        handle = f"user{i:05d}"
        glue.add(triple(f"ttn:P{i}", "ttn:twitterAccount", handle))
        glue.add(triple(f"ttn:P{i}", "ttn:cohort", f"ttn:C{rng.randrange(COHORTS)}"))
        if i % 3:
            continue
        followers = rng.randrange(10_000)
        rows.append({"handle": handle, "followers": followers})
        documents.append({"id": i, "text": f"profile of {handle} topic{i % 50}",
                          "followers": followers, "user": {"screen_name": handle}})
        posts.append({"id": str(i), "author": handle, "followers": followers,
                      "topic": f"t{i % 7}"})
    database = Database("accounts")
    database.create_table_from_rows("accounts", rows)
    profiles = FullTextStore("profiles", fields=[
        FieldConfig("text", "text"),
        FieldConfig("user.screen_name", "keyword"),
        FieldConfig("followers", "numeric"),
    ], default_field="text")
    profiles.add_all(documents)
    store = JSONDocumentStore("posts")
    store.add_all(posts)
    instance = MixedInstance(graph=glue, name="bindjoin", entailment=False)
    instance.register_relational(SQL_URI, database)
    instance.register_fulltext(FULLTEXT_URI, profiles)
    instance.register_json(JSON_URI, store)
    return instance


def make_query(instance, kind: str, cohort: int, constant: int):
    """The cohort's glue BGP joined with one bind atom carrying ``constant``."""
    cmq = (instance.builder(f"sweep_{kind}", head=["id", "v"])
           .graph(f"SELECT ?id WHERE {{ ?x ttn:cohort ttn:C{cohort} . "
                  "?x ttn:twitterAccount ?id }"))
    if kind == "sql":
        cmq.sql("accounts", source=SQL_URI,
                sql="SELECT handle AS id, followers AS v FROM accounts "
                    f"WHERE handle = {{id}} AND followers >= {constant}")
    elif kind == "fulltext":
        cmq.fulltext("profiles", source=FULLTEXT_URI,
                     query=f"user.screen_name:{{id}} AND followers:[{constant} TO *]",
                     fields={"id": "user.screen_name", "v": "text"})
    else:
        cmq.json("posts", source=JSON_URI,
                 pattern=f"{{ author: ?id, followers: ?v >= {constant} }}")
    return cmq.build()


def query_stream(instance, seed: object):
    """Kinds in strict rotation (an exact one-third mix on every seed);
    cohort and constant drawn from ``seed``."""
    rng = random.Random(seed)
    index = 0
    while True:
        yield make_query(instance, KINDS[index % len(KINDS)], rng.randrange(COHORTS),
                         rng.randrange(1000))
        index += 1


class BindJoinSweep:
    name = "bindjoin_sweep"

    def __init__(self):
        self.instance = None
        self.digests = None

    def setup(self, seed: int) -> None:
        self.instance = build_instance()
        self.digests = self.instance.build_digests()
        warmup = query_stream(self.instance, f"{seed}:warmup")
        for _ in range(WARMUP_QUERIES):
            self.instance.execute(next(warmup), digests=self.digests)

    def run_pass(self, seed: int, seconds: float) -> harness.PassResult:
        instance = self.instance
        result = harness.PassResult()
        window = harness.Window(WINDOW)
        window.open(instance)
        sample = set(random.Random(f"{seed}:check").sample(range(WINDOW), CHECKED_QUERIES))
        self.kept = []
        stream = query_stream(instance, f"{seed}:timed")
        started = time.perf_counter()
        deadline = started + seconds
        index = 0
        while time.perf_counter() < deadline or not window.closed:
            query = next(stream)
            begin = time.perf_counter()
            result.attempted += 1
            try:
                answer = instance.execute(query, digests=self.digests)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                result.fail(f"query {index}: {type(exc).__name__}: {exc}")
                index += 1
                continue
            result.latencies.append(time.perf_counter() - begin)
            if not window.closed:
                harness.add_trace(window.counts, answer.trace)
                window.counts["answers.rows"] += len(answer.rows)
                if index in sample:
                    self.kept.append((index, query, answer.rows))
                if index + 1 == window.size:
                    window.close(instance)
            index += 1
        result.elapsed = time.perf_counter() - started
        result.queries = result.ops = len(result.latencies)
        result.counts = dict(window.counts)
        result.rss_peak_mb = window.rss_peak_mb
        return result

    def verify(self, result: harness.PassResult) -> None:
        """A seeded sample of the window's answers vs the reference."""
        pinned = self.instance.pin()
        for index, query, rows in self.kept:
            expected = harness.reference_rows(pinned, self.instance, query)
            if harness.multiset(rows) != expected:
                result.fail(f"query {index} ({query.name}): answer differs "
                            "from the reference")
        result.counts["answers.checked_queries"] = len(self.kept)

    def write_probe(self, result: harness.PassResult) -> None:
        from repro.service import MediatorService

        with MediatorService(self.instance) as service:
            write_probe(self.instance, service, result)

    def close(self) -> None:
        self.instance = None
        self.digests = None
