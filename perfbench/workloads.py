"""The three benchmark workloads, their correctness gates and metrics.

Each workload is driven only through public surfaces: ``repro.api``
cursors, :class:`BeliefDBMS`, :class:`BeliefServer` / :class:`BeliefClient`,
:class:`DurabilityManager` and the lifecycle calls. See README.md in this
directory for why each workload exists and what it should and should not
move.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import fmean
from typing import Any, Callable, Iterator, TypeVar

import inputs
from inputs import RELATION, Statement, insert_sql, lookup_sql, user_name
from loop import P99, Client, median, quantile, run_phases
from tracing import Tracer

from repro.api import connect
from repro.bdms.bdms import BeliefDBMS
from repro.bench.queries import paper_queries
from repro.core.schema import experiment_schema
from repro.durability import DurabilityManager
from repro.durability import snapshot as snapshot_files
from repro.errors import BeliefDBError, LifecycleConflictError
from repro.lifecycle.model import (
    ACTIVE,
    ARCHIVED,
    CHALLENGED,
    DEPRECATED,
    PROPOSED,
    TRANSITIONS,
)
from repro.query.naive import evaluate_naive
from repro.server.client import BeliefClient
from repro.server.server import BeliefServer
from repro.workload.curation import CURATORS

WAL_SYNC = "always"

#: Names of the Table 2 queries by metric.
TABLE2_GROUPS = {
    "table2_content_ms": ("q1,0", "q1,1", "q1,2", "q1,3", "q1,4"),
    "table2_conflict_ms": ("q2",),
    "table2_user_ms": ("q3",),
}

#: The timed run is cut into this many slices (a multiple of 4, see
#: ``phase_plan``). Before each slice, with every client parked, the
#: benchmark measures one more throwaway set-up and ``REOPENS`` reopens
#: (see ``durable_break``), so set-up and recovery times sample the whole
#: run, not one short window of a box whose speed drifts. Repeated work
#: within one break runs at one speed level, so the number of breaks, not
#: the samples per break, steadies these times.
SLICES = 8

#: belief-analytics' set-ups (a statement-by-statement load, ~0.9 s) happen
#: in every ``ANALYTICS_SETUP_EVERY``-th break only, to keep its runs short.
ANALYTICS_SETUP_EVERY = 2

#: Timed rounds of the Table 2 queries per break on the durable workloads,
#: and timed reopens per break on every workload.
TABLE2_ROUNDS = 3
REOPENS = 2

#: Percentiles reported in the metadata, to show each latency's shape.
SHAPE = (0.5, 0.9, 0.95, 0.99, 0.999)

#: annotate-lookup's two curators. Not users 1 and 2: the Table 2 queries
#: read the worlds of those two, and the curators' own writes land in
#: worlds their paths start with, so the queries see the same worlds
#: whatever the writes did.
ANNOTATE_USERS = (3, 4)

#: curation-durable's two sessions, users 3 and 4 for the same reason: the
#: sightings they report land in their own worlds, not those of users 1
#: and 2 (Alice and Bob) that the Table 2 queries read.
SESSION_CURATORS = CURATORS[2:]


@dataclass(frozen=True)
class Scale:
    """Sizes of one workload; ``tiny`` variants serve the self-test."""

    preload: int
    checkpoint_every: int = 0
    write_share: float = 0.0
    window: int = 20
    lookups_per_round: int = 0
    race_every: int = 0
    check_sample: int = 40


SCALES: dict[str, dict[str, Scale]] = {
    "full": {
        "annotate-lookup": Scale(
            preload=500, checkpoint_every=50, write_share=0.10,
        ),
        "belief-analytics": Scale(preload=1000, lookups_per_round=1000),
        "curation-durable": Scale(
            preload=200, checkpoint_every=20, race_every=25,
        ),
    },
    "tiny": {
        "annotate-lookup": Scale(
            preload=60, checkpoint_every=20,
            write_share=0.10, window=5, check_sample=10,
        ),
        "belief-analytics": Scale(
            preload=80, lookups_per_round=20,
            check_sample=10,
        ),
        "curation-durable": Scale(
            preload=24, checkpoint_every=20,
            race_every=10,
        ),
    },
}


@dataclass
class Outcome:
    """What one workload run measured and found."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    waterfall: list[str] = field(default_factory=list)


@dataclass
class Samples:
    """Seconds measured outside the closed loop, pooled over a run."""

    setup: list[float] = field(default_factory=list)
    recovery: list[float] = field(default_factory=list)
    #: Table 2 query name -> seconds
    table2: dict[str, list[float]] = field(default_factory=dict)


@dataclass
class Deployment:
    """A database, and for durable workloads its server and sessions."""

    db: BeliefDBMS
    server: BeliefServer | None = None
    sessions: list[BeliefClient] = field(default_factory=list)
    #: curation-durable's seeded belief ids, in proposal order.
    beliefs: list[str] = field(default_factory=list)

    def close(self) -> None:
        for session in self.sessions:
            session.close()
        if self.server is not None:
            self.server.stop()
        self.db.close()


# ------------------------------------------------------------------ helpers

T = TypeVar("T")


def _rows(rows: Any) -> list[tuple]:
    return sorted((tuple(r) for r in rows), key=repr)


def naive_rows(db: BeliefDBMS, version: Any, sql: str, params: tuple) -> list:
    """The Def. 14 evaluator's answer to one prepared select."""
    query = db.prepare(sql).compiled.bind(params)
    if query is None:
        return []
    store = version.store
    return _rows(evaluate_naive(store.explicit_db, query, users=store.users()))


def explicit_state(db: BeliefDBMS) -> set:
    return set(db.store.explicit_statements())


def reset_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def measure(make: Callable[[], T], samples: list[float]) -> T:
    """Run ``make`` from a clean collector state; record its seconds."""
    gc.collect()
    start = time.perf_counter()
    made = make()
    samples.append(time.perf_counter() - start)
    return made


@contextmanager
def live_frozen(thaw: bool = True) -> Iterator[None]:
    """Freeze the live workload's objects out of the garbage collector, so
    a set-up or reopen measured meanwhile pays for its own heap only, as it
    would in a fresh process. ``thaw=False`` leaves them frozen (see
    ``freeze_live``)."""
    gc.freeze()
    try:
        yield
    finally:
        if thaw:
            gc.unfreeze()


def freeze_live() -> None:
    """Move everything alive now out of the garbage collector's reach.

    belief-analytics never frees its loaded database, so full collections
    would only re-walk it: a cost that lands on whichever query happens to
    trigger one, not on the query's own work."""
    gc.collect()
    gc.freeze()


def preload_transaction(db: BeliefDBMS, statements: list[Statement]) -> None:
    """Load generated statements as one transaction: one WAL append."""
    with connect(db) as conn, conn.transaction():
        cur = conn.cursor()
        for s in statements:
            cur.execute(insert_sql(len(s.path), s.sign), (*s.path, *s.values))


def add_paper_users(db: BeliefDBMS) -> None:
    for uid in range(1, inputs.PAPER_USERS + 1):
        db.add_user(user_name(uid), uid=uid)


def open_durable(path: str, checkpoint_every: int) -> BeliefDBMS:
    manager = DurabilityManager(
        path, sync=WAL_SYNC, checkpoint_every=checkpoint_every
    )
    try:
        return BeliefDBMS(experiment_schema(), durability=manager)
    except BaseException:
        manager.close()
        raise


def reopen(
    path: str, checkpoint_every: int,
    check: Callable[[BeliefDBMS], None] | None = None,
) -> float:
    """Reopen a data directory; returns the seconds that took. ``check``
    runs on the reopened database."""
    took: list[float] = []
    db = measure(lambda: open_durable(path, checkpoint_every), took)
    try:
        if check is not None:
            check(db)
    finally:
        db.close()
    return took[0]


def durable_break(
    live: Deployment, make: Callable[[], Deployment], work: str,
    samples: Samples, outcome: Outcome,
) -> None:
    """Between two slices of a durable workload, with every client parked:
    one more measured set-up, the Table 2 rounds on its freshly preloaded
    database (the same state on every run, whatever the run seed wrote),
    and ``REOPENS`` restarts of the live database from a checkpoint. For
    that, the live data directory is copied while no request is in flight
    (a crash image), the copy is opened, checkpointed and closed, and
    reopening it is timed: the live state as of now, without a WAL tail
    whose length would depend on where the last checkpoint happened to
    fall."""
    assert live.server is not None and live.db.durability is not None
    every = live.db.durability.checkpoint_every
    image = os.path.join(work, "crash-image")
    with live_frozen():
        spare = measure(make, samples.setup)
        try:
            table2_rounds(spare.db, outcome, samples.table2)
        finally:
            spare.close()
        with live.server.lock.write():
            shutil.rmtree(image, ignore_errors=True)
            shutil.copytree(os.path.join(work, "data"), image)
        copy = open_durable(image, every)
        try:
            copy.checkpoint()
        except (OSError, BeliefDBError) as exc:
            outcome.failed += 1
            outcome.problems.append(f"checkpoint of a crash image: {exc}")
        finally:
            copy.close()
        for _ in range(REOPENS):
            samples.recovery.append(reopen(image, every))
    shutil.rmtree(image, ignore_errors=True)


def table2_rounds(
    db: BeliefDBMS, outcome: Outcome, timings: dict[str, list[float]],
) -> None:
    """Time ``TABLE2_ROUNDS`` rounds of the seven Table 2 queries on one
    pinned version; check each answer against the naive evaluator. An
    untimed first round lets the version build its indexes."""
    queries = paper_queries()
    version = db.pin_version()
    try:
        store = version.store
        for name, query in queries.items():
            oracle = evaluate_naive(
                store.explicit_db, query, users=store.users()
            )
            db.query(query, version=version)
            for _ in range(TABLE2_ROUNDS):
                gc.collect()
                start = time.perf_counter()
                answer = db.query(query, version=version)
                timings.setdefault(name, []).append(
                    time.perf_counter() - start
                )
                if answer != oracle:
                    outcome.problems.append(
                        f"Table 2 {name}: engine answer ({len(answer)} "
                        f"rows) differs from the naive evaluator "
                        f"({len(oracle)} rows)"
                    )
                    break
    finally:
        db.release_version(version)


def table2_metrics(outcome: Outcome, timings: dict[str, list[float]]) -> None:
    """Mean query time per Table 2 group (see ``finish``)."""
    for metric, names in TABLE2_GROUPS.items():
        samples = [t for n in names for t in timings.get(n, [])]
        outcome.metrics[metric] = (fmean(samples) * 1000.0, "ms")
    outcome.meta["table2_samples_ms"] = {
        n: [round(x * 1000.0, 4) for x in t] for n, t in timings.items()
    }


def background_failures(
    db: BeliefDBMS, server: BeliefServer | None, outcome: Outcome
) -> None:
    """Failures the program counts instead of raising fail the run."""
    counts = {
        "auto_checkpoint_failures":
            db.snapshot_stats()["auto_checkpoint_failures"],
        "server_checkpoint_errors":
            server.stats["checkpoint_errors"] if server is not None else 0,
        "wal_fail_stop":
            int(db.durability is not None and db.durability.failed),
    }
    outcome.meta["background_failures"] = counts
    for name, count in counts.items():
        if count:
            outcome.failed += count
            outcome.problems.append(f"background failure: {name} = {count}")


def negotiated_codecs(db: BeliefDBMS) -> dict[str, int]:
    family = db.metrics.get("beliefdb_wire_negotiations_total")
    if family is None:
        return {}
    return {
        key[0]: int(child.value) for key, child in family.children()
        if child.value
    }


def phase_samples(clients: list[Client], phase: str, kind: str) -> list:
    return [s for c in clients for s in c.samples.get(phase, {}).get(kind, [])]


def latency_metrics(outcome: Outcome, kind: str, samples: list[float]) -> None:
    """Median and p99 of one op kind, with the sample count behind them."""
    outcome.meta[f"{kind}_samples"] = len(samples)
    outcome.meta[f"{kind}_samples_beyond_p99"] = int(len(samples) * (1 - P99))
    outcome.meta[f"{kind}_shape_ms"] = {
        str(q): round(quantile(samples, q) * 1000.0, 4) for q in SHAPE
    }
    outcome.metrics[f"{kind}_p50_ms"] = (median(samples) * 1000.0, "ms")
    outcome.metrics[f"{kind}_p99_ms"] = (quantile(samples, P99) * 1000.0, "ms")


ALL_PHASES = ("warmup", "timed", "untraced", "traced")


def phase_plan(seconds: float, trace: bool) -> list[tuple[str, float, bool]]:
    """A warm-up, then ``SLICES`` timed slices. A traced run's slices go
    untraced-traced-traced-untraced, repeated, so the tracing overhead is
    measured in the same run and both kinds sit, on average, at the same
    point of a growing history."""
    warmup = ("warmup", min(1.0, seconds / 5), False)
    names = (
        ("untraced", "traced", "traced", "untraced") * (SLICES // 4)
        if trace else ("timed",) * SLICES
    )
    return [warmup] + [
        (name, seconds / SLICES, name == "traced") for name in names
    ]


def measured_phase(trace: bool) -> str:
    """The phase the end-to-end metrics come from (never a traced one)."""
    return "untraced" if trace else "timed"


def ops_in(clients: list[Client], *phases: str) -> int:
    """Requests completed in the phases (each timed call is one)."""
    return sum(
        len(samples) for c in clients for p in phases
        for samples in c.samples.get(p, {}).values()
    )


def class_counts(clients: list[Client], phase: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for c in clients:
        for kind, samples in c.samples.get(phase, {}).items():
            counts[kind] = counts.get(kind, 0) + len(samples)
    return counts


def run_timed(
    outcome: Outcome, clients: list[Client], seconds: float, trace: bool,
    db: BeliefDBMS, work: str, latency_kinds: tuple[str, ...],
    between: Callable[[], None],
) -> None:
    """The timed closed loop, with ``between`` run after each phase but
    the last; end-to-end throughput and latency, and, for a traced run,
    the per-layer metrics, waterfall and spans."""
    before = _program_counters(db)
    tracer = Tracer() if trace else None
    elapsed = run_phases(
        clients, phase_plan(seconds, trace), tracer, between
    )
    phase = measured_phase(trace)
    outcome.metrics["ops_per_s"] = (ops_in(clients, phase) / elapsed[phase],
                                    "1/s")
    outcome.meta["timed_seconds"] = elapsed[phase]
    outcome.meta["op_counts"] = class_counts(clients, phase)
    outcome.attempted = ops_in(clients, *ALL_PHASES)
    for kind in latency_kinds:
        latency_metrics(outcome, kind, phase_samples(clients, phase, kind))
    if tracer is not None:
        layer_metrics(outcome, tracer, clients, elapsed, db, before)
        tracer.dump(os.path.join(work, "spans.jsonl"))


def layer_metrics(
    outcome: Outcome, tracer: Tracer, clients: list[Client],
    elapsed: dict[str, float], db: BeliefDBMS, before: dict[str, float],
) -> None:
    """Per-layer metrics of a traced run (see README.md for definitions)."""
    counts = class_counts(clients, "traced")
    reads = counts.get("read", 0)
    writes = counts.get("write", 0)
    queries = reads + sum(n for k, n in counts.items() if k.startswith("q"))
    c = tracer.counts
    calls = lambda name: tracer.layer_self_ns(name)[0]  # noqa: E731
    per = lambda n, d: n / d if d else 0.0  # noqa: E731
    mean_us = tracer.mean_self_us
    roundtrips = tracer.roundtrips
    delta = {k: v - before[k] for k, v in _program_counters(db).items()}
    writes_all = sum(
        len(phase_samples(clients, p, "write")) for p in ALL_PHASES
    )
    layer = {
        "api.execute_us": (mean_us("api.execute"), "us"),
        "server.codec_us": (
            mean_us("server.codec", per=calls("server.dispatch")), "us"),
        "server.dispatch_us": (mean_us("server.dispatch"), "us"),
        "server.roundtrip_overhead_us": (
            per(sum(a - b for a, b in roundtrips), len(roundtrips)) / 1000.0,
            "us"),
        "server.lock_wait_us": (mean_us("server.lock_wait"), "us"),
        "bdms.execute_us": (
            mean_us("bdms.execute", "bdms.lifecycle", "bdms.query"), "us"),
        "beliefsql.bind_us": (mean_us("beliefsql.bind"), "us"),
        "beliefsql.stmt_cache_hit_ratio": (per(
            delta["stmt_hits"], delta["stmt_hits"] + delta["stmt_misses"]),
            "ratio"),
        "query.check_safe_us": (mean_us("query.check_safe"), "us"),
        "query.translate_us": (mean_us("query.translate"), "us"),
        "query.translations_per_read": (
            per(calls("query.translate"), queries), "count"),
        "relational.run_us": (mean_us("relational.run"), "us"),
        "relational.rules_per_read": (
            per(c["relational.rules"], queries), "count"),
        "storage.update_us": (mean_us("storage.update"), "us"),
        "storage.fork_ms": (mean_us("storage.fork") / 1000.0, "ms"),
        "storage.forks_per_read": (per(calls("storage.fork"), reads), "count"),
        "durability.log_us": (mean_us("durability.log"), "us"),
        "durability.fsync_us": (
            per(delta["fsync_s"], delta["fsyncs"]) * 1e6, "us"),
        "durability.fsyncs_per_write": (
            per(delta["fsyncs"], writes_all), "count"),
        "durability.wal_bytes_per_write": (
            per(c["durability.wal_bytes"], writes), "bytes"),
        "durability.checkpoint_ms": (
            mean_us("durability.checkpoint") / 1000.0, "ms"),
        "durability.checkpoints": (delta["checkpoints"], "count"),
        "durability.snapshot_bytes": (per(
            c["durability.snapshot_bytes"], calls("durability.checkpoint")),
            "bytes"),
        "lifecycle.apply_us": (mean_us("lifecycle.apply"), "us"),
        "lifecycle.dump_ms": (mean_us("lifecycle.dump") / 1000.0, "ms"),
        # curation-durable fills this in once its races are tallied.
        "lifecycle.cas_win_ratio": (0.0, "ratio"),
        "lifecycle.audit_events": (
            float(db.store.lifecycle.audit_count()), "count"),
    }
    untraced = per(ops_in(clients, "untraced"), elapsed.get("untraced", 0))
    traced = per(ops_in(clients, "traced"), elapsed.get("traced", 0))
    layer["trace.ops_per_s_untraced"] = (untraced, "1/s")
    layer["trace.ops_per_s_traced"] = (traced, "1/s")
    layer["trace.overhead_ratio"] = (per(untraced, traced), "ratio")
    outcome.layers = layer
    outcome.meta["traced_ops"] = counts
    outcome.meta["dropped_spans"] = tracer.dropped_spans
    outcome.waterfall = tracer.waterfall(counts)


def _program_counters(db: BeliefDBMS) -> dict[str, float]:
    """Counters the program exports, read before and after the timed run."""
    stats = db.snapshot_stats()
    fsync = db.metrics.get("beliefdb_wal_fsync_seconds")
    return {
        "stmt_hits": stats["statement_cache"]["hits"],
        "stmt_misses": stats["statement_cache"]["misses"],
        "fsyncs": fsync.count if fsync is not None else 0,
        "fsync_s": fsync.sum if fsync is not None else 0.0,
        "checkpoints": (
            db.durability.checkpoints if db.durability is not None else 0
        ),
    }


def finish(outcome: Outcome, samples: Samples) -> Outcome:
    """Metrics of the work timed outside the closed loop. Table 2 queries
    and reopens repeat the same work, and on a box whose memory-bound speed
    flips between two levels (about 1.6x apart, for tenths of a second to
    seconds at a time) their times are bimodal: a median jumps between the
    levels as their mix shifts from run to run, a mean moves with the mix
    (and the paper's Table 2, like ``repro.bench.harness``, averages)."""
    table2_metrics(outcome, samples.table2)
    outcome.metrics["setup_s"] = (median(samples.setup), "s")
    outcome.meta["setup_samples_s"] = samples.setup
    outcome.metrics["recovery_s"] = (fmean(samples.recovery), "s")
    outcome.meta["recovery_samples_s"] = samples.recovery
    outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return outcome


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------- annotate-lookup


class AnnotateClient(Client):
    """A curator session: prepared point lookups and single-row annotations."""

    def __init__(
        self, client: BeliefClient, stream: inputs.AnnotateStream,
        check_rng: random.Random, check_sample: int,
    ) -> None:
        super().__init__()
        self.client = client
        self.stream = stream
        self.user = user_name(stream.uid)
        self.handles: dict[str, Any] = {}
        #: Acknowledged annotations still live, and those retracted since.
        self.present: set[Statement] = set()
        self.retracted: set[Statement] = set()
        self.check_rng = check_rng
        self.check_sample = check_sample
        self.sample: list[tuple[str, tuple]] = []
        self.reads_seen = 0

    def handle(self, sql: str) -> Any:
        prepared = self.handles.get(sql)
        if prepared is None:
            prepared = self.handles[sql] = self.client.prepare(sql)
        return prepared

    def step(self) -> None:
        kind, sql, params, effect = self.stream.next()
        handle = self.handle(sql)
        payload = self.timed(
            "read" if kind == "read" else "write",
            lambda: self.client.execute_prepared(handle, params),
        )
        if effect is not None:
            if payload["rowcount"] != 1:
                raise AssertionError(f"write {sql} {params} was not applied")
            if kind == "retract":
                self.present.remove(effect)
                self.retracted.add(effect)
            else:
                self.present.add(effect)
            return
        # Reservoir sample of lookups, re-checked against the oracle later.
        self.reads_seen += 1
        if len(self.sample) < self.check_sample:
            self.sample.append((sql, params))
        else:
            slot = self.check_rng.randrange(self.reads_seen)
            if slot < self.check_sample:
                self.sample[slot] = (sql, params)


def annotate_deploy(
    path: str, scale: Scale, preload: list[Statement],
) -> Deployment:
    """Durable open, preload, server start, two sessions logged in."""
    reset_dir(path)
    db = open_durable(path, scale.checkpoint_every)
    add_paper_users(db)
    preload_transaction(db, preload)
    deployment = Deployment(db, BeliefServer(db).start())
    host, port = deployment.server.address
    for uid in ANNOTATE_USERS:
        client = BeliefClient(host, port)
        client.login(user_name(uid))
        deployment.sessions.append(client)
    return deployment


def run_annotate_lookup(
    seed: int, seconds: float, trace: bool, scale: Scale, work: str,
) -> Outcome:
    outcome = Outcome()
    preload = inputs.paper_preload(scale.preload)
    data_dir = os.path.join(work, "data")
    spare_dir = os.path.join(work, "data-spare")
    samples = Samples()
    live = measure(
        lambda: annotate_deploy(data_dir, scale, preload), samples.setup
    )
    try:
        db, server = live.db, live.server

        def between() -> None:
            durable_break(
                live, lambda: annotate_deploy(spare_dir, scale, preload),
                work, samples, outcome,
            )

        clients = [
            AnnotateClient(
                client,
                inputs.AnnotateStream(
                    seed, session, ANNOTATE_USERS[session], preload,
                    scale.write_share, scale.window,
                ),
                random.Random(seed + 101 * session), scale.check_sample,
            )
            for session, client in enumerate(live.sessions)
        ]
        run_timed(outcome, clients, seconds, trace, db, work,
                  ("read", "write"), between)
        # Lookup sample: the server's answer on the final state must equal
        # the naive evaluator's.
        version = db.pin_version()
        try:
            checker = clients[0]
            for sql, params in (s for c in clients for s in c.sample):
                got = _rows(checker.client.drain(
                    checker.client.execute_prepared(checker.handle(sql), params)
                ))
                want = naive_rows(db, version, sql, params)
                if got != want:
                    outcome.problems.append(
                        f"lookup {sql} {params}: server {got} != naive {want}"
                    )
            outcome.meta["lookups_checked"] = sum(
                len(c.sample) for c in clients
            )
        finally:
            db.release_version(version)
        outcome.meta["wal_tail_at_close"] = (
            db.durability.records_since_checkpoint)
        outcome.meta["codecs"] = negotiated_codecs(db)
        outcome.metrics["rows_per_annotation"] = (
            db.relative_overhead(), "rows")
        background_failures(db, server, outcome)
        final_state = explicit_state(db)
        present = set().union(*(c.present for c in clients))
        retracted = set().union(*(c.retracted for c in clients))
        outcome.meta["acknowledged_writes"] = len(present) + 2 * len(retracted)
    finally:
        live.close()

    def check(recovered: BeliefDBMS) -> None:
        state = explicit_state(recovered)
        found = {
            Statement(st.path, tuple(st.tuple.values), str(st.sign))
            for st in state
        }
        missing = present - found
        if missing:
            outcome.problems.append(
                f"{len(missing)} acknowledged annotations missing after "
                f"reopen, e.g. {min(missing, key=repr)}"
            )
        back = retracted & found
        if back:
            outcome.problems.append(
                f"{len(back)} acknowledged retractions undone after reopen, "
                f"e.g. {min(back, key=repr)}"
            )
        if state != final_state:
            outcome.problems.append(
                "reopened state differs from the state before close"
            )

    outcome.meta["reopen_after_close_s"] = reopen(
        data_dir, scale.checkpoint_every, check)
    outcome.meta.update(
        preload=scale.preload, checkpoint_every=scale.checkpoint_every,
        write_share=scale.write_share, window=scale.window, sessions=2,
    )
    return finish(outcome, samples)


# -------------------------------------------------------- belief-analytics


class AnalyticsClient(Client):
    """Rounds of the seven Table 2 queries plus a burst of point lookups,
    all on one embedded database that nothing writes to."""

    def __init__(
        self, db: BeliefDBMS, version: Any, seed: int,
        preload: list[Statement], scale: Scale,
    ) -> None:
        super().__init__()
        self.db = db
        self.version = version
        self.queries = list(paper_queries().items())
        self.expected: dict[str, Any] = {}
        self.conn = connect(db, user=user_name(1), create=False)
        self.cursor = self.conn.cursor()
        self.rng = random.Random(seed * 31 + 7)
        self.keys = sorted({s.values[0] for s in preload})
        self.lookups_per_round = scale.lookups_per_round
        self.position = 0
        self.check_sample = scale.check_sample
        self.sample: list[tuple[str, tuple, list]] = []
        self.mismatches: list[str] = []

    def step(self) -> None:
        round_len = len(self.queries) + self.lookups_per_round
        index = self.position % round_len
        self.position += 1
        if index < len(self.queries):
            name, query = self.queries[index]
            # Each query starts from the same collector state, as the
            # durable workloads' Table 2 rounds do, instead of paying for
            # whichever full collection the lookups left due.
            gc.collect()
            answer = self.timed(
                name, lambda: self.db.query(query, version=self.version)
            )
            first = self.expected.setdefault(name, answer)
            if answer != first:
                self.mismatches.append(f"{name} answer changed between rounds")
            return
        rng = self.rng
        depth = rng.choice((0, 1, 2))
        sql = lookup_sql(depth)
        params = (*inputs.random_path(rng, depth), rng.choice(self.keys))
        result = self.timed(
            "read", lambda: self.cursor.execute(sql, params).rows
        )
        if len(self.sample) < self.check_sample and rng.random() < 0.05:
            self.sample.append((sql, params, _rows(result)))


def analytics_deploy(
    preload: list[Statement], write_samples: list[float],
) -> Deployment:
    """An ephemeral BDMS loaded statement by statement; each insert's
    latency is a write sample."""
    db = BeliefDBMS(experiment_schema())
    add_paper_users(db)
    for s in preload:
        start = time.perf_counter()
        db.insert(s.path, RELATION, s.values, s.sign)
        write_samples.append(time.perf_counter() - start)
    return Deployment(db)


def run_belief_analytics(
    seed: int, seconds: float, trace: bool, scale: Scale, work: str,
) -> Outcome:
    outcome = Outcome()
    preload = inputs.paper_preload(scale.preload)
    samples = Samples()
    write_samples: list[float] = []
    live = measure(
        lambda: analytics_deploy(preload, write_samples), samples.setup
    )
    db = live.db
    version = db.pin_version()
    try:
        # A cold start of this database from disk: snapshot only, no WAL.
        # Nothing writes to the database, so one snapshot serves the run.
        data_dir = reset_dir(os.path.join(work, "data"))
        snapshot_dir = os.path.join(data_dir, "snapshots")
        os.makedirs(snapshot_dir)
        snapshot_files.write_snapshot(
            snapshot_dir, snapshot_files.build_snapshot(db, 0)
        )
        client = AnalyticsClient(db, version, seed, preload, scale)

        breaks = 0

        def between() -> None:
            nonlocal breaks
            with live_frozen(thaw=False):
                if breaks % ANALYTICS_SETUP_EVERY == 0:
                    measure(
                        lambda: analytics_deploy(preload, write_samples),
                        samples.setup,
                    ).close()
                for _ in range(REOPENS):
                    samples.recovery.append(reopen(data_dir, 0))
            breaks += 1

        freeze_live()
        run_timed(outcome, [client], seconds, trace, db, work, ("read",),
                  between)
        gc.unfreeze()
        samples.table2 = {
            name: s
            for name, s in client.samples.get(measured_phase(trace), {}).items()
            if name != "read"
        }
        outcome.problems.extend(client.mismatches)
        store = version.store
        for name, query in client.queries:
            want = evaluate_naive(store.explicit_db, query, users=store.users())
            if client.expected.get(name) != want:
                outcome.problems.append(
                    f"Table 2 {name}: engine answer differs from the naive "
                    "evaluator"
                )
        for sql, params, got in client.sample:
            want = naive_rows(db, version, sql, params)
            if got != want:
                outcome.problems.append(
                    f"lookup {sql} {params}: engine {got} != naive {want}"
                )
        outcome.meta["lookups_checked"] = len(client.sample)
        outcome.metrics["rows_per_annotation"] = (
            db.relative_overhead(), "rows")
        background_failures(db, None, outcome)
        client.conn.close()
        final_state = explicit_state(db)
    finally:
        db.release_version(version)
        live.close()

    def check(recovered: BeliefDBMS) -> None:
        if explicit_state(recovered) != final_state:
            outcome.problems.append(
                "database reopened from its snapshot differs"
            )

    outcome.meta["reopen_after_close_s"] = reopen(data_dir, 0, check)
    # The embedded database takes writes only while it loads.
    latency_metrics(outcome, "write", write_samples)
    outcome.meta.update(preload=scale.preload, wal_sync=None)
    return finish(outcome, samples)


# -------------------------------------------------------- curation-durable


class CurationClient(Client):
    """One curator: walks its own beliefs through the lifecycle, reads the
    review queue, sweeps decay, and races the other curator on shared
    beliefs with compare-and-swap transitions."""

    def __init__(
        self, index: int, client: BeliefClient, user: str, seed: int,
        owned: list[str], race_pool: list[str], race_every: int,
        races: dict[int, list[bool]],
    ) -> None:
        super().__init__()
        self.index = index
        self.client = client
        self.user = user
        self.rng = random.Random(seed * 131 + index)
        self.status = {belief: PROPOSED for belief in owned}
        self.live = list(owned)
        self.race_pool = race_pool
        self.race_every = race_every
        #: race number -> each racer's outcome (True = won the CAS)
        self.races = races
        self.steps = 0
        self.raced = 0
        self.created = 0
        self.proposed = 0
        self.transitions = 0
        self.sweeps = 0

    def _write(self, call: Callable[[], Any]) -> Any:
        return self.timed("write", call)

    def step(self) -> None:
        self.steps += 1
        if self.steps % self.race_every == 0:
            self._race()
            return
        roll = self.rng.random()
        if roll < 0.3:
            self._read()
        elif roll < 0.32 and self.index == 0:
            self._sweep()
        elif not self.live:
            self._new_belief()
        else:
            self._walk()

    def _sweep(self) -> None:
        self._write(self.client.lifecycle_decay_sweep)
        self.sweeps += 1

    def _read(self) -> None:
        rng = self.rng
        if rng.random() < 0.67:
            belief = rng.choice(self.live or self.race_pool)
            view = self.timed(
                "read", lambda: self.client.lifecycle_get(belief)
            )
            if belief in self.status and view["status"] != self.status[belief]:
                raise AssertionError(
                    f"{belief} is {view['status']}, expected "
                    f"{self.status[belief]}"
                )
        else:
            self.timed("read", lambda: self.client.lifecycle_queue(
                status=CHALLENGED, limit=20
            ))

    def _walk(self) -> None:
        rng = self.rng
        belief = rng.choice(self.live)
        current = self.status[belief]
        if current == CHALLENGED:
            target = ACTIVE if rng.random() < 0.85 else DEPRECATED
        else:
            (target,) = TRANSITIONS[current]
        self._write(lambda: self.client.lifecycle_transition(
            belief, target, expect=current, actor=self.user,
        ))
        self.transitions += 1
        self.status[belief] = target
        if target == ARCHIVED:
            self.live.remove(belief)
            self._new_belief()

    def _new_belief(self) -> None:
        """Report a fresh sighting and propose it (two writes)."""
        rng = self.rng
        key = f"c{self.index}-{self.created}"
        self.created += 1
        values = inputs.fresh_sighting(rng, key, self.user)
        self._write(lambda: self.client.insert(
            RELATION, values, path=[self.user]
        ))
        view = self._write(lambda: self.client.lifecycle_propose(
            RELATION, values, path=[self.user], actor=self.user,
            confidence=round(0.5 + rng.random() / 2, 3),
            decay="exponential:1800" if self.created % 2 else "none",
        ))
        self.proposed += 1
        self.status[view["belief"]] = PROPOSED
        self.live.append(view["belief"])

    def _race(self) -> None:
        assert self.control is not None
        if not self.control.rendezvous():
            return
        race = self.raced
        self.raced += 1
        belief = self.race_pool[race % len(self.race_pool)]
        try:
            self._write(lambda: self.client.lifecycle_transition(
                belief, CHALLENGED, expect=ACTIVE, actor=self.user,
                reason=f"{self.user} disputes this",
            ))
            won = True
        except LifecycleConflictError:
            won = False
        self.races.setdefault(race, []).append(won)
        if won:
            self.transitions += 1
        # Resolve only once both attempts are in, so the race stays one race.
        if not self.control.rendezvous():
            return
        if won:
            self._write(lambda: self.client.lifecycle_transition(
                belief, ACTIVE, expect=CHALLENGED, actor=self.user,
                reason="race resolved",
            ))
            self.transitions += 1


def curation_deploy(path: str, scale: Scale) -> Deployment:
    """Durable open, the seeded beliefs (inserted in one transaction, each
    proposed; the shared race pool also accepted, the curators' own ones
    left PROPOSED for the run to walk), server start, two curator
    sessions. The seeded beliefs come from the fixed dataset seed, like the
    paper preload; the run seed drives only the curators' streams."""
    reset_dir(path)
    db = open_durable(path, scale.checkpoint_every)
    for name in CURATORS:
        db.add_user(name)
    rng = random.Random(inputs.DATASET_SEED)
    sightings = [
        (CURATORS[i % len(CURATORS)],
         inputs.fresh_sighting(rng, f"cs{i}", CURATORS[i % len(CURATORS)]))
        for i in range(scale.preload)
    ]
    with connect(db) as conn, conn.transaction():
        cur = conn.cursor()
        for curator, values in sightings:
            cur.execute(insert_sql(1, "+"), (curator, *values))
    beliefs: list[str] = []
    for i, (curator, values) in enumerate(sightings):
        derived = [CURATORS[(i + 1) % len(CURATORS)]]
        if i % 3 == 2:
            derived.append(beliefs[-1])
        view = db.lifecycle_propose(
            (curator,), RELATION, values, actor=curator,
            confidence=round(0.5 + rng.random() / 2, 3),
            decay="exponential:1800" if i % 2 else "none",
            derived_from=derived,
        )
        beliefs.append(view["belief"])
    race_pool = beliefs[: race_pool_size(scale)]
    for i, belief in enumerate(race_pool):
        db.lifecycle_transition(
            belief, ACTIVE, expect=PROPOSED, actor=CURATORS[i % 4]
        )
    deployment = Deployment(db, BeliefServer(db).start(), beliefs=beliefs)
    host, port = deployment.server.address
    for name in SESSION_CURATORS:
        client = BeliefClient(host, port)
        client.login(name)
        deployment.sessions.append(client)
    return deployment


def race_pool_size(scale: Scale) -> int:
    return max(2, scale.preload // 10)


def check_audit(
    audit: list[dict[str, Any]], expected: int, outcome: Outcome,
) -> None:
    """The audit log counts every change and each history is a legal walk."""
    if len(audit) != expected:
        outcome.problems.append(
            f"audit_events {len(audit)} != proposed + transitions + sweeps "
            f"{expected}"
        )
    status: dict[str, str] = {}
    for event in audit:
        belief, action = event.get("belief"), event["action"]
        if action == "propose":
            if belief in status:
                outcome.problems.append(f"{belief} proposed twice")
            status[belief] = event["to"]
        elif action == "transition":
            before = status.get(belief)
            if before != event["from"] or event["to"] not in TRANSITIONS.get(
                before or "", frozenset()
            ):
                outcome.problems.append(
                    f"illegal audit step for {belief}: {before} -> "
                    f"{event['from']} -> {event['to']}"
                )
                return
            status[belief] = event["to"]


def run_curation_durable(
    seed: int, seconds: float, trace: bool, scale: Scale, work: str,
) -> Outcome:
    outcome = Outcome()
    data_dir = os.path.join(work, "data")
    spare_dir = os.path.join(work, "data-spare")
    samples = Samples()
    live = measure(lambda: curation_deploy(data_dir, scale), samples.setup)
    try:
        db, server = live.db, live.server

        def between() -> None:
            durable_break(
                live, lambda: curation_deploy(spare_dir, scale), work,
                samples, outcome,
            )

        beliefs = live.beliefs
        race_pool = beliefs[: race_pool_size(scale)]
        walk = beliefs[len(race_pool):]
        races: dict[int, list[bool]] = {}
        clients = [
            CurationClient(
                i, live.sessions[i], SESSION_CURATORS[i], seed, walk[i::2],
                race_pool, scale.race_every, races,
            )
            for i in range(2)
        ]
        run_timed(outcome, clients, seconds, trace, db, work,
                  ("read", "write"), between)
        attempts = sum(len(v) for v in races.values())
        wins = sum(sum(v) for v in races.values())
        bad = {r: v for r, v in races.items() if sorted(v) != [False, True]}
        if bad:
            outcome.problems.append(
                f"{len(bad)} races without exactly one winner of two, "
                f"e.g. race {min(bad)}: {bad[min(bad)]}"
            )
        outcome.meta.update(
            races=len(races), cas_attempts=attempts,
            cas_win_ratio=wins / attempts if attempts else 0.0,
        )
        if trace:
            outcome.layers["lifecycle.cas_win_ratio"] = (
                outcome.meta["cas_win_ratio"], "ratio")
        outcome.meta["codecs"] = negotiated_codecs(db)
        outcome.meta["wal_tail_at_close"] = (
            db.durability.records_since_checkpoint)
        background_failures(db, server, outcome)
        audit = db.audit_log()
        # Set-up proposed every seeded belief and accepted the race pool.
        expected = len(beliefs) + len(race_pool) + sum(
            c.proposed + c.transitions + c.sweeps for c in clients
        )
        check_audit(audit, expected, outcome)
        outcome.meta["audit_events"] = len(audit)
        outcome.metrics["rows_per_annotation"] = (
            db.relative_overhead(), "rows")
    finally:
        live.close()

    def check(recovered: BeliefDBMS) -> None:
        if recovered.audit_log() != audit:
            outcome.problems.append(
                "recovered audit log differs from the one before close"
            )

    outcome.meta["reopen_after_close_s"] = reopen(
        data_dir, scale.checkpoint_every, check)
    outcome.meta.update(
        preload=scale.preload, checkpoint_every=scale.checkpoint_every,
        race_every=scale.race_every, sessions=2,
    )
    return finish(outcome, samples)


WORKLOADS: dict[str, Callable[..., Outcome]] = {
    "annotate-lookup": run_annotate_lookup,
    "belief-analytics": run_belief_analytics,
    "curation-durable": run_curation_durable,
}
