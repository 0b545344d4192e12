"""Seeded inputs for the workloads.

Everything here is a pure function of the seed: the same seed gives the same
preload and the same operation streams. The program under test only ever
sees the generated statements and parameters.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from repro.core.schema import experiment_schema
from repro.storage.store import BeliefStore
from repro.storage.updates import insert_statement
from repro.workload.generator import (
    LOCATIONS,
    SPECIES,
    AnnotationGenerator,
    WorkloadConfig,
)

RELATION = "Sightings"

#: The paper's Table 2 database: 10 users, Zipf participation, depth
#: distribution (.5, .35, .15) over depths 0..2.
PAPER_USERS = 10
PAPER_DEPTHS = (0.5, 0.35, 0.15)

#: The preloaded database is the same on every run: at these sizes the
#: generator's world count, and with it |R*|/n and every query time, varies
#: by 15-25% from seed to seed, which would swamp the run-to-run noise the
#: benchmark must resolve. The run seed drives the operation streams.
DATASET_SEED = 1


@dataclass(frozen=True)
class Statement:
    """One explicit belief statement as plain data."""

    path: tuple[int, ...]
    values: tuple
    sign: str  # "+" or "-"


def paper_preload(n: int, seed: int = DATASET_SEED) -> list[Statement]:
    """``n`` accepted annotations from the paper's generator, in load order.

    The generator regenerates statements the store rejects, so the list is
    exactly what loading it statement by statement accepts.
    """
    config = WorkloadConfig(
        n_annotations=n,
        n_users=PAPER_USERS,
        depth_distribution=PAPER_DEPTHS,
        participation="zipf",
        seed=seed,
    )
    store = BeliefStore(experiment_schema())
    generator = AnnotationGenerator(config, store.schema)
    for uid in generator.users:
        store.add_user(name=user_name(uid), uid=uid)
    accepted: list[Statement] = []
    stream = iter(generator)
    while len(accepted) < n:
        stmt = next(stream)
        if insert_statement(store, stmt):
            accepted.append(
                Statement(stmt.path, tuple(stmt.tuple.values), str(stmt.sign))
            )
    return accepted


def user_name(uid: int) -> str:
    return f"user{uid}"


def insert_sql(depth: int, sign: str) -> str:
    """The prepared insert for one statement shape (path length, sign)."""
    beliefs = "BELIEF ? " * depth
    negation = "NOT " if sign == "-" else ""
    return (
        f"insert into {beliefs}{negation}{RELATION} values (?,?,?,?,?)"
    )


def retract_sql(depth: int, sign: str) -> str:
    """The prepared delete of exactly one explicit statement."""
    beliefs = "BELIEF ? " * depth
    negation = "NOT " if sign == "-" else ""
    return (
        f"delete from {beliefs}{negation}{RELATION} where sid = ? and "
        "uid = ? and species = ? and date = ? and location = ?"
    )


def lookup_sql(depth: int) -> str:
    """Prepared point lookup by sighting key in the world at a path."""
    beliefs = "BELIEF ? " * depth
    return (
        "select S.sid, S.uid, S.species, S.date, S.location "
        f"from {beliefs}{RELATION} as S where S.sid = ?"
    )


def random_path(
    rng: random.Random, depth: int, first: int | None = None
) -> tuple[int, ...]:
    """A belief path of ``depth`` paper users, no user twice in a row."""
    path: list[int] = [] if first is None else [first]
    while len(path) < depth:
        uid = rng.randrange(1, PAPER_USERS + 1)
        if not path or path[-1] != uid:
            path.append(uid)
    return tuple(path)


def fresh_sighting(rng: random.Random, key: str, reporter: int) -> tuple:
    return (
        key, reporter, rng.choice(SPECIES),
        f"{rng.randrange(1, 13)}-{rng.randrange(1, 29)}-08",
        rng.choice(LOCATIONS),
    )


class AnnotateStream:
    """One curator's operation stream for ``annotate-lookup``.

    About ``write_share`` of the operations are single-row annotations: half
    fresh sightings believed at depth 1 or 2, half disputes (negative
    beliefs) of preloaded tuples. The rest are point lookups at depth 0-2.
    Once ``window`` of a curator's annotations are live, each further write
    retracts the oldest one instead, so the database stays the same size and
    a run measures the same work from start to end however fast it goes.
    Writes are chosen so that none can be rejected: fresh sightings use new
    keys, and a dispute targets a (path, tuple) with no explicit statement
    of either sign, never twice.
    """

    def __init__(
        self,
        seed: int,
        session: int,
        uid: int,
        preload: list[Statement],
        write_share: float,
        window: int,
    ) -> None:
        self.rng = random.Random(seed * 7919 + session)
        self.session = session
        self.uid = uid
        self.write_share = write_share
        self.window = window
        self.live: deque[Statement] = deque()
        self.keys = sorted({s.values[0] for s in preload})
        self.tuples = sorted({s.values for s in preload}, key=repr)
        self.explicit = {(s.path, s.values) for s in preload}
        self.disputed: set[tuple] = set()
        self.written_keys: list[str] = []
        self.counter = 0

    def next(self) -> tuple[str, str, tuple, Statement | None]:
        """``(kind, sql, params, effect)``: kind is ``"read"``, ``"write"``
        (``effect`` is the statement added) or ``"retract"`` (``effect`` is
        the statement removed; it counts as a write)."""
        rng = self.rng
        if rng.random() < self.write_share:
            if len(self.live) >= self.window:
                gone = self.live.popleft()
                return ("retract", retract_sql(len(gone.path), gone.sign),
                        (*gone.path, *gone.values), gone)
            kind, sql, params = (
                self._fresh() if rng.random() < 0.5 else self._dispute()
            )
            depth = len(params) - 5
            added = Statement(
                tuple(params[:depth]), tuple(params[depth:]),
                "-" if " NOT " in sql else "+",
            )
            self.live.append(added)
            return kind, sql, params, added
        depth = rng.choice((0, 1, 2))
        if self.written_keys and rng.random() < 0.2:
            key = rng.choice(self.written_keys)
        else:
            key = rng.choice(self.keys)
        return "read", lookup_sql(depth), (*random_path(rng, depth), key), None

    def _fresh(self) -> tuple[str, str, tuple]:
        depth = self.rng.choice((1, 2))
        path = random_path(self.rng, depth, first=self.uid)
        key = f"w{self.session}-{self.counter}"
        self.counter += 1
        self.written_keys.append(key)
        values = fresh_sighting(self.rng, key, self.uid)
        return "write", insert_sql(depth, "+"), (*path, *values)

    def _dispute(self) -> tuple[str, str, tuple]:
        rng = self.rng
        while True:
            depth = rng.choice((1, 2))
            path = random_path(rng, depth, first=self.uid)
            values = rng.choice(self.tuples)
            target = (path, values)
            if target in self.explicit or target in self.disputed:
                continue
            self.disputed.add(target)
            return "write", insert_sql(depth, "-"), (*path, *values)
