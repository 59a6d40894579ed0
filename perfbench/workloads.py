"""The three workloads: set-up, one measured pass, and the oracles.

Every workload is built from its seed alone.  ``setup()`` generates the
inputs and the starting state; ``run(state, operation)`` drives one
pass through the program, wrapping each top-level call in
``with operation(name):`` so the runner can time it (and, in the traced
run, open a root span around it); the pass then checks its answers
outside any timed region and returns an :class:`Outcome`.

Why these three, with their sizes, is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import random
import shutil
import statistics
import traceback
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Callable

from repro.adapter import install_genomics
from repro.db import Database, recovery
from repro.db.values import NULL
from repro.db.storage import build_image, restore_image
from repro.federation.replication import FollowerNode, disk_shipments
from repro.lang.biql import BiqlSession
from repro.sources import (
    AceRepository,
    EmblRepository,
    GenBankRepository,
    RelationalRepository,
    SwissProtRepository,
    Universe,
    VirtualClock,
)
from repro.warehouse import UnifyingDatabase
from repro.workload import simulator
from repro.workload.generator import day_in_the_life

Operation = Callable[[str], Any]


@dataclass
class Outcome:
    """What one pass did, as the runner needs it."""

    #: Top-level operations attempted and how many failed an oracle.
    attempted: int
    failed: int
    #: Same seed, same pass: a pass whose signature differs from the
    #: first pass's did different work and counts as failed.
    signature: Any
    #: What the workload's own named metrics read.
    work: dict = field(default_factory=dict)
    #: Layer counts the program keeps outside the metrics registry.
    extra: dict = field(default_factory=dict)


def percentile(values: list, quantile: float) -> float:
    """Nearest-rank percentile (the same rule as ``repro.serving``)."""
    ordered = sorted(values)
    index = min(len(ordered) - 1,
                max(0, math.ceil(quantile * len(ordered)) - 1))
    return ordered[index]


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def in_child(compute: Callable[[], Any]) -> Any:
    """Return ``compute()``, computed in a forked child process.

    What only the benchmark needs (reference answers and the copies
    they are computed on) is built there, so its memory stays out of
    this process's ``peak_rss_mb``.  The parent waits for the child."""
    reader, writer = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(reader)
            with os.fdopen(writer, "wb") as out:
                pickle.dump(compute(), out)
        except BaseException:
            traceback.print_exc()
            os._exit(1)
        os._exit(0)
    os.close(writer)
    with os.fdopen(reader, "rb") as incoming:
        data = incoming.read()
    __, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError("the child process computing reference "
                           "answers failed")
    return pickle.loads(data)


def _all_sources(universe: Universe) -> list:
    return [GenBankRepository(universe), EmblRepository(universe),
            SwissProtRepository(universe), AceRepository(universe),
            RelationalRepository(universe)]


def _file_bytes(directory: str, prefix: str) -> int:
    return sum(os.path.getsize(os.path.join(directory, name))
               for name in os.listdir(directory) if name.startswith(prefix))


class _Workload:
    name = ""
    #: True when a pass consumes its state, so every pass sets up anew.
    setup_per_pass = False
    #: The sample names whose median is ``op_p50_ms``, and what they are.
    ops: tuple = ()
    op_label = ""

    def __init__(self, seed: int, workdir: str, scale: float = 1.0) -> None:
        self.seed = seed
        self.workdir = workdir
        self.scale = scale
        self._dirs = 0

    def _scaled(self, value: int, floor: int = 2) -> int:
        return max(floor, int(round(value * self.scale)))

    def _fresh_dir(self) -> str:
        self._dirs += 1
        path = os.path.join(self.workdir, f"{self.name}-{self._dirs}")
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


# -- etl_refresh ---------------------------------------------------------------

@dataclass
class _EtlState:
    directory: str
    sources: list
    warehouse: UnifyingDatabase
    wal_path: str
    image_path: str


class EtlRefresh(_Workload):
    """The write path: initial load, refresh rounds, recovery, catch-up."""

    name = "etl_refresh"
    setup_per_pass = True
    ops = ("refresh",)
    op_label = "refresh rounds"
    GENES = 64
    ROUNDS = 30
    #: Source mutations per source per round.
    STEPS = 2
    #: Flush policy: group commit of this many statements, no fsync.
    GROUP_COMMIT = 32

    def __init__(self, seed: int, workdir: str, scale: float = 1.0) -> None:
        super().__init__(seed, workdir, scale)
        self.genes = self._scaled(self.GENES, 10)
        self.rounds = self._scaled(self.ROUNDS)

    def sizes(self) -> dict:
        return {"genes": self.genes, "rounds_per_pass": self.rounds,
                "steps_per_source_per_round": self.STEPS, "sources": 5,
                "flush_policy": f"group commit {self.GROUP_COMMIT}, "
                                f"fsync off"}

    def setup(self) -> _EtlState:
        directory = self._fresh_dir()
        sources = _all_sources(Universe(seed=self.seed, size=self.genes))
        warehouse = UnifyingDatabase(sources)
        wal_path = os.path.join(directory, "wal.jsonl")
        image_path = os.path.join(directory, "image.json")
        warehouse.attach_wal(wal_path, flush_every_n=self.GROUP_COMMIT,
                             fsync=False)
        warehouse.checkpoint(image_path)
        return _EtlState(directory, sources, warehouse, wal_path,
                         image_path)

    def run(self, state: _EtlState, operation: Operation) -> Outcome:
        warehouse = state.warehouse
        with operation("initial_load"):
            report = warehouse.initial_load()
        integrated = report.deltas_processed
        for __ in range(self.rounds):
            for source in state.sources:
                source.advance(self.STEPS)
            with operation("refresh"):
                report = warehouse.refresh()
            integrated += report.deltas_processed
        warehouse.wal.flush()

        target = Database()
        install_genomics(target)
        with operation("recover"):
            recovered, replay = recovery.recover(
                state.image_path, state.wal_path, database=target)
        follower = FollowerNode(
            "replica", os.path.join(state.directory, "replica"),
            UnifyingDatabase([]).db, timeline=VirtualClock())
        with operation("catch_up"):
            applied = sum(follower.apply_shipment(shipment)
                          for shipment in disk_shipments(state.wal_path))

        failed = 0
        if not recovery.databases_equal(recovered, warehouse.db):
            failed += 1
        if (applied != replay.statements_applied
                or not recovery.databases_equal(follower.database,
                                                warehouse.db)):
            failed += 1
        wal_bytes = _file_bytes(state.directory, "wal.jsonl")
        warehouse.wal.close()
        shutil.rmtree(state.directory, ignore_errors=True)
        return Outcome(
            attempted=self.rounds + 3, failed=failed,
            signature=(integrated, replay.statements_applied),
            extra={"wal_bytes": wal_bytes})

    def summarize(self, samples, outcomes: list) -> list:
        """(metric, value, unit, note): the workload's own named
        metrics, printed but not in BENCHMARK.json."""
        rounds = samples("refresh")
        return [
            ("load_s", _median(samples("initial_load")), "s",
             f"median of {len(samples('initial_load'))}"),
            ("refresh_p50_ms", 1000 * _median(rounds), "ms",
             f"n={len(rounds)}"),
            ("refresh_p90_ms", 1000 * percentile(rounds, 0.90), "ms",
             f"n={len(rounds)}"),
            ("recover_s", _median(samples("recover")), "s",
             f"median of {len(samples('recover'))}"),
            ("catchup_s", _median(samples("catch_up")), "s",
             f"median of {len(samples('catch_up'))}"),
        ]


# -- biql_query ----------------------------------------------------------------

#: Statement kinds and how many of each one pass runs (at scale 1); each
#: kind is also the name its statements are timed under.  The counts are
#: fixed so that every seed runs the same mix — only the parameters
#: (motifs, organisms, ranges) and the data come from the seed.  Motif
#: lookups through the k-mer index are the common case and sit in the
#: middle of the latency order, so the median statement is one of them
#: rather than a boundary between two kinds.
MIX = (
    ("between", 24), ("sorted", 18), ("contains", 36),
    ("column_range", 10), ("column_aggregate", 8), ("column_contains", 8),
    ("column_sort", 6), ("organism", 6), ("resembles", 4),
)

_COLUMN_DDL = ("CREATE TABLE genes (accession TEXT, organism TEXT, "
               "sequence DNA, length INTEGER, gc REAL)")


@dataclass(frozen=True)
class Statement:
    kind: str
    #: ``biql`` statements run through ``BiqlSession.run``; ``sql``
    #: statements through ``Database.query`` on the column copy.
    language: str
    text: str
    parameters: tuple = ()
    #: Position of the sort key when the answer is ordered.
    key: "int | None" = None


@dataclass
class _BiqlState:
    session: BiqlSession
    column: Database
    statements: list
    expected: list


def _close(value: Any, other: Any) -> bool:
    if isinstance(value, float) and isinstance(other, float):
        # Vectorized and row-at-a-time aggregates sum in different
        # orders; float64 keeps them within this relative distance.
        return math.isclose(value, other, rel_tol=1e-9, abs_tol=1e-12)
    return value == other


def _rows_close(first: tuple, second: tuple) -> bool:
    return len(first) == len(second) and all(
        _close(a, b) for a, b in zip(first, second))


def _multiset_equal(got: list, want: list) -> bool:
    if len(got) != len(want):
        return False
    remaining = list(want)
    for row in got:
        for index, candidate in enumerate(remaining):
            if _rows_close(row, candidate):
                del remaining[index]
                break
        else:
            return False
    return True


def same_answer(got: list, want: list, key: "int | None") -> bool:
    """Answer equality: as multisets, or, for ordered answers, the same
    key sequence with the same rows under each key.  Rows that tie on the
    key may come in any order, and a LIMIT may cut the last tie anywhere,
    so the rows under the last key need only agree on the key."""
    if key is None:
        return _multiset_equal(got, want)
    if len(got) != len(want) or not all(
            _close(a[key], b[key]) for a, b in zip(got, want)):
        return False
    start = 0
    for end in range(1, len(want)):
        if want[end][key] != want[start][key]:
            if not _multiset_equal(got[start:end], want[start:end]):
                return False
            start = end
    return True


class BiqlQuery(_Workload):
    """The read path: a seeded BiQL/SQL statement mix over the warehouse
    and an out-of-core column copy of ``public_genes``."""

    name = "biql_query"
    ops = tuple(kind for kind, __ in MIX)
    op_label = "statements"
    GENES = 150
    #: Column copy: rows per page group and the page-cache budget.
    PAGE_ROWS = 8
    MEMORY_BUDGET = 4096

    def __init__(self, seed: int, workdir: str, scale: float = 1.0) -> None:
        super().__init__(seed, workdir, scale)
        self.genes = self._scaled(self.GENES, 10)
        self.mix = [(kind, self._scaled(count, 1)) for kind, count in MIX]
        self.column_bytes = 0

    def sizes(self) -> dict:
        return {"genes": self.genes,
                "statements_per_pass": sum(count for __, count in self.mix),
                "page_rows": self.PAGE_ROWS,
                "memory_budget_bytes": self.MEMORY_BUDGET,
                "column_page_bytes": self.column_bytes}

    def _column_copy(self, rows: list, *, optimize: bool = True,
                     layout: str = "column",
                     budget: "int | None" = None) -> Database:
        database = Database(optimize=optimize, layout=layout,
                            memory_budget=budget, page_rows=self.PAGE_ROWS)
        install_genomics(database)
        database.execute(_COLUMN_DDL)
        for row in rows:
            database.execute("INSERT INTO genes VALUES (?, ?, ?, ?, ?)", row)
        return database

    def setup(self) -> _BiqlState:
        warehouse = UnifyingDatabase(
            _all_sources(Universe(seed=self.seed, size=self.genes)))
        warehouse.initial_load()
        rows = warehouse.query(
            "SELECT accession, organism, sequence, length, gc "
            "FROM public_genes ORDER BY length, accession").rows
        statements = self._generate(rows)
        session = BiqlSession(warehouse)
        self.column_bytes, expected = in_child(
            lambda: self._references(warehouse, session, rows, statements))
        column = self._column_copy(rows, budget=self.MEMORY_BUDGET)
        return _BiqlState(session, column, statements, expected)

    def _references(self, warehouse: UnifyingDatabase,
                    session: BiqlSession, rows: list,
                    statements: list) -> tuple[int, list]:
        """The table's encoded size and the reference answers.

        Without a budget every encoded page stays resident: that is the
        table's size against MEMORY_BUDGET.  The answers come from the
        same text through the naive (optimize=False) row engine: the
        warehouse's image for BiQL, a row-layout copy of the column
        table for SQL."""
        unbounded = self._column_copy(rows)
        column_bytes = unbounded.columnar.cache.resident_bytes
        unbounded.columnar.close()
        reference_warehouse = Database(optimize=False)
        install_genomics(reference_warehouse)
        restore_image(build_image(warehouse.db), reference_warehouse)
        reference_column = self._column_copy(rows, optimize=False,
                                             layout="row")
        expected = []
        for statement in statements:
            if statement.language == "biql":
                sql, parameters = session.compile(statement.text)
                expected.append(
                    reference_warehouse.query(sql, parameters).rows)
            else:
                expected.append(reference_column.query(
                    statement.text, statement.parameters).rows)
        return column_bytes, expected

    def _generate(self, rows: list) -> list[Statement]:
        rng = random.Random(f"perfbench-biql-{self.seed}")
        texts = [str(row[2]) for row in rows
                 if row[2] is not NULL and len(str(row[2])) >= 40]
        organisms = sorted({row[1] for row in rows})
        lengths = sorted(row[3] for row in rows)
        kinds = [kind for kind, count in self.mix for __ in range(count)]
        rng.shuffle(kinds)
        # Parameters that decide how many rows a statement touches are
        # drawn one per stratum of the data, so every seed's pass does
        # about the same amount of work: each organism comes up in turn,
        # and length bounds fall one in each equal slice of the rows.
        organism_order = rng.sample(organisms, len(organisms))
        strata = {}
        for kind, count in self.mix:
            fractions = [(index + rng.random()) / count
                         for index in range(count)]
            rng.shuffle(fractions)
            strata[kind] = iter(fractions)

        def motif(size: int) -> str:
            text = rng.choice(texts)
            start = rng.randrange(len(text) - size)
            return text[start:start + size]

        def length_at(kind: str) -> int:
            return lengths[int(next(strata[kind]) * len(lengths))]

        def length_range(kind: str) -> tuple[int, int]:
            # A slice of about a sixth of the rows, starting in the
            # statement's stratum of the lower five sixths.
            span = max(1, len(lengths) // 6)
            low = int(next(strata[kind]) * (len(lengths) - span))
            return lengths[low], lengths[low + span - 1]

        statements = []
        organism_count = 0
        for kind in kinds:
            if kind == "contains":
                statement = Statement(
                    kind, "biql", f"FIND genes WHERE sequence CONTAINS "
                    f"'{motif(rng.randrange(9, 13))}' SHOW accession")
            elif kind == "organism":
                statement = Statement(
                    kind, "biql", f"FIND genes WHERE organism IS "
                    f"'{organism_order[organism_count % len(organisms)]}' "
                    f"SHOW accession, gc, tm, orfs, protein")
                organism_count += 1
            elif kind == "between":
                low, high = length_range(kind)
                statement = Statement(
                    kind, "biql",
                    f"COUNT genes WHERE length BETWEEN {low} AND {high}")
            elif kind == "resembles":
                statement = Statement(
                    kind, "biql", f"FIND genes WHERE sequence RESEMBLES "
                    f"'{motif(30)}' WITHIN 0.3 SHOW accession")
            elif kind == "sorted":
                statement = Statement(
                    kind, "biql", f"FIND genes WHERE length > "
                    f"{length_at(kind)} SHOW accession, gc "
                    f"SORT BY gc DESC LIMIT 10", key=1)
            elif kind == "column_range":
                statement = Statement(
                    kind, "sql", "SELECT accession, length FROM genes "
                    "WHERE length BETWEEN ? AND ?", length_range(kind))
            elif kind == "column_aggregate":
                statement = Statement(
                    kind, "sql", "SELECT count(*), avg(gc), min(length), "
                    "max(length) FROM genes WHERE length > ?",
                    (length_at(kind),))
            elif kind == "column_contains":
                statement = Statement(
                    kind, "sql", "SELECT count(*) FROM genes WHERE "
                    "sequence IS NOT NULL AND contains(sequence, ?)",
                    (motif(rng.randrange(5, 9)),))
            else:
                statement = Statement(
                    kind, "sql", "SELECT accession, gc FROM genes "
                    "ORDER BY gc DESC, accession", key=1)
            statements.append(statement)
        return statements

    def run(self, state: _BiqlState, operation: Operation) -> Outcome:
        answers = []
        for statement in state.statements:
            if statement.language == "biql":
                with operation(statement.kind):
                    result = state.session.run(statement.text)
            else:
                with operation(statement.kind):
                    result = state.column.query(statement.text,
                                                statement.parameters)
            answers.append(result.rows)
        failed = sum(
            not same_answer(got, want, statement.key)
            for got, want, statement in zip(answers, state.expected,
                                            state.statements))
        return Outcome(attempted=len(state.statements), failed=failed,
                       signature=len(state.statements))

    def summarize(self, samples, outcomes: list) -> list:
        statements = samples(*self.ops)
        return [
            ("query_p50_ms", 1000 * _median(statements), "ms",
             f"n={len(statements)}"),
            ("query_p99_ms", 1000 * percentile(statements, 0.99), "ms",
             f"n={len(statements)}"),
            ("queries_per_s", len(statements) / sum(statements), "1/s",
             f"n={len(statements)}"),
        ] + [(f"  {kind}", 1000 * _median(samples(kind)), "ms p50",
              f"n={len(samples(kind))}") for kind in self.ops]


# -- federation_day ------------------------------------------------------------

def payload_digest(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


@dataclass
class _Day:
    """One macro day, built and generated before it is driven."""

    spec: Any
    directory: str
    federation: Any
    traffic: Any


class FederationDay(_Workload):
    """The whole stack: a batch of macro days, each driven through the
    federation ``build_macro_federation`` stood up at set-up."""

    name = "federation_day"
    #: A day consumes its federation (sources advance, caches fill, the
    #: WAL grows), so every pass builds the days anew.
    setup_per_pass = True
    ops = ("serve",)
    op_label = "passes (serve time per request)"
    PRESET = "quick"
    #: Macro days per pass, each from its own seed (``DAYS * seed + i``),
    #: so one pass spans several universes and traffic draws instead of
    #: hanging on the sizes of one 24-gene universe.
    DAYS = 3

    def __init__(self, seed: int, workdir: str, scale: float = 1.0) -> None:
        super().__init__(seed, workdir, scale)
        specs = [getattr(simulator.MacroSpec, self.PRESET)(
                     self.DAYS * seed + day) for day in range(self.DAYS)]
        if scale < 1.0:
            specs = [replace(spec, users=self._scaled(spec.users, 20),
                             size=self._scaled(spec.size, 12))
                     for spec in specs]
        self.specs = specs
        self.day: dict = {}

    def sizes(self) -> dict:
        spec = self.specs[0]
        return dict({"preset": spec.name, "days_per_pass": self.DAYS,
                     "day_seeds": [spec.seed for spec in self.specs],
                     "shards": spec.shards, "genes": spec.size,
                     "users": spec.users, "epochs": spec.total_epochs,
                     "cache_entries_per_shard": spec.cache_entries},
                    **self.day)

    def setup(self) -> list:
        """Stand up each day's federation (sources, shards, caches,
        loaded warehouse, replica) and generate its open-loop traffic,
        exactly as ``run_macro`` does before it drives the day."""
        days = []
        for spec in self.specs:
            directory = self._fresh_dir()
            federation = simulator.build_macro_federation(spec, directory)
            traffic = day_in_the_life(
                federation.accessions, users=spec.users,
                phases=spec.phases, epoch_length=spec.epoch_length,
                capacity=spec.aggregate_capacity,
                mean_service=spec.mean_service, seed=spec.seed,
                zipf_exponent=spec.zipf_exponent,
                biql_per_epoch=spec.biql_per_epoch)
            days.append(_Day(spec, directory, federation, traffic))
        self.day = {
            "requests": [day.traffic.total_requests for day in days],
            "biql_statements": [day.traffic.total_biql for day in days],
            "distinct_request_keys": [
                len({str(request.params) for epoch in day.traffic.epochs
                     for request in epoch.requests}) for day in days]}
        return days

    def run(self, days: list, operation: Operation) -> Outcome:
        payloads, failed, wal_bytes = [], 0, 0
        serving = [0.0, 0]          # seconds in ``serve``, requests
        for day in days:
            server = day.federation.server
            serve = server.serve

            def timed_serve(requests, serve=serve):
                start = perf_counter()
                try:
                    return serve(requests)
                finally:
                    serving[0] += perf_counter() - start
                    serving[1] += len(requests)

            # The day hands each epoch's traffic to ``server.serve`` as
            # one batch; timing it there gives an operation finer than
            # the day: serving alone, per request.
            server.serve = timed_serve
            with operation("day"):
                # ``run_macro`` minus the set-up above.
                report = simulator._drive(day.spec, day.federation,
                                          day.traffic)
            payload = report.to_payload()
            day.federation.warehouse.wal.close()
            wal_bytes += _file_bytes(day.directory, "warehouse.jsonl")
            shutil.rmtree(day.directory, ignore_errors=True)
            biql = payload["biql"]
            failed += int(not payload["headline"]["replica_converged"]
                          or payload["overall"]["offered"]
                          != day.traffic.total_requests
                          or biql["run"] + biql["refused"]
                          != day.traffic.total_biql)
            payloads.append(payload)
        operation.add("serve", serving[0] / serving[1])
        headlines = [payload["headline"] for payload in payloads]
        columnar = {key: sum(payload["columnar"][key]
                             for payload in payloads)
                    for key in ("pages_read", "pages_skipped",
                                "page_faults", "pages_evicted",
                                "spill_bytes")}
        return Outcome(
            attempted=self.DAYS, failed=failed,
            signature=tuple(payload_digest(payload)
                            for payload in payloads),
            work={"requests": sum(
                      payload["workload"]["requests"]
                      + payload["workload"]["biql_statements"]
                      for payload in payloads),
                  "goodput_virtual": [headline["goodput_ratio"]
                                      for headline in headlines],
                  "p99_virtual_s": [headline["p99_latency"]
                                    for headline in headlines]},
            extra={"wal_bytes": wal_bytes,
                   "shed_ratio_virtual": statistics.fmean(
                       payload["overall"]["shed_rate"]
                       for payload in payloads),
                   "columnar_pages_read": columnar["pages_read"],
                   "columnar_pages_skipped": columnar["pages_skipped"],
                   "columnar_page_faults": columnar["page_faults"],
                   "columnar_pages_evicted": columnar["pages_evicted"],
                   "executor_spill_bytes": columnar["spill_bytes"]})

    def summarize(self, samples, outcomes: list) -> list:
        days = samples("day")
        passes = [sum(days[index:index + self.DAYS])
                  for index in range(0, len(days), self.DAYS)]
        requests = outcomes[0].work["requests"]
        modelled = "modelled on the virtual clock, not wall time"
        return [
            ("day_requests_per_s", requests / _median(passes), "1/s",
             f"median of {len(passes)} passes of {self.DAYS} days, "
             f"{requests} requests"),
            ("day_goodput_virtual",
             statistics.fmean(outcomes[0].work["goodput_virtual"]),
             "ratio", f"mean of {self.DAYS} days; {modelled}"),
            ("day_p99_virtual_s",
             statistics.fmean(outcomes[0].work["p99_virtual_s"]),
             "virtual_s", f"mean of {self.DAYS} days; {modelled}"),
        ]


WORKLOADS = {workload.name: workload
             for workload in (EtlRefresh, BiqlQuery, FederationDay)}
