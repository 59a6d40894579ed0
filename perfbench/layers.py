"""Which ``repro`` entry points the traced run shims, and the per-layer
metrics computed from what the shims record.

Each shim patches a name where its caller looks it up: a method on the
class that defines it, or a function in the namespace of the module
that imported it (``decode`` as ``repro.etl.wrappers.flatfile`` sees
it).  :func:`install` patches them all; ``Tracer.unpatch`` puts every
original back.
"""

from __future__ import annotations

import importlib
from typing import Any

from perfbench.tracer import ROOT_LAYER, Span, Tracer, layer_table, \
    self_times


def _deltas(args, report) -> int:
    return report.deltas_processed


def _first_arg(args, result) -> Any:
    return args[1] if len(args) > 1 else None


def _rows_changed(args, result) -> int:
    statement = args[1].lstrip()[:6].upper() if len(args) > 1 else ""
    if statement in ("UPDATE", "DELETE") and isinstance(result, int):
        return result
    return 0


def _request_count(args, result) -> int:
    return len(args[1])


def _length(args, result) -> int:
    return len(result)


def _statements_replayed(args, result) -> int:
    return result[1].statements_applied


def _identity(args, result) -> Any:
    return result


_QUERIES = ("gene", "genes", "find_genes", "count_genes")

#: (module, class or None for a module-level name, attributes, layer,
#:  value extractor)
SPAN_TARGETS = (
    ("repro.lang.biql.session", "BiqlSession", ("compile",), "lang.biql",
     None),
    ("repro.db.database", None, ("parse",), "db.sql",
     lambda args, result: args[0]),
    ("repro.db.database", "Database", ("execute",), "db", _rows_changed),
    ("repro.db.sql.optimizer", "Planner", ("plan_select",), "db.plan",
     None),
    ("repro.db.columnar.store", "ColumnStore",
     ("read_page", "decode_group"), "db.columnar", None),
    ("repro.etl.wrappers.flatfile", None, ("decode", "decode_protein"),
     "core.ops.decode", None),
    ("repro.etl.wrappers.structured", None, ("decode",),
     "core.ops.decode", None),
    ("repro.db.sql.expressions", "Evaluator", ("_eval_functioncall",),
     "core.ops.udf", None),
    ("repro.etl.wrappers.base", "Wrapper",
     ("split_snapshot", "parse_snapshot"), "etl.wrappers", None),
    ("repro.etl.wrappers.flatfile", "GenBankWrapper", ("parse_record",),
     "etl.wrappers", _first_arg),
    ("repro.etl.wrappers.flatfile", "EmblWrapper", ("parse_record",),
     "etl.wrappers", _first_arg),
    ("repro.etl.wrappers.flatfile", "SwissProtWrapper", ("parse_record",),
     "etl.wrappers", _first_arg),
    ("repro.etl.wrappers.flatfile", "FastaWrapper",
     ("parse_record", "split_snapshot"), "etl.wrappers", _first_arg),
    ("repro.etl.wrappers.structured", "AceWrapper",
     ("parse_record", "split_snapshot"), "etl.wrappers", _first_arg),
    ("repro.etl.wrappers.structured", "RelationalWrapper",
     ("parse_record", "split_snapshot", "parse_snapshot"), "etl.wrappers",
     _first_arg),
    ("repro.etl.monitors", "SourceMonitor", ("poll",), "etl.monitors",
     _length),
    ("repro.sources.base", "Repository",
     ("snapshot", "query", "query_accessions", "read_log"), "sources",
     None),
    ("repro.sources.faults", "FaultyRepository",
     ("snapshot", "query", "query_accessions", "read_log"), "sources",
     None),
    ("repro.warehouse.warehouse", "UnifyingDatabase",
     ("initial_load", "refresh"), "warehouse", _deltas),
    ("repro.db.storage", "WriteAheadLog", ("append", "flush"),
     "db.storage", None),
    ("repro.db.recovery", None, ("recover",), "db.recovery",
     _statements_replayed),
    ("repro.federation.replication", "FollowerNode",
     ("apply_shipment",), "federation.replication", _identity),
    ("repro.mediator.mediator", "Mediator", _QUERIES, "mediator", None),
    ("repro.mediator.cache", "CachedMediator", _QUERIES + ("sync",),
     "mediator.cache", None),
    ("repro.serving.server", "FederationServer", ("serve",), "serving",
     _request_count),
    ("repro.federation.serving", "ShardedFederationServer", ("serve",),
     "federation", _request_count),
    ("repro.federation.router", "ShardedMediator", _QUERIES, "federation",
     None),
)

#: Pools whose ``run`` parents worker-thread tasks under the caller.
POOL_TARGETS = ("SequentialPool", "ThreadedPool")

#: Hot calls that are only counted, never spanned.
COUNTER_TARGETS = (
    ("repro.db.sql.expressions", "Evaluator", "evaluate_predicate",
     "db.predicate_evals"),
)


def _owner(module: str, owner: "str | None"):
    namespace = importlib.import_module(module)
    return namespace if owner is None else getattr(namespace, owner)


def _pool_shim(tracer: Tracer, owner: str, original):
    # Each task is a span of its own, so the pool's self time is only
    # starting, scheduling and joining the workers.
    def run(self, tasks):
        return original(self, [tracer.adopt(task, "pool.task",
                                            "mediator.task")
                               for task in tasks])
    return tracer.wrap(run, f"{owner}.run", "mediator.pool",
                       lambda args, result: len(args[1]))


def install(tracer: Tracer) -> None:
    """Patch every target; ``tracer.unpatch()`` undoes it."""
    try:
        for module, owner, attributes, layer, value in SPAN_TARGETS:
            target = _owner(module, owner)
            for attribute in attributes:
                original = vars(target)[attribute]
                name = f"{owner or module.rsplit('.', 1)[1]}.{attribute}"
                tracer.patch(target, attribute,
                             tracer.wrap(original, name, layer, value))
        pools = importlib.import_module("repro.mediator.pool")
        for owner in POOL_TARGETS:
            target = getattr(pools, owner)
            tracer.patch(target, "run",
                         _pool_shim(tracer, owner, vars(target)["run"]))
        for module, owner, attribute, name in COUNTER_TARGETS:
            target = _owner(module, owner)
            tracer.patch(target, attribute,
                         tracer.counting(vars(target)[attribute], name))
    except BaseException:
        tracer.unpatch()
        raise


# -- per-layer metrics -------------------------------------------------------

#: name -> (unit, better), in the order BENCHMARK.json lists them.
METRICS = {
    "lang.biql.compile_ms": ("ms", "lower"),
    "db.sql.parse_s": ("s", "lower"),
    "db.sql.parse_calls": ("count", "lower"),
    "db.sql.distinct_text_ratio": ("ratio", "higher"),
    "db.plan_s": ("s", "lower"),
    "db.execute_s": ("s", "lower"),
    "db.predicate_evals": ("count", "lower"),
    "db.predicate_evals_per_row_affected": ("ratio", "lower"),
    "core.ops.decode_s": ("s", "lower"),
    "core.ops.decode_calls": ("count", "lower"),
    "core.ops.udf_s": ("s", "lower"),
    "etl.wrappers.parse_s": ("s", "lower"),
    "etl.wrappers.records_parsed": ("count", "lower"),
    "etl.wrappers.reparse_ratio": ("ratio", "lower"),
    "etl.monitors.poll_s": ("s", "lower"),
    "etl.monitors.deltas_per_poll": ("ratio", "higher"),
    "sources.render_s": ("s", "lower"),
    "warehouse.integrate_s": ("s", "lower"),
    "warehouse.statements_per_delta": ("ratio", "lower"),
    "db.storage.wal_append_s": ("s", "lower"),
    "db.storage.wal_appends": ("count", "lower"),
    "db.storage.wal_flushes": ("count", "lower"),
    "db.storage.wal_bytes_per_statement": ("B", "lower"),
    "db.recovery.replay_statements_per_s": ("1/s", "higher"),
    "federation.replication.apply_s": ("s", "lower"),
    "federation.replication.statements_applied": ("count", "lower"),
    "db.columnar.page_hit_ratio": ("ratio", "higher"),
    "db.columnar.pages_skipped_ratio": ("ratio", "higher"),
    "db.columnar.evictions": ("count", "lower"),
    "db.columnar.spill_bytes": ("B", "lower"),
    "mediator.query_s": ("s", "lower"),
    "mediator.source_calls": ("count", "lower"),
    "mediator.retries": ("count", "lower"),
    "mediator.pool.run_s": ("s", "lower"),
    "mediator.pool.runs": ("count", "lower"),
    "mediator.pool.tasks": ("count", "lower"),
    "mediator.task_s": ("s", "lower"),
    "mediator.cache.hit_ratio": ("ratio", "higher"),
    "mediator.cache.invalidations": ("count", "lower"),
    "mediator.cache.sync_s": ("s", "lower"),
    "serving.serve_s": ("s", "lower"),
    "serving.shed_ratio_virtual": ("ratio", "lower"),
    "federation.scatter_s": ("s", "lower"),
    "federation.subrequests_per_request": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.unattributed_ratio": ("ratio", "lower"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pass_metrics(spans: list[Span], counts: dict[str, int],
                 registry: dict[str, float], extra: dict[str, float]
                 ) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    *counts* are the counter shims' increments during the pass,
    *registry* the program's own metrics snapshot for the pass, and
    *extra* what the workload measured itself (``wal_bytes``,
    ``shed_ratio_virtual``, and columnar counters the macro day keeps
    in its payload)."""
    by_id = {span.id: span for span in spans}
    own = self_times(spans)

    def spans_of(layer, name=None):
        return [span for span in spans if span.layer == layer
                and (name is None or span.name == name)]

    def self_of(layer, name=None):
        return sum(own[span.id] for span in spans_of(layer, name))

    def values(layer, name=None):
        return sum(span.value or 0 for span in spans_of(layer, name))

    def parent_layer(span):
        parent = by_id.get(span.parent)
        return parent.layer if parent is not None else None

    parses = spans_of("db.sql")
    record_parses = [span for span in spans_of("etl.wrappers")
                     if span.name.endswith(".parse_record")]
    appends = spans_of("db.storage", "WriteAheadLog.append")
    replays = spans_of("db.recovery")
    compiles = spans_of("lang.biql")
    pool_runs = spans_of("mediator.pool")
    polls = spans_of("etl.monitors")
    scatters = spans_of("federation", "ShardedFederationServer.serve")
    roots = spans_of(ROOT_LAYER)
    column = {key: registry.get(f"columnar_{key}", 0.0)
              + extra.get(f"columnar_{key}", 0.0)
              for key in ("pages_read", "pages_skipped", "page_faults",
                          "pages_evicted", "spill_bytes")}
    spill = column["spill_bytes"] + registry.get("executor_spill_bytes", 0.0) \
        + extra.get("executor_spill_bytes", 0.0)
    hits = registry.get("mediation_cache_hits", 0.0)
    misses = registry.get("mediation_cache_misses", 0.0)
    return {
        "lang.biql.compile_ms": 1000 * _ratio(self_of("lang.biql"),
                                              len(compiles)),
        "db.sql.parse_s": self_of("db.sql"),
        "db.sql.parse_calls": len(parses),
        "db.sql.distinct_text_ratio": _ratio(
            len({span.value for span in parses}), len(parses)),
        "db.plan_s": self_of("db.plan"),
        "db.execute_s": self_of("db"),
        "db.predicate_evals": counts.get("db.predicate_evals", 0),
        "db.predicate_evals_per_row_affected": _ratio(
            counts.get("db.predicate_evals", 0), values("db")),
        "core.ops.decode_s": self_of("core.ops.decode"),
        "core.ops.decode_calls": len(spans_of("core.ops.decode")),
        "core.ops.udf_s": self_of("core.ops.udf"),
        "etl.wrappers.parse_s": self_of("etl.wrappers"),
        "etl.wrappers.records_parsed": len(record_parses),
        "etl.wrappers.reparse_ratio": _ratio(
            len(record_parses),
            len({span.value for span in record_parses})),
        "etl.monitors.poll_s": self_of("etl.monitors"),
        "etl.monitors.deltas_per_poll": _ratio(values("etl.monitors"),
                                               len(polls)),
        "sources.render_s": self_of("sources"),
        "warehouse.integrate_s": self_of("warehouse"),
        "warehouse.statements_per_delta": _ratio(
            sum(1 for span in spans_of("db")
                if parent_layer(span) == "warehouse"),
            values("warehouse")),
        "db.storage.wal_append_s": self_of("db.storage",
                                           "WriteAheadLog.append"),
        "db.storage.wal_appends": len(appends),
        "db.storage.wal_flushes": len(spans_of("db.storage",
                                               "WriteAheadLog.flush")),
        "db.storage.wal_bytes_per_statement": _ratio(
            extra.get("wal_bytes", 0.0), len(appends)),
        "db.recovery.replay_statements_per_s": _ratio(
            values("db.recovery"), sum(span.duration for span in replays)),
        "federation.replication.apply_s": self_of("federation.replication"),
        "federation.replication.statements_applied":
            values("federation.replication"),
        "db.columnar.page_hit_ratio": (
            1.0 - _ratio(column["page_faults"], column["pages_read"])
            if column["pages_read"] else 0.0),
        "db.columnar.pages_skipped_ratio": _ratio(
            column["pages_skipped"],
            column["pages_read"] + column["pages_skipped"]),
        "db.columnar.evictions": column["pages_evicted"],
        "db.columnar.spill_bytes": spill,
        "mediator.query_s": self_of("mediator"),
        "mediator.source_calls": registry.get(
            "mediation_source_requests", 0.0),
        "mediator.retries": registry.get("mediation_retries", 0.0),
        "mediator.pool.run_s": self_of("mediator.pool"),
        "mediator.pool.runs": len(pool_runs),
        "mediator.pool.tasks": values("mediator.pool"),
        "mediator.task_s": self_of("mediator.task"),
        "mediator.cache.hit_ratio": _ratio(hits, hits + misses),
        "mediator.cache.invalidations": registry.get(
            "mediation_cache_invalidations", 0.0),
        "mediator.cache.sync_s": self_of("mediator.cache",
                                         "CachedMediator.sync"),
        "serving.serve_s": self_of("serving"),
        "serving.shed_ratio_virtual": extra.get("shed_ratio_virtual", 0.0),
        "federation.scatter_s": self_of("federation"),
        "federation.subrequests_per_request": _ratio(
            sum(span.value for span in spans_of("serving")
                if parent_layer(span) == "federation"),
            sum(span.value for span in scatters)),
        "trace.unattributed_ratio": _ratio(
            sum(own[span.id] for span in roots),
            sum(span.duration for span in roots)),
    }


def render_table(spans: list[Span]) -> list[str]:
    """Human-readable per-layer self and inclusive time of *spans*."""
    table = layer_table(spans)
    total = sum(span.duration for span in spans if span.parent is None)
    lines = [f"  {'layer':<24}{'self_s':>10}{'self%':>8}"
             f"{'inclusive_s':>13}{'calls':>9}"]
    for layer, row in sorted(table.items(),
                             key=lambda item: -item[1]["self_s"]):
        lines.append(
            f"  {layer:<24}{row['self_s']:>10.4f}"
            f"{100 * _ratio(row['self_s'], total):>7.1f}%"
            f"{row['inclusive_s']:>13.4f}{row['calls']:>9}")
    lines.append(f"  {'(sum of self = root)':<24}"
                 f"{sum(row['self_s'] for row in table.values()):>10.4f}"
                 f"{'':>8}{total:>13.4f}")
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    within = all(own[span.id] <= by_id[span.parent].duration + 1e-9
                 for span in spans if span.parent in by_id)
    lines.append(f"  no span's self time exceeds its parent's duration: "
                 f"{within}")
    return lines
