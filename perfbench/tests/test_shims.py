"""The layer shims patch where callers look names up and restore them."""

import importlib
import json
import os

import pytest

from perfbench import layers
from perfbench.tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _targets():
    for module, owner, attributes, __, __ in layers.SPAN_TARGETS:
        for attribute in attributes:
            yield module, owner, attribute
    for owner in layers.POOL_TARGETS:
        yield "repro.mediator.pool", owner, "run"
    for module, owner, attribute, __ in layers.COUNTER_TARGETS:
        yield module, owner, attribute


def _lookup(module, owner, attribute):
    namespace = importlib.import_module(module)
    holder = namespace if owner is None else getattr(namespace, owner)
    return vars(holder)[attribute]


def test_install_then_unpatch_restores_every_original():
    originals = {target: _lookup(*target) for target in _targets()}
    tracer = Tracer()
    layers.install(tracer)
    try:
        for target, original in originals.items():
            assert _lookup(*target) is not original, target
    finally:
        dirty = tracer.unpatch()
    assert dirty == []
    for target, original in originals.items():
        assert _lookup(*target) is original, target


def test_shimmed_program_records_layers_and_stays_correct():
    from repro.sources import EmblRepository, GenBankRepository, Universe
    from repro.warehouse import UnifyingDatabase

    tracer = Tracer()
    layers.install(tracer)
    try:
        warehouse = UnifyingDatabase([GenBankRepository(Universe(seed=3,
                                                                 size=8)),
                                      EmblRepository(Universe(seed=3,
                                                              size=8))])
        assert tracer.spans == []          # set-up runs outside any root
        with tracer.operation("initial_load"):
            report = warehouse.initial_load()
    finally:
        assert tracer.unpatch() == []
    assert report.deltas_processed > 0
    seen = {span.layer for span in tracer.spans}
    assert {"bench", "warehouse", "sources", "etl.wrappers",
            "core.ops.decode", "db", "db.sql"} <= seen
    metrics = layers.pass_metrics(tracer.spans, tracer.counts(), {}, {})
    assert set(metrics) | {"trace.overhead_ratio"} == set(layers.METRICS)
    assert metrics["etl.wrappers.records_parsed"] == report.deltas_processed


def test_benchmark_json_lists_the_metrics_the_runner_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    per_layer = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    assert per_layer == {name: unit
                         for name, (unit, __) in layers.METRICS.items()}
    assert {entry["name"]: entry["better"] for entry in spec["per_layer"]} \
        == {name: better for name, (__, better) in layers.METRICS.items()}


@pytest.mark.parametrize("name", ["decode", "decode_protein"])
def test_decode_is_patched_where_the_flatfile_wrapper_looks_it_up(name):
    flatfile = importlib.import_module("repro.etl.wrappers.flatfile")
    basic = importlib.import_module("repro.core.ops.basic")
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert getattr(flatfile, name) is not getattr(basic, name)
    finally:
        tracer.unpatch()
    assert getattr(flatfile, name) is getattr(basic, name)
