"""Self-time arithmetic and span parenting of the benchmark tracer."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from perfbench.tracer import ROOT_LAYER, Span, Tracer, layer_table, \
    self_times


def _span(span_id, parent, start, end, layer="x"):
    return Span(span_id, parent, 1, f"s{span_id}", layer, start, end)


def test_overlapping_children_are_subtracted_once():
    # root [0,10] > pool [1,9] > worker tasks a [2,6] and b [4,8];
    # b runs c [6.5,7] inside it.
    spans = [
        _span(1, None, 0.0, 10.0, ROOT_LAYER),
        _span(2, 1, 1.0, 9.0, "pool"),
        _span(3, 2, 2.0, 6.0, "task"),
        _span(4, 2, 4.0, 8.0, "task"),
        _span(5, 4, 6.5, 7.0, "leaf"),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(2.0)            # 10 - 8
    assert own[2] == pytest.approx(2.0)            # 8 - |[2,8]|, not 8 - 4 - 4
    # Concurrent leaves split each instant evenly, so a and b each get
    # half of [4,6], not all of it: self times add up to the root.
    assert own[3] == pytest.approx(2.0 + 1.0)      # alone, then half of [4,6]
    assert own[4] == pytest.approx(1.0 + 0.5 + 1.0)
    assert own[5] == pytest.approx(0.5)
    assert sum(own.values()) == pytest.approx(10.0)
    for span in spans:
        assert own[span.id] <= span.duration + 1e-12


def test_sequential_children_and_layer_table():
    spans = [
        _span(1, None, 0.0, 4.0, ROOT_LAYER),
        _span(2, 1, 0.5, 1.5, "db"),
        _span(3, 2, 0.6, 0.8, "db"),                # re-entrant: same layer
        _span(4, 1, 2.0, 3.0, "sql"),
    ]
    own = self_times(spans)
    assert own[2] == pytest.approx(0.8)
    assert own[1] == pytest.approx(2.0)
    table = layer_table(spans)
    assert table["db"]["self_s"] == pytest.approx(1.0)
    assert table["db"]["inclusive_s"] == pytest.approx(1.0)   # outermost only
    assert table["db"]["calls"] == 2
    assert sum(row["self_s"] for row in table.values()) \
        == pytest.approx(4.0)


def test_worker_thread_tasks_parent_under_the_caller():
    tracer = Tracer()
    leaf = tracer.wrap(lambda: threading.get_ident(), "leaf", "task")

    def fan_out(tasks):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return [future.result() for future in
                    [pool.submit(tracer.adopt(task, "task", "pool.task"))
                     for task in tasks]]

    run = tracer.wrap(fan_out, "pool.run", "pool")
    with tracer.operation("op"):
        threads = run([leaf, leaf, leaf])
    assert any(ident != threading.get_ident() for ident in threads)
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (root,), (pool,) = by_name["op"], by_name["pool.run"]
    assert pool.parent == root.id
    tasks = by_name["task"]
    assert [span.parent for span in tasks] == [pool.id] * 3
    assert {span.layer for span in tasks} == {"pool.task"}
    assert sorted(span.parent for span in by_name["leaf"]) \
        == sorted(span.id for span in tasks)
    assert {span.root for span in tracer.spans} == {root.id}
    own = self_times(tracer.spans)
    assert sum(own.values()) == pytest.approx(root.duration)


def test_shims_record_only_under_an_open_root():
    tracer = Tracer()
    double = tracer.wrap(lambda value: 2 * value, "double", "math",
                         value=lambda args, result: result)
    counted = tracer.counting(lambda: None, "calls")
    assert double(2) == 4
    counted()
    assert tracer.spans == [] and tracer.counts() == {"calls": 0}
    with tracer.operation("op"):
        assert double(3) == 6
        counted()
        counted()
    assert [span.value for span in tracer.spans if span.name == "double"] \
        == [6]
    assert tracer.counts() == {"calls": 2}


def test_a_raising_call_still_closes_its_span():
    tracer = Tracer()

    def fail():
        raise ValueError("boom")

    shim = tracer.wrap(fail, "fail", "x")
    with pytest.raises(ValueError):
        with tracer.operation("op"):
            shim()
    assert sorted(span.name for span in tracer.spans) == ["fail", "op"]
    assert tracer._stack() == []

