"""Cross-process observability: trace propagation, telemetry shipping, SLO.

The contract under test: with ``observe=True`` the process transport returns
the *same* observability surface as the thread transport — worker-labelled
metric series whose aggregated totals match, and per-request span trees that
are connected (admission → serve → brief_many subtree) no matter which side
of a pipe each span was recorded on.  Both transports drain one admission
queue, but which worker takes which micro-batch depends on timing, so
comparisons project onto partition-independent views: counter totals,
per-request span names, tree connectivity.
"""

import multiprocessing
import pickle
import warnings

import pytest

from repro.core import ConcurrentBriefingPipeline
from repro.obs import MetricsRegistry, MetricsSnapshot, snapshot_delta
from repro.runtime import ChaosWorker

from .test_deadlines import PAGE_A

PAGES = [
    (
        f"doc-{i}",
        "<html><head><title>Observability page {0}</title></head>"
        "<body><h1>Topic {0}</h1><p>attribute value {0}</p></body></html>".format(i),
    )
    for i in range(6)
]


def _observed_server(model, transport, **kwargs):
    return ConcurrentBriefingPipeline(
        model, num_workers=2, beam_size=2, observe=True, transport=transport, **kwargs
    )


def _run(model, transport):
    server = _observed_server(model, transport)
    try:
        briefs = server.brief_many(PAGES)
    finally:
        server.shutdown(timeout=60)
    return server, briefs


# ----------------------------------------------------------------------
# Trace propagation
# ----------------------------------------------------------------------
def _by_trace(spans):
    traces = {}
    for span in spans:
        if span.trace_id:
            traces.setdefault(span.trace_id, []).append(span)
    return traces


def _assert_connected(trace_spans):
    """Every span in the trace reaches the single admission root."""
    ids = {span.span_id for span in trace_spans}
    roots = [span for span in trace_spans if span.parent_id is None]
    assert len(roots) == 1 and roots[0].name == "admission"
    for span in trace_spans:
        if span.parent_id is not None:
            assert span.parent_id in ids, (span.name, span.parent_id)


@pytest.mark.parametrize("transport", ["thread", "process"])
def test_request_spans_form_one_connected_trace(serving_model, transport):
    server = _observed_server(serving_model, transport)
    try:
        assert server.submit(PAGE_A, doc_id="a").result(timeout=60).complete
    finally:
        server.shutdown(timeout=60)
    traces = _by_trace(server.trace_spans())
    assert len(traces) == 1
    (spans,) = traces.values()
    _assert_connected(spans)
    names = {span.name for span in spans}
    # Admission (frontend), serve (worker side), and the batch subtree all
    # stitch into the same trace — across the pipe on the process transport.
    assert {"admission", "serve", "brief_many", "parse", "render"} <= names
    workers = {span.attributes["worker"] for span in spans}
    assert "frontend" in workers and (workers - {"frontend"})
    assert all(span.attributes.get("transport") == transport for span in spans)


@pytest.mark.parametrize("transport", ["thread", "process"])
def test_span_ids_unique_across_the_pool_with_retired_workers(serving_model, transport):
    """A worker dies and is resurrected mid-stream: the retired generation's
    spans and the replacement's still have pool-unique ids, and every
    request's trace stays connected."""
    chaos = ChaosWorker(death_rate=1.0, seed=3, max_deaths=1)
    server = _observed_server(
        serving_model, transport, chaos=chaos, max_wait_ms=0.0, supervisor_poll_ms=5.0
    )
    try:
        briefs = server.brief_many(PAGES)
    finally:
        server.shutdown(timeout=60)
    assert chaos.deaths == 1
    assert all(brief.complete for brief in briefs)
    spans = server.trace_spans()
    assert len({span.span_id for span in spans}) == len(spans)
    assert {span.attributes["generation"] for span in spans if span.name == "serve"} >= {0, 1}
    traces = _by_trace(spans)
    assert len(traces) == len(PAGES)
    for trace in traces.values():
        _assert_connected(trace)


def test_transports_produce_equivalent_telemetry(serving_model):
    t_server, t_briefs = _run(serving_model, "thread")
    p_server, p_briefs = _run(serving_model, "process")
    assert [b.complete for b in t_briefs] == [b.complete for b in p_briefs]

    # Metrics: same counter totals once provenance labels are collapsed.
    t_snap, p_snap = t_server.metrics_snapshot(), p_server.metrics_snapshot()
    for name in (
        "serving_requests_total",
        "serving_cache_requests_total",
        "briefing_degradations_total",
        "serving_worker_restarts_total",
    ):
        assert t_snap.total(name) == p_snap.total(name), name
    assert t_snap.aggregate().value(
        "serving_requests_total", outcome="admitted"
    ) == p_snap.aggregate().value("serving_requests_total", outcome="admitted")
    # The process snapshot is worker-labelled: series crossed the pipe.
    labelled = [
        series["labels"]
        for entry in p_snap.as_dict().values()
        for series in entry["series"]
    ]
    assert any(
        labels.get("transport") == "process" and "worker" in labels
        for labels in labelled
    )

    # Traces: same number of request trees, all connected, same
    # partition-independent shape on both transports.
    t_traces, p_traces = _by_trace(t_server.trace_spans()), _by_trace(p_server.trace_spans())
    assert len(t_traces) == len(p_traces) == len(PAGES)
    for traces in (t_traces, p_traces):
        for spans in traces.values():
            _assert_connected(spans)

    def request_level_shape(traces):
        return sorted(
            tuple(sorted({s.name for s in spans} & {"admission", "serve"}))
            for spans in traces.values()
        )

    def span_name_totals(traces, names):
        return {
            name: sum(1 for spans in traces.values() for s in spans if s.name == name)
            for name in names
        }

    assert request_level_shape(t_traces) == request_level_shape(p_traces)
    per_page = ("admission", "serve", "parse", "render")
    assert span_name_totals(t_traces, per_page) == span_name_totals(p_traces, per_page)


# ----------------------------------------------------------------------
# Telemetry shipping across a real process boundary (satellite)
# ----------------------------------------------------------------------
def _telemetry_child(conn):
    """Builds registry traffic in a child and ships snapshot deltas."""
    registry = MetricsRegistry()
    counter = registry.counter("shipped_total")
    hist = registry.histogram("shipped_seconds")
    shipped = MetricsSnapshot()
    for round_number in range(3):
        counter.inc(round_number + 1, worker="child")
        hist.observe(0.01 * (round_number + 1))
        current = registry.snapshot()
        conn.send(snapshot_delta(current, shipped))
        shipped = current
    conn.send(registry.snapshot())  # the ground truth, whole
    conn.close()


def test_snapshot_deltas_merge_across_a_process_boundary():
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )
    parent_conn, child_conn = ctx.Pipe()
    child = ctx.Process(target=_telemetry_child, args=(child_conn,), daemon=True)
    child.start()
    child_conn.close()
    received = [parent_conn.recv() for _ in range(4)]
    child.join(timeout=30)
    deltas, ground_truth = received[:3], received[3]

    # Every delta crossed the pipe via pickle; round-trip once more to prove
    # the snapshot itself is plain picklable data.
    deltas = [pickle.loads(pickle.dumps(delta)) for delta in deltas]

    # Merge out of order: the recomposition must not depend on arrival order.
    out_of_order = MetricsSnapshot()
    for delta in (deltas[2], deltas[0], deltas[1]):
        out_of_order = out_of_order.merge(delta)
    in_order = MetricsSnapshot()
    for delta in deltas:
        in_order = in_order.merge(delta)

    for merged in (in_order, out_of_order):
        assert merged.value("shipped_total", worker="child") == ground_truth.value(
            "shipped_total", worker="child"
        ) == 6
        state = merged.value("shipped_seconds")
        truth = ground_truth.value("shipped_seconds")
        assert state["count"] == truth["count"] == 3
        assert state["sum"] == pytest.approx(truth["sum"])
        assert state["counts"] == truth["counts"]


# ----------------------------------------------------------------------
# Blind pools warn once (satellite)
# ----------------------------------------------------------------------
def test_blind_process_pool_warns_once(serving_model):
    server = ConcurrentBriefingPipeline(
        serving_model, num_workers=1, beam_size=2, transport="process"
    )
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert server.pool.metrics_snapshot().names == []
            assert server.pool.trace_spans() == []
            server.pool.metrics_snapshot()  # still just the one warning
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "observe=True" in str(runtime[0].message)
    finally:
        server.shutdown(timeout=60)


def test_blind_thread_pool_warns_once(serving_model):
    server = ConcurrentBriefingPipeline(serving_model, num_workers=1, beam_size=2)
    try:
        assert server.submit(PAGE_A, doc_id="a").result(timeout=30).complete
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert server.pool.metrics_snapshot().names == []
            assert server.pool.trace_spans() == []
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "observe=True" in str(runtime[0].message)
    finally:
        server.shutdown(timeout=30)


# ----------------------------------------------------------------------
# SLO accounting and the event journal
# ----------------------------------------------------------------------
@pytest.mark.parametrize("transport", ["thread", "process"])
def test_slo_and_journal_feed_from_serving(serving_model, transport):
    server = _observed_server(serving_model, transport)
    try:
        briefs = server.brief_many(PAGES)
        assert all(brief.complete for brief in briefs)
    finally:
        server.shutdown(timeout=60)

    snap = server.slo.snapshot()
    assert snap["outcomes"]["ok"] == len(PAGES)
    assert snap["objectives"]["error_rate"]["burn_rate"] == 0.0

    kinds = [event["kind"] for event in server.journal.events]
    assert kinds[0] == "serving_started"
    assert kinds[-1] == "serving_shutdown"

    # The SLO gauges ride the regular metrics snapshot.
    metrics = server.metrics_snapshot()
    assert metrics.value("serving_slo_window_requests") == len(PAGES)

    status = server.status()
    assert status["transport"] == transport
    assert status["slo"]["requests"] == len(PAGES)
    assert [w["index"] for w in status["workers"]] == [0, 1]
    assert status["events"][-1]["kind"] == "serving_shutdown"
