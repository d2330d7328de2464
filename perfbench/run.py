#!/usr/bin/env python3
"""The repository benchmark: a trained briefing fixture under four workloads.

    python3 perfbench/run.py --workload crawl-batch --seed 1 --seconds 10 --trace 0

Workloads (``--workload``): ``crawl-batch``, ``decode-wide``, ``serve-process``
(see ``workloads.py`` for what each stresses and why).
``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs the
same inputs untraced and then traced, and reports the per-layer metrics.
Every run checks its outputs (conservation, determinism against a reference
pipeline, repeatable counts, a quality floor, open-loop validity) and prints,
as its last line, ``{"correct", "attempted", "failed", "metrics"}``.  A run
whose checks fail prints ``"correct": false`` with no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pickle
import statistics
import sys
import time
from pathlib import Path

import envinfo

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

#: set-ups per run; ``setup_s`` is their median
SETUP_REPS = 7
#: closed-loop calls are grouped into probe blocks of at least this long
BLOCK_S = 0.5
#: quality is scored on the first this-many distinct pages briefed completely
QUALITY_SAMPLE = 2048
#: held-out quality the fixture must reach, or the run fails
FLOOR = {"topic_em": 0.8, "attr_f1": 0.3}
#: an open-loop run is invalid when its generator sends this late (p99)
LAG_LIMIT_MS = 50.0

END_TO_END_UNITS = {
    "docs_per_s": "docs/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "goodput_rps": "req/s",
    "topic_em": "ratio",
    "attr_f1": "ratio",
    "setup_s": "s",
    "rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "html.parse_ms_per_doc": "ms",
    "html.render_ms_per_doc": "ms",
    "html.docs_parsed": "count",
    "models.encode_ms_per_doc": "ms",
    "models.extract_ms_per_doc": "ms",
    "models.section_ms_per_doc": "ms",
    "models.topic_encode_ms_per_doc": "ms",
    "models.greedy_ms_per_doc": "ms",
    "models.predict_self_ms_per_doc": "ms",
    "models.pad_waste_ratio": "ratio",
    "models.decode_ms_per_doc": "ms",
    "nn.beam_step_ms_per_doc": "ms",
    "nn.beam_host_ms_per_doc": "ms",
    "nn.beam_steps": "count",
    "nn.beam_rows_per_step": "rows",
    "core.batched.self_ms_per_doc": "ms",
    "core.batched.brief_cache_hit_ratio": "ratio",
    "core.batched.render_cache_hit_ratio": "ratio",
    "core.batched.coalesced": "count",
    "core.serving.queue_wait_ms_p50": "ms",
    "core.serving.queue_wait_ms_p99": "ms",
    "core.serving.batch_pages_mean": "pages",
    "core.serving.front_hit_ratio": "ratio",
    "core.serving.shed": "count",
    "core.serving.requeued": "count",
    "core.serving.worker_restarts": "count",
    "core.process_pool.ipc_ms_per_batch": "ms",
    "core.process_pool.spawn_s": "s",
    "core.process_pool.snapshot_bytes": "bytes",
    "obs.tracing_overhead": "ratio",
    "load.generator_lag_ms_p99": "ms",
}


class CheckFailed(Exception):
    """An output check failed: the run reports no numbers."""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default), 0.0 when empty."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def _status_kb(pid, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid: int):
    found = set()
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as children:
                found.update(int(child) for child in children.read().split())
    except OSError:
        pass
    return found


def tree_peak_rss_mb() -> float:
    """Peak RSS of this process plus every live child process, in MB."""
    pid = os.getpid()
    total_kb = _status_kb("self", "VmHWM")
    for child in _children(pid):
        total_kb += _status_kb(child, "VmHWM")
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def brief_key(brief):
    return (tuple(brief.topic), tuple(brief.attributes), tuple(brief.informative_sentences))


def quality(outcome, source):
    """Topic EM and attribute F1 over the first distinct pages briefed completely.

    Each page counts once, so a hot page of a Zipf stream cannot dominate.
    """
    from repro.core.evaluation import match_counts

    scored = exact = true_positives = predicted = gold_total = 0
    seen = set()
    for page, brief in zip(outcome.pages, outcome.briefs):
        if brief is None or not brief.complete or page.html in seen:
            continue
        seen.add(page.html)
        topic, attributes = source.gold(page)
        exact += tuple(brief.topic) == topic
        true_positives += match_counts(brief.attributes, attributes)
        predicted += len(brief.attributes)
        gold_total += len(attributes)
        scored += 1
        if scored == QUALITY_SAMPLE:
            break
    if not scored:
        raise CheckFailed("no complete brief to score")
    precision = true_positives / predicted if predicted else 0.0
    recall = true_positives / gold_total if gold_total else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return exact / scored, f1


def count_pass(workload, model, pages):
    """Brief a fixed page list through a fresh reference pipeline, counting.

    The reference is ``BatchedBriefingPipeline`` at the workload's beam,
    fed in reverse order so its batches group the pages differently from
    the measured run.  Returns ``(counts, {html: brief key})``.
    """
    from repro.core import BatchedBriefingPipeline
    from repro.obs import MetricsRegistry

    import layers

    registry = MetricsRegistry()
    pipeline = BatchedBriefingPipeline(
        model, beam_size=workload.beam_size, batch_size=workload.batch, registry=registry
    )
    clock = layers.LayerClock()
    ordered = list(reversed(pages))
    briefs = {}
    with layers.wrapped(clock, model):
        for offset in range(0, len(ordered), workload.batch):
            group = ordered[offset: offset + workload.batch]
            for page, brief in zip(group, pipeline.brief_many([(p.doc_id, p.html) for p in group])):
                briefs[page.html] = brief_key(brief)
    snapshot = registry.snapshot()
    counts = {
        "docs_parsed": clock.calls["html.parse"],
        "beam_steps": int(clock.counts["nn.beam_steps"]),
        "cache_hits": int(snapshot.value("serving_cache_requests_total", result="hit") or 0),
        "coalesced": int(snapshot.value("serving_cache_requests_total", result="coalesced") or 0),
    }
    return counts, briefs


def check_counts(workload, model, pages, ledger_key: str):
    """Counts must repeat across two fresh passes and across runs of this code.

    "This code" is the program and the benchmark: the ledger is keyed on both.
    """
    import fixture

    first, reference = count_pass(workload, model, pages)
    second, again = count_pass(workload, model, pages)
    if first != second or reference != again:
        raise CheckFailed(f"count pass not repeatable: {first} vs {second}")
    bench_key = fixture.source_hash(BENCH_DIR, "*.py")[:16]
    ledger_path = fixture.CACHE_DIR / f"counts-{fixture.fixture_key()}-{bench_key}.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    if ledger_key in ledger and ledger[ledger_key] != first:
        raise CheckFailed(f"counts differ from an earlier run of this code: "
                          f"{ledger[ledger_key]} vs {first}")
    if ledger_key not in ledger:
        ledger[ledger_key] = first
        fixture.CACHE_DIR.mkdir(parents=True, exist_ok=True)
        ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    return first, reference


def check_against_reference(outcome, reference) -> None:
    """Every measured brief of a reference page equals the reference brief."""
    compared = 0
    for page, brief in zip(outcome.pages, outcome.briefs):
        expected = reference.get(page.html)
        if expected is None or brief is None or not brief.complete:
            continue
        compared += 1
        if brief_key(brief) != expected:
            raise CheckFailed(f"{page.doc_id}: served brief differs from the reference")
    if not compared:
        raise CheckFailed("no measured brief overlaps the reference pages")


def failures(outcome) -> int:
    return sum(1 for brief in outcome.briefs if brief is None or not brief.complete)


def check_conservation(outcome, server, submitted: int) -> None:
    from repro.core.serving import ConcurrentBriefingPipeline

    if outcome.unresolved or len(outcome.briefs) != len(outcome.pages):
        raise CheckFailed(f"{outcome.unresolved} submitted requests never resolved")
    if isinstance(server, ConcurrentBriefingPipeline) and not failures(outcome):
        merged = server.merged_stats()
        if merged.cache_hits + merged.cache_misses != submitted:
            raise CheckFailed(f"cache hits + misses {merged.cache_hits + merged.cache_misses} "
                              f"!= {submitted} requests submitted")


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
class Bench:
    """The fixture and seeded inputs of one ``(workload, seed)`` run."""

    def __init__(self, args) -> None:
        import fixture
        import workloads

        self.args = args
        self.workload = workloads.WORKLOADS[args.workload]
        self.setup_reps = SETUP_REPS
        if args.smoke:
            w = self.workload
            self.workload = dataclasses.replace(
                w,
                check_pages=max(8, w.check_pages // 8),
                trace_work=max(16, w.trace_work // 8) if w.loop == "closed" else 0.5,
            )
            self.setup_reps = 1
        if args.fixture == "untrained":
            payload = fixture.untrained_fixture()
        else:
            payload = fixture.load_fixture(fixture.ensure_fixture())
        self.topic_ids = payload["topic_ids"]
        self.fixture_info = {"key": payload["key"], "train_seconds": payload["train_seconds"]}
        self.model = payload["model"]
        self.blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self.warm_pages = self.source("warm").take(self.workload.batch)

    def restore(self):
        """The fixture's model, unpickled afresh (the serving restore step)."""
        return pickle.loads(self.blob)["model"]

    def source(self, tag: str):
        import workloads

        w = self.workload
        return workloads.PageSource(self.topic_ids, self.args.seed, w.noise_sentences,
                                    tag=f"{w.name}-{tag}-{self.args.seed}")

    def warm_requests(self) -> int:
        import workloads

        return int(round(workloads.OPEN_WARMUP_S * self.workload.rate))

    def schedule(self, seconds: float):
        """``(pool source, open-loop schedule)``: cache warm-up, then ``seconds``."""
        import workloads

        w = self.workload
        source = self.source("pool")
        pool = source.take(w.pool_pages)
        return source, workloads.zipf_schedule(
            pool, w.rate, workloads.OPEN_WARMUP_S + seconds, w.zipf_alpha, workloads.TRAFFIC_SEED)

    def check_pages(self):
        """The fixed page list of the count and reference checks."""
        w = self.workload
        if w.loop == "closed":
            return self.source("main").take(w.check_pages)
        _, schedule = self.schedule(w.check_pages / w.rate)
        warm = self.warm_requests()
        return [page for _, page in schedule[warm: warm + w.check_pages]]

    def set_up(self, observe=False):
        """Restore, build, start and warm one server: ``(server, total_s, build_s)``."""
        import workloads

        start = time.perf_counter()
        model = self.restore()
        built = time.perf_counter()
        server = workloads.build_server(self.workload, model, observe=observe)
        spawned = time.perf_counter()
        workloads.warm_up(server, self.warm_pages)
        return server, time.perf_counter() - start, spawned - built

    def set_up_repeatedly(self):
        """Several set-ups; the last server stays up.

        Returns the server and the medians of the rescaled set-up time, the
        raw set-up time and the raw build time (pipeline and workers only).
        """
        import speed
        import workloads

        scaled, totals, builds = [], [], []
        server = None
        before = speed.probe()
        for _ in range(self.setup_reps):
            if server is not None:
                workloads.close_server(server)
            server, total, build = self.set_up()
            after = speed.probe()
            scaled.append(total / ((before + after) / 2.0))
            totals.append(total)
            builds.append(build)
            before = after
        return server, statistics.median(scaled), statistics.median(totals), statistics.median(builds)


def end_to_end(bench: Bench, info: dict):
    """The untraced timed run: ``(outcome, page source, end-to-end metrics)``.

    Times are rescaled by the host-speed factor of their probe block or
    segment (``speed.py``); the raw values go to ``info``.
    """
    import speed
    import workloads

    w = bench.workload
    server, setup_s, setup_raw_s, _ = bench.set_up_repeatedly()
    try:
        if w.loop == "closed":
            source = bench.source("main")
            outcome = workloads.closed_loop(server, source, w.batch, seconds=bench.args.seconds,
                                            probe=speed.probe, block_s=BLOCK_S)
            check_conservation(outcome, server, len(outcome.pages))
        else:
            source, schedule = bench.schedule(bench.args.seconds)
            full = workloads.open_loop(server, schedule, probe=speed.probe)
            check_conservation(full, server, len(full.pages) + len(bench.warm_pages))
            outcome = full.tail(bench.warm_requests())
        rss_mb = tree_peak_rss_mb()
    finally:
        workloads.close_server(server)

    scaled = [latency / factor for latency, factor in zip(outcome.latencies_s, outcome.factors)]
    limit_s = w.latency_limit_ms / 1000.0
    if w.loop == "closed":
        # Throughput is the median over probe blocks of each block's rate.
        per_block = {}
        for block, count, latency, factor in zip(outcome.blocks, outcome.call_docs,
                                                 outcome.latencies_s, outcome.factors):
            docs, busy, raw = per_block.get(block, (0, 0.0, 0.0))
            per_block[block] = (docs + count, busy + latency / factor, raw + latency)
        docs_per_s = statistics.median(docs / busy for docs, busy, _ in per_block.values())
        raw_docs_per_s = statistics.median(docs / raw for docs, _, raw in per_block.values())
        good = sum(count for count, latency in zip(outcome.call_docs, scaled) if latency <= limit_s)
        goodput = docs_per_s * good / len(outcome.pages)
    else:
        # The schedule fixes the offered rate (in rescaled seconds).
        check_generator(outcome)
        complete = [brief is not None and brief.complete for brief in outcome.briefs]
        docs_per_s = sum(complete) / outcome.wall_s
        raw_docs_per_s = docs_per_s / statistics.fmean(outcome.factors)
        goodput = sum(1 for ok, latency in zip(complete, scaled) if ok and latency <= limit_s) / outcome.wall_s
    latencies_ms = [latency * 1000.0 for latency in scaled]
    metrics = {
        "docs_per_s": docs_per_s,
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p99_ms": percentile(latencies_ms, 99),
        "goodput_rps": goodput,
        "setup_s": setup_s,
        "rss_mb": rss_mb,
    }
    metrics["topic_em"], metrics["attr_f1"] = quality(outcome, source)
    raw_ms = [latency * 1000.0 for latency in outcome.latencies_s]
    info.update(
        samples=len(latencies_ms),
        samples_beyond_p99=sum(1 for latency in latencies_ms if latency > metrics["latency_p99_ms"]),
        speed_factor_median=statistics.median(outcome.factors),
        raw={"docs_per_s": raw_docs_per_s, "latency_p50_ms": percentile(raw_ms, 50),
             "latency_p99_ms": percentile(raw_ms, 99), "setup_s": setup_raw_s},
        generator_lag_ms_p99=percentile([lag * 1000.0 for lag in outcome.lags_s], 99),
        distinct_pages=len({page.html for page in outcome.pages}),
    )
    return outcome, source, metrics


def check_generator(outcome) -> None:
    """An open-loop run is invalid when its generator fell behind schedule."""
    lag_p99_ms = percentile([lag * 1000.0 for lag in outcome.lags_s], 99)
    if lag_p99_ms > LAG_LIMIT_MS:
        raise CheckFailed(f"open-loop generator fell behind: p99 send lag {lag_p99_ms:.1f} ms "
                          f"> {LAG_LIMIT_MS} ms")


def check_outputs(bench: Bench, outcome, source, info: dict) -> dict:
    """Quality floor, repeatable counts, determinism against the reference."""
    em, f1 = quality(outcome, source)
    if em < FLOOR["topic_em"] or f1 < FLOOR["attr_f1"]:
        raise CheckFailed(f"quality below the floor: topic_em {em:.3f} (floor {FLOOR['topic_em']}), "
                          f"attr_f1 {f1:.3f} (floor {FLOOR['attr_f1']})")
    w = bench.workload
    pages = bench.check_pages()
    counts, reference = check_counts(w, bench.model, pages, f"{w.name}:{bench.args.seed}:{w.check_pages}")
    check_against_reference(outcome, reference)
    if w.loop == "open":
        check_thread_transport(bench, pages, reference)
    info["counts"] = counts
    return counts


def check_thread_transport(bench: Bench, pages, reference) -> None:
    """The thread transport must brief the check pages like the reference."""
    import workloads

    server = workloads.build_server(dataclasses.replace(bench.workload, transport="thread"),
                                    bench.restore())
    try:
        briefs = server.brief_many([(page.doc_id, page.html) for page in pages])
    finally:
        workloads.close_server(server)
    for page, brief in zip(pages, briefs):
        if not brief.complete or brief_key(brief) != reference[page.html]:
            raise CheckFailed(f"{page.doc_id}: thread-transport brief differs from the reference")


def per_layer(bench: Bench, info: dict):
    """The traced run: ``(outcome, page source, per-layer metrics)``.

    The same fixed work runs untraced and then traced, each on a fresh
    server; the traced pass feeds the layer clock and the server telemetry.
    """
    import layers
    import workloads
    from repro.core.transport import ModelSnapshot

    w = bench.workload
    server, _, _, spawn_s = bench.set_up_repeatedly()
    workloads.close_server(server)
    out = {
        "core.process_pool.spawn_s": spawn_s,
        "core.process_pool.snapshot_bytes": ModelSnapshot(bench.model).num_bytes,
        "core.serving.shed": 0,
        "core.serving.requeued": 0,
        "core.serving.worker_restarts": 0,
        "core.batched.brief_cache_hit_ratio": 0.0,
        "core.batched.render_cache_hit_ratio": 0.0,
        "core.serving.front_hit_ratio": 0.0,
    }
    clock = layers.LayerClock()
    if w.loop == "closed":
        source, outcome, lines, problems = closed_layers(bench, clock, out)
    else:
        source, outcome, lines, problems = serve_layers(bench, clock, out)
    info["layer_table"] = lines
    if problems:
        raise CheckFailed("traced run does not reconcile: " + "; ".join(problems))
    return outcome, source, out


def closed_layers(bench: Bench, clock, out: dict):
    """Closed loop: one caller, so busy time is the loop's measured time.

    With no queue or worker pool in front of ``brief_many``, the serving and
    transport metrics measure the same quantities at the call boundary: the
    gap between calls, the call time outside ``brief_many``, pages per call.
    """
    import layers
    import workloads

    w = bench.workload
    passes = {}
    for traced in (False, True):
        server, _, _ = bench.set_up()
        source = bench.source("main")
        if traced:
            with layers.wrapped(clock, bench.model):
                passes[traced] = workloads.closed_loop(server, source, w.batch,
                                                       pages_total=int(w.trace_work))
        else:
            passes[traced] = workloads.closed_loop(server, source, w.batch,
                                                   pages_total=int(w.trace_work))
    outcome = passes[True]
    busy = outcome.wall_s
    out["obs.tracing_overhead"] = outcome.wall_s / passes[False].wall_s
    out.update(layers.in_process_metrics(clock))
    gaps_ms = [lag * 1000.0 for lag in outcome.lags_s]
    out["core.serving.queue_wait_ms_p50"] = percentile(gaps_ms, 50)
    out["core.serving.queue_wait_ms_p99"] = percentile(gaps_ms, 99)
    out["load.generator_lag_ms_p99"] = percentile(gaps_ms, 99)
    out["core.serving.batch_pages_mean"] = statistics.fmean(outcome.call_docs)
    out["core.process_pool.ipc_ms_per_batch"] = 1000.0 * (
        sum(outcome.latencies_s) - clock.inclusive["core.batched.brief_many"]) / len(outcome.latencies_s)
    return source, outcome, layers.table(clock, busy), layers.reconcile(clock, busy)


def serve_layers(bench: Bench, clock, out: dict):
    """Open loop on worker processes: their spans and metrics, plus a replay.

    The workers' own telemetry gives parse, render, ``brief_many`` and the
    serving path; their model layers are timed on an in-process replay of
    the served pages at the batch size the workers saw.
    """
    import layers
    import workloads

    w = bench.workload
    source, schedule = bench.schedule(w.trace_work)
    warm = bench.warm_requests()
    p50 = {}
    for traced in (False, True):
        server, _, _ = bench.set_up(observe=traced)
        try:
            window_start = time.perf_counter()
            outcome = workloads.open_loop(server, schedule)
            check_conservation(outcome, server, len(outcome.pages) + len(bench.warm_pages))
            p50[traced] = percentile(outcome.latencies_s[warm:], 50)
            if traced:
                spans = [span for span in server.trace_spans() if span.start >= window_start]
                snapshot = server.metrics_snapshot().aggregate()
                stats = server.merged_stats()
        finally:
            workloads.close_server(server)
    outcome = outcome.tail(warm)
    check_generator(outcome)

    out["obs.tracing_overhead"] = p50[True] / p50[False]
    out["load.generator_lag_ms_p99"] = percentile([lag * 1000.0 for lag in outcome.lags_s], 99)
    out["core.serving.shed"] = stats.requests_shed
    out["core.serving.requeued"] = stats.batches_requeued
    out["core.serving.worker_restarts"] = stats.worker_restarts
    admissions = {span.span_id: span for span in spans if span.name == "admission"}
    serves = [span for span in spans if span.name == "serve"]
    waits_ms = [1000.0 * (span.start - admissions[span.parent_id].start)
                for span in serves if span.parent_id in admissions]
    out["core.serving.queue_wait_ms_p50"] = percentile(waits_ms, 50)
    out["core.serving.queue_wait_ms_p99"] = percentile(waits_ms, 99)
    batches = [span for span in spans if span.name == "brief_many"]
    out["core.serving.batch_pages_mean"] = (
        statistics.fmean(span.attributes.get("pages", 0) for span in batches) if batches else 0.0)
    # A batch's brief_many span parents under its leader's admission span,
    # as does the leader's serve span: their difference is the transport.
    leader_serve = {span.parent_id: span for span in serves}
    ipc, busy, covered = [], 0.0, 0.0
    for batch in batches:
        serve = leader_serve.get(batch.parent_id)
        if serve is not None:
            ipc.append(serve.duration - batch.duration)
            busy += serve.duration
            covered += batch.duration
    out["core.process_pool.ipc_ms_per_batch"] = 1000.0 * statistics.fmean(ipc) if ipc else 0.0
    outcomes = _by_label(snapshot, "serving_requests_total")
    total = sum(outcomes.values())
    if total:
        out["core.serving.front_hit_ratio"] = (
            outcomes.get("cache_hit", 0) + outcomes.get("coalesced", 0)) / total
    lookups = _by_label(snapshot, "serving_cache_requests_total")
    if lookups:
        out["core.batched.brief_cache_hit_ratio"] = lookups.get("hit", 0) / sum(lookups.values())
    stages = _by_label(snapshot, "briefing_stage_seconds")
    misses = lookups.get("miss", 0)
    if misses:
        out["core.batched.render_cache_hit_ratio"] = 1.0 - stages.get("parse", {}).get("count", 0) / misses

    from repro.core import BatchedBriefingPipeline

    replay = list({page.html: page for _, page in schedule}.values())[:256]
    size = max(1, int(round(out["core.serving.batch_pages_mean"])))
    pipeline = BatchedBriefingPipeline(bench.model, beam_size=w.beam_size, batch_size=size)
    with layers.wrapped(clock, bench.model):
        start = time.perf_counter()
        for offset in range(0, len(replay), size):
            pipeline.brief_many([(page.doc_id, page.html) for page in replay[offset: offset + size]])
        replay_s = time.perf_counter() - start
    out.update(layers.in_process_metrics(clock))
    # html and brief_many bookkeeping come from the workers' own telemetry.
    for name, stage in (("html.parse_ms_per_doc", "parse"), ("html.render_ms_per_doc", "render")):
        series = stages.get(stage, {})
        out[name] = 1000.0 * series.get("sum", 0.0) / max(1, series.get("count", 0))
    inner = sum(stages.get(stage, {}).get("sum", 0.0) for stage in ("parse", "render", "predict_batch"))
    pages = sum(span.attributes.get("pages", 0) for span in batches)
    brief_many_s = sum(span.duration for span in batches)
    out["core.batched.self_ms_per_doc"] = 1000.0 * (brief_many_s - inner) / max(1, pages)
    problems = layers.reconcile(clock, replay_s)
    if inner > brief_many_s * (1 + layers.RECONCILE_TOLERANCE):
        problems.append(f"worker stages {inner:.4f} s exceed worker brief_many {brief_many_s:.4f} s")
    if covered > busy * (1 + layers.RECONCILE_TOLERANCE):
        problems.append(f"worker brief_many {covered:.4f} s exceeds parent serve time {busy:.4f} s")
    lines = ["model layers: in-process replay of the served pages"] + layers.table(clock, replay_s)
    lines.append(f"workers: brief_many {brief_many_s * 1000:.1f} ms, of which parse/render/predict "
                 f"{inner * 1000:.1f} ms; parent serve {busy * 1000:.1f} ms "
                 f"(brief_many covers {covered / busy if busy else 0.0:.1%})")
    return source, outcome, lines, problems


def _by_label(snapshot, name) -> dict:
    """``{label value: series value}`` of a one-label metric."""
    metric = snapshot.metrics.get(name)
    return {key[0][1]: value for key, value in metric["series"].items() if key} if metric else {}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("crawl-batch", "decode-wide", "serve-process"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fixture", choices=("trained", "untrained"), default="trained",
                        help="untrained serves the random init (to show the quality floor trips)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny traced work, check passes and a single set-up (for tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"perfbench: program source {SRC / 'repro'} not found")
        return 2
    envinfo.pin_blas_threads()
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    bench = Bench(args)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": envinfo.fingerprint(), "fixture": bench.fixture_info}
    outcome = None
    try:
        if args.trace:
            outcome, source, metrics = per_layer(bench, info)
            units = PER_LAYER_UNITS
        else:
            outcome, source, metrics = end_to_end(bench, info)
            units = END_TO_END_UNITS
        counts = check_outputs(bench, outcome, source, info)
    except CheckFailed as exc:
        log(f"perfbench: check failed: {exc}")
        attempted = len(outcome.pages) if outcome is not None else 0
        failed = failures(outcome) if outcome is not None else 0
        print(json.dumps({"correct": False, "attempted": max(1, attempted), "failed": failed,
                          "metrics": {}}))
        return 1
    if args.trace:
        metrics["html.docs_parsed"] = counts["docs_parsed"]
        metrics["nn.beam_steps"] = counts["beam_steps"]
        metrics["core.batched.coalesced"] = counts["coalesced"]
    for line in info.pop("layer_table", []):
        print(line)
    info["run_s"] = time.perf_counter() - started
    print(json.dumps({"info": info}, default=str))
    result = {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": True, "attempted": len(outcome.pages), "failed": failures(outcome),
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
