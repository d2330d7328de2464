"""Serving benchmark: sequential vs batched briefing throughput.

``repro bench`` (and the ``benchmarks/perf`` smoke tests) time the same page
stream through :class:`~repro.core.pipeline.BriefingPipeline` one page at a
time and through :class:`~repro.core.batched.BatchedBriefingPipeline` in
batches, verify the discrete outputs (topic tokens, attribute spans,
informative sentences) are identical, and report docs/sec, per-page latency
percentiles and the brief-cache hit rate.  Results serialise to
``BENCH_serving.json`` — schema documented in ``docs/ARCHITECTURE.md``.

With ``observe=True`` (the default) the bench also answers *where the time
went*: it replays the stream through two fresh batched pipelines — one
un-observed, one under a live :class:`~repro.obs.Tracer` +
:class:`~repro.obs.MetricsRegistry` — to measure tracing overhead honestly,
reads per-stage timings back from the ``briefing_stage_seconds`` histogram,
and attributes model time per layer class (MiniBert vs BiLSTM vs attention)
with a :class:`~repro.obs.ForwardProfiler` pass.

The synthesized corpus repeats a fraction of its pages (default 25%) the way
real crawl frontiers revisit URLs, so the content-addressed cache has
something to hit.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "BenchResult",
    "CascadeBenchResult",
    "ConcurrencyBenchResult",
    "MultiprocessBenchResult",
    "ResilienceBenchResult",
    "QuantizedBenchResult",
    "ReportComparison",
    "compare_reports",
    "merge_bench_report",
    "save_section",
    "run_cascade_bench",
    "run_decode_bench",
    "run_serving_bench",
    "run_concurrency_bench",
    "run_chaos_bench",
    "run_multiprocess_bench",
    "run_quantized_bench",
    "synthesize_serving_corpus",
    "synthesize_zipf_stream",
]


def merge_bench_report(path: str, updates: Dict[str, object]) -> dict:
    """Merge ``updates`` into the JSON report at ``path`` (never clobber).

    Every bench mode shares ``BENCH_serving.json``; each writes only its own
    top-level keys, so running one mode must not erase the sections the
    other modes recorded (``decode``, ``concurrency``, ``resilience``,
    ``multiprocess``, …).  A missing or unparsable file starts fresh.
    Returns the full merged report.
    """
    try:
        with open(path) as handle:
            report = json.load(handle)
        if not isinstance(report, dict):
            report = {}
    except (OSError, ValueError):
        report = {}
    report.update(updates)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return report


def save_section(path: str, section: Optional[str], payload: Dict[str, object]) -> dict:
    """Write one bench mode's results into the shared report.

    Every bench mode funnels through here so the merge discipline lives in
    exactly one place: ``section=None`` merges ``payload``'s keys at the top
    level (the serving bench owns several top-level keys), any other value
    nests the whole payload under that one key (``"concurrency"``,
    ``"resilience"``, ``"multiprocess"``, ``"cascade"``, ``"quantized"``).
    Either way the write is read-merge-write, so sibling sections written by
    the other modes survive.  Returns the full merged report.
    """
    updates = dict(payload) if section is None else {section: dict(payload)}
    return merge_bench_report(path, updates)


def _peak_rss_mb() -> Optional[float]:
    """Peak resident set size of this process in MB (None where unavailable)."""
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return None
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes; macOS reports bytes.
    if sys.platform == "darwin":
        return peak_kb / (1024.0 * 1024.0)
    return peak_kb / 1024.0


def synthesize_serving_corpus(
    num_pages: int,
    seed: int = 7,
    duplicate_fraction: float = 0.25,
) -> List[Tuple[str, str]]:
    """``(doc_id, html)`` pages from synthetic websites, with repeats.

    Roughly ``duplicate_fraction`` of the stream re-serves earlier content
    under a fresh ``doc_id`` (same bytes, new request) to exercise the
    serving cache; the rest are unique pages drawn from as many synthetic
    websites as needed.
    """
    if num_pages <= 0:
        raise ValueError(f"num_pages must be positive, got {num_pages}")
    if not 0.0 <= duplicate_fraction < 1.0:
        raise ValueError(f"duplicate_fraction must be in [0, 1), got {duplicate_fraction}")
    from ..data.synthesizer import SyntheticWebsite
    from ..data.taxonomy import build_taxonomy

    rng = np.random.default_rng(seed)
    topics = build_taxonomy()
    num_unique = max(1, num_pages - int(round(num_pages * duplicate_fraction)))

    unique: List[str] = []
    site_index = 0
    while len(unique) < num_unique:
        topic = topics[site_index % len(topics)]
        website = SyntheticWebsite(
            f"bench-{site_index}.example", topic, num_pages=4, rng=rng
        )
        for url in website.urls:
            html = website.fetch(url)
            if html:
                unique.append(html)
            if len(unique) == num_unique:
                break
        site_index += 1

    stream = list(unique)
    while len(stream) < num_pages:
        stream.append(unique[int(rng.integers(len(unique)))])
    rng.shuffle(stream)
    return [(f"page-{position:04d}", html) for position, html in enumerate(stream)]


@dataclass
class BenchResult:
    """One serving-benchmark run; ``to_dict`` is the BENCH_serving.json schema."""

    num_pages: int
    unique_pages: int
    batch_size: int
    sequential_seconds: float
    batched_seconds: float
    sequential_docs_per_second: float
    batched_docs_per_second: float
    speedup: float
    sequential_latency_p50_ms: float
    sequential_latency_p95_ms: float
    batched_latency_p50_ms: float
    batched_latency_p95_ms: float
    cache_hit_rate: float
    outputs_match: bool
    mismatches: List[str] = field(default_factory=list)
    #: brief-cache lookups during the batched run (counts, not just the rate).
    cache_hits: int = 0
    cache_misses: int = 0
    #: per-stage timings from the ``briefing_stage_seconds`` histogram:
    #: ``{stage: {count, total_seconds, p50_ms, p95_ms}}``.
    phases: Dict[str, dict] = field(default_factory=dict)
    #: per-layer-class forward time: ``{class: {calls, seconds}}``.
    layers: Dict[str, dict] = field(default_factory=dict)
    #: (traced seconds / un-traced seconds) - 1 for the same stream;
    #: ``None`` when the bench ran with ``observe=False``.
    observability_overhead: Optional[float] = None
    #: scalar-vs-batched decode micro-benchmark (:func:`run_decode_bench`):
    #: ``{num_pages, unique_pages, beam_size, max_depth, scalar_seconds,
    #: batched_seconds, speedup, outputs_match, mismatches}``.
    decode: Optional[dict] = None
    #: peak resident set size of the bench process, MB (None off-POSIX).
    peak_rss_mb: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "num_pages": self.num_pages,
            "unique_pages": self.unique_pages,
            "batch_size": self.batch_size,
            "sequential": {
                "seconds": self.sequential_seconds,
                "docs_per_second": self.sequential_docs_per_second,
                "latency_p50_ms": self.sequential_latency_p50_ms,
                "latency_p95_ms": self.sequential_latency_p95_ms,
            },
            "batched": {
                "seconds": self.batched_seconds,
                "docs_per_second": self.batched_docs_per_second,
                "latency_p50_ms": self.batched_latency_p50_ms,
                "latency_p95_ms": self.batched_latency_p95_ms,
            },
            "speedup": self.speedup,
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": self.cache_hit_rate,
            },
            "cache_hit_rate": self.cache_hit_rate,
            "phases": {stage: dict(data) for stage, data in self.phases.items()},
            "layers": {cls: dict(data) for cls, data in self.layers.items()},
            "observability_overhead": self.observability_overhead,
            "decode": dict(self.decode) if self.decode is not None else None,
            "peak_rss_mb": self.peak_rss_mb,
            "outputs_match": self.outputs_match,
            "mismatches": list(self.mismatches),
        }

    def save(self, path: str) -> None:
        """Merge this run's sections into the report, keeping siblings.

        The serving bench owns the top-level keys it writes (``sequential``,
        ``batched``, ``decode``, …); sections written by the other bench
        modes (``concurrency``, ``resilience``, ``multiprocess``) survive.
        """
        save_section(path, None, self.to_dict())

    def format(self) -> str:
        lines = [
            f"pages: {self.num_pages} ({self.unique_pages} unique), "
            f"batch size {self.batch_size}",
            f"sequential: {self.sequential_docs_per_second:6.2f} docs/s  "
            f"p50 {self.sequential_latency_p50_ms:.1f} ms  "
            f"p95 {self.sequential_latency_p95_ms:.1f} ms",
            f"batched:    {self.batched_docs_per_second:6.2f} docs/s  "
            f"p50 {self.batched_latency_p50_ms:.1f} ms  "
            f"p95 {self.batched_latency_p95_ms:.1f} ms",
            f"speedup: {self.speedup:.2f}x   cache: {self.cache_hits} hits / "
            f"{self.cache_misses} misses ({self.cache_hit_rate:.0%})",
            f"outputs match: {self.outputs_match}"
            + (f" ({len(self.mismatches)} mismatches)" if self.mismatches else ""),
        ]
        if self.phases:
            lines.append("per-stage (batched, traced run):")
            for stage, data in sorted(
                self.phases.items(), key=lambda kv: kv[1]["total_seconds"], reverse=True
            ):
                lines.append(
                    f"  {stage:<14} {data['count']:>5} calls  "
                    f"{data['total_seconds'] * 1000:8.1f} ms total  "
                    f"p50 {data['p50_ms']:6.2f} ms  p95 {data['p95_ms']:6.2f} ms"
                )
        if self.decode:
            lines.append(
                f"decode (beam {self.decode['beam_size']}, "
                f"{self.decode['num_pages']} pages): "
                f"scalar {self.decode['scalar_seconds'] * 1000:.0f} ms  "
                f"batched {self.decode['batched_seconds'] * 1000:.0f} ms  "
                f"speedup {self.decode['speedup']:.2f}x  "
                f"outputs match: {self.decode['outputs_match']}"
            )
        if self.observability_overhead is not None:
            lines.append(f"observability overhead: {self.observability_overhead:+.1%}")
        return "\n".join(lines)

    def format_kernel_profile(self) -> str:
        """Per-layer call-count / seconds table (``repro bench --profile-kernels``).

        Renders the ``layers`` section — the :class:`~repro.obs.ForwardProfiler`
        attribution pass — so decode-path regressions (e.g. the scalar
        per-hypothesis loop sneaking back in as hundreds of ``LSTMCell`` /
        ``BilinearAttention`` calls) are visible straight from the CLI.
        """
        if not self.layers:
            return "kernel profile: not collected (bench ran with observe=False)"
        lines = ["per-layer forward time (profiled pass):"]
        lines.append(f"  {'layer':<24} {'calls':>6}  {'total ms':>9}  {'ms/call':>8}")
        for cls, data in sorted(
            self.layers.items(), key=lambda kv: kv[1]["seconds"], reverse=True
        ):
            per_call = data["seconds"] / data["calls"] * 1000.0 if data["calls"] else 0.0
            lines.append(
                f"  {cls:<24} {data['calls']:>6}  {data['seconds'] * 1000:9.1f}  "
                f"{per_call:8.3f}"
            )
        total_calls = sum(data["calls"] for data in self.layers.values())
        total_seconds = sum(data["seconds"] for data in self.layers.values())
        lines.append(f"  {'total':<24} {total_calls:>6}  {total_seconds * 1000:9.1f}")
        if self.peak_rss_mb is not None:
            lines.append(f"  peak RSS: {self.peak_rss_mb:.1f} MB")
        return "\n".join(lines)


def _build_bench_model(topics: int, pages: int, seed: int):
    """Tiny untrained Joint-WB stack (deterministic outputs, honest compute)."""
    from .. import nn
    from ..data import Vocabulary, build_jasmine_corpus
    from ..models import BertSumEncoder, make_joint_model

    corpus = build_jasmine_corpus(num_topics=topics, pages_per_site=pages, seed=seed)
    vocabulary = Vocabulary.from_corpus(corpus)
    rng = np.random.default_rng(seed)
    bert = nn.MiniBert(
        vocab_size=len(vocabulary), dim=24, num_layers=1, num_heads=2, rng=rng, max_len=512
    )
    return make_joint_model(
        "Joint-WB", BertSumEncoder(vocabulary, bert), vocabulary, hidden_dim=16, rng=rng
    )


def _percentile_ms(latencies: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(latencies), q) * 1000.0)


def _run_batched_stream(pipeline, pages: List[Tuple[str, str]], batch_size: int) -> float:
    """Push ``pages`` through ``pipeline.brief_many`` in chunks; wall seconds."""
    start = time.perf_counter()
    for offset in range(0, len(pages), batch_size):
        pipeline.brief_many(pages[offset : offset + batch_size])
    return time.perf_counter() - start


def run_decode_bench(
    model=None,
    num_pages: int = 64,
    seed: int = 7,
    beam_size: int = 8,
    max_depth: int = 8,
    pages: Optional[List[Tuple[str, str]]] = None,
    duplicate_fraction: float = 0.25,
) -> dict:
    """Time scalar vs batched topic decode over an encoded page stream.

    Encodes each unique page once (duplicates share the encoded memory, the
    way the serving cache shares briefs), then decodes every page of the
    stream twice: through the scalar reference loop — one
    ``generator.generate`` beam search per page, one model call per
    hypothesis per step — and through the vectorized
    ``generator.generate_batch`` fast path, which advances every live beam
    of every page in one fused step per depth.  The decoded topics must be
    identical; the returned dict is the ``decode`` section of
    ``BENCH_serving.json``.
    """
    from .. import nn
    from .pipeline import document_from_raw_html

    if pages is None:
        pages = synthesize_serving_corpus(
            num_pages, seed=seed, duplicate_fraction=duplicate_fraction
        )
    if model is None:
        model = _build_bench_model(topics=2, pages=3, seed=seed)

    doc_ids: List[str] = []
    memories: List = []
    memory_by_html: Dict[str, object] = {}
    with nn.no_grad():
        for doc_id, html in pages:
            if html not in memory_by_html:
                try:
                    document = document_from_raw_html(html, doc_id=doc_id)
                except Exception:
                    continue
                _, _, _, c_g_dual = model._inference_states(document)
                memory_by_html[html] = c_g_dual
            doc_ids.append(doc_id)
            memories.append(memory_by_html[html])

        start = time.perf_counter()
        scalar_topics = [
            model.generator.generate(memory, beam_size=beam_size, max_depth=max_depth)
            for memory in memories
        ]
        scalar_seconds = time.perf_counter() - start

        start = time.perf_counter()
        batched_topics = model.generator.generate_batch(
            memories, beam_size=beam_size, max_depth=max_depth
        )
        batched_seconds = time.perf_counter() - start

    mismatches = [
        doc_id
        for doc_id, left, right in zip(doc_ids, scalar_topics, batched_topics)
        if left != right
    ]
    return {
        "num_pages": len(memories),
        "unique_pages": len(memory_by_html),
        "beam_size": beam_size,
        "max_depth": max_depth,
        "scalar_seconds": scalar_seconds,
        "batched_seconds": batched_seconds,
        "speedup": scalar_seconds / batched_seconds if batched_seconds else float("inf"),
        "outputs_match": not mismatches,
        "mismatches": mismatches,
    }


def run_serving_bench(
    num_pages: int = 64,
    seed: int = 7,
    batch_size: int = 8,
    beam_size: int = 2,
    duplicate_fraction: float = 0.25,
    dtype=None,
    output_path: Optional[str] = None,
    model=None,
    observe: bool = True,
    tracer=None,
    registry=None,
    decode_beam_size: int = 8,
) -> BenchResult:
    """Time sequential vs batched briefing on a synthesized page stream.

    The batched side consumes the stream in ``batch_size`` chunks (each
    page's latency is its chunk's wall time — the request waits for its
    batch), so later chunks exercise the brief cache on repeated content.
    Pass ``output_path`` to also write ``BENCH_serving.json``.

    ``observe=True`` adds the observability passes (overhead measurement,
    per-stage timings, per-layer profile); pass your own ``tracer`` /
    ``registry`` to keep the spans and metrics they produce (the CLI's
    ``--trace`` / ``--metrics`` do exactly that).

    The report always includes a ``decode`` section
    (:func:`run_decode_bench` at ``decode_beam_size`` over the same stream)
    isolating the scalar-vs-batched decode speedup from the rest of the
    pipeline.
    """
    from ..obs import ForwardProfiler, MetricsRegistry, Tracer, bridge_runtime_stats
    from .batched import BatchedBriefingPipeline
    from .pipeline import BriefingPipeline

    pages = synthesize_serving_corpus(
        num_pages, seed=seed, duplicate_fraction=duplicate_fraction
    )
    unique_pages = len({html for _, html in pages})
    if model is None:
        model = _build_bench_model(topics=2, pages=3, seed=seed)

    sequential = BriefingPipeline(model, beam_size=beam_size)
    sequential_latencies: List[float] = []
    start = time.perf_counter()
    sequential_briefs = []
    for doc_id, html in pages:
        t0 = time.perf_counter()
        sequential_briefs.append(sequential.brief_html(html, doc_id=doc_id))
        sequential_latencies.append(time.perf_counter() - t0)
    sequential_seconds = time.perf_counter() - start

    batched = BatchedBriefingPipeline(
        model, beam_size=beam_size, batch_size=batch_size, dtype=dtype
    )
    batched_latencies: List[float] = []
    batched_briefs = []
    start = time.perf_counter()
    for offset in range(0, len(pages), batch_size):
        chunk = pages[offset : offset + batch_size]
        t0 = time.perf_counter()
        batched_briefs.extend(batched.brief_many(chunk))
        chunk_seconds = time.perf_counter() - t0
        batched_latencies.extend([chunk_seconds] * len(chunk))
    batched_seconds = time.perf_counter() - start

    mismatches: List[str] = []
    for (doc_id, _), left, right in zip(pages, sequential_briefs, batched_briefs):
        if (
            left.topic != right.topic
            or left.attributes != right.attributes
            or left.informative_sentences != right.informative_sentences
        ):
            mismatches.append(doc_id)

    phases: Dict[str, dict] = {}
    layers: Dict[str, dict] = {}
    overhead: Optional[float] = None
    if observe:
        # Overhead compares *fresh* pipelines over the same stream (same cold
        # caches), alternating un-traced and traced passes and keeping the
        # best of each — min-of-N discards scheduler noise, and interleaving
        # keeps warm-up and machine drift out of the comparison.
        obs_tracer = tracer if tracer is not None else Tracer()
        obs_registry = registry if registry is not None else MetricsRegistry()
        plain_seconds = float("inf")
        observed_seconds = float("inf")
        observed = None
        for _ in range(3):
            plain = BatchedBriefingPipeline(
                model, beam_size=beam_size, batch_size=batch_size, dtype=dtype
            )
            plain_seconds = min(plain_seconds, _run_batched_stream(plain, pages, batch_size))
            observed = BatchedBriefingPipeline(
                model,
                beam_size=beam_size,
                batch_size=batch_size,
                dtype=dtype,
                tracer=obs_tracer,
                registry=obs_registry,
            )
            observed_seconds = min(
                observed_seconds, _run_batched_stream(observed, pages, batch_size)
            )
        overhead = observed_seconds / plain_seconds - 1.0
        bridge_runtime_stats(observed.stats, obs_registry)

        stage_seconds = obs_registry.histogram("briefing_stage_seconds")
        for key in obs_registry.snapshot().labels("briefing_stage_seconds"):
            stage = dict(key).get("stage", "")
            phases[stage] = {
                "count": stage_seconds.count(stage=stage),
                "total_seconds": stage_seconds.sum(stage=stage),
                "p50_ms": stage_seconds.percentile(50, stage=stage) * 1000.0,
                "p95_ms": stage_seconds.percentile(95, stage=stage) * 1000.0,
            }

        # Layer attribution on one profiled forward pass over a small sample
        # of unique documents (profiling wraps every submodule forward, so it
        # is kept out of the overhead-measured run).
        from .pipeline import document_from_raw_html

        sample: List = []
        seen_html = set()
        for doc_id, html in pages:
            if html in seen_html:
                continue
            seen_html.add(html)
            try:
                sample.append(document_from_raw_html(html, doc_id=doc_id))
            except Exception:
                continue
            if len(sample) >= batch_size:
                break
        if sample:
            profiler = ForwardProfiler()
            with profiler.install(model):
                model.predict_batch(sample, beam_size=beam_size, batch_size=batch_size)
            layers = {
                cls: {"calls": timing.calls, "seconds": timing.seconds}
                for cls, timing in profiler.by_class().items()
            }

    decode = run_decode_bench(
        model=model, pages=pages, seed=seed, beam_size=decode_beam_size
    )

    lookups = batched.stats.cache_hits + batched.stats.cache_misses
    result = BenchResult(
        num_pages=len(pages),
        unique_pages=unique_pages,
        batch_size=batch_size,
        sequential_seconds=sequential_seconds,
        batched_seconds=batched_seconds,
        sequential_docs_per_second=len(pages) / sequential_seconds,
        batched_docs_per_second=len(pages) / batched_seconds,
        speedup=sequential_seconds / batched_seconds,
        sequential_latency_p50_ms=_percentile_ms(sequential_latencies, 50),
        sequential_latency_p95_ms=_percentile_ms(sequential_latencies, 95),
        batched_latency_p50_ms=_percentile_ms(batched_latencies, 50),
        batched_latency_p95_ms=_percentile_ms(batched_latencies, 95),
        cache_hit_rate=(batched.stats.cache_hits / lookups) if lookups else 0.0,
        outputs_match=not mismatches,
        mismatches=mismatches,
        cache_hits=batched.stats.cache_hits,
        cache_misses=batched.stats.cache_misses,
        phases=phases,
        layers=layers,
        observability_overhead=overhead,
        decode=decode,
        peak_rss_mb=_peak_rss_mb(),
    )
    if output_path is not None:
        result.save(output_path)
    return result


# ----------------------------------------------------------------------
# Concurrent serving benchmark (repro bench --concurrency N)
# ----------------------------------------------------------------------
@dataclass
class ConcurrencyBenchResult:
    """Throughput-vs-workers for the concurrent serving layer.

    The baseline is a *single worker serving the stream one request at a
    time* through the per-request :class:`BriefingPipeline` — no
    cross-request micro-batching, no serving-layer caches; what a
    deployment gets by pointing a request stream at ``brief_html`` before
    this subsystem existed.  The same timed loop doubles as the output
    ground truth.  ``per_request_batched_*`` records the intermediate
    option for transparency: single-worker ``brief_many`` fed one request
    per call, which keeps the content cache but still can't batch across
    requests.  The concurrent side submits the same stream to a
    :class:`~repro.core.serving.ConcurrentBriefingPipeline`, whose
    scheduler coalesces concurrent requests into micro-batches for
    ``predict_batch``, so ``speedup`` measures the serving layer as a
    whole (micro-batching + sharded cache + single-flight dedup).
    ``outputs_match`` compares every concurrent run (all worker counts)
    against the sequential ground truth; ``conserved`` checks
    ``cache_hits + cache_misses == num_pages`` for every run — the
    invariant the determinism test harness enforces.
    """

    num_pages: int
    unique_pages: int
    workers: int
    max_batch: int
    single_worker_seconds: float
    single_worker_docs_per_second: float
    per_request_batched_seconds: float
    per_request_batched_docs_per_second: float
    concurrent_seconds: float
    concurrent_docs_per_second: float
    speedup: float
    #: docs/sec with micro-batching at each pool size, e.g. {1: ..., 2: ...}.
    throughput_by_workers: Dict[int, float] = field(default_factory=dict)
    outputs_match: bool = True
    mismatches: List[str] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    conserved: bool = True
    queue_rejections: int = 0
    batches_dispatched: int = 0

    def to_dict(self) -> dict:
        return {
            "num_pages": self.num_pages,
            "unique_pages": self.unique_pages,
            "workers": self.workers,
            "max_batch": self.max_batch,
            "single_worker": {
                "seconds": self.single_worker_seconds,
                "docs_per_second": self.single_worker_docs_per_second,
            },
            "per_request_batched": {
                "seconds": self.per_request_batched_seconds,
                "docs_per_second": self.per_request_batched_docs_per_second,
            },
            "concurrent": {
                "seconds": self.concurrent_seconds,
                "docs_per_second": self.concurrent_docs_per_second,
            },
            "speedup": self.speedup,
            "throughput_by_workers": {
                str(workers): rate for workers, rate in sorted(self.throughput_by_workers.items())
            },
            "outputs_match": self.outputs_match,
            "mismatches": list(self.mismatches),
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "conserved": self.conserved,
            },
            "queue_rejections": self.queue_rejections,
            "batches_dispatched": self.batches_dispatched,
        }

    def save(self, path: str) -> None:
        """Merge this run under ``"concurrency"`` in the JSON report.

        ``repro bench`` and ``repro bench --concurrency N`` share
        ``BENCH_serving.json``; merging (rather than overwriting) lets the
        two modes coexist in one report.
        """
        save_section(path, "concurrency", self.to_dict())

    def format(self) -> str:
        lines = [
            f"pages: {self.num_pages} ({self.unique_pages} unique), "
            f"max_batch {self.max_batch}",
            f"single worker (per-request pipeline): "
            f"{self.single_worker_docs_per_second:6.2f} docs/s",
            f"single worker (brief_many, batches of one): "
            f"{self.per_request_batched_docs_per_second:6.2f} docs/s",
            f"concurrent ({self.workers} workers, micro-batched): "
            f"{self.concurrent_docs_per_second:6.2f} docs/s",
            f"speedup: {self.speedup:.2f}x",
            "throughput by workers:",
        ]
        for workers, rate in sorted(self.throughput_by_workers.items()):
            lines.append(f"  {workers:>2} workers: {rate:6.2f} docs/s")
        lines.append(
            f"cache: {self.cache_hits} hits / {self.cache_misses} misses "
            f"(conserved: {self.conserved})   "
            f"rejections: {self.queue_rejections}   "
            f"batches: {self.batches_dispatched}"
        )
        lines.append(
            f"outputs match: {self.outputs_match}"
            + (f" ({len(self.mismatches)} mismatches)" if self.mismatches else "")
        )
        return "\n".join(lines)


def _briefs_differ(left, right) -> bool:
    return (
        left.topic != right.topic
        or left.attributes != right.attributes
        or left.informative_sentences != right.informative_sentences
    )


def run_concurrency_bench(
    num_pages: int = 64,
    seed: int = 7,
    workers: int = 4,
    max_batch: int = 16,
    beam_size: int = 2,
    max_wait_ms: float = 2.0,
    duplicate_fraction: float = 0.25,
    dtype=None,
    output_path: Optional[str] = None,
    model=None,
) -> ConcurrencyBenchResult:
    """Benchmark concurrent serving against per-request single-worker serving.

    Times three things on the same synthesized stream: the sequential
    :class:`BriefingPipeline` loop (the throughput baseline *and* the
    output ground truth — one request at a time, no serving layer), a
    single-threaded per-request ``brief_many`` loop (recorded for
    transparency), and a :class:`~repro.core.serving.ConcurrentBriefingPipeline`
    at pool sizes ``{1, 2, workers}``.  Every concurrent run's briefs must
    be bit-identical to the sequential ground truth and conserve
    ``cache_hits + cache_misses == num_pages``.
    """
    from .batched import BatchedBriefingPipeline
    from .pipeline import BriefingPipeline
    from .serving import ConcurrentBriefingPipeline

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    pages = synthesize_serving_corpus(
        num_pages, seed=seed, duplicate_fraction=duplicate_fraction
    )
    unique_pages = len({html for _, html in pages})
    if model is None:
        model = _build_bench_model(topics=2, pages=3, seed=seed)

    # Baseline: one worker, one request at a time through the per-request
    # pipeline — the pre-serving-layer deployment.  Doubles as ground truth.
    sequential = BriefingPipeline(model, beam_size=beam_size)
    start = time.perf_counter()
    expected = [sequential.brief_html(html, doc_id=doc_id) for doc_id, html in pages]
    single_seconds = time.perf_counter() - start

    # Transparency figure: brief_many fed one request per call keeps the
    # content cache but still can't micro-batch across requests.
    single = BatchedBriefingPipeline(model, beam_size=beam_size, batch_size=1, dtype=dtype)
    start = time.perf_counter()
    for doc_id, html in pages:
        single.brief_many([(doc_id, html)])
    per_request_seconds = time.perf_counter() - start

    mismatches: List[str] = []
    conserved = True
    throughput: Dict[int, float] = {}
    queue_rejections = 0
    batches_dispatched = 0
    cache_hits = cache_misses = 0
    concurrent_seconds = float("nan")
    for pool_size in sorted({1, min(2, workers), workers}):
        server = ConcurrentBriefingPipeline(
            model,
            num_workers=pool_size,
            beam_size=beam_size,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            max_queue=max(2 * len(pages), 64),
            dtype=dtype,
        )
        start = time.perf_counter()
        briefs = server.brief_many(pages)
        elapsed = time.perf_counter() - start
        server.shutdown()
        throughput[pool_size] = len(pages) / elapsed
        merged = server.merged_stats()
        if merged.cache_hits + merged.cache_misses != len(pages):
            conserved = False
        for (doc_id, _), left, right in zip(pages, expected, briefs):
            if _briefs_differ(left, right):
                mismatches.append(f"workers={pool_size}:{doc_id}")
        if pool_size == workers:
            concurrent_seconds = elapsed
            cache_hits, cache_misses = merged.cache_hits, merged.cache_misses
            queue_rejections = merged.queue_rejections
            batches_dispatched = merged.batches_dispatched

    result = ConcurrencyBenchResult(
        num_pages=len(pages),
        unique_pages=unique_pages,
        workers=workers,
        max_batch=max_batch,
        single_worker_seconds=single_seconds,
        single_worker_docs_per_second=len(pages) / single_seconds,
        per_request_batched_seconds=per_request_seconds,
        per_request_batched_docs_per_second=len(pages) / per_request_seconds,
        concurrent_seconds=concurrent_seconds,
        concurrent_docs_per_second=len(pages) / concurrent_seconds,
        speedup=single_seconds / concurrent_seconds,
        throughput_by_workers=throughput,
        outputs_match=not mismatches,
        mismatches=mismatches,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
        conserved=conserved,
        queue_rejections=queue_rejections,
        batches_dispatched=batches_dispatched,
    )
    if output_path is not None:
        result.save(output_path)
    return result


# ----------------------------------------------------------------------
# Chaos / soak benchmark (repro bench --chaos)
# ----------------------------------------------------------------------
def synthesize_zipf_stream(
    num_requests: int,
    unique_pages: int = 16,
    seed: int = 7,
    alpha: float = 1.1,
) -> List[Tuple[str, str]]:
    """A Zipfian request stream: a few hot pages, a long cold tail.

    Real serving traffic is heavily skewed — the same landing pages arrive
    over and over while most URLs show up once.  Ranks follow
    ``p(rank) ∝ 1 / rank**alpha`` over ``unique_pages`` distinct documents,
    which gives the single-flight dedup and the content cache realistic work
    during a soak, unlike the uniform repeats of
    :func:`synthesize_serving_corpus`.
    """
    if num_requests <= 0:
        raise ValueError(f"num_requests must be positive, got {num_requests}")
    if unique_pages <= 0:
        raise ValueError(f"unique_pages must be positive, got {unique_pages}")
    base = synthesize_serving_corpus(unique_pages, seed=seed, duplicate_fraction=0.0)
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, len(base) + 1, dtype=float) ** alpha
    weights /= weights.sum()
    picks = rng.choice(len(base), size=num_requests, p=weights)
    return [
        (f"req-{position:05d}", base[int(pick)][1]) for position, pick in enumerate(picks)
    ]


@dataclass
class ResilienceBenchResult:
    """Serving behaviour under injected worker faults (the chaos/soak run).

    The contract being measured is *conservation under chaos*: with workers
    stalling, raising and dying at the configured rates, every submitted
    future must still resolve (``unresolved == 0``), shutdown must not
    deadlock (``stuck_workers`` empty), and latency must stay bounded —
    ``p50_ms``/``p99_ms`` are per-request wall times over the chaos run.
    ``throughput_ratio`` compares a fault-free run of the same stream on the
    same pipeline configuration (supervisor on, chaos off), so the overhead
    of the fault-tolerance machinery itself stays visible.
    """

    num_requests: int
    unique_pages: int
    workers: int
    rounds: int
    exception_rate: float
    stall_rate: float
    death_rate: float
    chaos_seed: int
    seconds: float
    docs_per_second: float
    fault_free_seconds: float
    fault_free_docs_per_second: float
    throughput_ratio: float
    p50_ms: float
    p99_ms: float
    conserved: bool
    unresolved: int
    stuck_workers: List[str] = field(default_factory=list)
    faults_injected: int = 0
    worker_deaths: int = 0
    worker_restarts: int = 0
    batches_requeued: int = 0
    poison_quarantined: int = 0
    requests_shed: int = 0
    deadline_expirations: int = 0
    queue_rejections: int = 0
    complete_briefs: int = 0
    degraded_briefs: int = 0

    @property
    def deadlocked(self) -> bool:
        return bool(self.stuck_workers)

    def to_dict(self) -> dict:
        return {
            "num_requests": self.num_requests,
            "unique_pages": self.unique_pages,
            "workers": self.workers,
            "rounds": self.rounds,
            "chaos": {
                "exception_rate": self.exception_rate,
                "stall_rate": self.stall_rate,
                "death_rate": self.death_rate,
                "seed": self.chaos_seed,
                "faults_injected": self.faults_injected,
                "worker_deaths": self.worker_deaths,
            },
            "throughput": {
                "seconds": self.seconds,
                "docs_per_second": self.docs_per_second,
                "fault_free_seconds": self.fault_free_seconds,
                "fault_free_docs_per_second": self.fault_free_docs_per_second,
                "ratio": self.throughput_ratio,
            },
            "latency_ms": {"p50": self.p50_ms, "p99": self.p99_ms},
            "conservation": {
                "conserved": self.conserved,
                "unresolved": self.unresolved,
                "deadlocked": self.deadlocked,
                "stuck_workers": list(self.stuck_workers),
            },
            "recovery": {
                "worker_restarts": self.worker_restarts,
                "batches_requeued": self.batches_requeued,
                "poison_quarantined": self.poison_quarantined,
                "requests_shed": self.requests_shed,
                "deadline_expirations": self.deadline_expirations,
                "queue_rejections": self.queue_rejections,
            },
            "briefs": {
                "complete": self.complete_briefs,
                "degraded": self.degraded_briefs,
            },
        }

    def save(self, path: str) -> None:
        """Merge this run under ``"resilience"`` in the JSON report.

        Same merge discipline as :meth:`ConcurrencyBenchResult.save`: all
        bench modes share ``BENCH_serving.json``.
        """
        save_section(path, "resilience", self.to_dict())

    def format(self) -> str:
        lines = [
            f"requests: {self.num_requests} ({self.unique_pages} unique, "
            f"{self.rounds} round{'s' if self.rounds != 1 else ''}), "
            f"{self.workers} workers",
            f"chaos: exception {self.exception_rate:.0%}  stall {self.stall_rate:.0%}  "
            f"death {self.death_rate:.0%}  (seed {self.chaos_seed}, "
            f"{self.faults_injected} faults, {self.worker_deaths} deaths)",
            f"throughput under chaos: {self.docs_per_second:6.2f} docs/s "
            f"({self.throughput_ratio:.2f}x of fault-free "
            f"{self.fault_free_docs_per_second:6.2f} docs/s)",
            f"latency: p50 {self.p50_ms:.1f} ms   p99 {self.p99_ms:.1f} ms",
            f"recovery: {self.worker_restarts} restarts, "
            f"{self.batches_requeued} batches re-queued, "
            f"{self.poison_quarantined} quarantined, "
            f"{self.requests_shed} shed, "
            f"{self.deadline_expirations} deadline expirations",
            f"briefs: {self.complete_briefs} complete / {self.degraded_briefs} degraded",
            f"conserved: {self.conserved} (unresolved: {self.unresolved})   "
            f"deadlocked: {self.deadlocked}",
        ]
        if self.stuck_workers:
            lines.append(f"stuck workers: {', '.join(self.stuck_workers)}")
        return "\n".join(lines)


def run_chaos_bench(
    num_requests: int = 96,
    unique_pages: int = 24,
    seed: int = 7,
    workers: int = 4,
    max_batch: int = 8,
    beam_size: int = 2,
    max_wait_ms: float = 2.0,
    exception_rate: float = 0.08,
    stall_rate: float = 0.05,
    death_rate: float = 0.03,
    stall_seconds: float = 0.01,
    max_deaths: Optional[int] = 8,
    deadline_ms: Optional[float] = None,
    rounds: int = 1,
    dtype=None,
    output_path: Optional[str] = None,
    model=None,
) -> ResilienceBenchResult:
    """Replay a Zipfian stream through the serving layer under fault injection.

    Two timed passes over the same stream and pipeline configuration:

    1. **fault-free** — supervisor on, chaos off; the overhead baseline;
    2. **chaos** — a :class:`~repro.runtime.chaos.ChaosWorker` stalls,
       fails and kills workers at the given rates while the supervisor
       resurrects them and re-queues their batches.

    The chaos pass submits requests one at a time (recording per-request
    wall latency for the p50/p99 SLOs) and then asserts the conservation
    contract: every future resolves within the grace timeout, and
    ``shutdown`` joins every worker.  ``rounds > 1`` is soak mode — the
    stream replays against the *same* pipeline, letting restarts, cache
    state and quarantines accumulate.
    """
    from ..runtime.chaos import ChaosWorker
    from ..runtime.stats import RuntimeStats
    from .serving import ConcurrentBriefingPipeline

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    stream = synthesize_zipf_stream(num_requests, unique_pages=unique_pages, seed=seed)
    if model is None:
        model = _build_bench_model(topics=2, pages=3, seed=seed)

    def build_server(chaos):
        return ConcurrentBriefingPipeline(
            model,
            num_workers=workers,
            beam_size=beam_size,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            max_queue=max(2 * len(stream), 64),
            dtype=dtype,
            default_deadline_ms=deadline_ms,
            supervise=True,
            chaos=chaos,
        )

    # Pass 1: fault-free, same configuration — the overhead baseline.
    baseline = build_server(chaos=None)
    start = time.perf_counter()
    for _ in range(rounds):
        baseline.brief_many(stream)
    fault_free_seconds = time.perf_counter() - start
    baseline.shutdown(timeout=60.0)

    # Pass 2: chaos.  Submit one request at a time so each future's wall
    # latency is observable via its done-callback.
    chaos_stats = RuntimeStats()
    chaos = ChaosWorker(
        exception_rate=exception_rate,
        stall_rate=stall_rate,
        death_rate=death_rate,
        stall_seconds=stall_seconds,
        seed=seed,
        stats=chaos_stats,
        sleep=time.sleep,
        max_deaths=max_deaths,
    )
    server = build_server(chaos=chaos)
    latencies_ms: List[float] = []
    futures = []
    start = time.perf_counter()
    for _ in range(rounds):
        for doc_id, html in stream:
            submitted = time.perf_counter()
            future = server.submit(html, doc_id=doc_id)
            future.add_done_callback(
                lambda done, t0=submitted: latencies_ms.append(
                    (time.perf_counter() - t0) * 1000.0
                )
            )
            futures.append(future)
    # Conservation: every submitted future must resolve.  The generous
    # per-future grace only matters when the contract is broken.
    unresolved = 0
    results = []
    for future in futures:
        try:
            results.append(future.result(timeout=60.0))
        except Exception:
            unresolved += 1
    elapsed = time.perf_counter() - start
    stuck = server.shutdown(timeout=60.0)
    merged = server.merged_stats()

    complete = sum(1 for brief in results if brief.complete)
    latencies = np.asarray(latencies_ms) if latencies_ms else np.asarray([0.0])
    total = len(futures)
    result = ResilienceBenchResult(
        num_requests=total,
        unique_pages=unique_pages,
        workers=workers,
        rounds=rounds,
        exception_rate=exception_rate,
        stall_rate=stall_rate,
        death_rate=death_rate,
        chaos_seed=seed,
        seconds=elapsed,
        docs_per_second=total / elapsed,
        fault_free_seconds=fault_free_seconds,
        fault_free_docs_per_second=total / fault_free_seconds,
        throughput_ratio=fault_free_seconds / elapsed,
        p50_ms=float(np.percentile(latencies, 50)),
        p99_ms=float(np.percentile(latencies, 99)),
        conserved=unresolved == 0,
        unresolved=unresolved,
        stuck_workers=list(stuck),
        faults_injected=chaos_stats.faults_injected,
        worker_deaths=chaos.deaths,
        worker_restarts=merged.worker_restarts,
        batches_requeued=merged.batches_requeued,
        poison_quarantined=merged.poison_quarantined,
        requests_shed=merged.requests_shed,
        deadline_expirations=merged.deadline_expirations,
        queue_rejections=merged.queue_rejections,
        complete_briefs=complete,
        degraded_briefs=len(results) - complete,
    )
    if output_path is not None:
        result.save(output_path)
    return result


# ----------------------------------------------------------------------
# Multi-process transport benchmark (repro bench --transport ...)
# ----------------------------------------------------------------------
@dataclass
class MultiprocessBenchResult:
    """Thread vs process transport on a compute-bound (cache-cold) stream.

    Each transport replays the same stream through a
    :class:`~repro.core.serving.ConcurrentBriefingPipeline` at several pool
    sizes; the stream has no duplicate content by default, so every request
    costs a model pass and the GIL ceiling is what's being measured.
    ``speedup`` is process-transport docs/s over thread-transport docs/s at
    the full worker count — on a multi-core host this is where breaking out
    of the GIL shows up; ``cpu_count`` is recorded so a single-core run's
    numbers aren't misread.  ``outputs_match`` holds across *every* run and
    transport against the sequential ground truth, and ``conserved`` checks
    ``cache_hits + cache_misses == num_pages`` per run.  ``load`` is an
    open-loop Zipf/burst/straggler replay (see :mod:`repro.core.load`).
    """

    num_pages: int
    unique_pages: int
    workers: int
    max_batch: int
    beam_size: int
    cpu_count: int
    start_method: str
    sequential_seconds: float
    sequential_docs_per_second: float
    #: per transport: seconds / docs_per_second / latency percentiles /
    #: throughput_by_workers at each pool size / observability_overhead
    #: (observed-vs-blind at the full worker count; None when skipped).
    transports: Dict[str, dict] = field(default_factory=dict)
    speedup: Optional[float] = None
    outputs_match: bool = True
    mismatches: List[str] = field(default_factory=list)
    conserved: bool = True
    load: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "num_pages": self.num_pages,
            "unique_pages": self.unique_pages,
            "workers": self.workers,
            "max_batch": self.max_batch,
            "beam_size": self.beam_size,
            "cpu_count": self.cpu_count,
            "start_method": self.start_method,
            "sequential": {
                "seconds": self.sequential_seconds,
                "docs_per_second": self.sequential_docs_per_second,
            },
            "transports": {name: dict(data) for name, data in self.transports.items()},
            "speedup": self.speedup,
            "outputs_match": self.outputs_match,
            "mismatches": list(self.mismatches),
            "conserved": self.conserved,
            "load": dict(self.load) if self.load is not None else None,
        }

    def save(self, path: str) -> None:
        """Merge this run under ``"multiprocess"`` in the JSON report."""
        save_section(path, "multiprocess", self.to_dict())

    def format(self) -> str:
        lines = [
            f"pages: {self.num_pages} ({self.unique_pages} unique, cache-cold), "
            f"max_batch {self.max_batch}, {self.workers} workers, "
            f"{self.cpu_count} cpus, start method {self.start_method}",
            f"sequential baseline: {self.sequential_docs_per_second:6.2f} docs/s",
        ]
        for name, data in self.transports.items():
            lines.append(
                f"{name + ':':<9} {data['docs_per_second']:6.2f} docs/s  "
                f"p50 {data['latency_p50_ms']:.1f} ms  p99 {data['latency_p99_ms']:.1f} ms"
            )
            for workers, rate in sorted(
                data["throughput_by_workers"].items(), key=lambda kv: int(kv[0])
            ):
                lines.append(f"  {int(workers):>2} workers: {rate:6.2f} docs/s")
            if data.get("observability_overhead") is not None:
                lines.append(
                    f"  observability overhead: {data['observability_overhead']:+.1%}"
                )
        if self.speedup is not None:
            lines.append(f"process vs thread speedup: {self.speedup:.2f}x")
        lines.append(
            f"outputs match: {self.outputs_match}"
            + (f" ({len(self.mismatches)} mismatches)" if self.mismatches else "")
            + f"   conserved: {self.conserved}"
        )
        if self.load is not None:
            lines.append(
                f"load replay ({self.load['transport']}): "
                f"{self.load['requests']} requests  "
                f"p50 {self.load['latency_p50_ms']:.1f} ms  "
                f"p99 {self.load['latency_p99_ms']:.1f} ms  "
                f"{self.load['throughput']:.2f} docs/s"
            )
        return "\n".join(lines)


def run_multiprocess_bench(
    num_pages: int = 64,
    seed: int = 7,
    workers: int = 4,
    max_batch: int = 8,
    beam_size: int = 2,
    max_wait_ms: float = 2.0,
    transports: Tuple[str, ...] = ("thread", "process"),
    duplicate_fraction: float = 0.0,
    dtype=None,
    output_path: Optional[str] = None,
    model=None,
    mp_context: Optional[str] = None,
    include_load: bool = True,
    measure_overhead: bool = True,
) -> MultiprocessBenchResult:
    """Benchmark the worker transports head to head on a cache-cold stream.

    The stream is compute-bound by construction (``duplicate_fraction=0``:
    no repeats for the caches to absorb), so throughput measures model
    compute parallelism — the thread transport serialises on the GIL, the
    process transport should scale with cores.  Per transport and pool size
    the run records docs/s; at the full worker count it also records
    closed-loop per-request p50/p99 latency.  Every run's briefs are
    compared bit-for-bit against the sequential ground truth and checked
    for conservation.  ``include_load`` adds one open-loop
    Zipf + burst + straggler replay (via :mod:`repro.core.load`) against
    the last transport benched.

    ``measure_overhead`` additionally times observed (``observe=True``:
    tracing, metrics, telemetry shipping over the pipes) against blind runs
    at the full worker count — min-of-3 each, interleaved so warm-up and
    machine drift cancel — and records the ratio per transport: for the
    process transport this is the full cost of cross-process trace
    propagation and snapshot-delta shipping, held to the same ≤5% budget as
    the in-process instrumentation.
    """
    from .load import LoadGenerator, LoadPhase, run_load
    from .pipeline import BriefingPipeline
    from .serving import ConcurrentBriefingPipeline

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    for transport in transports:
        if transport not in ("thread", "process"):
            raise ValueError(f"unknown transport {transport!r}")
    pages = synthesize_serving_corpus(
        num_pages, seed=seed, duplicate_fraction=duplicate_fraction
    )
    unique_pages = len({html for _, html in pages})
    if model is None:
        model = _build_bench_model(topics=2, pages=3, seed=seed)

    sequential = BriefingPipeline(model, beam_size=beam_size)
    start = time.perf_counter()
    expected = [sequential.brief_html(html, doc_id=doc_id) for doc_id, html in pages]
    sequential_seconds = time.perf_counter() - start

    mismatches: List[str] = []
    conserved = True
    per_transport: Dict[str, dict] = {}
    for transport in transports:
        throughput: Dict[int, float] = {}
        latencies: List[float] = []
        full_seconds = float("nan")
        for pool_size in sorted({1, min(2, workers), workers}):
            server = ConcurrentBriefingPipeline(
                model,
                num_workers=pool_size,
                transport=transport,
                beam_size=beam_size,
                max_batch=max_batch,
                max_wait_ms=max_wait_ms,
                max_queue=max(2 * len(pages), 64),
                dtype=dtype,
                mp_context=mp_context,
            )
            record = pool_size == workers
            submitted: List[float] = []
            done: List[Optional[float]] = [None] * len(pages)
            start = time.perf_counter()
            futures = []
            for position, (doc_id, html) in enumerate(pages):
                submitted.append(time.perf_counter())
                future = server.submit(html, doc_id=doc_id)
                if record:
                    future.add_done_callback(
                        lambda _, position=position: done.__setitem__(
                            position, time.perf_counter()
                        )
                    )
                futures.append(future)
            briefs = [future.result(timeout=300) for future in futures]
            elapsed = time.perf_counter() - start
            server.shutdown(timeout=60)
            throughput[pool_size] = len(pages) / elapsed
            merged = server.merged_stats()
            if merged.cache_hits + merged.cache_misses != len(pages):
                conserved = False
            for (doc_id, _), left, right in zip(pages, expected, briefs):
                if _briefs_differ(left, right):
                    mismatches.append(f"{transport}:workers={pool_size}:{doc_id}")
            if record:
                full_seconds = elapsed
                latencies = [
                    finish - begin
                    for begin, finish in zip(submitted, done)
                    if finish is not None
                ]
        overhead: Optional[float] = None
        if measure_overhead:
            # Same idiom as run_serving_bench: fresh pipelines (cold caches)
            # per pass, blind and observed interleaved, min-of-3 so one
            # noisy pass or slow spawn can't fake a regression either way.
            def _timed_pass(observe: bool) -> float:
                server = ConcurrentBriefingPipeline(
                    model,
                    num_workers=workers,
                    transport=transport,
                    beam_size=beam_size,
                    max_batch=max_batch,
                    max_wait_ms=max_wait_ms,
                    max_queue=max(2 * len(pages), 64),
                    dtype=dtype,
                    mp_context=mp_context,
                    observe=observe,
                )
                try:
                    begin = time.perf_counter()
                    futures = [
                        server.submit(html, doc_id=doc_id) for doc_id, html in pages
                    ]
                    for future in futures:
                        future.result(timeout=300)
                    return time.perf_counter() - begin
                finally:
                    server.shutdown(timeout=60)

            blind_seconds = float("inf")
            observed_seconds = float("inf")
            for _ in range(3):
                blind_seconds = min(blind_seconds, _timed_pass(False))
                observed_seconds = min(observed_seconds, _timed_pass(True))
            overhead = observed_seconds / blind_seconds - 1.0
        per_transport[transport] = {
            "seconds": full_seconds,
            "docs_per_second": len(pages) / full_seconds,
            "latency_p50_ms": _percentile_ms(latencies, 50) if latencies else 0.0,
            "latency_p99_ms": _percentile_ms(latencies, 99) if latencies else 0.0,
            "throughput_by_workers": {
                str(pool): rate for pool, rate in sorted(throughput.items())
            },
            "observability_overhead": overhead,
        }

    speedup = None
    if "thread" in per_transport and "process" in per_transport:
        speedup = (
            per_transport["process"]["docs_per_second"]
            / per_transport["thread"]["docs_per_second"]
        )

    load_section = None
    if include_load and transports:
        transport = transports[-1]
        generator = LoadGenerator(
            pages,
            seed=seed,
            zipf_alpha=1.2,
            phases=(
                LoadPhase("steady", max(4, num_pages // 2), 50.0),
                LoadPhase("burst", max(2, num_pages // 4), math.inf),
                LoadPhase("cooldown", max(2, num_pages // 4), 25.0),
            ),
            straggler_fraction=0.125,
            straggler_delay_ms=20.0,
        )
        server = ConcurrentBriefingPipeline(
            model,
            num_workers=workers,
            transport=transport,
            beam_size=beam_size,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            max_queue=max(2 * num_pages, 64),
            dtype=dtype,
            mp_context=mp_context,
        )
        try:
            report = run_load(server, generator.schedule())
        finally:
            server.shutdown(timeout=60)
        load_section = {"transport": transport, **report.to_dict()}

    result = MultiprocessBenchResult(
        num_pages=len(pages),
        unique_pages=unique_pages,
        workers=workers,
        max_batch=max_batch,
        beam_size=beam_size,
        cpu_count=os.cpu_count() or 1,
        start_method=mp_context or "fork",
        sequential_seconds=sequential_seconds,
        sequential_docs_per_second=len(pages) / sequential_seconds,
        transports=per_transport,
        speedup=speedup,
        outputs_match=not mismatches,
        mismatches=mismatches,
        conserved=conserved,
        load=load_section,
    )
    if output_path is not None:
        result.save(output_path)
    return result


# ----------------------------------------------------------------------
# Cascade bench (repro bench --cascade)
# ----------------------------------------------------------------------
@dataclass
class CascadeBenchResult:
    """The student/teacher cascade quality-latency frontier.

    Three serving configurations replay the same cache-cold page stream
    through a :class:`~repro.core.serving.ConcurrentBriefingPipeline`:
    the compact student alone, the full teacher alone, and the
    confidence-gated cascade at its calibrated threshold.  ``frontier``
    records docs/s and latency percentiles per tier next to the simulated
    human-eval panel score, so the trade the cascade buys — near-student
    throughput at near-teacher quality — is one table.

    ``outputs_match`` asserts the cascade's no-third-path property on the
    served stream: every cascade brief is bit-identical to the teacher
    run's brief when it escalated and to the student run's brief when it
    did not.  ``escalation_rate`` is the cascade run's observed rate;
    ``escalation_band`` is the deterministic expectation on this stream
    (sequential confidence pass at the same threshold) widened by the
    calibration slack, and ``within_band`` gates CI on agreement.
    """

    num_pages: int
    unique_pages: int
    workers: int
    max_batch: int
    beam_size: int
    transport: str
    threshold: float
    calibrated: bool
    escalation_rate: float
    expected_escalation_rate: float
    escalation_band: Tuple[float, float]
    within_band: bool
    student_share: float
    speedup_vs_teacher: float
    quality_drop: float
    #: per tier (``student_only`` / ``cascade`` / ``teacher_only``):
    #: seconds / docs_per_second / latency_p50_ms / latency_p95_ms /
    #: panel_score.
    frontier: Dict[str, dict] = field(default_factory=dict)
    #: full offline calibration sweep (:func:`~repro.core.cascade.calibrate_threshold`).
    calibration: Dict[str, object] = field(default_factory=dict)
    outputs_match: bool = True
    mismatches: List[str] = field(default_factory=list)
    conserved: bool = True

    def to_dict(self) -> dict:
        return {
            "num_pages": self.num_pages,
            "unique_pages": self.unique_pages,
            "workers": self.workers,
            "max_batch": self.max_batch,
            "beam_size": self.beam_size,
            "transport": self.transport,
            "threshold": self.threshold,
            "calibrated": self.calibrated,
            "escalation_rate": self.escalation_rate,
            "expected_escalation_rate": self.expected_escalation_rate,
            "escalation_band": list(self.escalation_band),
            "within_band": self.within_band,
            "student_share": self.student_share,
            "speedup_vs_teacher": self.speedup_vs_teacher,
            "quality_drop": self.quality_drop,
            "frontier": {tier: dict(data) for tier, data in self.frontier.items()},
            "calibration": dict(self.calibration),
            "outputs_match": self.outputs_match,
            "mismatches": list(self.mismatches),
            "conserved": self.conserved,
        }

    def save(self, path: str) -> None:
        """Merge this run under ``"cascade"`` in the JSON report."""
        save_section(path, "cascade", self.to_dict())

    def format(self) -> str:
        lines = [
            f"pages: {self.num_pages} ({self.unique_pages} unique, cache-cold), "
            f"max_batch {self.max_batch}, {self.workers} workers, "
            f"transport {self.transport}",
            f"threshold {self.threshold:.2f} "
            + ("(calibrated)" if self.calibrated else "(explicit)")
            + f"   escalation rate {self.escalation_rate:.2f} "
            f"(expected {self.expected_escalation_rate:.2f}, "
            f"band [{self.escalation_band[0]:.2f}, {self.escalation_band[1]:.2f}]"
            f"{'' if self.within_band else ' — OUT OF BAND'})",
        ]
        for tier in ("student_only", "cascade", "teacher_only"):
            data = self.frontier.get(tier)
            if data is None:
                continue
            lines.append(
                f"{tier + ':':<14} {data['docs_per_second']:6.2f} docs/s  "
                f"p50 {data['latency_p50_ms']:.1f} ms  "
                f"p95 {data['latency_p95_ms']:.1f} ms  "
                f"panel {data['panel_score']:.3f}"
            )
        lines.append(
            f"cascade vs teacher-only: {self.speedup_vs_teacher:.2f}x throughput, "
            f"{self.quality_drop:+.1%} panel quality, "
            f"{self.student_share:.0%} served by student"
        )
        lines.append(
            f"outputs match: {self.outputs_match}"
            + (f" ({len(self.mismatches)} mismatches)" if self.mismatches else "")
            + f"   conserved: {self.conserved}"
        )
        return "\n".join(lines)


def _build_cascade_bench_model(seed: int, threshold: float = 0.5):
    """Teacher + compact student + topic bank, wired as a CascadeModel.

    The teacher is a deep bench model (dim-48, 3-layer MiniBert, hidden
    32); the student is the compact tier (dim-12, 1 layer, hidden 8) so
    the tiers have honestly different compute costs — at these sizes the
    student decodes roughly 1.8x faster, which is what the cascade's
    throughput headroom comes from.  Returns ``(cascade, corpus)`` — the
    corpus rides along because calibration needs its labelled documents.
    """
    from .. import nn
    from ..data import Vocabulary, build_jasmine_corpus
    from ..distill import TopicPhraseBank
    from ..models import BertSumEncoder, make_joint_model
    from .cascade import CascadeModel, ConfidenceEstimator

    corpus = build_jasmine_corpus(num_topics=2, pages_per_site=3, seed=seed)
    vocabulary = Vocabulary.from_corpus(corpus)

    def _encoder(dim: int, num_layers: int, rng: np.random.Generator):
        bert = nn.MiniBert(
            vocab_size=len(vocabulary),
            dim=dim,
            num_layers=num_layers,
            num_heads=2,
            rng=rng,
            max_len=512,
        )
        return BertSumEncoder(vocabulary, bert)

    teacher = make_joint_model(
        "Joint-WB",
        _encoder(48, 3, np.random.default_rng(seed)),
        vocabulary,
        hidden_dim=32,
        rng=np.random.default_rng(seed),
    )
    student = make_joint_model(
        "Joint-WB",
        _encoder(12, 1, np.random.default_rng(seed + 1)),
        vocabulary,
        hidden_dim=8,
        rng=np.random.default_rng(seed + 1),
    )
    embedding = student.generator.embedding.weight.data
    bank = TopicPhraseBank(
        embedding_dim=embedding.shape[1],
        bank_dim=8,
        rng=np.random.default_rng(seed + 2),
    )
    matrix = bank.build(
        list(corpus.topic_phrases.values()), embedding, vocabulary
    )
    estimator = ConfidenceEstimator(
        query_dim=2 * student.hidden_dim, bank_matrix=matrix, seed=seed
    )
    cascade = CascadeModel(student, teacher, estimator, threshold=threshold)
    return cascade, corpus


def run_cascade_bench(
    num_pages: int = 48,
    seed: int = 7,
    workers: int = 2,
    max_batch: int = 8,
    beam_size: int = 2,
    max_wait_ms: float = 2.0,
    transport: str = "thread",
    threshold: Optional[float] = None,
    max_quality_drop: float = 0.02,
    band_slack: float = 0.1,
    dtype=None,
    output_path: Optional[str] = None,
    model=None,
    mp_context: Optional[str] = None,
) -> CascadeBenchResult:
    """Benchmark the cascade's quality/latency frontier against its tiers.

    Calibrates the escalation threshold offline against the simulated
    human-eval panel on the labelled corpus (skipped when ``threshold`` is
    given explicitly), then replays one cache-cold page stream through
    three serving configurations — student-only, cascade, teacher-only —
    on the requested transport, and checks the no-third-path property on
    the served briefs: each cascade brief must be bit-identical to the
    matching teacher-run brief when it escalated and to the student-run
    brief otherwise.  The observed escalation rate is gated against the
    deterministic expectation for this stream (one sequential confidence
    pass) widened by ``band_slack``.
    """
    from .cascade import CascadeModel, calibrate_threshold
    from .pipeline import document_from_raw_html
    from .serving import ConcurrentBriefingPipeline

    if transport not in ("thread", "process"):
        raise ValueError(f"unknown transport {transport!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    if model is None:
        cascade, corpus = _build_cascade_bench_model(seed)
    else:
        if not isinstance(model, CascadeModel):
            raise TypeError("run_cascade_bench requires a CascadeModel")
        cascade = model
        _, corpus = None, None

    # Offline calibration against the panel (labelled corpus documents).
    calibration_dict: Dict[str, object] = {}
    quality_drop = 0.0
    cascade_panel = student_panel = teacher_panel = float("nan")
    calibrated = threshold is None
    if corpus is not None:
        calibration = calibrate_threshold(
            cascade,
            corpus.documents,
            max_quality_drop=max_quality_drop,
            band_slack=band_slack,
            seed=seed,
            beam_size=beam_size,
            batch_size=max_batch,
        )
        calibration_dict = calibration.to_dict()
        student_panel = calibration.student_score
        teacher_panel = calibration.teacher_score
        if threshold is None:
            cascade.threshold = calibration.threshold
            cascade_panel = calibration.panel_score
        else:
            cascade.threshold = threshold
            nearest = min(
                calibration.points, key=lambda p: abs(p.threshold - threshold)
            )
            cascade_panel = nearest.panel_score
        if teacher_panel > 0:
            quality_drop = (teacher_panel - cascade_panel) / teacher_panel
    elif threshold is not None:
        cascade.threshold = threshold

    pages = synthesize_serving_corpus(num_pages, seed=seed, duplicate_fraction=0.0)
    unique_pages = len({html for _, html in pages})

    # Deterministic expectation for this stream: one sequential student
    # pass scores every page's confidence at the operating threshold.
    stream_documents = [
        document_from_raw_html(html, doc_id=doc_id) for doc_id, html in pages
    ]
    _, confidences, _, _ = cascade.confidences(
        stream_documents, beam_size=beam_size, batch_size=max_batch
    )
    expected_rate = sum(
        1 for value in confidences if value < cascade.threshold
    ) / len(confidences)
    band = (
        max(0.0, expected_rate - band_slack),
        min(1.0, expected_rate + band_slack),
    )

    tiers = (
        ("student_only", cascade.student),
        ("cascade", cascade),
        ("teacher_only", cascade.teacher),
    )
    frontier: Dict[str, dict] = {}
    briefs_by_tier: Dict[str, list] = {}
    conserved = True
    escalation_rate = 0.0
    student_share = 1.0
    for tier_name, tier_model in tiers:
        server = ConcurrentBriefingPipeline(
            tier_model,
            num_workers=workers,
            transport=transport,
            beam_size=beam_size,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            max_queue=max(2 * len(pages), 64),
            dtype=dtype,
            mp_context=mp_context,
        )
        submitted: List[float] = []
        done: List[Optional[float]] = [None] * len(pages)
        start = time.perf_counter()
        futures = []
        for position, (doc_id, html) in enumerate(pages):
            submitted.append(time.perf_counter())
            future = server.submit(html, doc_id=doc_id)
            future.add_done_callback(
                lambda _, position=position: done.__setitem__(
                    position, time.perf_counter()
                )
            )
            futures.append(future)
        briefs = [future.result(timeout=300) for future in futures]
        elapsed = time.perf_counter() - start
        merged = server.merged_stats()
        status = server.status()
        server.shutdown(timeout=60)
        if merged.cache_hits + merged.cache_misses != len(pages):
            conserved = False
        if tier_name == "cascade" and status.get("cascade"):
            escalation_rate = status["cascade"]["escalation_rate"]
            total = (
                status["cascade"]["student_briefs"]
                + status["cascade"]["teacher_escalations"]
            )
            student_share = (
                status["cascade"]["student_briefs"] / total if total else 1.0
            )
        latencies = [
            finish - begin
            for begin, finish in zip(submitted, done)
            if finish is not None
        ]
        panel = {
            "student_only": student_panel,
            "cascade": cascade_panel,
            "teacher_only": teacher_panel,
        }[tier_name]
        frontier[tier_name] = {
            "seconds": elapsed,
            "docs_per_second": len(pages) / elapsed,
            "latency_p50_ms": _percentile_ms(latencies, 50) if latencies else 0.0,
            "latency_p95_ms": _percentile_ms(latencies, 95) if latencies else 0.0,
            "panel_score": panel,
        }
        briefs_by_tier[tier_name] = briefs

    # No third path, on the wire: every served cascade brief is the teacher
    # run's brief when it escalated, the student run's brief otherwise.
    mismatches: List[str] = []
    for (doc_id, _), cascade_brief, student_brief, teacher_brief in zip(
        pages,
        briefs_by_tier["cascade"],
        briefs_by_tier["student_only"],
        briefs_by_tier["teacher_only"],
    ):
        reference = teacher_brief if cascade_brief.tier == "teacher" else student_brief
        if _briefs_differ(cascade_brief, reference):
            mismatches.append(f"{cascade_brief.tier}:{doc_id}")

    result = CascadeBenchResult(
        num_pages=len(pages),
        unique_pages=unique_pages,
        workers=workers,
        max_batch=max_batch,
        beam_size=beam_size,
        transport=transport,
        threshold=cascade.threshold,
        calibrated=calibrated,
        escalation_rate=escalation_rate,
        expected_escalation_rate=expected_rate,
        escalation_band=band,
        within_band=band[0] <= escalation_rate <= band[1],
        student_share=student_share,
        speedup_vs_teacher=(
            frontier["cascade"]["docs_per_second"]
            / frontier["teacher_only"]["docs_per_second"]
        ),
        quality_drop=quality_drop,
        frontier=frontier,
        calibration=calibration_dict,
        outputs_match=not mismatches,
        mismatches=mismatches,
        conserved=conserved,
    )
    if output_path is not None:
        result.save(output_path)
    return result


# ----------------------------------------------------------------------
# Quantized inference benchmark (repro bench --quantized)
# ----------------------------------------------------------------------
@dataclass
class QuantizedBenchResult:
    """Quantized decode vs the float reference, with quality gates.

    Three comparisons in one run:

    * **quality** — task metrics (extraction F1, topic EM/RM) of the
      quantized model against the float64 reference model on the labelled
      corpus.  The float path stays the executable spec; the contract is
      *tolerance*, not bit-exactness: ``f1_drop <= f1_tolerance`` (absolute)
      and ``topic_em_drop_rel <= em_tolerance_rel`` (relative).
    * **throughput** — batched topic decode over an encoded serving stream:
      a float32 copy of the reference model vs the quantized model, both
      through the same decode step and beam host (min-of-``reps`` wall time
      each), so the speedup is what the quantized weights alone buy.
    * **serving** — the same stream through
      :class:`~repro.core.serving.ConcurrentBriefingPipeline` on each
      requested transport; the quantized snapshot must produce identical
      briefs on both sides of the process boundary.
    """

    num_pages: int
    unique_pages: int
    beam_size: int
    max_depth: int
    mode: str
    reference_seconds: float
    quantized_seconds: float
    speedup: float
    reference_docs_per_second: float
    quantized_docs_per_second: float
    #: fraction of stream pages whose quantized topic equals the float32
    #: reference topic (diagnostic — the gate is on task metrics).
    agreement_rate: float
    quality: Dict[str, dict]
    f1_drop: float
    topic_em_drop_rel: float
    f1_tolerance: float
    em_tolerance_rel: float
    within_tolerance: bool
    #: quantized layer census: ``{mode: count}`` over swapped layers.
    quantized_layers: Dict[str, int]
    snapshot_bytes: Dict[str, object]
    peak_rss_mb: Optional[float] = None
    #: per transport: seconds / docs_per_second / latency_p50_ms /
    #: latency_p99_ms serving the stream with the quantized snapshot.
    transports: Dict[str, dict] = field(default_factory=dict)
    #: briefs identical across the serving transports (thread vs process).
    outputs_match: bool = True
    mismatches: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "num_pages": self.num_pages,
            "unique_pages": self.unique_pages,
            "beam_size": self.beam_size,
            "max_depth": self.max_depth,
            "mode": self.mode,
            "decode": {
                "reference_seconds": self.reference_seconds,
                "quantized_seconds": self.quantized_seconds,
                "speedup": self.speedup,
                "reference_docs_per_second": self.reference_docs_per_second,
                "quantized_docs_per_second": self.quantized_docs_per_second,
                "agreement_rate": self.agreement_rate,
            },
            "quality": {name: dict(data) for name, data in self.quality.items()},
            "f1_drop": self.f1_drop,
            "topic_em_drop_rel": self.topic_em_drop_rel,
            "f1_tolerance": self.f1_tolerance,
            "em_tolerance_rel": self.em_tolerance_rel,
            "within_tolerance": self.within_tolerance,
            "quantized_layers": dict(self.quantized_layers),
            "snapshot_bytes": dict(self.snapshot_bytes),
            "peak_rss_mb": self.peak_rss_mb,
            "transports": {name: dict(data) for name, data in self.transports.items()},
            "outputs_match": self.outputs_match,
            "mismatches": list(self.mismatches),
        }

    def save(self, path: str) -> None:
        """Merge this run under ``"quantized"`` in the JSON report."""
        save_section(path, "quantized", self.to_dict())

    def format(self) -> str:
        census = ", ".join(
            f"{count} {mode}" for mode, count in sorted(self.quantized_layers.items())
        )
        lines = [
            f"pages: {self.num_pages} ({self.unique_pages} unique), "
            f"beam {self.beam_size}, depth {self.max_depth}, mode {self.mode} "
            f"({census})",
            f"decode: float32 reference {self.reference_seconds * 1000:.1f} ms  "
            f"quantized {self.quantized_seconds * 1000:.1f} ms  "
            f"speedup {self.speedup:.2f}x  "
            f"(agreement {self.agreement_rate:.0%})",
            f"quality vs float64 reference: "
            f"F1 drop {self.f1_drop:+.4f} (tol {self.f1_tolerance:.4f})  "
            f"topic EM drop {self.topic_em_drop_rel:+.2%} rel "
            f"(tol {self.em_tolerance_rel:.0%})  "
            f"-> {'within tolerance' if self.within_tolerance else 'OUT OF TOLERANCE'}",
            f"snapshot: {self.snapshot_bytes['float']:,} B float -> "
            f"{self.snapshot_bytes['quantized']:,} B quantized "
            f"({self.snapshot_bytes['ratio']:.2f}x smaller)",
        ]
        for name, data in self.transports.items():
            lines.append(
                f"{name + ':':<9} {data['docs_per_second']:6.2f} docs/s  "
                f"p50 {data['latency_p50_ms']:.1f} ms  "
                f"p99 {data['latency_p99_ms']:.1f} ms"
            )
        if self.peak_rss_mb is not None:
            lines.append(f"peak RSS: {self.peak_rss_mb:.1f} MB")
        lines.append(
            f"outputs match across transports: {self.outputs_match}"
            + (f" ({len(self.mismatches)} mismatches)" if self.mismatches else "")
        )
        return "\n".join(lines)


def _build_quantized_bench_model(seed: int):
    """A bench-scale Joint-WB stack plus its labelled corpus.

    Wider than :func:`_build_bench_model` (dim-48 MiniBert, hidden-64
    generator) so the decode comparison exercises real GEMM shapes — at
    toy widths any arithmetic difference is lost in Python overhead.  The
    corpus rides along for calibration and quality metrics.
    """
    from .. import nn
    from ..data import Vocabulary, build_jasmine_corpus
    from ..models import BertSumEncoder, make_joint_model

    corpus = build_jasmine_corpus(num_topics=3, pages_per_site=4, seed=seed)
    vocabulary = Vocabulary.from_corpus(corpus)
    rng = np.random.default_rng(seed)
    bert = nn.MiniBert(
        vocab_size=len(vocabulary), dim=48, num_layers=1, num_heads=2, rng=rng, max_len=512
    )
    model = make_joint_model(
        "Joint-WB", BertSumEncoder(vocabulary, bert), vocabulary, hidden_dim=64, rng=rng
    )
    return model, corpus


def run_quantized_bench(
    num_pages: int = 48,
    seed: int = 7,
    beam_size: int = 8,
    max_depth: int = 12,
    mode: str = "int8",
    workers: int = 2,
    max_batch: int = 8,
    max_wait_ms: float = 2.0,
    transports: Tuple[str, ...] = ("thread", "process"),
    f1_tolerance: float = 0.005,
    em_tolerance_rel: float = 0.01,
    duplicate_fraction: float = 0.25,
    reps: int = 5,
    output_path: Optional[str] = None,
    model=None,
    corpus=None,
    mp_context: Optional[str] = None,
) -> QuantizedBenchResult:
    """Benchmark quantized inference against the float reference.

    Builds the bench model, measures float64-reference task quality on the
    labelled corpus, calibrates activation ranges on a forward pass,
    quantizes (through a pickle round-trip — the exact path a
    :class:`~repro.core.transport.ModelSnapshot` takes), re-measures
    quality, then times batched decode over an encoded serving stream — a
    float32 copy of the reference model vs the quantized model, on the same
    decode path (the caller's model is left untouched) — and finally serves
    the stream through the concurrent pipeline on each requested transport
    with the quantized snapshot, checking the briefs agree across the
    process boundary.
    """
    import pickle

    from .. import nn
    from .evaluation import evaluate_extraction, evaluate_generation
    from .pipeline import document_from_raw_html
    from .serving import ConcurrentBriefingPipeline
    from .transport import ModelSnapshot

    if model is None:
        model, corpus = _build_quantized_bench_model(seed)
    if corpus is None:
        raise ValueError("run_quantized_bench needs the labelled corpus with the model")
    documents = list(corpus.documents)

    # 1. float64 reference quality — the executable spec, untouched dtypes.
    reference_generation = evaluate_generation(
        lambda d: model.predict_topic(d, beam_size=2), documents
    )
    reference_extraction = evaluate_extraction(
        lambda d: model.predict_attributes(d), documents
    )

    # 2. calibrate activation ranges on a representative forward pass, then
    # quantize and round-trip the result through pickle — serving never
    # ships a live object, only its pickled restoration.
    calibration = nn.calibrate(
        model,
        lambda: model.predict_batch(
            documents[: max(max_batch, 4)], beam_size=2, batch_size=max_batch
        ),
    )
    quantized = pickle.loads(
        pickle.dumps(
            model.quantize(mode=mode, calibration=calibration),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    )
    layer_census: Dict[str, int] = {}
    for sub in quantized.modules():
        layer_mode = getattr(sub, "quant_mode", None)
        if layer_mode is not None:
            layer_census[layer_mode] = layer_census.get(layer_mode, 0) + 1

    float_snapshot = ModelSnapshot(model, dtype=np.float32)
    quant_snapshot = ModelSnapshot(quantized, dtype=np.float32)

    # 3. quantized task quality, under the serving dtype.
    with nn.default_dtype(np.float32):
        quantized_generation = evaluate_generation(
            lambda d: quantized.predict_topic(d, beam_size=2), documents
        )
        quantized_extraction = evaluate_extraction(
            lambda d: quantized.predict_attributes(d), documents
        )
    f1_drop = reference_extraction.f1 - quantized_extraction.f1
    em_reference = reference_generation.exact_match
    em_drop_rel = (
        (em_reference - quantized_generation.exact_match) / em_reference
        if em_reference > 0
        else 0.0
    )
    within_tolerance = f1_drop <= f1_tolerance and em_drop_rel <= em_tolerance_rel

    # 4. decode throughput over an encoded serving stream.  Both sides run
    # float32 weights and activations through the same step and host; the
    # reference side is a float32 copy (pickle round-trip, then astype) so
    # the comparison isolates the quantized weights from float64 arithmetic.
    reference = pickle.loads(pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL))
    reference.astype(np.float32)
    pages = synthesize_serving_corpus(
        num_pages, seed=seed, duplicate_fraction=duplicate_fraction
    )

    def _encode(target):
        doc_ids: List[str] = []
        memories: List = []
        by_html: Dict[str, object] = {}
        with nn.no_grad(), nn.default_dtype(np.float32):
            for doc_id, html in pages:
                if html not in by_html:
                    try:
                        document = document_from_raw_html(html, doc_id=doc_id)
                    except Exception:
                        continue
                    by_html[html] = target._inference_states(document)[3]
                doc_ids.append(doc_id)
                memories.append(by_html[html])
        return doc_ids, memories, len(by_html)

    def _decode(target, memories):
        with nn.no_grad(), nn.default_dtype(np.float32):
            return target.generator.generate_batch(
                memories, beam_size=beam_size, max_depth=max_depth
            )

    doc_ids, reference_memories, unique_pages = _encode(reference)
    _, quantized_memories, _ = _encode(quantized)

    reference_topics = _decode(reference, reference_memories)
    quantized_topics = _decode(quantized, quantized_memories)
    agreement = sum(
        left == right for left, right in zip(reference_topics, quantized_topics)
    )

    reference_seconds = math.inf
    quantized_seconds = math.inf
    for _ in range(max(1, reps)):
        start = time.perf_counter()
        _decode(reference, reference_memories)
        reference_seconds = min(reference_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        _decode(quantized, quantized_memories)
        quantized_seconds = min(quantized_seconds, time.perf_counter() - start)

    # 5. serve the stream with the quantized snapshot on each transport.
    transport_sections: Dict[str, dict] = {}
    briefs_by_transport: Dict[str, list] = {}
    for name in transports:
        server = ConcurrentBriefingPipeline(
            quant_snapshot if name == "process" else quantized,
            num_workers=workers,
            transport=name,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            max_queue=max(2 * len(pages), 64),
            mp_context=mp_context,
        )
        try:
            submitted: List[float] = []
            done: List[Optional[float]] = [None] * len(pages)
            start = time.perf_counter()
            futures = []
            for position, (doc_id, html) in enumerate(pages):
                submitted.append(time.perf_counter())
                future = server.submit(html, doc_id=doc_id)
                future.add_done_callback(
                    lambda _, position=position: done.__setitem__(
                        position, time.perf_counter()
                    )
                )
                futures.append(future)
            briefs = [future.result(timeout=300) for future in futures]
            seconds = time.perf_counter() - start
        finally:
            server.shutdown(timeout=60)
        latencies = [
            finish - begin for begin, finish in zip(submitted, done) if finish is not None
        ]
        transport_sections[name] = {
            "seconds": seconds,
            "docs_per_second": len(pages) / seconds if seconds else 0.0,
            "latency_p50_ms": _percentile_ms(latencies, 50) if latencies else 0.0,
            "latency_p99_ms": _percentile_ms(latencies, 99) if latencies else 0.0,
        }
        briefs_by_transport[name] = briefs

    mismatches: List[str] = []
    served = list(briefs_by_transport.values())
    if len(served) >= 2:
        for (doc_id, _), left, right in zip(pages, served[0], served[1]):
            if _briefs_differ(left, right):
                mismatches.append(doc_id)

    result = QuantizedBenchResult(
        num_pages=len(pages),
        unique_pages=unique_pages,
        beam_size=beam_size,
        max_depth=max_depth,
        mode=mode,
        reference_seconds=reference_seconds,
        quantized_seconds=quantized_seconds,
        speedup=reference_seconds / quantized_seconds if quantized_seconds else math.inf,
        reference_docs_per_second=(
            len(reference_memories) / reference_seconds if reference_seconds else 0.0
        ),
        quantized_docs_per_second=(
            len(quantized_memories) / quantized_seconds if quantized_seconds else 0.0
        ),
        agreement_rate=agreement / len(reference_topics) if reference_topics else 1.0,
        quality={
            "reference": {
                "extraction_f1": reference_extraction.f1,
                "topic_exact_match": reference_generation.exact_match,
                "topic_relaxed_match": reference_generation.relaxed_match,
            },
            "quantized": {
                "extraction_f1": quantized_extraction.f1,
                "topic_exact_match": quantized_generation.exact_match,
                "topic_relaxed_match": quantized_generation.relaxed_match,
            },
        },
        f1_drop=f1_drop,
        topic_em_drop_rel=em_drop_rel,
        f1_tolerance=f1_tolerance,
        em_tolerance_rel=em_tolerance_rel,
        within_tolerance=within_tolerance,
        quantized_layers=layer_census,
        snapshot_bytes={
            "float": float_snapshot.num_bytes,
            "quantized": quant_snapshot.num_bytes,
            "ratio": (
                float_snapshot.num_bytes / quant_snapshot.num_bytes
                if quant_snapshot.num_bytes
                else math.inf
            ),
        },
        peak_rss_mb=_peak_rss_mb(),
        transports=transport_sections,
        outputs_match=not mismatches,
        mismatches=mismatches,
    )
    if output_path is not None:
        result.save(output_path)
    return result


# ----------------------------------------------------------------------
# Report comparison (repro bench --compare prev.json)
# ----------------------------------------------------------------------
#: (dotted path into BENCH_serving.json, metric direction).  ``throughput``
#: regresses when it drops; ``latency`` regresses when it rises.
_COMPARE_METRICS: Tuple[Tuple[str, str], ...] = (
    ("sequential.docs_per_second", "throughput"),
    ("batched.docs_per_second", "throughput"),
    ("batched.latency_p95_ms", "latency"),
    ("decode.speedup", "throughput"),
    ("concurrency.concurrent.docs_per_second", "throughput"),
    ("resilience.throughput.docs_per_second", "throughput"),
    ("resilience.latency_ms.p99", "latency"),
    ("multiprocess.transports.thread.docs_per_second", "throughput"),
    ("multiprocess.transports.process.docs_per_second", "throughput"),
    ("multiprocess.transports.thread.latency_p99_ms", "latency"),
    ("multiprocess.transports.process.latency_p99_ms", "latency"),
    ("multiprocess.load.latency_p99_ms", "latency"),
    ("cascade.frontier.student_only.docs_per_second", "throughput"),
    ("cascade.frontier.cascade.docs_per_second", "throughput"),
    ("cascade.frontier.teacher_only.docs_per_second", "throughput"),
    ("cascade.frontier.cascade.latency_p95_ms", "latency"),
    ("quantized.decode.speedup", "throughput"),
    ("quantized.decode.quantized_docs_per_second", "throughput"),
    ("quantized.transports.thread.docs_per_second", "throughput"),
    ("quantized.transports.process.docs_per_second", "throughput"),
    ("quantized.transports.thread.latency_p99_ms", "latency"),
    ("quantized.transports.process.latency_p99_ms", "latency"),
)


def _dig(report: dict, path: str):
    node = report
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node if isinstance(node, (int, float)) and not isinstance(node, bool) else None


@dataclass
class ReportComparison:
    """Outcome of diffing two BENCH_serving.json reports."""

    threshold: float
    compared: List[str] = field(default_factory=list)
    regressions: List[str] = field(default_factory=list)
    improvements: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def format(self) -> str:
        lines = [
            f"compared {len(self.compared)} shared metrics "
            f"(regression threshold {self.threshold:.0%})"
        ]
        for line in self.regressions:
            lines.append(f"  REGRESSION {line}")
        for line in self.improvements:
            lines.append(f"  improved   {line}")
        if not self.regressions:
            lines.append("  no SLO regressions")
        return "\n".join(lines)


def compare_reports(
    previous: dict, current: dict, threshold: float = 0.2
) -> ReportComparison:
    """Diff throughput/latency metrics shared by two bench reports.

    Only metrics present (and numeric) in *both* reports are compared, so a
    report that never ran a given bench mode can't fail the gate on it.  A
    throughput metric regresses when it falls more than ``threshold`` below
    the previous value; a latency metric when it rises more than
    ``threshold`` above it (tiny latencies are compared with a 1 ms floor
    so micro-jitter on near-zero numbers can't fail CI).
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    comparison = ReportComparison(threshold=threshold)
    for path, kind in _COMPARE_METRICS:
        before = _dig(previous, path)
        after = _dig(current, path)
        if before is None or after is None:
            continue
        comparison.compared.append(path)
        if kind == "throughput":
            if before > 0 and after < before * (1.0 - threshold):
                comparison.regressions.append(
                    f"{path}: {before:.2f} -> {after:.2f} "
                    f"({(after - before) / before:+.1%})"
                )
            elif before > 0 and after > before * (1.0 + threshold):
                comparison.improvements.append(
                    f"{path}: {before:.2f} -> {after:.2f} "
                    f"({(after - before) / before:+.1%})"
                )
        else:
            floor = max(before, 1.0)
            if after > floor * (1.0 + threshold):
                comparison.regressions.append(
                    f"{path}: {before:.2f} ms -> {after:.2f} ms "
                    f"(+{(after - floor) / floor:.1%})"
                )
            elif before > 1.0 and after < before * (1.0 - threshold):
                comparison.improvements.append(
                    f"{path}: {before:.2f} ms -> {after:.2f} ms "
                    f"({(after - before) / before:+.1%})"
                )
    return comparison
