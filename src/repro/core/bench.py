"""Correctness scenarios behind ``repro bench``: chaos and quantized.

Each mode replays a synthesized page stream through the concurrent serving
layer and checks a contract on the briefs it serves:

* ``--chaos`` (:func:`run_chaos_bench`) — conservation under injected
  worker stalls, failures and deaths: every future resolves and shutdown
  does not deadlock;
* ``--quantized`` (:func:`run_quantized_bench`) — quantized weights stay
  within the task-metric tolerance of the float64 reference and brief
  identically on both transports.

Each mode writes its own section of ``BENCH_serving.json`` (``resilience``,
``quantized``) through :func:`save_section`; the schema is in
``docs/ARCHITECTURE.md``.  Timings recorded next to the verdicts are
single-run figures on small untrained models; throughput and latency are
measured by ``perfbench/``, on a trained model, with medians and spreads.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs import percentile

__all__ = [
    "ResilienceBenchResult",
    "QuantizedBenchResult",
    "save_section",
    "run_chaos_bench",
    "run_quantized_bench",
    "synthesize_serving_corpus",
    "synthesize_zipf_stream",
]


def save_section(path: str, section: str, payload: Dict[str, object]) -> dict:
    """Merge one bench mode's ``payload`` under ``section`` in the report.

    All bench modes share ``BENCH_serving.json`` and each owns one top-level
    key (``"resilience"``, ``"quantized"``), so the write is
    read-merge-write: sections recorded by the other modes survive.  A
    missing or unparsable file starts fresh.  Returns the full merged report.
    """
    try:
        with open(path) as handle:
            report = json.load(handle)
        if not isinstance(report, dict):
            report = {}
    except (OSError, ValueError):
        report = {}
    report[section] = dict(payload)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return report


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
    return percentile(latencies, q) * 1000.0


def _briefs_differ(left, right) -> bool:
    return (
        left.topic != right.topic
        or left.attributes != right.attributes
        or left.informative_sentences != right.informative_sentences
    )


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

        All bench modes share ``BENCH_serving.json`` (see :func:`save_section`).
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
        p50_ms=percentile(latencies_ms, 50),
        p99_ms=percentile(latencies_ms, 99),
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
            "latency_p50_ms": _percentile_ms(latencies, 50),
            "latency_p99_ms": _percentile_ms(latencies, 99),
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
