"""The correctness scenario behind ``repro bench``: chaos.

:func:`run_chaos_bench` replays a synthesized Zipfian page stream through
the concurrent serving layer while a seeded
:class:`~repro.runtime.chaos.ChaosWorker` stalls, fails and kills workers,
and checks conservation on the briefs it serves: every future resolves and
shutdown does not deadlock.  The run is written under the ``resilience``
key of ``BENCH_serving.json``; the schema is in ``docs/ARCHITECTURE.md``.
Timings recorded next to the verdict are single-run figures on a small
untrained model; throughput and latency are measured by ``perfbench/``, on
a trained model, with medians and spreads.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..obs import percentile

__all__ = [
    "ResilienceBenchResult",
    "run_chaos_bench",
    "synthesize_serving_corpus",
    "synthesize_zipf_stream",
]


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


# ----------------------------------------------------------------------
# Chaos / soak benchmark (repro bench)
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
        """Write this run under ``"resilience"`` as the JSON report."""
        with open(path, "w") as handle:
            json.dump({"resilience": self.to_dict()}, handle, indent=2)
            handle.write("\n")

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

