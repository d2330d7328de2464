"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``brief <file.html>``
    Train a small Joint-WB model (or load ``--model checkpoint.npz``) and
    print the hierarchical brief for the page.
``corpus-stats``
    Synthesise a corpus at the requested size and print its statistics in the
    shape of the paper's §IV-A1 summary.
``train --save model.npz``
    Train a Joint-WB model on a synthetic corpus and save the weights (the
    matching vocabulary is rebuilt deterministically from the same seed).
``tables [--only table4 ...] [--scale tiny|small]``
    Regenerate the paper's tables (delegates to
    :mod:`repro.experiments.runner`).
``health``
    Fault-injection self-check of the briefing runtime: crawl a synthetic
    website through a ``ChaosHost`` + ``ResilientHost`` stack, brief garbled
    and empty pages, and print the :class:`~repro.runtime.RuntimeStats`
    counters.  Exit code 0 means retries/breakers/degradations fully masked
    the injected faults.
``bench --chaos|--cascade|--quantized [--smoke] [--pages N]``
    Correctness scenarios over the concurrent serving layer; exactly one
    mode is required.  ``--chaos`` replays a Zipfian request stream while a
    seeded :class:`~repro.runtime.ChaosWorker` stalls, fails and kills
    workers; it asserts every future resolves and shutdown does not
    deadlock, and records p50/p99-under-chaos plus shed/restart/quarantine
    counts under the report's ``resilience`` key (``--soak-rounds N``
    replays the stream N times against the same pipeline).  ``--cascade``
    calibrates the student/teacher escalation threshold offline against the
    simulated human-eval panel (or takes ``--escalation-threshold``
    verbatim), replays one cache-cold stream through student-only, cascade
    and teacher-only serving, and checks the cascade takes no third path and
    escalates within the calibrated band (``cascade`` key).  ``--quantized``
    checks int8/float16 weights (``--quant-mode``) stay within the
    task-metric tolerance of the float64 reference and brief identically on
    both transports (``quantized`` key).  ``--smoke`` defaults the stream to
    12 pages (64 otherwise; an explicit ``--pages`` always wins) and prints
    the verdict.  Exit code 1 means the scenario's contract broke.
    Throughput and latency are measured by ``perfbench/``, not here.
``serve-many [page.html ...] [--workers N] [--transport T] [--deadline-ms B]``
    Brief many pages through the concurrent serving layer
    (:class:`~repro.core.serving.ConcurrentBriefingPipeline`): bounded
    admission queue, micro-batching scheduler, N briefing workers over
    shared sharded caches, governor load shedding and worker supervision.
    With no files, synthesizes a ``--pages``-page stream.  ``--deadline-ms``
    gives every request an absolute budget; expired requests resolve to
    typed ``DeadlineExceeded`` briefs instead of hanging.  ``--transport
    process`` serves through worker processes (each holding its own model
    replica) instead of threads.  ``--cascade`` serves through the
    confidence-gated student/teacher cascade (``--escalation-threshold``
    pins the threshold; omitted, it is calibrated offline against the
    simulated human-eval panel).  ``--quantized`` serves int8 weights
    (calibrated on the corpus); combined with ``--cascade`` only the
    student tier is quantized and the float teacher stays the quality
    backstop.  Prints one topic line per page plus the
    merged worker-pool counters.  ``--status-interval S`` prints a live
    status frame (queue depth, governor level, per-worker throughput, SLO
    burn) to stderr every S seconds while serving; ``--journal PATH``
    writes the structured event journal (governor level changes, worker
    restarts, poison quarantines) as JSON lines.
``top [--workers N] [--transport T] [--frames N] [--interval S]``
    Live serving status view: run an observed serving pipeline over a
    synthetic request stream and render one status frame per interval —
    queue depth, governor level and state, per-worker liveness /
    generation / batches, cache hit rate, SLO burn rates and the recent
    event journal — then a final frame after drain.
``metrics``
    Exercise the runtime (retries, a circuit breaker, the brief cache) with
    deterministic faults and print the resulting metrics registry in
    Prometheus text format — a quick way to see every exported series.

``brief``, ``train``, ``health``, ``serve-many`` and ``metrics`` all accept
``--trace PATH`` (write a JSON-lines span trace) and ``--metrics PATH``
(write a Prometheus text snapshot); omitting both keeps the no-op
observability path.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    """``--trace`` / ``--metrics`` outputs, shared by the observable commands."""
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a JSON-lines span trace to PATH")
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="write a Prometheus text metrics snapshot to PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    brief = sub.add_parser("brief", help="brief an HTML file")
    brief.add_argument("html_file")
    brief.add_argument("--model", help="checkpoint saved by `repro train`")
    brief.add_argument("--topics", type=int, default=3)
    brief.add_argument("--pages", type=int, default=6)
    brief.add_argument("--epochs", type=int, default=10)
    brief.add_argument("--seed", type=int, default=7)
    _add_obs_args(brief)

    stats = sub.add_parser("corpus-stats", help="synthesise a corpus and print stats")
    stats.add_argument("--topics", type=int, default=6)
    stats.add_argument("--pages", type=int, default=8)
    stats.add_argument("--seed", type=int, default=7)

    train = sub.add_parser("train", help="train Joint-WB and save weights")
    train.add_argument("--save", required=True)
    train.add_argument("--topics", type=int, default=3)
    train.add_argument("--pages", type=int, default=6)
    train.add_argument("--epochs", type=int, default=10)
    train.add_argument("--seed", type=int, default=7)
    _add_obs_args(train)

    tables = sub.add_parser("tables", help="regenerate the paper's tables")
    tables.add_argument("--scale", choices=("tiny", "small"), default="small")
    tables.add_argument("--only", nargs="*")

    health = sub.add_parser("health", help="fault-injection self-check of the runtime")
    health.add_argument("--seed", type=int, default=7)
    health.add_argument("--failure-rate", type=float, default=0.3,
                        help="transient fetch failure probability")
    health.add_argument("--garble-rate", type=float, default=0.2,
                        help="garbled/truncated HTML probability")
    health.add_argument("--pages", type=int, default=6)
    health.add_argument("--max-attempts", type=int, default=6)
    _add_obs_args(health)

    bench = sub.add_parser(
        "bench", help="serving correctness scenarios: chaos, cascade, quantized"
    )
    mode = bench.add_mutually_exclusive_group(required=True)
    mode.add_argument("--chaos", action="store_true",
                      help="chaos/soak: replay a Zipfian stream with injected "
                           "worker stalls/exceptions/deaths and assert conservation")
    mode.add_argument("--cascade", action="store_true",
                      help="student/teacher cascade frontier (student-only vs "
                           "cascade vs teacher-only); honors --transport thread|process")
    mode.add_argument("--quantized", action="store_true",
                      help="quantized inference: task-metric deltas vs the float64 "
                           "reference, decode vs a float32 copy, and quantized "
                           "serving on both transports")
    bench.add_argument("--pages", type=int, default=None,
                       help="pages in the synthesized stream (default 12 with "
                            "--smoke, else 64)")
    bench.add_argument("--seed", type=int, default=7)
    bench.add_argument("--batch-size", type=int, default=8)
    bench.add_argument("--beam-size", type=int, default=2)
    bench.add_argument("--output", default="BENCH_serving.json",
                       help="JSON report path ('' to skip writing)")
    bench.add_argument("--float32", action="store_true",
                       help="serve under float32 (chaos and cascade)")
    bench.add_argument("--smoke", action="store_true",
                       help="small default stream; print the smoke verdict")
    bench.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="scheduler micro-batch straggler wait")
    bench.add_argument("--chaos-workers", type=int, default=4,
                       help="worker pool size in chaos mode")
    bench.add_argument("--chaos-exception-rate", type=float, default=0.08,
                       help="per-batch probability of an injected transient failure")
    bench.add_argument("--chaos-stall-rate", type=float, default=0.05,
                       help="per-batch probability of an injected stall")
    bench.add_argument("--chaos-death-rate", type=float, default=0.03,
                       help="per-batch probability an injected crash kills the worker")
    bench.add_argument("--soak-rounds", type=int, default=1,
                       help="replay the chaos stream this many times against the "
                            "same pipeline (soak mode)")
    bench.add_argument("--deadline-ms", type=float, default=None,
                       help="per-request deadline budget (chaos mode)")
    bench.add_argument("--transport", choices=("thread", "process", "both"), default=None,
                       help="worker transport for --cascade (default thread) and "
                            "--quantized (default both)")
    bench.add_argument("--workers", type=int, default=4,
                       help="worker pool size for --cascade and --quantized")
    bench.add_argument("--mp-context", choices=("fork", "spawn", "forkserver"), default=None,
                       help="multiprocessing start method for the process transport")
    bench.add_argument("--escalation-threshold", type=float, default=None,
                       help="cascade escalation threshold (default: calibrate "
                            "offline against the simulated human-eval panel)")
    bench.add_argument("--quant-mode", choices=("int8", "float16"), default="int8",
                       help="weight quantization mode for --quantized")

    serve = sub.add_parser(
        "serve-many", help="brief many pages through the concurrent worker pool"
    )
    serve.add_argument("html_files", nargs="*",
                       help="HTML files to brief (omit to synthesize --pages pages)")
    serve.add_argument("--workers", type=int, default=2, help="worker pool size")
    serve.add_argument("--transport", choices=("thread", "process"), default="thread",
                       help="worker transport: shared-memory threads or "
                            "one model-replica process per worker")
    serve.add_argument("--pages", type=int, default=12,
                       help="synthetic pages when no files are given")
    serve.add_argument("--max-batch", type=int, default=8,
                       help="micro-batch size the scheduler collects per dispatch")
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="how long a worker waits for micro-batch stragglers")
    serve.add_argument("--queue-size", type=int, default=256,
                       help="bounded admission queue capacity (backpressure)")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="absolute per-request deadline; expired requests "
                            "resolve to typed DeadlineExceeded briefs")
    serve.add_argument("--cascade", action="store_true",
                       help="serve through the confidence-gated student/teacher "
                            "cascade instead of the single model")
    serve.add_argument("--escalation-threshold", type=float, default=None,
                       help="cascade escalation threshold (default: calibrate "
                            "offline against the simulated human-eval panel)")
    serve.add_argument("--quantized", action="store_true",
                       help="serve int8 weights: quantize the model (with "
                            "activation-range calibration over the corpus) "
                            "before serving; with --cascade only the student "
                            "tier is quantized, the float teacher stays the "
                            "quality backstop")
    serve.add_argument("--quant-mode", choices=("int8", "float16"), default="int8",
                       help="weight quantization mode for --quantized")
    serve.add_argument("--model", help="checkpoint saved by `repro train`")
    serve.add_argument("--topics", type=int, default=3)
    serve.add_argument("--epochs", type=int, default=10)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--status-interval", type=float, default=None, metavar="SECONDS",
                       help="print a live status frame to stderr every SECONDS "
                            "while serving")
    serve.add_argument("--journal", metavar="PATH", default=None,
                       help="write the serving event journal (governor moves, "
                            "restarts, quarantines) as JSON lines to PATH")
    _add_obs_args(serve)

    top = sub.add_parser(
        "top", help="live serving status view over a synthetic request stream"
    )
    top.add_argument("--workers", type=int, default=2, help="worker pool size")
    top.add_argument("--transport", choices=("thread", "process"), default="thread",
                     help="worker transport behind the status view")
    top.add_argument("--pages", type=int, default=24,
                     help="synthetic pages fed through the pipeline")
    top.add_argument("--frames", type=int, default=5,
                     help="status frames to render while serving")
    top.add_argument("--interval", type=float, default=0.5,
                     help="seconds between frames")
    top.add_argument("--max-batch", type=int, default=8,
                     help="micro-batch size the scheduler collects per dispatch")
    top.add_argument("--deadline-ms", type=float, default=None,
                     help="absolute per-request deadline")
    top.add_argument("--model", help="checkpoint saved by `repro train`")
    top.add_argument("--topics", type=int, default=3)
    top.add_argument("--epochs", type=int, default=10)
    top.add_argument("--seed", type=int, default=7)

    metrics = sub.add_parser(
        "metrics", help="exercise the runtime and print its Prometheus metrics"
    )
    metrics.add_argument("--seed", type=int, default=7)
    _add_obs_args(metrics)
    return parser


def _make_obs(args):
    """Tracer/registry for a command: real when requested, no-ops otherwise."""
    from .obs import NOOP_REGISTRY, NOOP_TRACER, MetricsRegistry, Tracer

    tracer = Tracer() if getattr(args, "trace", None) else NOOP_TRACER
    registry = MetricsRegistry() if getattr(args, "metrics", None) else NOOP_REGISTRY
    return tracer, registry


def _write_obs(args, tracer, registry) -> None:
    """Flush ``--trace`` / ``--metrics`` outputs at the end of a command."""
    from .obs import write_prometheus, write_trace_jsonl

    if getattr(args, "trace", None):
        with open(args.trace, "w") as handle:
            write_trace_jsonl(tracer, handle)
        print(f"wrote {len(tracer.spans)} spans to {args.trace}", file=sys.stderr)
    if getattr(args, "metrics", None):
        with open(args.metrics, "w") as handle:
            write_prometheus(registry.snapshot(), handle)
        print(f"wrote metrics snapshot to {args.metrics}", file=sys.stderr)


def _build_model(topics: int, pages: int, seed: int):
    from . import nn
    from .data import Vocabulary, build_jasmine_corpus
    from .models import BertSumEncoder, make_joint_model

    corpus = build_jasmine_corpus(num_topics=topics, pages_per_site=pages, seed=seed)
    vocabulary = Vocabulary.from_corpus(corpus)
    rng = np.random.default_rng(seed)
    bert = nn.MiniBert(
        vocab_size=len(vocabulary), dim=24, num_layers=1, num_heads=2, rng=rng, max_len=512
    )
    model = make_joint_model(
        "Joint-WB", BertSumEncoder(vocabulary, bert), vocabulary, hidden_dim=16, rng=rng
    )
    return corpus, vocabulary, model


def _build_cascade(teacher, vocabulary, corpus, seed: int, threshold: Optional[float]):
    """Wrap ``teacher`` in a confidence-gated student/teacher cascade.

    The student is the compact tier (dim-12 MiniBert, hidden 8); the
    confidence signal projects its generator memories against a topic
    phrase bank built from its own embeddings.  When ``threshold`` is
    ``None`` the escalation threshold is calibrated offline against the
    simulated human-eval panel on the corpus documents.
    """
    from . import nn
    from .core import CascadeModel, ConfidenceEstimator, calibrate_threshold
    from .distill import TopicPhraseBank
    from .models import BertSumEncoder, make_joint_model

    rng = np.random.default_rng(seed + 1)
    bert = nn.MiniBert(
        vocab_size=len(vocabulary), dim=12, num_layers=1, num_heads=2, rng=rng, max_len=512
    )
    student = make_joint_model(
        "Joint-WB", BertSumEncoder(vocabulary, bert), vocabulary, hidden_dim=8, rng=rng
    )
    embedding = student.generator.embedding.weight.data
    bank = TopicPhraseBank(
        embedding_dim=embedding.shape[1], bank_dim=8, rng=np.random.default_rng(seed + 2)
    )
    matrix = bank.build(list(corpus.topic_phrases.values()), embedding, vocabulary)
    estimator = ConfidenceEstimator(
        query_dim=2 * student.hidden_dim, bank_matrix=matrix, seed=seed
    )
    cascade = CascadeModel(
        student, teacher, estimator,
        threshold=threshold if threshold is not None else 0.5,
    )
    if threshold is None:
        calibration = calibrate_threshold(
            cascade, corpus.documents, seed=seed, beam_size=2
        )
        cascade.threshold = calibration.threshold
        print(
            f"calibrated escalation threshold {cascade.threshold:.2f} "
            f"(expected escalation rate {calibration.escalation_rate:.2f})",
            file=sys.stderr,
        )
    return cascade


def _quantize_for_serving(model, corpus, mode: str, cascade: bool):
    """Quantize ``model`` for serving, calibrated on the corpus documents.

    Plain serving quantizes the whole model.  Cascade serving quantizes
    only the student tier — that is where the latency budget lives; the
    float teacher stays the quality backstop the cascade escalates to.
    """
    from . import nn

    target = model.student if cascade else model
    documents = list(corpus.documents)[:8]
    calibration = nn.calibrate(
        target,
        lambda: target.predict_batch(documents, beam_size=2, batch_size=8),
    )
    quantized = target.quantize(mode=mode, calibration=calibration)
    if cascade:
        model.student = quantized
        print(f"quantized cascade student ({mode}); teacher stays float",
              file=sys.stderr)
        return model
    print(f"quantized serving model ({mode})", file=sys.stderr)
    return quantized


def _train(model, corpus, epochs: int, seed: int, tracer=None, registry=None) -> None:
    from .core import TrainConfig, Trainer

    split = corpus.random_split(np.random.default_rng(seed))
    Trainer(
        model,
        TrainConfig(epochs=epochs, learning_rate=5e-3, batch_size=2, seed=seed),
        tracer=tracer,
        registry=registry,
    ).train(split.train)


def _command_brief(args) -> int:
    from .core import BriefingPipeline

    tracer, registry = _make_obs(args)
    corpus, _, model = _build_model(args.topics, args.pages, args.seed)
    if args.model:
        model.load(args.model)
    else:
        print("No checkpoint given; training a small model first...", file=sys.stderr)
        _train(model, corpus, args.epochs, args.seed)
    with open(args.html_file) as handle:
        html = handle.read()
    brief = BriefingPipeline(model, tracer=tracer, registry=registry).brief_html(html)
    print(brief.render())
    for degradation in brief.degradations:
        print(f"[degraded] {degradation.describe()}", file=sys.stderr)
    _write_obs(args, tracer, registry)
    return 0


def _command_corpus_stats(args) -> int:
    from .data import analyze_corpus, build_jasmine_corpus

    corpus = build_jasmine_corpus(
        num_topics=args.topics, pages_per_site=args.pages, seed=args.seed
    )
    for key, value in corpus.statistics().items():
        print(f"{key:>20}: {value:.2f}")
    print()
    print(analyze_corpus(corpus).format())
    return 0


def _command_train(args) -> int:
    tracer, registry = _make_obs(args)
    corpus, _, model = _build_model(args.topics, args.pages, args.seed)
    _train(model, corpus, args.epochs, args.seed, tracer=tracer, registry=registry)
    model.save(args.save)
    print(f"saved {model.num_parameters():,} parameters to {args.save}")
    _write_obs(args, tracer, registry)
    return 0


def _command_tables(args) -> int:
    from .experiments.config import small, tiny
    from .experiments.runner import run_all

    scale = tiny() if args.scale == "tiny" else small()
    run_all(scale, names=args.only)
    return 0


def _command_health(args) -> int:
    import numpy as np

    from .core import BatchedBriefingPipeline, BriefingPipeline
    from .data.synthesizer import SyntheticWebsite
    from .data.taxonomy import build_taxonomy
    from .html import StructureDrivenCrawler
    from .obs import bridge_runtime_stats
    from .runtime import ChaosConfig, ChaosHost, ResilientHost, RetryPolicy, RuntimeStats

    tracer, registry = _make_obs(args)
    topic = build_taxonomy()[0]
    website = SyntheticWebsite(
        "health.example", topic, num_pages=args.pages, rng=np.random.default_rng(args.seed)
    )
    crawler = StructureDrivenCrawler()
    baseline = crawler.crawl(website)

    # Transient fetch faults are the retry layer's job: the chaos crawl must
    # harvest the exact same page set as the fault-free baseline.
    stats = RuntimeStats()
    chaos = ChaosHost(
        website,
        ChaosConfig(transient_failure_rate=args.failure_rate, seed=args.seed),
        stats=stats,
    )
    resilient = ResilientHost(
        chaos,
        RetryPolicy(max_attempts=args.max_attempts, seed=args.seed),
        stats=stats,
        tracer=tracer,
        registry=registry,
    )
    result = crawler.crawl(resilient, stats=stats, tracer=tracer, registry=registry)

    # Content corruption cannot be retried away — it is the degradation
    # ladder's job: briefing garbled/truncated/empty pages must never raise.
    _, _, model = _build_model(topics=2, pages=3, seed=args.seed)
    pipeline = BriefingPipeline(model, beam_size=2, stats=stats, tracer=tracer, registry=registry)
    page_html = website.fetch(result.pages[0].url) if result.pages else "<html></html>"
    garbler = ChaosHost(
        website, ChaosConfig(garble_rate=args.garble_rate, seed=args.seed), stats=stats
    )
    briefs = [
        pipeline.brief_html("<html><body><script>x=1</script></body></html>"),
        pipeline.brief_html(page_html[: len(page_html) // 3]),
        pipeline.brief_html(garbler.fetch(result.pages[0].url) if result.pages else ""),
    ]

    # Brief the same healthy page twice through the batched pipeline so the
    # snapshot also carries cache hit/miss series alongside the fault ones.
    batched = BatchedBriefingPipeline(
        model, beam_size=2, stats=stats, tracer=tracer, registry=registry
    )
    batched.brief_many([("cache-check", page_html), ("cache-check", page_html)])

    bridge_runtime_stats(stats, registry)
    print(stats.format())
    print()
    for brief in briefs:
        for degradation in brief.degradations:
            print(f"degradation: {degradation.describe()}")

    baseline_urls = {p.url for p in baseline.pages}
    chaos_urls = {p.url for p in result.pages}
    masked = chaos_urls == baseline_urls and not result.failed_urls
    served = all(b is not None for b in briefs)
    verdict = "healthy" if masked and served else "degraded"
    print(f"\ncrawl: {len(result.pages)}/{len(baseline.pages)} pages, "
          f"{len(result.failed_urls)} failed urls -> {verdict}")
    _write_obs(args, tracer, registry)
    return 0 if masked and served else 1


def _command_bench(args) -> int:
    from .core import run_cascade_bench, run_chaos_bench, run_quantized_bench

    num_pages = args.pages if args.pages is not None else (12 if args.smoke else 64)
    dtype = np.float32 if args.float32 else None
    output_path = args.output or None
    if args.quantized:
        transports = (
            ("thread", "process")
            if args.transport in (None, "both")
            else (args.transport,)
        )
        result = run_quantized_bench(
            num_pages=num_pages,
            seed=args.seed,
            mode=args.quant_mode,
            workers=args.workers,
            max_batch=args.batch_size,
            max_wait_ms=args.max_wait_ms,
            transports=transports,
            output_path=output_path,
            mp_context=args.mp_context,
        )
        # Quality + determinism only: tolerance vs the float64 reference and
        # identical briefs across transports.  Speed is perfbench's job.
        ok = result.within_tolerance and result.outputs_match
    elif args.cascade:
        result = run_cascade_bench(
            num_pages=num_pages,
            seed=args.seed,
            workers=args.workers,
            max_batch=args.batch_size,
            beam_size=args.beam_size,
            max_wait_ms=args.max_wait_ms,
            transport=args.transport if args.transport in ("thread", "process") else "thread",
            threshold=args.escalation_threshold,
            dtype=dtype,
            output_path=output_path,
            mp_context=args.mp_context,
        )
        ok = result.outputs_match and result.conserved and result.within_band
    else:
        result = run_chaos_bench(
            num_requests=num_pages,
            unique_pages=max(4, num_pages // 4),
            seed=args.seed,
            workers=args.chaos_workers,
            max_batch=args.batch_size,
            beam_size=args.beam_size,
            max_wait_ms=args.max_wait_ms,
            exception_rate=args.chaos_exception_rate,
            stall_rate=args.chaos_stall_rate,
            death_rate=args.chaos_death_rate,
            deadline_ms=args.deadline_ms,
            rounds=args.soak_rounds,
            dtype=dtype,
            output_path=output_path,
        )
        ok = result.conserved and not result.deadlocked
    print(result.format())
    if args.output:
        print(f"\nwrote {args.output}")
    if args.smoke:
        print(f"smoke: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def _command_serve_many(args) -> int:
    import threading

    from .core import ConcurrentBriefingPipeline
    from .core.bench import synthesize_serving_corpus

    observe = bool(
        getattr(args, "trace", None)
        or getattr(args, "metrics", None)
        or getattr(args, "journal", None)
        or getattr(args, "status_interval", None)
    )
    corpus, vocabulary, model = _build_model(args.topics, 6, args.seed)
    if args.model:
        model.load(args.model)
    else:
        print("No checkpoint given; training a small model first...", file=sys.stderr)
        _train(model, corpus, args.epochs, args.seed)
    if args.cascade:
        model = _build_cascade(
            model, vocabulary, corpus, args.seed, args.escalation_threshold
        )
    if getattr(args, "quantized", False):
        model = _quantize_for_serving(model, corpus, args.quant_mode, cascade=args.cascade)

    if args.html_files:
        pages = []
        for path in args.html_files:
            with open(path) as handle:
                pages.append((path, handle.read()))
    else:
        pages = synthesize_serving_corpus(args.pages, seed=args.seed)

    server = ConcurrentBriefingPipeline(
        model,
        num_workers=args.workers,
        transport=args.transport,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        max_queue=args.queue_size,
        default_deadline_ms=args.deadline_ms,
        observe=observe,
    )
    stop_status = threading.Event()
    status_thread = None
    if args.status_interval:
        from .obs import render_status

        def _status_loop() -> None:
            while not stop_status.wait(args.status_interval):
                print(render_status(server.status()), file=sys.stderr)
                print("", file=sys.stderr)

        status_thread = threading.Thread(
            target=_status_loop, name="serve-many-status", daemon=True
        )
        status_thread.start()
    try:
        briefs = server.brief_many(pages)
    finally:
        stop_status.set()
        if status_thread is not None:
            status_thread.join(timeout=5)
    cascade_status = server.status().get("cascade") if args.cascade else None
    server.shutdown()

    for (doc_id, _), brief in zip(pages, briefs):
        topic = " ".join(brief.topic) or "(empty)"
        line = f"{doc_id}: {topic}"
        if not brief.complete:
            line += f"   [degraded: {', '.join(brief.degraded_stages)}]"
        print(line)
    merged = server.merged_stats()
    print(f"\nworkers: {server.num_workers}   "
          f"batches: {merged.batches_dispatched}   "
          f"cache: {merged.cache_hits} hits / {merged.cache_misses} misses   "
          f"rejections: {merged.queue_rejections}   "
          f"shed: {merged.requests_shed}   "
          f"expired: {merged.deadline_expirations}   "
          f"restarts: {merged.worker_restarts}   "
          f"degradations: {merged.degradations}")
    if cascade_status:
        print(f"cascade: {cascade_status['student_briefs']} student / "
              f"{cascade_status['teacher_escalations']} teacher "
              f"(escalation rate {cascade_status['escalation_rate']:.2f}, "
              f"{cascade_status['escalations_suppressed']} suppressed)")

    if getattr(args, "trace", None):
        from .obs import write_spans_jsonl

        spans = server.trace_spans()
        with open(args.trace, "w") as handle:
            written = write_spans_jsonl(spans, handle)
        print(f"wrote {written} spans to {args.trace}", file=sys.stderr)
    if getattr(args, "metrics", None):
        from .obs import write_prometheus

        with open(args.metrics, "w") as handle:
            write_prometheus(server.metrics_snapshot(), handle)
        print(f"wrote metrics snapshot to {args.metrics}", file=sys.stderr)
    if getattr(args, "journal", None) and server.journal is not None:
        with open(args.journal, "w") as handle:
            written = server.journal.write_jsonl(handle)
        print(f"wrote {written} journal events to {args.journal}", file=sys.stderr)
    return 0


def _command_top(args) -> int:
    import threading
    import time as _time

    from .core import ConcurrentBriefingPipeline
    from .core.bench import synthesize_serving_corpus
    from .obs import render_status

    corpus, _, model = _build_model(args.topics, 6, args.seed)
    if args.model:
        model.load(args.model)
    else:
        print("No checkpoint given; training a small model first...", file=sys.stderr)
        _train(model, corpus, args.epochs, args.seed)
    pages = synthesize_serving_corpus(args.pages, seed=args.seed)

    server = ConcurrentBriefingPipeline(
        model,
        num_workers=args.workers,
        transport=args.transport,
        max_batch=args.max_batch,
        max_queue=max(2 * len(pages), 64),
        default_deadline_ms=args.deadline_ms,
        observe=True,
    )
    futures = []

    def _feed() -> None:
        for doc_id, html in pages:
            try:
                futures.append(server.submit(html, doc_id=doc_id))
            except Exception:
                pass  # shed/rejected requests still show up in the counters

    feeder = threading.Thread(target=_feed, name="top-feeder", daemon=True)
    feeder.start()
    for frame in range(max(1, args.frames)):
        _time.sleep(args.interval)
        print(f"--- frame {frame + 1} ---")
        print(render_status(server.status()))
    feeder.join(timeout=60)
    for future in futures:
        try:
            future.result(timeout=120)
        except Exception:
            pass
    server.shutdown(timeout=60)
    print("--- final ---")
    print(render_status(server.status()))
    return 0


def _command_metrics(args) -> int:
    from .core.batched import BriefCache
    from .obs import bridge_runtime_stats, render_prometheus
    from .runtime import CircuitBreaker, FetchError, RetryPolicy, RuntimeStats

    tracer, registry = _make_obs(args)
    if not registry.enabled:
        from .obs import MetricsRegistry

        registry = MetricsRegistry()

    # Deterministic mini-workout of the runtime so every family has data.
    stats = RuntimeStats()
    retry_counter = registry.counter("fetch_retries_total", help="retries per host")
    attempts = {"n": 0}

    def flaky() -> str:
        attempts["n"] += 1
        stats.inc("fetch_attempts")
        if attempts["n"] < 3:
            stats.inc("fetch_retries")
            retry_counter.inc(host="metrics.example")
            raise FetchError("synthetic fault", url="https://metrics.example/", transient=True)
        return "ok"

    with tracer.span("retry_demo", host="metrics.example"):
        RetryPolicy(max_attempts=5, base_delay=0.0, seed=args.seed).call(flaky)

    transition_counter = registry.counter(
        "breaker_transitions_total", help="circuit state changes"
    )

    def on_transition(old: str, new: str) -> None:
        transition_counter.inc(host="metrics.example", **{"from": old, "to": new})

    breaker = CircuitBreaker(
        failure_threshold=2, recovery_time=0.0, on_transition=on_transition
    )
    with tracer.span("breaker_demo", host="metrics.example"):
        breaker.record_failure()
        breaker.record_failure()  # trips open
        stats.inc("breaker_trips")
        breaker.allow()  # recovery_time=0 → half-open probe
        breaker.record_success()  # closes again

    cache_counter = registry.counter(
        "serving_cache_requests_total", help="brief-cache lookups, by result"
    )
    cache = BriefCache(capacity=4)
    with tracer.span("cache_demo"):
        for content, value in (("page-a", 1), ("page-a", 1), ("page-b", 2)):
            if cache.get(content) is None:
                stats.inc("cache_misses")
                cache_counter.inc(result="miss")
                cache.put(content, value)
            else:
                stats.inc("cache_hits")
                cache_counter.inc(result="hit")

    bridge_runtime_stats(stats, registry)
    print(render_prometheus(registry.snapshot()), end="")
    _write_obs(args, tracer, registry)
    return 0


_COMMANDS = {
    "brief": _command_brief,
    "corpus-stats": _command_corpus_stats,
    "train": _command_train,
    "tables": _command_tables,
    "health": _command_health,
    "bench": _command_bench,
    "serve-many": _command_serve_many,
    "top": _command_top,
    "metrics": _command_metrics,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)
