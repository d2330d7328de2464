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
``serve-many [page.html ...] [--workers N] [--transport T] [--deadline-ms B]``
    Brief many pages through the concurrent serving layer
    (:class:`~repro.core.serving.ConcurrentBriefingPipeline`): bounded
    admission queue, micro-batching scheduler, N briefing workers behind
    one front brief cache, and worker supervision.
    With no files, synthesizes a ``--pages``-page stream.  ``--deadline-ms``
    gives every request an absolute budget; expired requests resolve to
    typed ``DeadlineExceeded`` briefs instead of hanging.  ``--transport
    process`` serves through worker processes (each holding its own model
    replica) instead of threads.  Prints one topic line per page plus the
    merged worker-pool counters.  ``--status-interval S`` prints a live
    status frame (queue depth, per-worker throughput, SLO burn) to stderr
    every S seconds while serving; ``--journal PATH`` writes the structured
    event journal (worker restarts, requeued batches, poison quarantines)
    as JSON lines.
``top [--workers N] [--transport T] [--frames N] [--interval S]``
    Live serving status view: run an observed serving pipeline over a
    synthetic request stream and render one status frame per interval —
    queue depth, per-worker liveness / generation / batches, cache hit
    rate, SLO burn rates and the recent event journal — then a final frame
    after drain.

``brief``, ``train`` and ``serve-many`` all accept
``--trace PATH`` (write a JSON-lines span trace) and ``--metrics PATH``
(write a Prometheus text snapshot); omitting both keeps the no-op
observability path.

The chaos soak (conservation under injected worker faults) is the test
``tests/serving/test_soak.py``; throughput and latency are measured by
``perfbench/``.
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
    serve.add_argument("--model", help="checkpoint saved by `repro train`")
    serve.add_argument("--topics", type=int, default=3)
    serve.add_argument("--epochs", type=int, default=10)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--status-interval", type=float, default=None, metavar="SECONDS",
                       help="print a live status frame to stderr every SECONDS "
                            "while serving")
    serve.add_argument("--journal", metavar="PATH", default=None,
                       help="write the serving event journal (restarts, requeues, "
                            "quarantines) as JSON lines to PATH")
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


def _command_serve_many(args) -> int:
    import threading

    from .core import ConcurrentBriefingPipeline
    from .data import synthesize_serving_corpus

    observe = bool(
        getattr(args, "trace", None)
        or getattr(args, "metrics", None)
        or getattr(args, "journal", None)
        or getattr(args, "status_interval", None)
    )
    corpus, _, model = _build_model(args.topics, 6, args.seed)
    if args.model:
        model.load(args.model)
    else:
        print("No checkpoint given; training a small model first...", file=sys.stderr)
        _train(model, corpus, args.epochs, args.seed)

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
    from .data import synthesize_serving_corpus
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


_COMMANDS = {
    "brief": _command_brief,
    "corpus-stats": _command_corpus_stats,
    "train": _command_train,
    "tables": _command_tables,
    "serve-many": _command_serve_many,
    "top": _command_top,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)
