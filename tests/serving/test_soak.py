"""Chaos soak: a Zipfian stream under seeded worker faults, and conservation.

Conservation is the serving layer's contract under chaos: with workers
stalling, raising and dying, every submitted future still resolves,
``shutdown`` joins every worker, and every submission comes back as a
complete or a degraded brief.
"""

import concurrent.futures
import time

import numpy as np
import pytest

from repro.core import ConcurrentBriefingPipeline
from repro.data import synthesize_serving_corpus
from repro.runtime.chaos import ChaosWorker
from repro.runtime.stats import RuntimeStats


def synthesize_zipf_stream(num_requests, unique_pages=16, seed=7, alpha=1.1):
    """``(doc_id, html)`` requests whose pages follow ``p(rank) ∝ rank**-alpha``.

    A few hot pages and a long cold tail give the front cache and the
    single-flight coalescing realistic work, unlike the uniform repeats of
    :func:`synthesize_serving_corpus`.
    """
    base = synthesize_serving_corpus(unique_pages, seed=seed, duplicate_fraction=0.0)
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, len(base) + 1, dtype=float) ** alpha
    picks = rng.choice(len(base), size=num_requests, p=weights / weights.sum())
    return [(f"req-{position:05d}", base[int(pick)][1]) for position, pick in enumerate(picks)]


def soak(server, stream, rounds, timeout=60.0):
    """Submit ``stream`` ``rounds`` times; ``(briefs, unresolved, stuck_workers)``.

    All futures share one overall deadline, so a broken contract fails the
    test in ``timeout`` seconds rather than ``timeout`` per future.
    """
    futures = [
        server.submit(html, doc_id=doc_id) for _ in range(rounds) for doc_id, html in stream
    ]
    done, not_done = concurrent.futures.wait(futures, timeout=timeout)
    briefs = [future.result() for future in done if future.exception() is None]
    unresolved = len(not_done) + len(done) - len(briefs)
    return briefs, unresolved, server.shutdown(timeout=timeout)


def test_zipf_stream_is_deterministic_and_skewed():
    first = synthesize_zipf_stream(64, unique_pages=8, seed=7)
    second = synthesize_zipf_stream(64, unique_pages=8, seed=7)
    assert first == second
    assert len(first) == 64
    assert synthesize_zipf_stream(64, unique_pages=8, seed=8) != first

    # doc_ids are unique per request; the repetition is in the page content.
    unique_html = {html for _, html in first}
    assert len(unique_html) <= 8
    # Zipfian skew: the most popular page dominates a uniform share.
    counts = sorted(
        (sum(1 for _, h in first if h == html) for html in unique_html), reverse=True
    )
    assert counts[0] > 64 / 8


@pytest.mark.parametrize(
    "rates",
    [(0.15, 0.10, 0.15), (0.0, 0.0, 0.0)],
    ids=["chaos", "fault-free"],
)
def test_soak_conserves_every_future(serving_model, rates):
    """256 submissions (128 Zipf requests drawn over 256 pages, 42 of them
    distinct, two rounds) on 4 workers with micro-batches of 2.  The front
    cache and single-flight absorb every repeat, so the distinct pages set
    how many batches dispatch; 42 give every worker several fault draws.
    Under chaos every future resolves, no worker is stuck, and workers die,
    restart and have their held batches re-queued on every run; with every
    rate at 0 nothing dies, restarts or degrades."""
    exception_rate, stall_rate, death_rate = rates
    chaos_stats = RuntimeStats()
    chaos = ChaosWorker(
        exception_rate=exception_rate,
        stall_rate=stall_rate,
        death_rate=death_rate,
        stall_seconds=0.01,
        seed=7,
        stats=chaos_stats,
        sleep=time.sleep,
        max_deaths=8,
    )
    server = ConcurrentBriefingPipeline(
        serving_model,
        num_workers=4,
        beam_size=2,
        max_batch=2,
        max_wait_ms=2.0,
        max_queue=256,
        supervise=True,
        chaos=chaos,
    )
    stream = synthesize_zipf_stream(128, unique_pages=256, seed=7)
    briefs, unresolved, stuck = soak(server, stream, rounds=2)

    assert unresolved == 0
    assert stuck == []
    assert len(briefs) == 256  # complete + degraded
    if any(rates):
        # Floors that held in each of 30 looped runs (deaths and restarts
        # were 4-6, re-queued batches 3-5).
        stats = server.merged_stats()
        assert chaos.deaths >= 3
        assert stats.worker_restarts >= 3
        assert stats.batches_requeued >= 2
    else:
        assert chaos.deaths == 0
        assert server.merged_stats().worker_restarts == 0
        assert all(brief.complete for brief in briefs)
