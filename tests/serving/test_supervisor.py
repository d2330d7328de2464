"""WorkerSupervisor: death recovery, poison bisection, dirty shutdowns."""

import threading
import time

from repro.core import ConcurrentBriefingPipeline
from repro.runtime import ChaosWorker, WorkerDeath

from .test_deadlines import PAGE_A, PAGE_B, GatedModel

POISON_MARKER = "poisonmarker"
POISON_PAGE = (
    f"<html><body><p>{POISON_MARKER} page</p>"
    "<p>the price is 666</p></body></html>"
)
GOOD_PAGES = [
    f"<html><body><p>wholesome page {i}</p><p>the price is {i}</p></body></html>"
    for i in range(3)
]


class PoisonModel:
    """Kills the worker thread whenever the poison marker is in the batch."""

    def __init__(self, model):
        self._model = model

    def predict_batch(self, documents, beam_size=4, batch_size=8):
        for document in documents:
            for sentence in document.sentences:
                if any(POISON_MARKER in token for token in sentence):
                    raise WorkerDeath("poison page in batch")
        return self._model.predict_batch(
            documents, beam_size=beam_size, batch_size=batch_size
        )

    def __getattr__(self, name):
        return getattr(self._model, name)


def test_worker_death_requeues_batch_and_serves_followers(serving_model):
    """A worker dying mid-batch is resurrected and its batch re-queued; the
    retry serves everyone, including single-flight followers whose futures
    never touched the queue."""
    chaos = ChaosWorker(death_rate=1.0, seed=3, max_deaths=1)
    server = ConcurrentBriefingPipeline(
        serving_model, num_workers=1, beam_size=2, max_batch=4, max_wait_ms=0.0,
        chaos=chaos, supervisor_poll_ms=5.0, start=False,
    )
    leader = server.submit(PAGE_A, doc_id="leader")
    follower = server.submit(PAGE_A, doc_id="follower")  # coalesces onto leader
    other = server.submit(PAGE_B, doc_id="other")
    server.pool.start()
    server.supervisor.start()
    try:
        assert leader.result(timeout=30).complete
        assert follower.result(timeout=30).complete
        assert other.result(timeout=30).complete
    finally:
        server.shutdown(timeout=30)
    assert chaos.deaths == 1
    merged = server.merged_stats()
    assert merged.worker_restarts == 1
    assert merged.batches_requeued == 1
    assert merged.poison_quarantined == 0


def test_restart_metrics_carry_reason_label(serving_model):
    chaos = ChaosWorker(death_rate=1.0, seed=3, max_deaths=1)
    server = ConcurrentBriefingPipeline(
        serving_model, num_workers=1, beam_size=2, max_wait_ms=0.0,
        chaos=chaos, supervisor_poll_ms=5.0, observe=True,
    )
    try:
        assert server.submit(PAGE_A, doc_id="a").result(timeout=30).complete
    finally:
        server.shutdown(timeout=30)
    snapshot = server.metrics_snapshot()
    assert snapshot.value("serving_worker_restarts_total", reason="died") == 1.0
    assert snapshot.value("serving_batches_requeued_total") == 1.0


def test_poison_bisection_isolates_the_bad_request(serving_model):
    """A batch that keeps killing workers bisects down until the poison
    request rides alone, is quarantined, and the survivors are served."""
    quarantined = []
    server = ConcurrentBriefingPipeline(
        PoisonModel(serving_model), num_workers=1, beam_size=2,
        max_batch=4, max_wait_ms=0.0, supervisor_poll_ms=5.0, start=False,
        observe=True,
    )
    goods = [server.submit(page, doc_id=f"good-{i}") for i, page in enumerate(GOOD_PAGES)]
    poisoned = server.submit(POISON_PAGE, doc_id="poison")
    server.pool.start()
    server.supervisor.start()
    try:
        for future in goods:
            assert future.result(timeout=30).complete
        brief = poisoned.result(timeout=30)
        assert not brief.complete
        assert brief.degradations[0].stage == "serve"
        assert brief.degradations[0].fallback == "quarantined"

        # Quarantine feeds the front-door poison set: a fresh submit of the
        # same content is shed at admission without touching a worker.
        reshed = server.submit(POISON_PAGE, doc_id="retry").result(timeout=30)
        assert not reshed.complete
        assert reshed.degradations[0].stage == "admission"
        # …while unrelated pages still flow normally.
        assert server.submit(PAGE_A, doc_id="healthy").result(timeout=30).complete
    finally:
        server.shutdown(timeout=30)
    merged = server.merged_stats()
    assert merged.poison_quarantined == 1
    assert merged.worker_restarts >= 2  # at least the two bisection deaths
    assert merged.requests_shed == 1  # the retry, shed at the front door
    snapshot = server.metrics_snapshot()
    assert snapshot.value("serving_shed_total", reason="poison") == 1.0


def test_wedged_worker_is_detected_and_replaced(serving_model):
    """A worker stuck inside the model (stale heartbeat, batch in hand) is
    declared wedged: a replacement takes over the re-queued batch."""
    gated = GatedModel(serving_model)
    server = ConcurrentBriefingPipeline(
        gated, num_workers=1, beam_size=2, max_wait_ms=0.0,
        supervisor_poll_ms=5.0, wedge_timeout_ms=50.0,
    )
    try:
        future = server.submit(PAGE_A, doc_id="a")
        assert gated.started.wait(timeout=30)
        deadline = time.monotonic() + 30.0
        while server.merged_stats().worker_restarts < 1:
            assert time.monotonic() < deadline, "wedged worker never detected"
            time.sleep(0.01)
        gated.release.set()  # free both the zombie and its replacement
        assert future.result(timeout=30).complete
    finally:
        gated.release.set()
        server.shutdown(timeout=30)
    assert server.merged_stats().worker_restarts >= 1


def test_replaced_worker_takes_no_further_batches(serving_model):
    """A wedged worker that finishes late after being replaced exits instead
    of serving more batches under a retired record nobody supervises."""
    gated = GatedModel(serving_model)
    server = ConcurrentBriefingPipeline(
        gated, num_workers=1, beam_size=2, max_batch=4, max_wait_ms=0.0,
        supervisor_poll_ms=5.0, wedge_timeout_ms=50.0,
    )
    try:
        first = server.submit(PAGE_A, doc_id="a")
        assert gated.started.wait(timeout=30)
        zombie = server.pool.workers[0]
        deadline = time.monotonic() + 30.0
        while server.merged_stats().worker_restarts < 1:
            assert time.monotonic() < deadline, "wedged worker never detected"
            time.sleep(0.01)
        gated.release.set()
        assert first.result(timeout=30).complete
        futures = [
            server.submit(
                f"<html><body><p>after the wedge {i}</p><p>the price is {i}</p></body></html>",
                doc_id=f"after-{i}",
            )
            for i in range(40)
        ]
        for future in futures:
            assert future.result(timeout=30) is not None
        zombie.thread.join(timeout=5.0)
        assert not zombie.thread.is_alive()
        assert zombie.stats.batches_dispatched == 1
    finally:
        gated.release.set()
        server.shutdown(timeout=30)


def test_shutdown_under_load_resolves_every_future(serving_model):
    """Conservation through a shutdown storm: every admitted future resolves
    (served or typed-degraded), none hangs, no worker gets stuck."""
    server = ConcurrentBriefingPipeline(
        serving_model, num_workers=2, beam_size=2, max_batch=4,
        max_wait_ms=1.0, max_queue=128,
    )
    pages = [
        f"<html><body><p>load page {i}</p><p>the price is {i}</p></body></html>"
        for i in range(32)
    ]
    futures = [server.submit(page, doc_id=f"load-{i}") for i, page in enumerate(pages)]
    stuck = server.shutdown(timeout=30)
    assert stuck == []
    for future in futures:
        assert future.result(timeout=30) is not None


def test_close_racing_submit_never_hangs_a_future(serving_model):
    """Threads hammering submit() while shutdown() runs: late arrivals get
    degraded briefs, in-flight work completes, nobody waits forever."""
    server = ConcurrentBriefingPipeline(
        serving_model, num_workers=2, beam_size=2, max_wait_ms=1.0, max_queue=128
    )
    futures = []
    lock = threading.Lock()
    barrier = threading.Barrier(4)

    def hammer(worker_id):
        barrier.wait()
        for i in range(16):
            future = server.submit(
                f"<html><body><p>race {worker_id}-{i}</p>"
                f"<p>the price is {i}</p></body></html>",
                doc_id=f"race-{worker_id}-{i}",
            )
            with lock:
                futures.append(future)

    threads = [threading.Thread(target=hammer, args=(t,)) for t in range(3)]
    for thread in threads:
        thread.start()
    barrier.wait()  # shutdown races the first submits
    stuck = server.shutdown(timeout=30)
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert stuck == []
    assert len(futures) == 48
    for future in futures:
        brief = future.result(timeout=30)
        assert brief is not None  # complete or typed-degraded, never hanging


def test_stuck_worker_reported_and_its_batch_resolved(serving_model):
    """join(timeout) reports the thread that would not exit, and shutdown
    still resolves the batch it holds so conservation survives even a
    worker that never comes back."""
    gated = GatedModel(serving_model)
    server = ConcurrentBriefingPipeline(
        gated, num_workers=1, beam_size=2, max_wait_ms=0.0, supervise=False
    )
    future = server.submit(PAGE_A, doc_id="a")
    assert gated.started.wait(timeout=30)
    stuck = server.shutdown(timeout=0.2)  # worker is wedged in the model
    assert len(stuck) == 1 and "brief-worker" in stuck[0]
    assert server.stuck_workers == stuck
    brief = future.result(timeout=30)
    assert not brief.complete
    assert brief.degradations[0].stage == "serve"
    gated.release.set()  # let the zombie thread exit cleanly
