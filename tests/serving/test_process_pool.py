"""ModelSnapshot and process-transport plumbing."""

import copy
import pickle

import numpy as np

from repro import nn
from repro.core import (
    BatchedBriefingPipeline,
    BriefingPipeline,
    ConcurrentBriefingPipeline,
    ModelSnapshot,
)
from repro.core.transport import serving_copy
from repro.models import BertSumEncoder, make_joint_model

from .test_deadlines import PAGE_A, PAGE_B


# ----------------------------------------------------------------------
# ModelSnapshot
# ----------------------------------------------------------------------
def test_snapshot_round_trip_restores_identical_model(serving_model):
    snapshot = ModelSnapshot(serving_model)
    assert snapshot.num_bytes > 0
    restored = snapshot.restore()
    assert restored is not serving_model
    served = serving_copy(serving_model)
    for (name, want), (_, got) in zip(served.named_parameters(), restored.named_parameters()):
        assert got.data.dtype == want.data.dtype and np.array_equal(got.data, want.data), name
    want = BriefingPipeline(serving_model, beam_size=2).brief_html(PAGE_A)
    got = BriefingPipeline(restored, beam_size=2).brief_html(PAGE_A)
    assert got.topic == want.topic
    assert got.attributes == want.attributes
    assert got.informative_sentences == want.informative_sentences


def test_snapshot_restores_are_independent_and_identical(serving_model):
    """Every restore (a worker spawned at boot, one resurrected mid-run)
    deserialises the same frozen blob: distinct model objects, identical
    predictions."""
    snapshot = ModelSnapshot(serving_model)
    first = snapshot.restore()
    second = snapshot.restore()
    assert first is not second
    want = BriefingPipeline(first, beam_size=2).brief_html(PAGE_B)
    got = BriefingPipeline(second, beam_size=2).brief_html(PAGE_B)
    assert got.topic == want.topic
    assert got.attributes == want.attributes
    assert got.informative_sentences == want.informative_sentences


def test_snapshot_ships_no_gradients(serving_model):
    """Gradients the last training step left behind never reach a worker:
    the snapshot of a model holding them restores grad-free, and is no
    larger than the snapshot of the same weights without them."""
    model = copy.deepcopy(serving_model)
    for param in model.parameters():
        param.grad = np.ones_like(param.data)
    snapshot = ModelSnapshot(model)
    restored = snapshot.restore()
    assert all(param.grad is None for param in restored.parameters())
    assert snapshot.num_bytes == ModelSnapshot(serving_model).num_bytes


def test_snapshot_ships_float32_weights(serving_model):
    """Workers restore float32 weights from a float64 model, and the blob is
    about half the float64 model's; the caller's model stays float64."""
    snapshot = ModelSnapshot(serving_model)
    assert all(p.data.dtype == np.float32 for p in snapshot.restore().parameters())
    assert all(p.data.dtype == np.float64 for p in serving_model.parameters())
    float64_bytes = len(pickle.dumps(serving_model, protocol=pickle.HIGHEST_PROTOCOL))
    assert snapshot.num_bytes <= 0.55 * float64_bytes



def test_a_train_mode_model_is_served_in_eval_mode(small_vocab, page_stream):
    """Dropout never fires while serving: a model left in ``train()`` mode
    briefs like its eval-mode twin, its snapshot arrives in eval mode with no
    gradients, and the caller's model keeps its mode and gradients."""
    rng = np.random.default_rng(3)
    bert = nn.MiniBert(
        vocab_size=len(small_vocab), dim=12, num_layers=1, num_heads=2, rng=rng,
        max_len=256, dropout=0.5,
    )
    model = make_joint_model(
        "Joint-WB", BertSumEncoder(small_vocab, bert), small_vocab, 6, rng, dropout=0.5
    )
    for param in model.parameters():
        param.grad = np.ones_like(param.data)
    twin = copy.deepcopy(model).eval()
    pages = page_stream[:16]

    def briefs(served):
        return [
            (brief.topic, brief.attributes, brief.informative_sentences)
            for brief in BatchedBriefingPipeline(served, beam_size=2).brief_many(pages)
        ]

    assert briefs(model) == briefs(twin)
    restored = ModelSnapshot(model).restore()
    assert not any(module.training for module in restored.modules())
    assert all(param.grad is None for param in restored.parameters())
    assert all(module.training for module in model.modules())
    assert all(param.grad is not None for param in model.parameters())

# ----------------------------------------------------------------------
# The process transport through the pipeline front door
# ----------------------------------------------------------------------
def test_process_transport_serves_and_counts(serving_model):
    server = ConcurrentBriefingPipeline(
        serving_model, num_workers=2, transport="process", beam_size=2,
        max_batch=4, max_wait_ms=0.0, supervise=False,
    )
    try:
        first = server.submit(PAGE_A, doc_id="first").result(timeout=60)
        assert first.complete
        # Same content again: a front-door cache hit, no second model pass.
        again = server.submit(PAGE_A, doc_id="again").result(timeout=60)
        assert again.complete and again.topic == first.topic
    finally:
        server.shutdown(timeout=60)
    merged = server.merged_stats()
    assert merged.cache_misses == 1
    assert merged.cache_hits == 1
    assert server.pool.transport_name == "process"


def test_externally_killed_process_is_resurrected(serving_model):
    """SIGTERM from outside (OOM-killer stand-in) while the worker is idle:
    the next batch surfaces the dead pipe, the supervisor re-spawns the
    process with a fresh generation, and serving continues."""
    server = ConcurrentBriefingPipeline(
        serving_model, num_workers=1, transport="process", beam_size=2,
        max_batch=1, max_wait_ms=0.0, supervisor_poll_ms=5.0,
    )
    try:
        assert server.submit(PAGE_A, doc_id="warm").result(timeout=60).complete
        victim = server.pool.workers[0]
        victim.process.terminate()
        victim.process.join(timeout=10)
        brief = server.submit(PAGE_B, doc_id="after-kill").result(timeout=60)
        assert brief.complete
    finally:
        server.shutdown(timeout=60)
    assert server.merged_stats().worker_restarts >= 1
    survivor = server.pool.workers[0]
    assert survivor.generation >= 1


def test_shutdown_resolves_everything_under_load(serving_model):
    """Conservation through shutdown on the process transport: every admitted
    future resolves (served or typed-degraded) and no dispatcher sticks."""
    server = ConcurrentBriefingPipeline(
        serving_model, num_workers=2, transport="process", beam_size=2,
        max_batch=4, max_wait_ms=1.0, max_queue=128,
    )
    pages = [
        f"<html><body><p>proc load page {i}</p><p>the price is {i}</p></body></html>"
        for i in range(24)
    ]
    futures = [server.submit(page, doc_id=f"load-{i}") for i, page in enumerate(pages)]
    stuck = server.shutdown(timeout=60)
    assert stuck == []
    for future in futures:
        assert future.result(timeout=60) is not None
    # reap() ran: no worker process outlives the pipeline.
    for worker in server.pool.workers:
        assert not worker.process.is_alive()


def test_start_method_is_recorded(serving_model):
    server = ConcurrentBriefingPipeline(
        serving_model, num_workers=1, transport="process", beam_size=2,
        supervise=False,
    )
    try:
        assert server.pool.start_method in ("fork", "spawn", "forkserver")
    finally:
        server.shutdown(timeout=30)


def test_process_transport_serves_under_spawn(serving_model, page_stream):
    """Under ``spawn`` every worker starts from a fresh interpreter, so the
    snapshot and worker config must pickle (no fork-only closures); the
    briefs equal the thread transport's."""
    pages = page_stream[:6]
    briefs = {}
    for transport, options in (("thread", {}), ("process", {"mp_context": "spawn"})):
        server = ConcurrentBriefingPipeline(
            serving_model, num_workers=2, transport=transport, beam_size=2,
            max_batch=4, supervise=False, **options,
        )
        try:
            if transport == "process":
                assert server.pool.start_method == "spawn"
            briefs[transport] = server.brief_many(pages)
        finally:
            server.shutdown(timeout=60)
    for want, got in zip(briefs["thread"], briefs["process"]):
        assert got.complete
        assert got.topic == want.topic
        assert got.attributes == want.attributes
        assert got.informative_sentences == want.informative_sentences
