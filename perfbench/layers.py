"""Per-layer attribution for the traced run.

In-process layers are timed by wrapping the public functions and methods of
``repro.html`` (as imported by ``repro.core.pipeline``), ``repro.models``,
``repro.nn`` and ``repro.core`` for the duration of one pass.  Every wrapper
keeps a per-thread call stack, so each layer gets an exclusive (self) time
and the self times of nested layers sum to the outermost call's wall time.
Layers inside worker processes are read from the program's own telemetry
(``metrics_snapshot()`` / ``trace_spans()`` with ``observe=True``).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List

import repro.core.pipeline as core_pipeline
import repro.nn as repro_nn
from repro.core import BatchedBriefingPipeline
from repro.models.joint_wb import JointWBModel

#: Self-time layers, outermost first; ``models.predict_batch`` holds the
#: ``predict_batch`` self time (its children are the other models.* layers).
LAYERS = (
    "core.batched.brief_many",
    "html.parse",
    "html.render",
    "models.predict_batch",
    "models.encode",
    "models.extract",
    "models.section",
    "models.topic_encode",
    "models.greedy",
    "models.decode",
    "nn.beam_host",
    "nn.beam_step",
)

#: children of predict_batch, for its reconciliation
PREDICT_CHILDREN = (
    "models.encode",
    "models.extract",
    "models.section",
    "models.topic_encode",
    "models.greedy",
    "models.decode",
)

#: the layer sum must cover the measured busy time within this share
RECONCILE_TOLERANCE = 0.05


class LayerClock:
    """Inclusive and exclusive seconds per layer, from nested wrappers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.exclusive: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def timed(self, layer: str, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.inclusive[layer] += elapsed
                    self.exclusive[layer] += elapsed - children
                    self.calls[layer] += 1

        return wrapper


@contextmanager
def wrapped(clock: LayerClock, model):
    """Install timing wrappers on the serving path; restore them on exit."""
    patches = []

    def patch(owner, attribute, replacement):
        patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def method(owner, attribute, layer, before=None):
        original = owner.__dict__[attribute]
        timed = clock.timed(layer, original)

        @functools.wraps(original)
        def call(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            return timed(*args, **kwargs)

        patch(owner, attribute, call)

    def pages_in(_self, pages, *args, **kwargs):
        clock.count("core.batched.pages", len(pages))

    def documents_in(_self, documents, *args, **kwargs):
        clock.count("models.documents", len(documents))

    def padding(_self, documents, *args, **kwargs):
        # BERTSUM input length: the words plus one [CLS] per sentence.
        lengths = [d.num_tokens + d.num_sentences for d in documents]
        if lengths:
            clock.count("models.real_tokens", sum(lengths))
            clock.count("models.pad_tokens", len(lengths) * max(lengths) - sum(lengths))

    def beam(original):
        host = clock.timed("nn.beam_host", original)

        @functools.wraps(original)
        def search(step_fn, *args, **kwargs):
            step = clock.timed("nn.beam_step", step_fn)

            def counted(token_ids, state):
                clock.count("nn.beam_steps")
                clock.count("nn.beam_rows", len(token_ids))
                return step(token_ids, state)

            return host(counted, *args, **kwargs)

        return search

    patch(core_pipeline, "parse_html", clock.timed("html.parse", core_pipeline.parse_html))
    patch(core_pipeline, "render_page", clock.timed("html.render", core_pipeline.render_page))
    method(BatchedBriefingPipeline, "brief_many", "core.batched.brief_many", before=pages_in)
    method(JointWBModel, "predict_batch", "models.predict_batch", before=documents_in)
    method(type(model.encoder), "encode_batch", "models.encode", before=padding)
    method(type(model.extractor), "hidden_batch", "models.extract")
    method(type(model.section), "probabilities", "models.section")
    generator = type(model.generator)
    method(generator, "encode_batch", "models.topic_encode")
    method(generator, "greedy_hidden_batch", "models.greedy")
    method(generator, "generate_batch", "models.decode")
    for name in ("batched_beam_search_many", "batched_beam_search_many_fast"):
        patch(repro_nn, name, beam(getattr(repro_nn, name)))
    try:
        yield clock
    finally:
        for owner, attribute, original in reversed(patches):
            setattr(owner, attribute, original)


def in_process_metrics(clock: LayerClock) -> Dict[str, float]:
    """Per-document layer costs from one wrapped pass (ms per doc, ratios)."""
    docs = max(1.0, clock.counts["models.documents"])
    pages = max(1.0, clock.counts["core.batched.pages"])
    parsed = max(1, clock.calls["html.parse"])
    incl, excl = clock.inclusive, clock.exclusive
    steps = clock.counts["nn.beam_steps"]
    return {
        "html.parse_ms_per_doc": 1000.0 * incl["html.parse"] / parsed,
        "html.render_ms_per_doc": 1000.0 * incl["html.render"] / max(1, clock.calls["html.render"]),
        "models.encode_ms_per_doc": 1000.0 * incl["models.encode"] / docs,
        "models.extract_ms_per_doc": 1000.0 * incl["models.extract"] / docs,
        "models.section_ms_per_doc": 1000.0 * incl["models.section"] / docs,
        "models.topic_encode_ms_per_doc": 1000.0 * incl["models.topic_encode"] / docs,
        "models.greedy_ms_per_doc": 1000.0 * incl["models.greedy"] / docs,
        "models.predict_self_ms_per_doc": 1000.0 * excl["models.predict_batch"] / docs,
        "models.pad_waste_ratio": clock.counts["models.pad_tokens"]
        / max(1.0, clock.counts["models.real_tokens"]),
        "models.decode_ms_per_doc": 1000.0 * incl["models.decode"] / docs,
        "nn.beam_step_ms_per_doc": 1000.0 * incl["nn.beam_step"] / docs,
        "nn.beam_host_ms_per_doc": 1000.0 * excl["nn.beam_host"] / docs,
        "nn.beam_rows_per_step": clock.counts["nn.beam_rows"] / steps if steps else 0.0,
        "core.batched.self_ms_per_doc": 1000.0 * excl["core.batched.brief_many"] / pages,
    }


def reconcile(clock: LayerClock, busy_s: float) -> List[str]:
    """Problems with the breakdown; empty when it sums back within tolerance.

    The self times of all layers must add up to ``busy_s`` (the measured
    time the program was working), and ``predict_batch``'s children must
    fit inside it.
    """
    problems = []
    covered = sum(clock.exclusive[layer] for layer in LAYERS)
    if busy_s > 0 and not (1 - RECONCILE_TOLERANCE <= covered / busy_s <= 1 + RECONCILE_TOLERANCE):
        problems.append(
            f"layer self times sum to {covered:.4f} s, measured busy time {busy_s:.4f} s "
            f"(ratio {covered / busy_s:.3f}, tolerance {RECONCILE_TOLERANCE:.0%})"
        )
    parent = clock.inclusive["models.predict_batch"]
    children = sum(clock.inclusive[layer] for layer in PREDICT_CHILDREN)
    if parent > 0 and children > parent * (1 + RECONCILE_TOLERANCE):
        problems.append(f"predict_batch children {children:.4f} s exceed predict_batch {parent:.4f} s")
    for layer in LAYERS:
        if clock.exclusive[layer] < -RECONCILE_TOLERANCE * max(busy_s, 1e-9):
            problems.append(f"{layer} self time is negative ({clock.exclusive[layer]:.4f} s)")
    return problems


def table(clock: LayerClock, busy_s: float) -> List[str]:
    """Printable per-layer breakdown: calls, self and inclusive ms, share of busy time."""
    docs = max(1.0, clock.counts["models.documents"])
    lines = [f"{'layer':<26}{'calls':>8}{'self ms':>11}{'incl ms':>11}{'self ms/doc':>13}{'share':>8}"]
    for layer in LAYERS:
        self_s = clock.exclusive[layer]
        lines.append(
            f"{layer:<26}{clock.calls[layer]:>8}{self_s * 1000:>11.1f}"
            f"{clock.inclusive[layer] * 1000:>11.1f}{self_s * 1000 / docs:>13.3f}"
            f"{(self_s / busy_s if busy_s else 0.0):>8.1%}"
        )
    covered = sum(clock.exclusive[layer] for layer in LAYERS)
    lines.append(f"{'sum of self times':<26}{'':>8}{covered * 1000:>11.1f}{'':>11}{'':>13}"
                 f"{(covered / busy_s if busy_s else 0.0):>8.1%}")
    lines.append(f"{'measured busy time':<26}{'':>8}{busy_s * 1000:>11.1f}")
    return lines
