"""Workload definitions, seeded inputs, and the closed/open-loop drivers.

The program only ever sees generated HTML: pages come from fresh
``SyntheticWebsite``s of the fixture's topics, built from the workload seed,
so no page was in the fixture's training data.
"""

from __future__ import annotations

import hashlib
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import BatchedBriefingPipeline
from repro.core.serving import ConcurrentBriefingPipeline
from repro.data.synthesizer import SyntheticWebsite, document_from_html
from repro.data.taxonomy import build_taxonomy


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loop: str  # "closed" (brief_many batches) or "open" (timed submits)
    beam_size: int
    noise_sentences: int
    #: latency limit for goodput: per brief_many call (closed) or per request.
    latency_limit_ms: float
    batch: int = 8
    transport: Optional[str] = None
    rate: float = 0.0
    pool_pages: int = 0
    zipf_alpha: float = 1.05
    #: pages briefed by the deterministic count/reference passes.
    check_pages: int = 64
    #: fixed work of the traced run: pages (closed) or seconds of schedule (open).
    trace_work: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "crawl-batch",
            "unique noisy pages in brief_many batches of 8 at beam 4: caches never hit, "
            "html + encoder + extractor dominate",
            loop="closed",
            beam_size=4,
            noise_sentences=6,
            latency_limit_ms=500.0,
            check_pages=64,
            trace_work=384,
        ),
        Workload(
            "decode-wide",
            "short unique pages at the paper's beam width 200: the generator step and "
            "beam host dominate",
            loop="closed",
            beam_size=200,
            noise_sentences=0,
            latency_limit_ms=2000.0,
            check_pages=16,
            trace_work=48,
        ),
        Workload(
            "serve-process",
            "open loop at 80 req/s, Zipf(1.05) over 2048 pages, process transport with 2 "
            "workers: front cache, single-flight, micro-batching, pipe framing, snapshot restore",
            loop="open",
            beam_size=4,
            noise_sentences=2,
            latency_limit_ms=250.0,
            transport="process",
            rate=80.0,
            pool_pages=2048,
            check_pages=128,
            trace_work=3.0,
        ),
    )
}

#: Serving configuration shared by both transports.
SERVE_WORKERS = 2
#: requests of the schedule replayed before the measured window (cache warm-up).
OPEN_WARMUP_S = 1.0
#: the open-loop schedule is replayed in segments this long, probed in between
OPEN_SEGMENT_S = 1.0
#: The popularity sequence (which rank is requested when) is part of the
#: workload, fixed across seeds; the seed draws the pages behind the ranks.
#: With a per-seed sequence, on a 2-vCPU x86_64 VM, p50/p99 moved 16-18% between seeds (IQR over
#: median) while repeats of one seed agreed within 1-5%.
TRAFFIC_SEED = 0


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Page:
    doc_id: str
    html: str
    topic_index: int
    url: str
    site: str


class PageSource:
    """Unique content pages from fresh synthetic websites, made on demand.

    Deterministic in ``(seed, tag, noise_sentences)``: the n-th page is the
    same on every run, and sources with different tags share no pages.  Pages whose bytes repeat an earlier page are skipped, so
    a stream drawn from one source never hits a content cache.
    """

    PAGES_PER_SITE = 8

    def __init__(self, topic_ids, seed: int, noise_sentences: int, tag: str) -> None:
        taxonomy = build_taxonomy()
        self.topics = [taxonomy[t] for t in topic_ids]
        self.noise_sentences = noise_sentences
        self.tag = tag
        self._rng = np.random.default_rng([seed, zlib.crc32(tag.encode())])
        self._sites = 0
        self._seen = set()
        self._buffer: List[Page] = []
        self._gold: Dict[str, Tuple[tuple, list]] = {}

    def _next_site(self) -> None:
        index = self._sites
        self._sites += 1
        topic_index = index % len(self.topics)
        name = f"{self.tag}-{index}.example"
        website = SyntheticWebsite(
            name,
            self.topics[topic_index],
            num_pages=self.PAGES_PER_SITE,
            rng=self._rng,
            noise_sentences=self.noise_sentences,
        )
        for url in website.urls:
            if "/page-" not in url:
                continue  # index and media pages are not briefing targets
            html = website.fetch(url)
            digest = hashlib.sha256(html.encode()).digest()
            if digest in self._seen:
                continue
            self._seen.add(digest)
            doc_id = f"{name}/{url.rsplit('/', 1)[-1]}"
            self._buffer.append(Page(doc_id, html, topic_index, url, name))

    def take(self, count: int) -> List[Page]:
        while len(self._buffer) < count:
            self._next_site()
        taken, self._buffer = self._buffer[:count], self._buffer[count:]
        return taken

    def gold(self, page: Page) -> Tuple[tuple, list]:
        """``(topic tokens, attribute texts)`` recovered from the page's markup."""
        if page.html not in self._gold:
            document = document_from_html(
                page.html, page.doc_id, page.url, "bench", self.topics[page.topic_index], page.site
            )
            self._gold[page.html] = (tuple(document.topic_tokens), document.attribute_texts())
        return self._gold[page.html]


def zipf_schedule(pool: List[Page], rate: float, seconds: float, alpha: float, seed: int):
    """``[(intended offset s, page)]`` at a fixed rate, Zipf-ranked over ``pool``.

    ``seed`` draws the rank sequence; ``pool`` decides which page holds each rank.
    """
    rng = np.random.default_rng(seed)
    count = int(round(rate * seconds))
    ranks = rng.zipf(alpha, size=count)
    return [(i / rate, pool[(int(rank) - 1) % len(pool)]) for i, rank in enumerate(ranks)]


# ----------------------------------------------------------------------
# Serving set-up
# ----------------------------------------------------------------------
def build_server(workload: Workload, model, observe: bool = False):
    if workload.loop == "closed":
        return BatchedBriefingPipeline(model, beam_size=workload.beam_size, batch_size=workload.batch)
    return ConcurrentBriefingPipeline(
        model,
        num_workers=SERVE_WORKERS,
        transport=workload.transport,
        beam_size=workload.beam_size,
        max_batch=workload.batch,
        observe=observe,
    )


def close_server(server) -> None:
    if isinstance(server, ConcurrentBriefingPipeline):
        stuck = server.shutdown(timeout=30)
        if stuck:
            raise RuntimeError(f"workers failed to stop: {stuck}")


def warm_up(server, pages: List[Page]) -> None:
    """One batch through the serving path; its results are discarded."""
    server.brief_many([(page.doc_id, page.html) for page in pages])


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one measured pass observed, request by request.

    ``latencies_s`` holds one raw sample per call (closed loop) or request
    (open loop); ``factors`` the host-speed factor (see ``speed.py``) for
    each sample, 1.0 when the pass took no probes.
    """

    pages: List[Page]
    briefs: list
    latencies_s: List[float]
    factors: List[float]
    wall_s: float
    lags_s: List[float]
    unresolved: int = 0
    #: closed loop: pages per call, and the probe block of each call
    call_docs: Optional[List[int]] = None
    blocks: Optional[List[int]] = None
    #: open loop: intended send, completion and segment of each request
    due_s: Optional[List[float]] = None
    done_s: Optional[List[Optional[float]]] = None
    segments: Optional[List[int]] = None

    def tail(self, skip: int) -> "Outcome":
        """The open-loop requests after the first ``skip`` (the cache warm-up)."""
        kept = slice(skip, None)
        return Outcome(
            self.pages[kept], self.briefs[kept], self.latencies_s[kept], self.factors[kept],
            _window(self.due_s[kept], self.done_s[kept], self.segments[kept], self.factors[kept]),
            self.lags_s[kept],
            self.unresolved, due_s=self.due_s[kept], done_s=self.done_s[kept],
            segments=self.segments[kept],
        )


def _window(due, done, segments, factors) -> float:
    """Rescaled seconds from each segment's first intended send to its last completion, summed."""
    spans: Dict[int, List[float]] = {}
    for start, finish, segment, factor in zip(due, done, segments, factors):
        if finish is None:
            continue
        span = spans.setdefault(segment, [start, finish, factor])
        span[0] = min(span[0], start)
        span[1] = max(span[1], finish)
    return sum((finish - start) / factor for start, finish, factor in spans.values())


def closed_loop(server, source: PageSource, batch: int, seconds: float = 0.0,
                pages_total: int = 0, probe: Optional[Callable[[], float]] = None,
                block_s: float = 0.5, chunk: int = 64) -> Outcome:
    """One caller, next ``brief_many`` sent when the last returns.

    Runs for ``seconds`` of measured time, or over exactly ``pages_total``
    pages.  Calls are grouped into blocks of at least ``block_s``; ``probe``
    (if given) runs between blocks, while the program is idle.  Pages are
    generated in chunks with the clock stopped, so the measured time is the
    program's plus the loop's own bookkeeping.
    """
    pages: List[Page] = []
    briefs: list = []
    latencies: List[float] = []
    lags: List[float] = []
    docs: List[int] = []
    blocks: List[int] = []
    factors: List[float] = []
    buffer: List[Page] = []
    measured = 0.0

    def more() -> bool:
        return measured < seconds if pages_total == 0 else len(pages) < pages_total

    before = probe() if probe is not None else 1.0
    block = 0
    while more():
        first = len(latencies)
        in_block = 0.0
        previous_end = None
        while in_block < block_s and more():
            if not buffer:
                wanted = chunk * batch if pages_total == 0 else pages_total - len(pages)
                buffer = source.take(min(chunk * batch, wanted))
                previous_end = None  # the refill is not a gap between calls
            group, buffer = buffer[:batch], buffer[batch:]
            start = time.perf_counter()
            if previous_end is not None:
                lags.append(start - previous_end)
                in_block += start - previous_end
                measured += start - previous_end
            result = server.brief_many([(page.doc_id, page.html) for page in group])
            previous_end = time.perf_counter()
            if len(result) != len(group):
                raise RuntimeError("brief_many lost requests")
            latencies.append(previous_end - start)
            in_block += previous_end - start
            measured += previous_end - start
            docs.append(len(group))
            blocks.append(block)
            pages.extend(group)
            briefs.extend(result)
        after = probe() if probe is not None else 1.0
        factors.extend([(before + after) / 2.0] * (len(latencies) - first))
        before = after
        block += 1
    return Outcome(pages, briefs, latencies, factors, measured, lags, call_docs=docs, blocks=blocks)


def open_loop(server, schedule, probe: Optional[Callable[[], float]] = None,
              segment_s: float = OPEN_SEGMENT_S, timeout_s: float = 60.0,
              clock: Callable[[], float] = time.perf_counter) -> Outcome:
    """Submit each request at its intended time regardless of completions.

    The schedule is replayed in segments of ``segment_s``: within a segment
    arrivals never wait for completions; between segments the loop waits for
    the last segment's requests to resolve and runs ``probe`` (if given) on
    the idle host.  The probe's factor stretches the next segment's arrival
    times, so inter-arrival and service times scale together and each
    segment runs at the same utilization on a slow host as on a fast one;
    ``factors`` then rescales its latencies back.  Latency runs from the
    *intended* send to the future's resolution, so a generator stall is
    charged to the requests it delayed; ``lags_s`` records how late each
    send actually was.
    """
    count = len(schedule)
    due: List[float] = [0.0] * count
    done: List[Optional[float]] = [None] * count
    briefs: list = [None] * count
    factors = [1.0] * count
    segment_of = [int(offset // segment_s) for offset, _ in schedule]
    lags: List[float] = []
    unresolved = 0
    index = 0
    while index < count:
        segment = segment_of[index]
        factor = probe() if probe is not None else 1.0
        base = schedule[index][0]
        start = clock() + 0.002
        futures = []
        while index < count and segment_of[index] == segment:
            offset, page = schedule[index]
            due[index] = start + (offset - base) * factor
            factors[index] = factor
            now = clock()
            if due[index] > now:
                time.sleep(due[index] - now)
            lags.append(max(0.0, clock() - due[index]))
            future = server.submit(page.html, doc_id=page.doc_id)
            future.add_done_callback(lambda _, index=index: done.__setitem__(index, clock()))
            futures.append((index, future))
            index += 1
        deadline = clock() + timeout_s
        for position, future in futures:
            try:
                briefs[position] = future.result(timeout=max(0.0, deadline - clock()))
            except TimeoutError:  # a future that never resolves breaks conservation
                unresolved += 1
    latencies = [
        finish - start if finish is not None else float("inf") for start, finish in zip(due, done)
    ]
    return Outcome([page for _, page in schedule], briefs, latencies, factors,
                   _window(due, done, segment_of, factors), lags, unresolved,
                   due_s=due, done_s=done, segments=segment_of)
