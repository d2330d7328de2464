"""Thread-safety of BriefCache, the front brief cache of the serving stack.

``test_get_survives_concurrent_eviction`` is the regression for the
pre-serving ``BriefCache``, which guarded nothing: a ``get`` that had
already fetched an entry could lose its key to a concurrent ``put``'s
eviction and crash in ``move_to_end`` with ``KeyError``, and the unguarded
``hits``/``misses`` increments could drop updates.  CPython's switch
interval makes that window astronomically narrow under plain hammering, so
the regression forces the interleaving deterministically: the cached
content's ``__eq__`` parks the reader *inside* the (previously unguarded)
window while another thread evicts its key.  On the unlocked code this
raises ``KeyError`` every run; with the per-cache lock the evicting ``put``
blocks until the reader is done.

The hammering tests then assert the conservation invariant the serving
stats depend on — ``hits + misses == lookups`` — under real thread-pool
contention and eviction pressure, with readers and writers mixed.
"""

import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core import BriefCache

THREADS = 8
OPS_PER_THREAD = 2000


class ParkingStr(str):
    """Content whose equality check parks, widening the get/evict race window."""

    gate = None  # armed with an Event; set (and disarmed) on the first match
    park_seconds = 0.2

    def __eq__(self, other):
        equal = str.__eq__(self, other)
        if ParkingStr.gate is not None and equal is True:
            gate, ParkingStr.gate = ParkingStr.gate, None
            gate.set()
            time.sleep(ParkingStr.park_seconds)
        return equal

    def __ne__(self, other):
        equal = self.__eq__(other)
        return NotImplemented if equal is NotImplemented else not equal

    def __hash__(self):
        return str.__hash__(self)


def test_get_survives_concurrent_eviction():
    """A put must not evict a key out from under a get in progress."""
    cache = BriefCache(1, hash_fn=str)
    victim = ParkingStr("victim page")
    cache.put(victim, "brief")

    gate = threading.Event()
    errors, results = [], []

    def reader():
        try:
            results.append(cache.get("victim page"))
        except BaseException as exc:  # pragma: no cover - the regression itself
            errors.append(exc)

    ParkingStr.gate = gate
    thread = threading.Thread(target=reader)
    thread.start()
    assert gate.wait(timeout=5), "reader never reached the comparison"
    # The reader is parked mid-get; on the old unlocked cache this eviction
    # deleted its key and the resumed move_to_end raised KeyError.
    cache.put("evictor page", "other brief")
    thread.join(timeout=5)

    assert not errors, f"get crashed under concurrent eviction: {errors!r}"
    assert results == ["brief"]
    assert cache.hits + cache.misses == 1


def _hammer(cache, worker_seed, keys):
    rng = random.Random(worker_seed)
    for _ in range(OPS_PER_THREAD):
        key = rng.choice(keys)
        if cache.get(key) is None:
            cache.put(key, key.upper())


def test_brief_cache_conserves_counters_under_contention():
    """Eviction pressure + 8 threads: no crashes, hits + misses == lookups."""
    cache = BriefCache(4)  # smaller than the key pool → constant eviction
    keys = [f"content-{i}" for i in range(8)]
    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        list(pool.map(lambda seed: _hammer(cache, seed, keys), range(THREADS)))
    assert cache.hits + cache.misses == THREADS * OPS_PER_THREAD
    assert len(cache) <= 4


def test_brief_cache_round_trip_membership_and_keys():
    cache = BriefCache(16)
    assert cache.get("a") is None
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refreshes "a" → most recently used
    assert "a" in cache and "c" not in cache
    assert (cache.hits, cache.misses) == (1, 1)
    assert len(cache) == 2
    assert cache.keys() == [cache.hash_fn("b"), cache.hash_fn("a")]


def test_concurrent_mixed_get_put_conserves():
    """Four threads, each on its own keys, read and write one cache smaller
    than their key pool: every lookup is counted exactly once, the counters
    agree with what the readers saw, and capacity holds under eviction."""
    cache = BriefCache(16)
    seen_hits = [0] * 4

    def hammer_keys(worker):
        rng = random.Random(worker)
        keys = [f"worker-{worker}-content-{i}" for i in range(6)]
        for _ in range(OPS_PER_THREAD):
            key = rng.choice(keys)
            value = cache.get(key)
            if value is None:
                cache.put(key, key)
            else:
                assert value == key  # never another thread's entry
                seen_hits[worker] += 1

    with ThreadPoolExecutor(max_workers=4) as pool:
        list(pool.map(hammer_keys, range(4)))
    assert cache.hits + cache.misses == 4 * OPS_PER_THREAD
    assert cache.hits == sum(seen_hits)
    assert len(cache) <= 16
