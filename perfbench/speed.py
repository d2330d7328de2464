"""Host-speed probe: rescales measured times to a fixed reference speed.

On a shared VM (measured on 2 x86_64 vCPUs) the same code runs up to ~1.6x
slower for seconds at a time (the guest sees no steal time: the
slowdown is in the core itself).  Runs therefore take a short fixed probe
(~25 ms) whenever the program is idle — between closed-loop blocks, between open-loop
segments, around each set-up — and divide each measured time by
the factor by which the probe ran slower than ``REFERENCE_S``, averaged over
the probes on either side of it.  The probe has a core-bound part (small
matmuls, dicts, strings) and a memory-bound part (wide argsort, gathers,
per-row lists), because the slowdowns hit both, unequally.  End-to-end times
are thus "seconds of a host on which the probe takes ``REFERENCE_S``"; raw
values are printed in the run's info line.

The probe is benchmark code only (numpy and the standard library, never the
program), and must not change between runs that are compared: a different
probe rescales every time metric.
"""

from __future__ import annotations

import time

import numpy as np

#: seconds each probe part takes at the reference speed
REFERENCE_S = {"core": 0.004, "memory": 0.013}

_RNG = np.random.default_rng(0)
_WEIGHTS = _RNG.standard_normal((48, 48)) / 7.0
_STATE = _RNG.standard_normal((8, 48))
_WORDS = [f"token{i % 37}" for i in range(200)]
_SCORES = _RNG.standard_normal((1600, 224))
_HIDDEN = _RNG.standard_normal((1600, 40))
_PROJECT = _RNG.standard_normal((40, 224))
_ORDER = _RNG.permutation(1600)


def _core() -> None:
    """Small matmuls and Python container/string work, like one briefing."""
    for _ in range(60):
        hidden = _STATE
        for _ in range(8):
            hidden = np.tanh(hidden @ _WEIGHTS)
        counts = {}
        for word in _WORDS:
            counts[word] = counts.get(word, 0) + len(word)
        " ".join(_WORDS).split()


def _memory() -> None:
    """Wide arrays and per-row Python lists, like one step of a 200-wide beam."""
    for _ in range(2):
        top = np.argsort(_SCORES, axis=-1)[:, ::-1][:, :8]
        np.take_along_axis(_SCORES, top, axis=-1)
        _HIDDEN[_ORDER] @ _PROJECT
        prefixes = [[1, 2, 3] for _ in range(400)]
        [prefixes[row % 400] + [row] for row in range(1600)]


def _seconds(kernel, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def probe() -> float:
    """Host-speed factor now: the mean slowdown of both parts against reference."""
    core = _seconds(_core, 2) / REFERENCE_S["core"]
    memory = _seconds(_memory, 1) / REFERENCE_S["memory"]
    return (core + memory) / 2.0
