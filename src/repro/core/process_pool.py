"""The pipe channel: a serving worker whose model replica lives in a process.

Thread workers share one GIL, so model compute serialises no matter how many
workers the pool holds.  :class:`~repro.core.serving.WorkerPool` runs the
same parent-side loop for every worker; what differs per transport is the
channel that loop calls.  A thread worker calls
:func:`~repro.core.serving._serve_payload` in-thread; a process worker calls
a :class:`PipeChannel`, which ships the batch to a child process that
restored a :class:`~repro.core.transport.ModelSnapshot` exactly once at
fork/spawn and runs the *same* function there, once per ``serve`` frame::

    parent loop ──("serve", payload)──────────────────────▶ worker process
                ◀──("done", briefs, stats_delta, telemetry)──  (model copy +
                ──("flush",)──▶ ◀──("telemetry", telemetry)──   render cache)
                ──("stop",)───▶ ◀──("bye",)──

* **Payload** — ``[(doc_id, html, remaining_s, trace)]``: deadlines cross as
  *remaining seconds* (monotonic clocks don't transfer) and ``trace`` is the
  request's ``(trace_id, span_id)`` admission context, so the child's
  ``brief_many`` subtree joins the request's trace.
* **Telemetry** — when observing, every reply carries the child pipeline's
  :meth:`~repro.core.batched.BatchedBriefingPipeline.telemetry_delta`; spans
  cross as dicts and come back as :class:`~repro.obs.SpanRecord`\\ s.  A
  ``flush`` probe collects whatever an idle child has not shipped yet.
* **Failure** — a dead child surfaces as :class:`EOFError` from the channel.
  A real in-child :class:`~repro.runtime.chaos.WorkerDeath` exits the
  process without replying, the way a segfault would.
"""

from __future__ import annotations

import os
import threading
import time

from ..obs import SpanRecord
from ..runtime.chaos import WorkerDeath

__all__ = ["PipeChannel"]

#: exit code a worker process dies with on an (injected) in-process crash.
_DEATH_EXIT_CODE = 17

#: how long a new worker process may take to restore its snapshot.
_SPAWN_TIMEOUT = 30.0

#: how long a flush probe waits for a mid-batch loop before giving up.
_FLUSH_LOCK_TIMEOUT = 0.25


def _to_pipe(telemetry):
    return None if telemetry is None else (telemetry[0], [span.to_dict() for span in telemetry[1]])


def _from_pipe(telemetry):
    return None if telemetry is None else (telemetry[0], [SpanRecord(data) for data in telemetry[1]])


def _process_worker_main(conn, snapshot, config: dict) -> None:
    """One worker process: restore the snapshot once, serve frames until ``stop``.

    Top-level (not a closure) so ``spawn``/``forkserver`` contexts can
    import it; ``config`` holds the worker pipeline's keyword arguments.
    """
    from .serving import _serve_payload, _worker_pipeline  # serving imports this module

    try:
        pipeline = _worker_pipeline(snapshot.restore(), **config)
        conn.send(("ready", os.getpid()))
        while True:
            message = conn.recv()
            if message[0] == "stop":
                conn.send(("bye",))
                return
            if message[0] == "flush":
                conn.send(("telemetry", _to_pipe(pipeline.telemetry_delta())))
                continue
            briefs, delta, telemetry = _serve_payload(pipeline, message[1], time.monotonic)
            conn.send(("done", briefs, delta, _to_pipe(telemetry)))
    except (EOFError, OSError, KeyboardInterrupt):
        return  # parent went away — nothing left to serve
    except WorkerDeath:
        # A real in-process crash (e.g. poison content): die the way a
        # segfault would — no reply, nonzero exit — so the parent loop sees
        # the pipe go dead while the batch is still held.
        os._exit(_DEATH_EXIT_CODE)


class PipeChannel:
    """The parent end of one worker process: its pipe, process and pipe lock.

    Calling the channel serves one batch payload in the child and returns
    ``(briefs, stats_delta, telemetry)``; a dead child raises
    :class:`EOFError`.  ``lock`` covers each whole frame exchange, so a
    :meth:`flush` probe never interleaves with a batch.  The process is
    spawned at construction, before the pool starts any thread, so a
    ``fork`` start method never forks a multi-threaded parent mid-lock.
    """

    def __init__(self, ctx, snapshot, config: dict) -> None:
        parent_conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_process_worker_main,
            args=(child_conn, snapshot, config),
            name=f"brief-proc-{config['index']}-g{config['generation']}",
            daemon=True,
        )
        self.process.start()
        # Drop the parent's handle on the child end so a dead worker turns
        # into EOF on our end instead of a silent hang.
        child_conn.close()
        self.conn = parent_conn
        self.lock = threading.Lock()

    def wait_ready(self) -> None:
        """Block until the child restored its snapshot, died, or timed out."""
        try:
            if self.conn.poll(_SPAWN_TIMEOUT):
                self.conn.recv()
        except (EOFError, OSError):
            pass  # boot crash — the first batch surfaces it

    def _recv(self):
        while not self.conn.poll(0.05):
            if not self.process.is_alive() and not self.conn.poll(0):
                raise EOFError(f"worker process {self.process.name} died")
        return self.conn.recv()

    def __call__(self, payload: list):
        with self.lock:
            self.conn.send(("serve", payload))
            _, briefs, delta, telemetry = self._recv()
        return briefs, delta, _from_pipe(telemetry)

    def flush(self):
        """Telemetry an idle child has not shipped; ``None`` if busy or gone."""
        if not self.process.is_alive() or not self.lock.acquire(timeout=_FLUSH_LOCK_TIMEOUT):
            return None
        try:
            self.conn.send(("flush",))
            return _from_pipe(self._recv()[1])
        except (EOFError, OSError):
            return None
        finally:
            self.lock.release()

    def stop(self) -> None:
        """Ask the child to exit and wait for it (a dead child is fine)."""
        try:
            with self.lock:
                self.conn.send(("stop",))
                if self.conn.poll(1.0):
                    self.conn.recv()
        except (EOFError, OSError):
            pass
        self.process.join(timeout=2.0)

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)

    def close(self) -> None:
        """Terminate the child if it still runs and release the pipe."""
        self.kill()
        self.conn.close()
