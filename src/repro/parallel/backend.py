"""Execution backends for the parallel phase.

The parallel phase is embarrassingly parallel once chunks are framed:
each worker lexes and runs its own byte range.  The backend decides
*where* that per-chunk work executes:

* :class:`SerialBackend` — in-process loop.  The default.  The
  simulated-cluster model (:mod:`repro.parallel.simcluster`) derives
  multicore speedups from the per-chunk work counters rather than from
  wall-clock, so it needs no real parallelism.
* :class:`ThreadBackend` — a thread pool.  Functionally parallel, but
  CPython's GIL serialises the byte-crunching loops, so no speedup is
  expected (documented limitation; kept for API completeness and for
  workloads that release the GIL).
* :class:`ProcessBackend` — a process pool (the guide-recommended way
  to obtain real CPU parallelism in Python).  Each worker process
  receives the shared context once via the pool initializer, never
  once per chunk.  Under the ``fork`` start method (the Linux default
  through Python 3.13) the initializer's arguments are inherited
  through the fork and not pickled at all; only under
  ``spawn``/``forkserver`` are the document text and automaton
  pickled, once per worker.  Each call builds a fresh pool and tears
  it down, and every chunk's result is pickled in its worker and
  unpickled in the parent.  On a 2-core host that per-call cost is
  of the same order as the chunk work the pool spreads (see
  ``docs/PERFORMANCE.md``, "Chunk result transport").

All backends implement ``map_with_context(ctx, fn, items)`` with
order-preserving results, so the pipeline code is backend-agnostic.

For fault tolerance each backend additionally implements
``map_supervised(ctx, fn, items, timeout)``: instead of raising on the
first failure it returns one :class:`TaskOutcome` per item, with
per-item timeouts and (for the process pool) dead-worker detection.
A timed-out in-process task runs on a *daemon* thread that is simply
abandoned — it cannot be killed, but it can no longer poison a pool or
block interpreter exit.  The retry/fallback brains live above this in
:mod:`repro.parallel.resilience`; the backends only execute and
classify.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, ThreadPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, TypeVar

__all__ = [
    "Backend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "TaskFailure",
    "TaskTimeout",
    "WorkerCrash",
    "TaskOutcome",
    "get_backend",
]

T = TypeVar("T")
R = TypeVar("R")

_clock = time.monotonic


class TaskFailure(RuntimeError):
    """A supervised task failed; ``index`` names the failing item."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(message)
        self.index = index
        self._message = message

    def __reduce__(self):
        # custom __init__ arity: reduce explicitly so instances survive
        # pickling (e.g. when re-raised across a process boundary)
        return (TaskFailure, (self.index, self._message))


class TaskTimeout(TaskFailure):
    """A supervised task exceeded its deadline."""

    def __init__(self, index: int, timeout: float) -> None:
        super().__init__(index, f"task {index} exceeded its {timeout:g}s deadline")
        self.timeout = timeout

    def __reduce__(self):
        return (TaskTimeout, (self.index, self.timeout))


class WorkerCrash(TaskFailure):
    """The worker process executing a task died (dead-worker detection)."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(index, f"task {index}: worker process died ({message})")
        self._cause_message = message

    def __reduce__(self):
        return (WorkerCrash, (self.index, self._cause_message))


@dataclass(slots=True)
class TaskOutcome:
    """Result of one supervised task: a value or a classified error."""

    index: int
    value: Any = None
    error: BaseException | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _deadline_call(ctx: Any, fn: Callable, item: Any, index: int,
                   timeout: float) -> TaskOutcome:
    """Run one call on a daemon thread with a deadline.

    On timeout the thread is abandoned: daemon threads die with the
    process, so a hung worker costs one idle thread, not a hung run.
    """
    cell: list = []

    def body() -> None:
        try:
            cell.append(("ok", fn(ctx, item)))
        except BaseException as exc:  # ship the real error to the caller
            cell.append(("err", exc))

    thread = threading.Thread(target=body, daemon=True, name=f"repro-task-{index}")
    thread.start()
    thread.join(timeout)
    if thread.is_alive() or not cell:
        return TaskOutcome(index, error=TaskTimeout(index, timeout))
    kind, payload = cell[0]
    if kind == "ok":
        return TaskOutcome(index, value=payload)
    return TaskOutcome(index, error=payload)


class Backend:
    """Interface: order-preserving map of ``fn(ctx, item)`` over items."""

    name = "abstract"

    def map_with_context(
        self, ctx: Any, fn: Callable[[Any, T], R], items: Sequence[T]
    ) -> list[R]:
        raise NotImplementedError

    def map_supervised(
        self,
        ctx: Any,
        fn: Callable[[Any, T], R],
        items: Sequence[T],
        timeout: float | None = None,
    ) -> list[TaskOutcome]:
        """Fault-isolated map: one outcome per item, never raises per-item.

        The base implementation executes serially; pooled backends
        override it to keep their parallelism.
        """
        outcomes: list[TaskOutcome] = []
        for i, item in enumerate(items):
            if timeout is not None:
                outcomes.append(_deadline_call(ctx, fn, item, i, timeout))
                continue
            try:
                outcomes.append(TaskOutcome(i, value=fn(ctx, item)))
            except Exception as exc:
                outcomes.append(TaskOutcome(i, error=exc))
        return outcomes

    def close(self) -> None:
        """Release pool resources (no-op for poolless backends)."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SerialBackend(Backend):
    """Run every item in the calling thread, in order."""

    name = "serial"

    def map_with_context(
        self, ctx: Any, fn: Callable[[Any, T], R], items: Sequence[T]
    ) -> list[R]:
        return [fn(ctx, item) for item in items]


class ThreadBackend(Backend):
    """Thread-pool backend (functional parallelism; GIL-bound for CPU work)."""

    name = "thread"

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def map_with_context(
        self, ctx: Any, fn: Callable[[Any, T], R], items: Sequence[T]
    ) -> list[R]:
        pool = self._ensure_pool()
        return list(pool.map(lambda item: fn(ctx, item), items))

    def map_supervised(
        self,
        ctx: Any,
        fn: Callable[[Any, T], R],
        items: Sequence[T],
        timeout: float | None = None,
    ) -> list[TaskOutcome]:
        """Supervised map on dedicated daemon threads.

        The persistent pool is deliberately bypassed: a hung task would
        poison a pool thread forever (and block ``close()``); an
        abandoned daemon thread costs nothing.
        """
        cells: list[list] = [[] for _ in items]
        threads: list[threading.Thread] = []

        def body(i: int, item: Any) -> None:
            try:
                cells[i].append(("ok", fn(ctx, item)))
            except BaseException as exc:
                cells[i].append(("err", exc))

        for i, item in enumerate(items):
            t = threading.Thread(target=body, args=(i, item), daemon=True,
                                 name=f"repro-task-{i}")
            t.start()
            threads.append(t)

        deadline = None if timeout is None else _clock() + timeout
        outcomes: list[TaskOutcome] = []
        for i, t in enumerate(threads):
            t.join(None if deadline is None else max(0.0, deadline - _clock()))
            if t.is_alive() or not cells[i]:
                outcomes.append(TaskOutcome(i, error=TaskTimeout(i, timeout or 0.0)))
                continue
            kind, payload = cells[i][0]
            outcomes.append(TaskOutcome(i, value=payload) if kind == "ok"
                            else TaskOutcome(i, error=payload))
        return outcomes

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


# -- process backend ---------------------------------------------------------

_PROCESS_CTX: Any = None


def _init_worker(ctx: Any) -> None:
    global _PROCESS_CTX
    _PROCESS_CTX = ctx


def _call_with_ctx(payload: tuple[Callable[[Any, Any], Any], Any]) -> Any:
    fn, item = payload
    return fn(_PROCESS_CTX, item)


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Kill a pool's worker processes so a hung worker cannot block exit.

    Reaches into ``_processes`` (stable since 3.7, but guarded): after
    a timeout the hung worker must die, or the executor's management
    thread — joined at interpreter exit — would wait on it forever.
    """
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except (OSError, ValueError):  # pragma: no cover - already dead
            pass
    pool.shutdown(wait=False, cancel_futures=True)


class ProcessBackend(Backend):
    """Process-pool backend: real CPU parallelism on multicore hosts.

    The context is shipped to each worker once (pool initializer); the
    mapped function and items must be picklable module-level objects.
    A fresh pool is created per ``map_with_context`` call because the
    context is part of worker initialisation.
    """

    name = "process"

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max_workers

    def map_with_context(
        self, ctx: Any, fn: Callable[[Any, T], R], items: Sequence[T]
    ) -> list[R]:
        with ProcessPoolExecutor(
            max_workers=self.max_workers, initializer=_init_worker, initargs=(ctx,)
        ) as pool:
            futures = [pool.submit(_call_with_ctx, (fn, item)) for item in items]
            results: list[R] = []
            for i, future in enumerate(futures):
                try:
                    results.append(future.result())
                except Exception as exc:
                    # one bad item must not cost the batch silently:
                    # stop the rest and say which item failed
                    for later in futures[i + 1:]:
                        later.cancel()
                    if isinstance(exc, BrokenProcessPool):
                        raise WorkerCrash(i, str(exc)) from exc
                    raise TaskFailure(
                        i, f"task {i} failed in worker: {type(exc).__name__}: {exc}"
                    ) from exc
            return results

    def map_supervised(
        self,
        ctx: Any,
        fn: Callable[[Any, T], R],
        items: Sequence[T],
        timeout: float | None = None,
    ) -> list[TaskOutcome]:
        """Supervised map on a fresh process pool.

        Timeouts are measured from batch start (all items are submitted
        together).  On timeout or a dead worker the pool's processes
        are terminated — a hung worker process, unlike a hung thread,
        *can* be killed.
        """
        outcomes: dict[int, TaskOutcome] = {}
        pool = ProcessPoolExecutor(
            max_workers=self.max_workers, initializer=_init_worker, initargs=(ctx,)
        )
        must_kill = False
        try:
            futures = {pool.submit(_call_with_ctx, (fn, item)): i
                       for i, item in enumerate(items)}
            pending = set(futures)
            deadline = None if timeout is None else _clock() + timeout
            while pending:
                remaining = None if deadline is None else deadline - _clock()
                if remaining is not None and remaining <= 0:
                    for f in pending:
                        f.cancel()
                        outcomes[futures[f]] = TaskOutcome(
                            futures[f], error=TaskTimeout(futures[f], timeout))
                    must_kill = True
                    break
                done, pending = wait(pending, timeout=remaining,
                                     return_when=FIRST_COMPLETED)
                for f in done:
                    i = futures[f]
                    try:
                        outcomes[i] = TaskOutcome(i, value=f.result())
                    except BrokenProcessPool as exc:
                        outcomes[i] = TaskOutcome(i, error=WorkerCrash(i, str(exc)))
                        must_kill = True
                    except Exception as exc:
                        outcomes[i] = TaskOutcome(i, error=exc)
        finally:
            if must_kill:
                _terminate_pool(pool)
            else:
                pool.shutdown(wait=True)
        return [outcomes[i] for i in range(len(items))]


def get_backend(name: str, max_workers: int | None = None) -> Backend:
    """Backend factory: ``serial`` / ``thread`` / ``process``."""
    if name == "serial":
        return SerialBackend()
    if name == "thread":
        return ThreadBackend(max_workers)
    if name == "process":
        return ProcessBackend(max_workers)
    raise ValueError(f"unknown backend {name!r} (expected serial/thread/process)")
