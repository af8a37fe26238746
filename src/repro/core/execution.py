"""Pluggable executors for the candidate-evaluation hot path.

Episodes inside one controller batch are independent until the REINFORCE
update (Equation 4), so the search evaluates a whole ``episode_batch`` of
candidates through one of these executors:

* ``serial`` — evaluate in the calling thread (the default, and the
  reference behaviour every parallel executor must reproduce bit-exactly);
* ``thread`` — a :class:`concurrent.futures.ThreadPoolExecutor` sharing
  the process memory (no pickling).  Each chunk of fused head training is
  many small numpy calls whose Python glue holds the GIL, so threads do not
  overlap it: on the quickstart search, measured on a 2-vCPU host, ``thread``
  took 3.0 s against 1.9 s ``serial``;
* ``process`` — a :class:`concurrent.futures.ProcessPoolExecutor`; true
  multi-core parallelism, with each task's arrays shipped as shared-memory
  descriptors instead of pickled copies;
* ``distributed`` — supervised worker subprocesses with heartbeats and task
  retries (:mod:`repro.master`, imported on first use).

Every executor's ``map`` returns results **in submission order**, which is
what keeps seeded searches bit-identical across executors: the tasks are
pure functions of their picklable inputs, so only the ordering could differ.

Plugins can register additional executors (e.g. a cluster dispatcher) in
:data:`EXECUTORS` and select them from ``SearchConfig.executor`` or an
``ExecutionSpec``.
"""

from __future__ import annotations

import inspect
import os
import time
from concurrent.futures import Executor as _FuturesExecutor
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

from ..obs import DEFAULT_SECONDS_BUCKETS, METRICS, span
from ..registry import Registry

T = TypeVar("T")
R = TypeVar("R")

_TASKS_TOTAL = METRICS.counter(
    "repro_executor_tasks_total",
    "Tasks dispatched through executor.map, by executor.",
    labelnames=("executor",),
)
_MAP_SECONDS = METRICS.histogram(
    "repro_executor_map_seconds",
    "Wall time of one executor.map batch.",
    labelnames=("executor",),
)
#: Time between a task's submission and its execution start.  Only the
#: in-process pools can measure this on one clock; the distributed executor
#: records its own dispatch queue wait in :mod:`repro.master.worker`.
_QUEUE_WAIT_SECONDS = METRICS.histogram(
    "repro_executor_queue_wait_seconds",
    "Time a task waited between submission and execution start.",
    labelnames=("executor",),
    buckets=DEFAULT_SECONDS_BUCKETS,
)

#: Registry of executor factories.  Each entry is a callable
#: ``(max_workers: Optional[int]) -> executor`` where the returned object
#: implements ``map`` (order-preserving) and ``shutdown``.
EXECUTORS: Registry = Registry("executor")


class ExecutorWorkerError(RuntimeError):
    """A worker process died (or kept dying) while evaluating a task.

    Raised instead of the raw pool internals (``BrokenProcessPool``) so the
    message can name the failed task and point at the ``serial`` executor,
    which runs the same task in the calling process for a real traceback.
    """


def default_max_workers() -> int:
    """Worker count used when a config leaves ``max_workers`` unset."""
    return os.cpu_count() or 1


class SerialExecutor:
    """Evaluate tasks inline, in the calling thread (the reference executor)."""

    name = "serial"
    #: in-process executors receive task arrays by reference; only executors
    #: flagging True get the shared-memory descriptor transport
    ships_tasks_across_processes = False

    def __init__(self, max_workers: Optional[int] = None) -> None:
        # ``max_workers`` is accepted for interface uniformity; serial
        # execution always uses exactly the calling thread.
        self.max_workers = 1

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        items = list(items)
        with span("executor/map", executor=self.name, tasks=len(items)):
            start = time.perf_counter()
            results = [fn(item) for item in items]
            _TASKS_TOTAL.inc(len(items), executor=self.name)
            _MAP_SECONDS.observe(time.perf_counter() - start, executor=self.name)
            return results

    def shutdown(self) -> None:
        pass

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


class _PooledExecutor:
    """Shared plumbing for the concurrent.futures-backed executors.

    The underlying pool is created lazily on the first multi-item ``map``
    and reused across batches, so one search pays the worker start-up cost
    at most once.  Single-item batches run inline: spinning up workers for
    one task only adds latency.
    """

    name = "pooled"
    ships_tasks_across_processes = False
    #: queue-wait is measured by a closure wrapping ``fn``; only in-process
    #: (thread) pools can run it — closures do not pickle into worker
    #: processes, and cross-process clocks would not be comparable anyway
    measures_queue_wait = False

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive (or None for auto)")
        self.max_workers = max_workers or default_max_workers()
        self._pool: Optional[_FuturesExecutor] = None

    def _make_pool(self) -> _FuturesExecutor:
        raise NotImplementedError

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        items = list(items)
        with span("executor/map", executor=self.name, tasks=len(items)):
            start = time.perf_counter()
            if len(items) <= 1 or self.max_workers == 1:
                results = [fn(item) for item in items]
            else:
                if self._pool is None:
                    self._pool = self._make_pool()
                if self.measures_queue_wait and METRICS.enabled:
                    submitted = start

                    def timed_fn(item: T, _fn: Callable[[T], R] = fn) -> R:
                        _QUEUE_WAIT_SECONDS.observe(
                            time.perf_counter() - submitted, executor=self.name
                        )
                        return _fn(item)

                    fn = timed_fn
                # Executor.map yields results in submission order regardless
                # of completion order — the property the determinism
                # guarantee rests on.
                results = list(self._pool.map(fn, items))
            _TASKS_TOTAL.inc(len(items), executor=self.name)
            _MAP_SECONDS.observe(time.perf_counter() - start, executor=self.name)
            return results

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "_PooledExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


class ThreadExecutor(_PooledExecutor):
    """Evaluate tasks on a thread pool (shared memory, no pickling)."""

    name = "thread"
    measures_queue_wait = True

    def _make_pool(self) -> _FuturesExecutor:
        return ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="muffin-eval"
        )


class ProcessExecutor(_PooledExecutor):
    """Evaluate tasks on a process pool (true multi-core parallelism).

    Task functions and their inputs must be picklable; the search's
    :class:`~repro.core.search.EvaluationTask` is designed to be exactly
    that (numpy arrays plus plain configs, no live models).
    """

    name = "process"
    #: tasks are pickled into worker processes, so the search swaps their
    #: array payloads for zero-copy shared-memory descriptors
    ships_tasks_across_processes = True

    def _make_pool(self) -> _FuturesExecutor:
        return ProcessPoolExecutor(max_workers=self.max_workers)

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        items = list(items)
        with span("executor/map", executor=self.name, tasks=len(items)):
            start = time.perf_counter()
            results = self._map_processes(fn, items)
            _TASKS_TOTAL.inc(len(items), executor=self.name)
            _MAP_SECONDS.observe(time.perf_counter() - start, executor=self.name)
            return results

    def _map_processes(self, fn: Callable[[T], R], items: List[T]) -> List[R]:
        if len(items) <= 1 or self.max_workers == 1:
            return [fn(item) for item in items]
        if self._pool is None:
            self._pool = self._make_pool()
        # Submit individually (still gathered in submission order) so a
        # crashed worker can be reported against the task it was running
        # instead of surfacing as a bare BrokenProcessPool.
        futures = [self._pool.submit(fn, item) for item in items]
        results: List[R] = []
        try:
            for index, future in enumerate(futures):
                try:
                    results.append(future.result())
                except BrokenProcessPool as exc:
                    raise ExecutorWorkerError(
                        f"a process-pool worker died while evaluating task {index} of "
                        f"{len(items)} (often an out-of-memory kill or a crash in a "
                        f"native extension); rerun with --executor serial to see the "
                        f"real traceback"
                    ) from exc
        except ExecutorWorkerError:
            # The pool is unusable once broken; reset so a retry can rebuild it.
            self._pool.shutdown(wait=False)
            self._pool = None
            raise
        return results


def build_executor(name: str, max_workers: Optional[int] = None, **options):
    """Instantiate a registered executor by name.

    Extra keyword ``options`` are forwarded only when the factory accepts
    them, so distributed-only knobs (``task_retries``, ``heartbeat_seconds``,
    ``logger``, ...) can ride along in a config without breaking the
    serial/thread/process executors.
    """
    factory = EXECUTORS.get(name)
    if options:
        try:
            parameters = inspect.signature(factory).parameters
        except (TypeError, ValueError):
            parameters = {}
        accepts_kwargs = any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
        )
        if not accepts_kwargs:
            options = {key: value for key, value in options.items() if key in parameters}
    return factory(max_workers=max_workers, **options)


def executor_names() -> Sequence[str]:
    """The registered executor names (for CLI choices and error messages)."""
    return EXECUTORS.names()


def _distributed_factory(max_workers: Optional[int] = None, **options):
    """Late-bound factory: breaks the core → master import cycle."""
    from ..master.worker import DistributedExecutor

    return DistributedExecutor(max_workers=max_workers, **options)


EXECUTORS.register("serial", SerialExecutor, aliases=("sync", "inline"))
EXECUTORS.register("thread", ThreadExecutor, aliases=("threads", "threadpool"))
EXECUTORS.register("process", ProcessExecutor, aliases=("processes", "multiprocessing"))
EXECUTORS.register("distributed", _distributed_factory, aliases=("workers", "supervised"))
