"""Pluggable execution layer for the Step-2 shard tasks.

The paper's system overlaps work aggressively — Step-1 bucket sorting with
Step-2 streaming (§4.2.1), and independent SSDs with each other (§6.1).
An :class:`Executor` makes the execution policy of the per-shard Step-2
tasks (:func:`repro.megis.multissd.step_two_over_shards`) explicit and
pluggable:

- :class:`SerialExecutor` — the reference policy.  Every task runs inline
  on the calling thread, in submission order; results are bit-identical to
  the historical behaviour by construction.
- :class:`ThreadedExecutor` — a ``concurrent.futures`` thread pool.  The
  hot kernels (NumPy sorts, ``searchsorted`` merges) and the paced flash
  streams release the GIL, so per-shard Step-2 work genuinely overlaps
  in wall-clock time.

Because every task is a pure function over read-only engine state (each
task gets its own :class:`~repro.backends.PhaseTimings`), the policies
produce identical results — the concurrency determinism suite enforces it.

Executors are named so they can travel through configuration:
``"serial"``, ``"threads"`` / ``"threads:N"``, or ``"processes"`` /
``"processes:N"`` (sized families default to :func:`default_workers`).
:func:`parse_spec` validates all three; :func:`get_executor` resolves the
first two the same way :func:`repro.backends.get_backend` resolves backend
names.  ``processes`` is not an executor *object*: shard tasks are
closures and cannot cross a pipe, so that spec belongs to
:class:`~repro.megis.session.AnalysisSession`, which forks the warmed
session itself (:mod:`repro.megis.procpool`) and keeps Step 2 serial
inside each worker.
"""

from __future__ import annotations

import abc
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Iterable, List, Optional, Tuple, TypeVar, Union

T = TypeVar("T")
R = TypeVar("R")

#: Anything :func:`get_executor` accepts: ``None`` (serial), a spec string
#: ("serial", "threads", "threads:4"), or an :class:`Executor` instance.
ExecutorSpec = Union[str, "Executor", None]


def default_workers() -> int:
    """Worker count of a bare ``threads`` / ``processes`` spec: the CPUs
    this process may run on (its affinity mask, where the platform has
    one — a pinned or cgroup-limited host must not over-fork), else the
    machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Executor(abc.ABC):
    """Execution policy for independent engine tasks.

    Tasks submitted through one executor must be independent of each other
    (the engines only ever hand over per-shard work with task-local
    timing state), so any execution order is observably
    equivalent — which is what lets the threaded policy reorder completions
    without changing results.
    """

    #: Spec name ("serial", "threads", "threads:N").
    name: str = "abstract"

    @property
    @abc.abstractmethod
    def workers(self) -> int:
        """Upper bound on tasks that can run simultaneously."""

    @abc.abstractmethod
    def submit(
        self, fn: Callable[..., R], /, *args: Any, **kwargs: Any
    ) -> "Future[R]":
        """Schedule one task; returns a ``concurrent.futures.Future``."""

    def map_ordered(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Run ``fn`` over ``items``, returning results in item order.

        Submission happens eagerly (so a threaded pool starts every task
        before the first result is awaited); the first raised exception
        propagates after all tasks have been scheduled.
        """
        futures = [self.submit(fn, item) for item in items]
        return [future.result() for future in futures]

    def shutdown(self, wait: bool = True) -> None:
        """Release worker resources (a no-op for inline executors)."""


class SerialExecutor(Executor):
    """Reference policy: run every task inline, in submission order."""

    name = "serial"

    @property
    def workers(self) -> int:
        return 1

    def submit(
        self, fn: Callable[..., R], /, *args: Any, **kwargs: Any
    ) -> "Future[R]":
        future: "Future[R]" = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # mirror pool semantics: raise at .result()
            future.set_exception(exc)
        return future

    def map_ordered(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        return [fn(item) for item in items]


class ThreadedExecutor(Executor):
    """Thread-pool policy over ``concurrent.futures.ThreadPoolExecutor``.

    The pool is created lazily on first submission and sized to
    ``workers`` (default: :func:`default_workers`), so merely configuring
    a threaded session costs nothing until Step 2 actually dispatches work.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._workers = workers if workers is not None else default_workers()
        self.name = "threads" if workers is None else f"threads:{workers}"
        self._pool: Optional[ThreadPoolExecutor] = None
        #: One executor is shared by every serving thread of an engine, so
        #: pool creation/teardown itself must be race-free.
        self._pool_lock = threading.Lock()

    @property
    def workers(self) -> int:
        return self._workers

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            with self._pool_lock:
                if self._pool is None:
                    self._pool = ThreadPoolExecutor(
                        max_workers=self._workers,
                        thread_name_prefix="megis-exec",
                    )
        return self._pool

    def submit(
        self, fn: Callable[..., R], /, *args: Any, **kwargs: Any
    ) -> "Future[R]":
        return self._ensure_pool().submit(fn, *args, **kwargs)

    def shutdown(self, wait: bool = True) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)


#: Registered spec families, and the ones that take a ``:N`` worker count
#: (``serial:2`` is a usage error).
_FAMILIES: Tuple[str, ...] = ("serial", "threads", "processes")
_SIZED_FAMILIES: Tuple[str, ...] = ("threads", "processes")


def available_executors() -> Tuple[str, ...]:
    """The spec families :func:`parse_spec` understands."""
    return _FAMILIES


def parse_spec(spec: str) -> Tuple[str, Optional[int]]:
    """Split an executor spec into ``(family, workers)``; raises on junk.

    ``"serial"`` -> ("serial", None); ``"threads"`` -> ("threads", None);
    ``"threads:4"`` -> ("threads", 4); ``"processes:4"`` ->
    ("processes", 4).  Error messages enumerate the registered families,
    so adding one extends every CLI surface.
    """
    family, _, arg = str(spec).partition(":")
    if family not in _FAMILIES:
        sized = "/".join(f"'{name}:N'" for name in _SIZED_FAMILIES)
        raise ValueError(
            f"unknown executor {spec!r}; available: "
            f"{', '.join(_FAMILIES)} "
            f"(worker counts: {sized})"
        )
    if not arg:
        return family, None
    if family not in _SIZED_FAMILIES:
        raise ValueError(f"executor {family!r} takes no ':N' argument")
    try:
        workers = int(arg)
    except ValueError as exc:
        raise ValueError(f"bad worker count in executor spec {spec!r}") from exc
    if workers < 1:
        raise ValueError(
            f"executor workers must be >= 1, got {workers} "
            f"(spec {spec!r})"
        )
    return family, workers


_SERIAL = SerialExecutor()


def get_executor(spec: ExecutorSpec = None) -> Executor:
    """Resolve an executor spec (``None`` -> the shared serial executor).

    Named specs resolve to fresh executor instances (each owner controls
    its own pool's lifetime); instances pass through.  ``processes[:N]``
    is refused here — before anything forks — for every Step-2 entry
    point: a shard task closes over its batch's buckets.
    """
    if spec is None:
        return _SERIAL
    if isinstance(spec, Executor):
        return spec
    family, workers = parse_spec(spec)
    if family == "processes":
        raise ValueError(
            "Step-2 shard tasks cannot cross a pipe (they are closures); "
            "for out-of-process analysis use "
            "AnalysisSession(executor=\"processes[:N]\"), which forks the "
            "warmed session"
        )
    if family == "threads":
        return ThreadedExecutor(workers)
    return _SERIAL


__all__ = [
    "Executor",
    "ExecutorSpec",
    "SerialExecutor",
    "ThreadedExecutor",
    "available_executors",
    "default_workers",
    "get_executor",
    "parse_spec",
]
