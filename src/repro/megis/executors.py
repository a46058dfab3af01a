"""Pluggable execution layer for the MegIS engines.

The paper's system overlaps work aggressively — Step-1 bucket sorting with
Step-2 streaming (§4.2.1), and independent SSDs with each other (§6.1).
Until this module, that overlap was only *modeled* by the event-queue
scheduler; the engines themselves ran strictly serially.  An
:class:`Executor` makes the execution policy explicit and pluggable:

- :class:`SerialExecutor` — the reference policy.  Every task runs inline
  on the calling thread, in submission order; results are bit-identical to
  the historical behaviour by construction.
- :class:`ThreadedExecutor` — a ``concurrent.futures`` thread pool.  The
  hot kernels (NumPy sorts, ``searchsorted`` merges) and the paced flash
  streams release the GIL, so per-shard Step-2 work genuinely overlaps
  in wall-clock time.
- :class:`ProcessExecutor` — a fork-server process pool for the
  Python-heavy work the GIL serializes (Step-1 extraction, Step-3 read
  mapping / EM): the serving tier runs whole analyses in it
  (:mod:`repro.megis.procpool`), never per-shard Step-2 tasks.
  Workers are forked *after* the engine state exists — in the serving
  tier, after ``MegisIndex.open()`` maps the file and ``session.warm()`` —
  so the memmapped CSR sections and every warmed column are shared
  copy-on-write: zero per-worker index duplication.  A crashed or
  killed worker is respawned and its in-flight task retried once before
  failing with a structured :class:`WorkerCrashed` error.

Because every task is a pure function over read-only engine state (each
task gets its own :class:`~repro.backends.PhaseTimings`), the policies
produce identical results — the concurrency determinism suite enforces it.

Executors are named so they can travel through configuration:
``"serial"``, ``"threads"`` / ``"threads:N"``, or ``"processes"`` /
``"processes:N"`` (sized families default to one worker per CPU).
:func:`get_executor` resolves a spec the same way
:func:`repro.backends.get_backend` resolves backend names.
"""

from __future__ import annotations

import abc
import multiprocessing
import os
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from typing import (
    Any,
    Callable,
    Deque,
    Iterable,
    List,
    Optional,
    Tuple,
    TypeVar,
    Union,
)

T = TypeVar("T")
R = TypeVar("R")

#: Anything :func:`get_executor` accepts: ``None`` (serial), a spec string
#: ("serial", "threads", "threads:4"), or an :class:`Executor` instance.
ExecutorSpec = Union[str, "Executor", None]


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
    def submit(self, fn: Callable[..., R], /, *args, **kwargs) -> "Future[R]":
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

    def submit(self, fn: Callable[..., R], /, *args, **kwargs) -> "Future[R]":
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
    ``workers`` (default: the CPU count), so merely configuring a threaded
    session costs nothing until Step 2 actually dispatches work.
    """

    def __init__(self, workers: Optional[int] = None):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._workers = workers if workers is not None else (os.cpu_count() or 1)
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

    def submit(self, fn: Callable[..., R], /, *args, **kwargs) -> "Future[R]":
        return self._ensure_pool().submit(fn, *args, **kwargs)

    def shutdown(self, wait: bool = True) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)


class WorkerCrashed(RuntimeError):
    """Structured failure: a process-pool worker died while running a task.

    Raised at ``future.result()`` after the pool has already retried the
    task once on a freshly respawned worker.  Carries the attempt count
    and the last observed exit code so serving layers can emit it as a
    structured error object without losing queued work.
    """

    def __init__(self, label: str, attempts: int, exitcode: Optional[int] = None):
        detail = f" (worker exit code {exitcode})" if exitcode is not None else ""
        super().__init__(
            f"process-pool worker died running {label}; "
            f"gave up after {attempts} attempt(s){detail}"
        )
        self.label = label
        self.attempts = attempts
        self.exitcode = exitcode


#: State object installed by :func:`_process_worker_main` inside a forked
#: worker; tasks read it back through :func:`worker_state`.
_WORKER_STATE: Any = None


def worker_state() -> Any:
    """The ``state`` the enclosing :class:`ProcessExecutor` was forked with.

    Returns ``None`` outside a process-pool worker.  Task functions must
    be module-level (they cross the pipe by reference), so this accessor
    is how they reach the copy-on-write engine state inherited at fork.
    """
    return _WORKER_STATE


def _process_worker_main(conn, state) -> None:
    """Forked worker loop: recv ``(fn, args, kwargs)``, send ``(ok, payload)``.

    Runs until the parent sends ``None`` or closes the pipe.  Exits via
    ``os._exit`` so the forked copy never runs the parent's atexit hooks
    or flushes its inherited stdio buffers.
    """
    global _WORKER_STATE
    _WORKER_STATE = state
    hook = getattr(state, "after_fork", None)
    if callable(hook):
        hook()
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            if message is None:
                break
            fn, args, kwargs = message
            try:
                payload = (True, fn(*args, **kwargs))
            except BaseException as exc:  # noqa: BLE001 - relayed to the future
                payload = (False, exc)
            try:
                conn.send(payload)
            except Exception as exc:  # unpicklable result/exception
                conn.send((False, RuntimeError(
                    f"worker payload did not survive the pipe: {exc!r}"
                )))
    finally:
        try:
            conn.close()
        finally:
            os._exit(0)


@dataclass
class _PoolTask:
    """One queued process-pool task and its retry bookkeeping."""

    fn: Callable[..., Any]
    args: tuple
    kwargs: dict
    future: Future
    #: Pin to one worker index, or ``None`` for any.
    worker: Optional[int] = None
    attempts: int = 0

    @property
    def label(self) -> str:
        return getattr(self.fn, "__name__", repr(self.fn))


@dataclass
class _WorkerHandle:
    """Parent-side view of one forked worker."""

    process: multiprocessing.process.BaseProcess
    conn: Any
    generation: int = 0


class ProcessExecutor(Executor):
    """Fork-server pool: COW-shared state, crash respawn, retry-once.

    Workers are forked lazily — on :meth:`start` or the first
    :meth:`submit` — so everything the parent has materialized by then
    (memmapped index sections, warmed columns, shard handles, the
    ``state`` object) is inherited copy-on-write by every worker; nothing
    is pickled at fork time.  Task *functions* must be module-level and
    task arguments/results picklable, because they cross a per-worker
    pipe.  Tasks reach the forked state through :func:`worker_state`.

    Each worker is driven by one parent-side pump thread.  If the worker
    process dies mid-task (crash, ``SIGKILL``, OOM), the pump respawns a
    fresh fork and retries the in-flight task once; a second death fails
    the task's future with :class:`WorkerCrashed` while every other
    queued task proceeds on the respawned worker.  :meth:`submit_to`
    pins a task to one worker index (how every worker gets probed).
    """

    #: One automatic retry per task after a worker crash.
    MAX_RETRIES = 1

    def __init__(self, workers: Optional[int] = None, *, state: Any = None):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "ProcessExecutor needs the fork start method (POSIX); "
                "it is unavailable on this platform"
            )
        self._workers = workers if workers is not None else (os.cpu_count() or 1)
        self.name = "processes" if workers is None else f"processes:{workers}"
        self._state = state
        self._ctx = multiprocessing.get_context("fork")
        self._tasks: Deque[_PoolTask] = deque()
        self._cond = threading.Condition()
        self._pumps: List[threading.Thread] = []
        self._started = False
        self._closed = False
        #: Workers respawned after a crash (never decremented).
        self.respawns = 0

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def started(self) -> bool:
        return self._started

    def bind_state(self, state: Any) -> None:
        """Set the fork-shared state; must precede the first fork."""
        with self._cond:
            if self._started:
                raise RuntimeError("pool already forked; state is frozen")
            self._state = state

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ProcessExecutor":
        """Fork the workers now (the explicit fork-after-mmap point).

        All workers are forked synchronously in the caller's thread, so
        everything the caller has materialized — warmed columns, memmap
        sections, the state object — is captured copy-on-write at this
        exact point, before any serving thread can race the fork.
        """
        with self._cond:
            if self._closed:
                raise RuntimeError("ProcessExecutor is shut down")
            if self._started:
                return self
            self._started = True
        self._initial: List[Optional[_WorkerHandle]] = [
            self._spawn(i, 0) for i in range(self._workers)
        ]
        self._pumps = [
            threading.Thread(
                target=self._pump, args=(i,),
                name=f"megis-procpool-{i}", daemon=True,
            )
            for i in range(self._workers)
        ]
        for pump in self._pumps:
            pump.start()
        return self

    def _spawn(self, index: int, generation: int) -> _WorkerHandle:
        """Fork one worker.  ``generation`` > 0 marks a crash respawn."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_process_worker_main,
            args=(child_conn, self._state),
            name=f"megis-procworker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(process=process, conn=parent_conn,
                             generation=generation)

    # -- submission -----------------------------------------------------------

    def submit(self, fn: Callable[..., R], /, *args, **kwargs) -> "Future[R]":
        """Schedule one task on any worker (``fn`` must be module-level)."""
        return self._enqueue(_PoolTask(fn, args, kwargs, Future()))

    def submit_to(
        self, worker: int, fn: Callable[..., R], /, *args, **kwargs
    ) -> "Future[R]":
        """Schedule one task pinned to worker ``worker``."""
        if not 0 <= worker < self._workers:
            raise ValueError(
                f"worker index {worker} out of range [0, {self._workers})"
            )
        return self._enqueue(_PoolTask(fn, args, kwargs, Future(), worker=worker))

    def _enqueue(self, task: _PoolTask) -> Future:
        self.start()
        with self._cond:
            if self._closed:
                raise RuntimeError("ProcessExecutor is shut down")
            self._tasks.append(task)
            self._cond.notify_all()
        return task.future

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool; queued tasks finish first (or cancel, wait=False)."""
        with self._cond:
            self._closed = True
            if not wait:
                while self._tasks:
                    self._tasks.popleft().future.cancel()
            self._cond.notify_all()
        if wait:
            for pump in self._pumps:
                pump.join()

    # -- pump: one parent thread drives one worker process --------------------

    def _next_task(self, index: int) -> Optional[_PoolTask]:
        """Pop the first task runnable on worker ``index``; lock held."""
        for position, task in enumerate(self._tasks):
            if task.worker is None or task.worker == index:
                del self._tasks[position]
                return task
        return None

    def _pump(self, index: int) -> None:
        worker: Optional[_WorkerHandle] = self._initial[index]
        self._initial[index] = None
        generation = 0
        try:
            while True:
                with self._cond:
                    task = self._next_task(index)
                    while task is None and not self._closed:
                        self._cond.wait()
                        task = self._next_task(index)
                    if task is None:
                        return  # closed and drained
                if not task.future.set_running_or_notify_cancel():
                    continue
                while True:  # crash-retry loop for this one task
                    if worker is not None and not worker.process.is_alive():
                        # Died while idle (external SIGKILL, OOM): reap
                        # and count the respawn; no task was in flight,
                        # so there is nothing to retry.
                        self._reap(worker)
                        worker = None
                        generation += 1
                        with self._cond:
                            self.respawns += 1
                    if worker is None:
                        worker = self._spawn(index, generation)
                    outcome = self._run_on(worker, task)
                    if outcome is not None:
                        ok, payload = outcome
                        if ok:
                            task.future.set_result(payload)
                        else:
                            task.future.set_exception(payload)
                        break
                    # Worker died mid-task: reap, respawn on the next
                    # iteration (a fresh fork of the *current* parent,
                    # so the COW state is intact), and retry once.
                    exitcode = self._reap(worker)
                    worker = None
                    generation += 1
                    task.attempts += 1
                    with self._cond:
                        self.respawns += 1
                    if task.attempts > self.MAX_RETRIES:
                        task.future.set_exception(WorkerCrashed(
                            task.label, task.attempts, exitcode
                        ))
                        break
        finally:
            if worker is not None:
                self._retire(worker)

    def _run_on(
        self, worker: _WorkerHandle, task: _PoolTask
    ) -> Optional[Tuple[bool, Any]]:
        """Run one task on one live worker.

        Returns ``(ok, payload)``, or ``None`` when the worker process
        died mid-task (the crash-respawn path).  Death is detected via
        the process sentinel, not pipe EOF — sibling workers forked later
        inherit this pipe's fds, so EOF alone would never arrive.
        """
        try:
            worker.conn.send((task.fn, task.args, task.kwargs))
        except (BrokenPipeError, ConnectionResetError, EOFError, OSError):
            return None
        except Exception as exc:  # unpicklable task arguments
            return (False, exc)
        while True:
            ready = _connection_wait([worker.conn, worker.process.sentinel])
            if worker.conn in ready:
                try:
                    return worker.conn.recv()
                except (EOFError, ConnectionResetError, OSError):
                    return None
            if worker.process.sentinel in ready:
                return None

    @staticmethod
    def _reap(worker: _WorkerHandle) -> Optional[int]:
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(timeout=5)
        if worker.process.is_alive():  # pragma: no cover - defensive
            worker.process.kill()
            worker.process.join(timeout=5)
        return worker.process.exitcode

    def _retire(self, worker: _WorkerHandle) -> None:
        """Graceful worker shutdown at pump exit."""
        try:
            worker.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        worker.process.join(timeout=5)
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=5)
        try:
            worker.conn.close()
        except OSError:
            pass


#: Registered spec families.  ``None`` marks families whose constructor
#: takes no worker count (rejecting ``serial:2`` with a usage error).
_FAMILIES: dict = {
    "serial": None,
    "threads": ThreadedExecutor,
    "processes": ProcessExecutor,
}


def available_executors() -> Tuple[str, ...]:
    """The spec families :func:`get_executor` understands."""
    return tuple(_FAMILIES)


def _sized_families() -> Tuple[str, ...]:
    return tuple(name for name, cls in _FAMILIES.items() if cls is not None)


def parse_spec(spec: str) -> Tuple[str, Optional[int]]:
    """Split an executor spec into ``(family, workers)``; raises on junk.

    ``"serial"`` -> ("serial", None); ``"threads"`` -> ("threads", None);
    ``"threads:4"`` -> ("threads", 4); ``"processes:4"`` ->
    ("processes", 4).  Error messages enumerate the registered families
    dynamically, so adding an executor extends every CLI surface.
    """
    family, _, arg = str(spec).partition(":")
    if family not in _FAMILIES:
        sized = "/".join(f"'{name}:N'" for name in _sized_families())
        raise ValueError(
            f"unknown executor {spec!r}; available: "
            f"{', '.join(available_executors())} "
            f"(worker counts: {sized})"
        )
    if not arg:
        return family, None
    if family not in _sized_families():
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
    its own pool's lifetime); instances pass through.
    """
    if spec is None:
        return _SERIAL
    if isinstance(spec, Executor):
        return spec
    family, workers = parse_spec(spec)
    if family == "serial":
        return _SERIAL
    return _FAMILIES[family](workers)


__all__ = [
    "Executor",
    "ExecutorSpec",
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadedExecutor",
    "WorkerCrashed",
    "available_executors",
    "get_executor",
    "parse_spec",
    "worker_state",
]
