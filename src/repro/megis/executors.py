"""The executor axis: a spec string, and what it resolves to.

The paper's intra-batch parallelism is §6.1's "every SSD streams its own
range concurrently"; here that is the per-shard Step-2 tasks of
:func:`repro.megis.multissd.step_two_over_shards`.  A spec names how they
(and, for ``processes``, whole batches) run, and travels through
configuration as a string (``MegisConfig(executor=...)``, ``--executor``),
validated once by :func:`parse_spec`:

- ``"serial"`` (or no spec) resolves to *nothing*: the shard tasks are a
  plain loop on the calling thread — the reference every other spec is
  pinned against.
- ``"threads"`` / ``"threads:N"`` resolves to a stdlib
  ``concurrent.futures.ThreadPoolExecutor`` (:func:`shard_pool`): the
  shard tasks go through ``pool.map`` — every task submitted before the
  first result is awaited, results in shard order, threads started on
  demand.  The NumPy kernels and the paced flash streams release the GIL,
  so the shards genuinely overlap in wall-clock time; every task owns its
  :class:`~repro.backends.PhaseTimings`, so results and counters equal
  the serial loop's.
- ``"processes"`` / ``"processes:N"`` is *not* a shard pool, and
  :func:`shard_pool` refuses it before anything forks: a shard task
  closes over its batch's buckets and cannot cross a pipe.  The spec
  belongs to :class:`~repro.megis.session.AnalysisSession`, which forks
  the warmed session N times (:mod:`repro.megis.procpool`), hands each
  worker whole batches, and keeps Step 2 a serial loop inside it.

A bare ``threads`` / ``processes`` sizes itself with
:func:`default_workers`.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Tuple

#: Spec families, and the ones that take a ``:N`` worker count
#: (``serial:2`` is a usage error).
_FAMILIES: Tuple[str, ...] = ("serial", "threads", "processes")
_SIZED_FAMILIES: Tuple[str, ...] = ("threads", "processes")


def default_workers() -> int:
    """Worker count of a bare ``threads`` / ``processes`` spec: the CPUs
    this process may run on (its affinity mask, where the platform has
    one — a pinned or cgroup-limited host must not over-fork), else the
    machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def available_executors() -> Tuple[str, ...]:
    """The spec families :func:`parse_spec` understands."""
    return _FAMILIES


def parse_spec(spec: str) -> Tuple[str, Optional[int]]:
    """Split an executor spec into ``(family, workers)``; raises on junk.

    ``"serial"`` -> ("serial", None); ``"threads"`` -> ("threads", None);
    ``"threads:4"`` -> ("threads", 4); ``"processes:4"`` ->
    ("processes", 4).  Error messages enumerate the families, so adding
    one extends every CLI surface.
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


def shard_pool(spec: Optional[str]) -> Optional[ThreadPoolExecutor]:
    """The thread pool a spec gives the Step-2 shard tasks, or ``None``
    (no spec, or ``serial``: the tasks run as a plain loop).

    Each call builds a fresh pool, which its caller owns: a session shuts
    its one down in ``close()``, a standalone engine's lives as long as
    the engine.  ``processes[:N]`` is refused here — before anything forks — for every
    Step-2 entry point.
    """
    family, workers = parse_spec(spec or "serial")
    if family == "processes":
        raise ValueError(
            "Step-2 shard tasks cannot cross a pipe (they are closures); "
            "for out-of-process analysis use "
            "AnalysisSession(executor=\"processes[:N]\"), which forks the "
            "warmed session"
        )
    if family == "serial":
        return None
    return ThreadPoolExecutor(
        max_workers=workers or default_workers(),
        thread_name_prefix="megis-exec",
    )


__all__ = ["available_executors", "default_workers", "parse_spec", "shard_pool"]
