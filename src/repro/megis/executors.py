"""The executor axis: a spec string, and what it resolves to.

The paper's intra-batch parallelism is §6.1's "every SSD streams its own
range concurrently"; here that is the per-shard Step-2 tasks of
:func:`repro.megis.multissd.step_two_over_shards`.  A spec names how they
run, and travels through configuration as a string
(``MegisConfig(executor=...)``, ``--executor``), validated once by
:func:`parse_spec`:

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
  the serial loop's.  A bare ``threads`` sizes itself with
  :func:`default_workers`.

Concurrent samples are the serving tier's business, not the executor's:
:class:`~repro.megis.service.AnalysisService` runs ``workers`` threads
over one shared session.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Tuple

#: Spec families, and the ones that take a ``:N`` worker count
#: (``serial:2`` is a usage error).
_FAMILIES: Tuple[str, ...] = ("serial", "threads")
_SIZED_FAMILIES: Tuple[str, ...] = ("threads",)


def default_workers() -> int:
    """Worker count of a bare ``threads`` spec: the CPUs this process may
    run on (its affinity mask, where the platform has one — a pinned or
    cgroup-limited host must not oversubscribe), else the machine's CPU
    count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def available_executors() -> Tuple[str, ...]:
    """The spec families :func:`parse_spec` understands."""
    return _FAMILIES


def parse_spec(spec: str) -> Tuple[str, Optional[int]]:
    """Split an executor spec into ``(family, workers)``; raises on junk.

    ``"serial"`` -> ("serial", None); ``"threads"`` -> ("threads", None);
    ``"threads:4"`` -> ("threads", 4).  A colon must be followed by a
    count written in plain ASCII digits with no leading zero, so
    ``"threads:"``, ``"threads: 2"``, ``"threads:+2"`` and ``"threads:02"``
    are refused rather than read by ``int()``.  Error messages name the
    spec and enumerate the families, so adding one extends every CLI
    surface.
    """
    family, colon, arg = str(spec).partition(":")
    if family not in _FAMILIES:
        sized = "/".join(f"'{name}:N'" for name in _SIZED_FAMILIES)
        raise ValueError(
            f"unknown executor {spec!r}; available: "
            f"{', '.join(_FAMILIES)} "
            f"(worker counts: {sized})"
        )
    if not colon:
        return family, None
    if family not in _SIZED_FAMILIES:
        raise ValueError(
            f"executor {family!r} takes no ':N' argument (spec {spec!r})"
        )
    if not (arg.isascii() and arg.isdigit() and str(int(arg)) == arg):
        raise ValueError(f"bad worker count in executor spec {spec!r}")
    workers = int(arg)
    if workers < 1:
        raise ValueError(
            f"executor workers must be >= 1, got {workers} "
            f"(spec {spec!r})"
        )
    return family, workers


def shard_workers(spec: Optional[str]) -> Optional[int]:
    """How many threads a spec gives the Step-2 shard tasks: ``None`` for
    no spec or ``serial`` (a plain loop)."""
    family, workers = parse_spec(spec or "serial")
    if family == "serial":
        return None
    return workers or default_workers()


def shard_pool(spec: Optional[str]) -> Optional[ThreadPoolExecutor]:
    """A fresh pool of :func:`shard_workers` threads, or ``None``.  Its
    caller owns it: a session shuts its one down in ``close()``, an engine
    opens one per call and shuts it down before returning."""
    workers = shard_workers(spec)
    if workers is None:
        return None
    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="megis-exec")


__all__ = ["available_executors", "default_workers", "parse_spec", "shard_pool", "shard_workers"]
