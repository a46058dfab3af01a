"""Host-speed calibration: a frozen kernel timed beside the work.

The hosts this ledger runs on are small shared VMs with a neighbour on
the sibling hardware thread.  While the neighbour runs, the same work
costs 1.7 times the CPU time; it comes and goes every second or so in
some minutes and stays for longer than a run in others, so no statistic
*inside* a run removes it, and it is larger than any bound worth setting.
What does remove it is a ruler that stretches with the host: this kernel
— pure-Python k-mer slicing with dict lookups, numpy sort/search on
``uint64``, JSON encode and decode of integer lists, roughly the
instruction mix of Steps 1-3 and the wire — does the same fixed work
every time, is timed between *segments* of the work a few tenths of a
second long, and the CPU time of a segment is divided by how much slower
than :data:`NOMINAL_S` the kernel ran just before and just after it
(:func:`slowdown`).  Over twelve runs each of the five workloads in
minutes when the host factor ran from 1.0 to 1.7, raw CPU time per
sample followed the factor with a log-log slope of 0.86 to 1.18.

A segment's wall time is its CPU time, so divided, plus the time it
spent idle — asleep in the paced backend, waiting on a socket — which a
slow host does not stretch, minus the time the hypervisor ran another
guest on the core (:func:`stolen_s`), which is not the program's
(:func:`nominal_wall`).

The reported times are therefore *seconds on a host on which this kernel
takes exactly ``NOMINAL_S``*, not this host's wall seconds; the raw
values and the factor are printed beside them.  The kernel is part of
the benchmark, not of the program: a change to ``repro`` cannot move it.

The ruler only works on the core the program runs on.  The two vCPUs
drift independently, and the served workloads' threads — one GIL, so one
runs at a time — hop between them: measured over 21 runs of
``gateway_mixed`` across twelve noisy minutes, round time spread (IQR ÷
median) by 0.28 raw, 0.16 divided by a kernel timed on whichever core
the main thread sat on, and 0.06 with kernel and program pinned to one
core (:func:`one_cpu`), where the program also ran a fifth faster.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np

#: CPU seconds one :meth:`HostSpeed.probe` takes on the host the README's
#: numbers were recorded on, when that host is quiet.  A constant, so a
#: factor of 1.0 means the same thing in every run.
NOMINAL_S = 0.032

_K = 20


def slowdown(before_s: float, after_s: float) -> float:
    """How much slower than nominal the host ran over a stretch of work,
    from the kernel's time just before it and just after it."""
    return (before_s + after_s) / 2.0 / NOMINAL_S


def nominal_wall(wall_s: float, cpu_s: float, slow: float,
                 stolen_s: float = 0.0) -> float:
    """Wall seconds the nominal host would have taken: the computed part
    shrinks by ``slow``; the time the hypervisor gave the core to someone
    else (:func:`stolen_s`) goes; the rest — sleeps, waits on a socket —
    is not the host's to stretch and stays.  Needs the process on one
    core (:func:`one_cpu`), where computing and idling cannot overlap."""
    return max(0.0, wall_s - cpu_s - stolen_s) + cpu_s / slow


def stolen_s() -> float:
    """Seconds so far that the hypervisor ran another guest on the CPUs
    this process may use: the ``steal`` column of ``/proc/stat`` (ticks of
    10 ms).  On one pinned core a busy process's wall time minus its CPU
    time is exactly this — measured here, 186 ms against 180 in one
    round.  0.0 where the file or the column is missing."""
    try:
        cpus = {f"cpu{n}" for n in os.sched_getaffinity(0)}
        with open("/proc/stat", encoding="ascii") as handle:
            ticks = sum(
                int(fields[8]) for fields in map(str.split, handle)
                if fields[0] in cpus and len(fields) > 8
            )
        return ticks / os.sysconf("SC_CLK_TCK")
    except (AttributeError, OSError, ValueError):
        return 0.0


@contextmanager
def one_cpu() -> Iterator[None]:
    """Pin the calling thread, and every thread and process started
    inside the block, to one of the CPUs it may use; restored on exit.
    Does nothing where the platform has no affinity call or refuses it."""
    try:
        allowed = os.sched_getaffinity(0)
        # The highest: CPU 0 takes most of a small VM's interrupts.
        os.sched_setaffinity(0, {max(allowed)})
    except (AttributeError, OSError):
        yield
        return
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class HostSpeed:
    """The calibration kernel and its fixed inputs (never from ``--seed``)."""

    def __init__(self) -> None:
        rng = np.random.Generator(np.random.PCG64(20240624))
        self._sequence = (
            rng.integers(0, 4, size=72_000, dtype=np.uint8).tobytes()
            .translate(bytes.maketrans(bytes(range(4)), b"ACGT")).decode()
        )
        # Every other k-mer is in the table, so lookups hit and miss.
        self._table = {
            self._sequence[i:i + _K]: i
            for i in range(0, len(self._sequence) - _K, 2)
        }
        self._column = rng.integers(0, 1 << 62, size=60_000, dtype=np.uint64)
        self._queries = rng.integers(0, 1 << 62, size=30_000, dtype=np.uint64)
        self._numbers = self._column[:36_000].tolist()
        self.probe()  # the first passes pay for the allocator's growth

    def probe(self) -> float:
        """CPU seconds of the kernel: the faster of two passes, so that a
        cold cache or a core just woken from idle — which say nothing
        about the round beside it — do not read as a slow host."""
        return min(self._pass(), self._pass())

    def _pass(self) -> float:
        start = time.thread_time()
        sequence, table = self._sequence, self._table
        votes: dict = {}
        for i in range(len(sequence) - _K + 1):
            hit = table.get(sequence[i:i + _K])
            if hit is not None:
                bucket = hit & 63
                votes[bucket] = votes.get(bucket, 0) + 1
        ordered = np.sort(self._column)
        found = np.searchsorted(ordered, self._queries)
        distinct = np.unique(found)
        decoded = json.loads(json.dumps(self._numbers))
        # Consume every result, so none of the work can be skipped.
        if not (votes and len(distinct) and len(decoded) == len(self._numbers)):
            raise AssertionError("calibration kernel lost its work")
        return time.thread_time() - start
