"""One glibc heap policy per process: keep a sample's working set mapped.

Under glibc's defaults each analysis's freed NumPy temporaries go back to
the kernel (``munmap``, or a trim of the heap top) and the next sample
faults them in again as zeroed pages: on the ledger's ``map_short``
(seed 11, ``RUSAGE_THREAD``) 598 minor faults and ~0.8 ms of kernel time
per ``analyze``, 363 in ``extract_kmers_batch`` and 235 in
``ReadMapper._vote``.  :func:`keep_working_set` sets, once:

- ``M_MMAP_THRESHOLD`` = 32 MiB, named explicitly: setting ``M_TOP_PAD``
  freezes glibc's dynamic threshold wherever the process history left it.
- ``M_TOP_PAD`` = 8 MiB: a trim keeps one sample's working set.
- ``M_ARENA_MAX`` = 2: CPython and NumPy allocate under the GIL, so more
  arenas add no concurrency, only more high-water marks.

A warm ``map_short`` ``analyze`` then takes 0 faults and the workload
serves 1.19-1.22x the samples per second (1.27-1.29x at seed 29);
``peak_rss_mb`` rises by at most 0.9 MB (+1.5%) on any ledger workload.
Measured and rejected: the 32 MiB threshold with ``M_TRIM_THRESHOLD`` =
128 MiB and no arena cap raised ``cluster_long``'s peak RSS 8-11%,
``M_TOP_PAD`` alone 4-9%;
``M_ARENA_MAX`` = 1 cost ``burst_paced`` 8-13% CPU per sample.

Off glibc, or where ``mallopt`` cannot be found, the call does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import os
from typing import Callable, Optional

#: (glibc <malloc.h> parameter number, value)
_POLICY = (
    (-3, 32 << 20),  # M_MMAP_THRESHOLD
    (-2, 8 << 20),  # M_TOP_PAD
    (-8, 2),  # M_ARENA_MAX
)


def _mallopt() -> Optional[Callable[[int, int], int]]:
    """glibc's ``mallopt``, or ``None`` under any other libc."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return None
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError, ValueError):
        return None
    return mallopt  # ctypes' defaults are mallopt's (int, int) -> int


@functools.cache
def keep_working_set() -> bool:
    """Apply the heap policy to this process; whether glibc took all of it.

    Cached: a later call returns the first answer.
    """
    mallopt = _mallopt()
    if mallopt is None:
        return False
    # A list, not a generator: one refused parameter does not skip the rest.
    return all([mallopt(param, value) == 1 for param, value in _POLICY])
