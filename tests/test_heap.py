"""The process heap policy (:mod:`repro.megis.heap`).

Each case runs in a fresh interpreter: the policy is process-wide and
cached, so the test process itself — which has built sessions — cannot
show the allocator without it.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

pytestmark = pytest.mark.skipif(
    not hasattr(os, "confstr")
    or "CS_GNU_LIBC_VERSION" not in os.confstr_names
    or not os.confstr("CS_GNU_LIBC_VERSION"),
    reason="the heap policy applies to glibc only",
)

#: The extractor's pattern: about five arrays of 0.4-2 MiB live at once,
#: freed at the end of each iteration.  Prints minor faults per warm
#: iteration.
FAULT_LOOP = """
import resource
import numpy as np

def iteration(i):
    live = []
    for j, mib in enumerate((0.4, 0.8, 1.2, 1.6, 2.0)):
        column = np.empty(int(mib * (1 << 20)) // 8 + i % 7, dtype=np.uint64)
        column.fill(j)
        live.append(column)
    return sum(int(column[-1]) for column in live)

for i in range(10):
    iteration(i)
before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
for i in range(40):
    iteration(i)
print((resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before) / 40)
"""


def run(*parts: str) -> str:
    """The last line a fresh interpreter prints running ``parts`` in turn."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-c", "\n".join(textwrap.dedent(part) for part in parts)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip().splitlines()[-1]


def test_the_policy_ends_the_per_iteration_faults():
    without = float(run(FAULT_LOOP))
    with_policy = float(run(
        """
        from repro.megis.heap import keep_working_set
        assert keep_working_set() is True
        """,
        FAULT_LOOP,
    ))
    assert without >= 100
    assert with_policy <= 5


def test_a_second_call_returns_the_same_result():
    assert run("""
        from repro.megis.heap import keep_working_set
        first = keep_working_set()
        print(first, keep_working_set())
    """) == "True True"


def test_a_libc_without_mallopt_is_a_no_op():
    assert run("""
        import ctypes

        class NoMallopt:
            pass

        ctypes.CDLL = lambda name: NoMallopt()
        from repro.megis import heap
        print(heap._mallopt(), heap.keep_working_set())
    """) == "None False"


def test_constructing_a_session_applies_the_policy():
    assert float(run("""
        from repro.megis.index import IndexBuilder
        from repro.megis.session import AnalysisSession
        from repro.workloads.cami import CamiDiversity, make_cami_sample

        sample = make_cami_sample(
            CamiDiversity.LOW, n_reads=20, n_genera=2, species_per_genus=2,
            genome_length=600, seed=3,
        )
        AnalysisSession(IndexBuilder(k=20).build(sample.references))
    """, FAULT_LOOP)) <= 5
