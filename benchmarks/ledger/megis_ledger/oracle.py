"""Correctness oracle: the serial ``python``-backend reference answers.

Every distinct sample is analysed once by
``AnalysisSession(backend="python").analyze`` — the register-level
reference every other path is pinned bit-identical to — and every
operation the benchmark runs is compared against that answer.  The
reference runs in a child process so its row-object tables never count
toward the workload's ``peak_rss_mb``.  The child is this module run as
a script (JSON in on stdin, JSON out on stdout) under ``subprocess``,
which has waited for it by the time it returns; ``multiprocessing``
would also start a resource-tracker process that outlives its parent.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, List, Sequence, Tuple

from repro.megis.index import MegisIndex
from repro.megis.session import AnalysisSession, MegisConfig
from repro.sequences.reads import Read

#: ``(sorted candidate taxIDs, {str(taxid): fraction})`` — the two fields
#: a schema-1 result frame carries, so in-process results and wire frames
#: compare in one form.  JSON round-trips floats exactly.
Answer = Tuple[List[int], Dict[str, float]]


def canonical(candidates, fractions) -> Answer:
    return (
        sorted(int(t) for t in candidates),
        {str(t): f for t, f in sorted(fractions.items())},
    )


def answer_of_result(result) -> Answer:
    """The canonical answer of a ``MegisResult``."""
    return canonical(result.candidates, result.profile.fractions)


def answer_of_frame(record: dict) -> Answer:
    """The canonical answer of a decoded result frame; an error frame or
    a frame without the result fields raises."""
    if "error" in record:
        raise RuntimeError(f"error frame: {record['error']}")
    return (list(record["candidates"]), dict(record["profile"]))


def compute(
    index_path: str,
    samples: Dict[str, Sequence[str]],
    abundance_method: str,
    with_abundance: bool,
) -> Dict[str, Answer]:
    """Reference answers for ``samples`` (key -> read sequences)."""
    session = AnalysisSession(
        MegisIndex.open(index_path),
        MegisConfig(abundance_method=abundance_method),
        backend="python",
    )
    answers = {}
    for key, sequences in samples.items():
        reads = [Read(i, seq, 0) for i, seq in enumerate(sequences)]
        answers[key] = answer_of_result(session.analyze(reads, with_abundance))
    return answers


def compute_in_child(
    index_path: str,
    samples: Dict[str, Sequence[str]],
    abundance_method: str,
    with_abundance: bool,
) -> Dict[str, Answer]:
    """:func:`compute` in a child process that has ended, and been waited
    for, before this returns."""
    request = json.dumps({
        "index_path": index_path, "samples": samples,
        "abundance_method": abundance_method,
        "with_abundance": with_abundance,
    })
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    done = subprocess.run(
        [sys.executable, "-m", "megis_ledger.oracle"], input=request,
        stdout=subprocess.PIPE, text=True, env=env, check=True,
    )
    return {
        key: (candidates, fractions)
        for key, (candidates, fractions) in json.loads(done.stdout).items()
    }


def matches(oracle: Dict[str, Answer], keys: Sequence[str],
            answers: Sequence[Answer]) -> bool:
    """True when every sample of one operation equals its reference."""
    if len(keys) != len(answers):
        return False
    return all(oracle[key] == answer for key, answer in zip(keys, answers))


if __name__ == "__main__":
    json.dump(compute(**json.load(sys.stdin)), sys.stdout)
