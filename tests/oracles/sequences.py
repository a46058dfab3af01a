"""Per-element references for the sequence substrate, Step 1's buckets and
the generated workloads."""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

import numpy as np

from repro.megis.host import Bucket
from repro.sequences.keys import extract_kmers
from repro.sequences.reads import Read
from repro.taxonomy.profiles import AbundanceProfile


def kmer_spectrum(seq: str, k: int, canonical: bool = True) -> Dict[int, int]:
    """Return the multiset of k-mers of a sequence as ``{kmer: count}``."""
    return dict(Counter(extract_kmers(seq, k, canonical=canonical).tolist()))


def gc_content(seq: str) -> float:
    """Fraction of G/C bases — a quick sanity statistic for generated data."""
    if not seq:
        return 0.0
    return sum(1 for c in seq if c in "GC") / len(seq)


def realized_profile(reads: List[Read]) -> AbundanceProfile:
    """The empirical profile actually realized by the sampled reads."""
    counts: Dict[int, int] = {}
    for read in reads:
        counts[read.true_taxid] = counts.get(read.true_taxid, 0) + 1
    return AbundanceProfile.from_counts(counts)


def is_sorted(bucket: Bucket) -> bool:
    """Step 1's invariant: a bucket's k-mers ascend."""
    if isinstance(bucket.kmers, np.ndarray):
        return len(bucket.kmers) < 2 or bool(
            np.all(np.asarray(bucket.kmers[:-1] <= bucket.kmers[1:], dtype=bool))
        )
    # Pairwise scan with early exit — no repeated indexing, O(1) space.
    iterator = iter(bucket.kmers)
    previous = next(iterator, None)
    for current in iterator:
        if current < previous:
            return False
        previous = current
    return True
