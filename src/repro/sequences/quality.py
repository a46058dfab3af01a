"""Quality-aware read preprocessing.

Basecallers emit per-base Phred quality scores; standard metagenomic
preprocessing trims low-quality tails and drops hopeless reads before
k-mer extraction, which interacts with the §4.2.3 exclusion step (errors
produce singleton k-mers).  This module provides Phred decoding, tail
trimming, and read filtering so pipelines can consume realistic FASTQ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.sequences.reads import Read

PHRED_OFFSET = 33
MAX_PHRED = 93


def char_to_phred(char: str) -> int:
    """Decode one FASTQ quality character to a Phred score."""
    score = ord(char) - PHRED_OFFSET
    if not 0 <= score <= MAX_PHRED:
        raise ValueError(f"invalid quality character {char!r}")
    return score


def decode_quality(quality: str) -> List[int]:
    return [char_to_phred(c) for c in quality]


def trim_tail(sequence: str, quality: str, threshold: int = 20) -> Tuple[str, str]:
    """Trim the 3' tail where quality falls below ``threshold``.

    Uses the BWA-style running-sum algorithm: find the suffix cut that
    maximizes the accumulated (threshold - q) mass, then drop it.
    """
    if len(sequence) != len(quality):
        raise ValueError("sequence and quality must have equal length")
    scores = decode_quality(quality)
    best_cut = len(scores)
    running = 0
    best = 0
    for i in range(len(scores) - 1, -1, -1):
        running += threshold - scores[i]
        if running > best:
            best = running
            best_cut = i
        if running < 0:
            break
    return sequence[:best_cut], quality[:best_cut]


@dataclass
class QualityFilter:
    """Drops or trims reads by quality before k-mer extraction."""

    trim_threshold: int = 20
    min_length: int = 30
    min_mean_quality: float = 15.0

    def apply(self, records: Sequence[Tuple[str, str, str]]) -> List[Read]:
        """Filter parsed FASTQ records into analysis-ready reads.

        ``records`` are (name, sequence, quality) tuples as produced by
        :func:`repro.sequences.io.parse_fastq`.
        """
        kept: List[Read] = []
        for _name, sequence, quality in records:
            sequence, quality = trim_tail(sequence, quality, self.trim_threshold)
            if len(sequence) < self.min_length:
                continue
            scores = decode_quality(quality)
            if scores and sum(scores) / len(scores) < self.min_mean_quality:
                continue
            kept.append(Read(read_id=len(kept), sequence=sequence, true_taxid=0))
        return kept
