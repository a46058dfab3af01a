"""Lightweight statistical abundance estimation (paper §4.4, option i).

MegIS's Step 3 can integrate either read mapping (accurate, costly) or
lightweight statistical approaches that work directly on Step 2's output.
This module implements the statistical path: an expectation-maximization
estimator over the per-species k-mer hit counts, in the spirit of
Bracken/MetaPalette-style redistribution.

Model: each intersecting k-mer hit is generated by one of the candidate
species; a species' expected hit mass is proportional to (abundance x
sketch size).  Shared k-mers make hits ambiguous, so hits attributed to a
taxID set are fractionally assigned in the E-step and abundances re-fit in
the M-step.

The EM runs over a few dozen ambiguity groups folded from thousands of
intersecting k-mers.  On CSR retrieval columns the fold is array passes
over per-query candidate bitmasks; the dict fold over per-query mappings
stays the reference, with the same keys, counts and order.  The EM itself
is array passes over flat ``(group, owner)`` columns whose reductions all
add strictly left to right — never ``np.sum`` or ``sum()``, whose orders
vary (see :meth:`StatisticalAbundanceEstimator.estimate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Tuple

import numpy as np

from repro.backends.retrieval import RetrievalResult, csr_gather
from repro.databases.sketch import SketchDatabase
from repro.taxonomy.profiles import AbundanceProfile

#: An ambiguity group's identity: the sorted tuple of candidate taxIDs a
#: hit was attributed to.  Tuples (not per-query ``frozenset``s) are the
#: interned group ids — one Python object per *distinct group*, not per
#: query, so the EM input construction stays columnar.
GroupKey = Tuple[int, ...]


@dataclass
class EmDiagnostics:
    """Convergence information from one estimation run."""

    iterations: int
    final_delta: float
    converged: bool


class StatisticalAbundanceEstimator:
    """EM over ambiguous k-mer hits -> species abundance profile."""

    def __init__(
        self,
        sketch: SketchDatabase,
        max_iterations: int = 200,
        tolerance: float = 1e-9,
    ):
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not math.isfinite(tolerance) or tolerance <= 0:
            raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
        self.sketch = sketch
        self.max_iterations = max_iterations
        self.tolerance = tolerance

    # -- input shaping -----------------------------------------------------

    @staticmethod
    def hit_groups(
        retrieved: "RetrievalResult | Mapping[int, Mapping[int, FrozenSet[int]]]",
        candidates: Iterable[int],
    ) -> Dict[GroupKey, int]:
        """Collapse Step-2 output into (interned group id -> hit count).

        ``retrieved`` is the taxID-retrieval result; only the most specific
        level (largest k) with any owners is used per query, restricted to
        the candidate set.  Group ids are sorted-owner tuples interned per
        *distinct group*: the CSR
        :class:`~repro.backends.retrieval.RetrievalResult` layout is
        grouped entirely in NumPy (level choice, candidate filtering, and
        identical-row detection are array passes), so no per-query Python
        object is ever built on the EM input path (ROADMAP "columnar
        statistical estimator").  Plain mappings take the reference fold;
        groups are returned in first-occurrence query order either way, so
        the EM accumulation order — and therefore the exact float sequence
        — matches the historical per-query walk.
        """
        allowed = frozenset(int(t) for t in candidates)
        if isinstance(retrieved, RetrievalResult):
            return StatisticalAbundanceEstimator._hit_groups_columnar(
                retrieved, allowed
            )
        groups: Dict[GroupKey, int] = {}
        for levels in retrieved.values():
            if not levels:
                continue
            best_level = max(levels)
            owners = tuple(sorted(set(levels[best_level]) & allowed))
            if owners:
                groups[owners] = groups.get(owners, 0) + 1
        return groups

    @staticmethod
    def _hit_groups_columnar(
        retrieved: RetrievalResult, allowed: FrozenSet[int]
    ) -> Dict[GroupKey, int]:
        """Vectorized grouping over the CSR owner columns.

        Each query gets a bitmask over the sorted candidate column
        (``ceil(c / 64)`` ``uint64`` words, so any candidate count fits).
        Per level, one ``np.bitwise_or.at`` sets the candidate owners of the
        queries whose most specific non-empty level it is; owner lists are
        duplicate-free, so OR loses nothing.  A group is a distinct non-zero
        mask row: one ``lexsort`` and an adjacent difference find the runs,
        whose lengths are the counts and whose smallest query index restores
        the reference insertion order.  Only the keys of the groups
        themselves are decoded into Python tuples.
        """
        n = len(retrieved.queries)
        if n == 0 or not allowed:
            return {}
        candidates = np.fromiter(sorted(allowed), dtype=np.int64, count=len(allowed))
        masks = np.zeros((n, -(-len(candidates) // 64)), dtype=np.uint64)
        blocks = [block for _, block in sorted(retrieved.levels.items(), reverse=True)]
        offsets = [np.asarray(b.offsets, dtype=np.int64) for b in blocks]
        # Each query's level: the first (largest-k) block with any owners.
        chosen = np.full(n, -1, dtype=np.int64)
        for bi, offs in enumerate(offsets):
            chosen[(chosen < 0) & (np.diff(offs) > 0)] = bi
        for bi, block in enumerate(blocks):
            rows = np.flatnonzero(chosen == bi)
            if not len(rows):
                continue
            taxids = np.asarray(block.taxids, dtype=np.int64)
            flat, lengths = csr_gather(taxids, offsets[bi], rows)
            slot = np.minimum(np.searchsorted(candidates, flat), len(candidates) - 1)
            keep = candidates[slot] == flat
            slot = slot[keep].astype(np.uint64)
            np.bitwise_or.at(
                masks,
                (np.repeat(rows, lengths)[keep], slot >> np.uint64(6)),
                np.uint64(1) << (slot & np.uint64(63)),
            )
        hit = np.flatnonzero(masks.any(axis=1))
        if not len(hit):
            return {}
        order = hit[np.lexsort(masks[hit].T)]
        ordered = masks[order]
        starts = np.flatnonzero(
            np.concatenate(([True], np.any(ordered[1:] != ordered[:-1], axis=1)))
        )
        counts = np.diff(np.append(starts, len(order))).tolist()
        first = np.minimum.reduceat(order, starts)
        # Little-endian words unpack least-significant bit first: bit b of
        # word w is candidate 64 * w + b.
        bits = np.unpackbits(
            ordered[starts].astype("<u8").view(np.uint8), axis=1, bitorder="little"
        )
        # The reference walk inserts each group when its first query is
        # seen; that order keeps downstream float accumulation bit-identical.
        return {
            tuple(candidates[np.flatnonzero(bits[g])].tolist()): counts[g]
            for g in np.argsort(first).tolist()
        }

    # -- EM -----------------------------------------------------------------

    def estimate(
        self, groups: "Mapping[GroupKey, int] | Mapping[FrozenSet[int], int]"
    ) -> Tuple[AbundanceProfile, EmDiagnostics]:
        """Run EM on ambiguity groups; returns (profile, diagnostics).

        Group keys are any iterable of distinct taxIDs — the interned
        sorted tuples :meth:`hit_groups` emits, or legacy ``frozenset``
        keys; every count must be at least 1 (a group no hit supports is
        refused, not turned into a uniform profile).

        The EM runs on flat ``(group, owner)`` columns in group order, then
        key order.  An iteration is two weighted ``np.bincount``s — each
        group's total mass, then each species' expected hits — and one
        ``np.add.accumulate`` for the M-step norm.  All three add strictly
        left to right, so the float sequence is the one a per-group walk
        with sequential sums gives, on every Python and NumPy version.
        ``np.sum`` is excluded because it adds pairwise in unrolled blocks
        (past 8 terms its order differs), and ``sum()`` because Python
        3.12 compensates float sums.
        """
        for owners, count in groups.items():
            if count < 1:
                raise ValueError(
                    f"group {owners!r} has count {count}; counts must be >= 1"
                )
        species = sorted({t for owners in groups for t in owners})
        if not species:
            return AbundanceProfile(), EmDiagnostics(0, 0.0, True)
        slot = {t: i for i, t in enumerate(species)}
        owner = np.fromiter(
            (slot[t] for owners in groups for t in owners), dtype=np.intp
        )
        sizes = [len(owners) for owners in groups]
        group = np.repeat(np.arange(len(sizes)), sizes)
        count = np.repeat(np.fromiter(groups.values(), dtype=np.float64), sizes)
        weights = np.fromiter(
            (max(1.0, float(self.sketch.sketch_sizes.get(t, 1))) for t in species),
            dtype=np.float64,
        )
        owner_weight = weights[owner]
        theta = np.full(len(species), 1.0 / len(species))
        delta = float("inf")
        iteration = 0
        for iteration in range(1, self.max_iterations + 1):  # noqa: B007
            # E-step: fractional assignment of each group's hits; a group
            # whose total mass is zero contributes nothing.
            mass = theta[owner] * owner_weight
            total = np.bincount(group, weights=mass, minlength=len(sizes))[group]
            share = np.divide(
                count * mass, total, out=np.zeros_like(mass), where=total > 0
            )
            expected = np.bincount(owner, weights=share, minlength=len(species))
            # M-step: refit abundances, normalizing by sketch size so big
            # genomes don't look more abundant than they are.
            raw = expected / weights
            norm = float(np.add.accumulate(raw)[-1])
            if norm <= 0:
                break
            new_theta = raw / norm
            delta = float(np.max(np.abs(new_theta - theta)))
            theta = new_theta
            if delta < self.tolerance:
                break
        profile = AbundanceProfile.from_counts(dict(zip(species, theta.tolist())))
        return profile, EmDiagnostics(iteration, delta, delta < self.tolerance)

    def estimate_from_retrieval(
        self,
        retrieved: "RetrievalResult | Mapping[int, Mapping[int, FrozenSet[int]]]",
        candidates: Iterable[int],
    ) -> Tuple[AbundanceProfile, EmDiagnostics]:
        """Convenience wrapper straight from Step-2 output."""
        return self.estimate(self.hit_groups(retrieved, candidates))
