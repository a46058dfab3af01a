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
intersecting k-mers.  The fold is array passes over the retrieval's
signature columns and candidate bitmasks of the hit owner sets; it ends
in :class:`HitGroups` columns with the groups, owners, counts and order
of the historical per-query walk, which the EM reads as they are.  The
EM itself is array passes over those flat ``(group, owner)`` columns
whose reductions all add strictly left to right — never ``np.sum`` or
``sum()``, whose orders vary (see :meth:`StatisticalAbundanceEstimator._em`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Mapping, NamedTuple, Tuple

import numpy as np

from repro.backends.retrieval import RetrievalResult
from repro.databases.sketch import SketchDatabase
from repro.taxonomy.profiles import AbundanceProfile


class HitGroups(NamedTuple):
    """Ambiguity groups as columns (none by default).  ``group`` and
    ``owner`` hold one entry per ``(group, owner)`` pair — groups
    numbered in first-query order, owner taxIDs ascending within each
    group; ``count[g]`` is group ``g``'s hit count."""

    group: np.ndarray = np.empty(0, dtype=np.intp)
    owner: np.ndarray = np.empty(0, dtype=np.int64)
    count: np.ndarray = np.empty(0, dtype=np.int64)


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
    def hit_groups(retrieved: RetrievalResult, candidates: Iterable[int]) -> HitGroups:
        """Collapse Step-2 output into ambiguity-group columns.

        Only the most specific level (largest k) with any owners is used
        per query — its first non-zero signature, levels taken by
        descending k — restricted to the candidate set; a query whose
        restriction is empty drops out.  The fold runs over signatures,
        not queries: one ``bincount`` counts each chosen signature and one
        ``np.minimum.at`` finds its first query.  Each *hit* signature's
        owners then become a bitmask over the sorted candidate column
        (``ceil(c / 64)`` ``uint64`` words, so any candidate count fits) —
        the work follows the hit signatures' entries, never signatures x
        taxa.  Signatures with the same non-zero mask are one group: one
        ``lexsort`` finds the runs, whose summed counts are the group's
        and whose smallest first query orders the groups as the per-query
        walk inserted them, so the EM accumulation order — and the exact
        float sequence — is the historical one.  The groups' owners are
        read off ``np.nonzero`` of their unpacked masks in that order.
        """
        allowed = np.fromiter(sorted({int(t) for t in candidates}), dtype=np.int64)
        n = len(retrieved.queries)
        if n == 0 or not len(allowed) or not retrieved.levels:
            return HitGroups()
        table = retrieved.signatures
        columns = [ids for _, ids in sorted(retrieved.levels.items(), reverse=True)]
        chosen = columns[-1]
        for ids in reversed(columns[:-1]):
            chosen = np.where(ids != 0, ids, chosen)
        per_set = np.bincount(chosen, minlength=len(table))
        per_set[0] = 0
        hit = np.flatnonzero(per_set)
        if not len(hit):
            return HitGroups()
        first = np.full(len(table), n, dtype=np.int64)
        np.minimum.at(first, chosen, np.arange(n, dtype=np.int64))
        entries, offsets = table.entries(hit)
        owners = table.taxids[entries]
        slot = np.minimum(np.searchsorted(allowed, owners), len(allowed) - 1)
        keep = allowed[slot] == owners
        slot = slot[keep].astype(np.uint64)
        masks = np.zeros((len(hit), -(-len(allowed) // 64)), dtype=np.uint64)
        np.bitwise_or.at(
            masks,
            (np.repeat(np.arange(len(hit)), np.diff(offsets))[keep],
             slot >> np.uint64(6)),
            np.uint64(1) << (slot & np.uint64(63)),
        )
        rows = np.flatnonzero(masks.any(axis=1))
        if not len(rows):
            return HitGroups()
        order = rows[np.lexsort(masks[rows].T)]
        ordered = masks[order]
        starts = np.flatnonzero(
            np.concatenate(([True], np.any(ordered[1:] != ordered[:-1], axis=1)))
        )
        counts = np.add.reduceat(per_set[hit[order]], starts)
        # The reference walk inserts each group when its first query is
        # seen; that order keeps downstream float accumulation bit-identical.
        by_first = np.argsort(np.minimum.reduceat(first[hit[order]], starts))
        # Little-endian words unpack least-significant bit first: bit b of
        # word w is candidate 64 * w + b.
        bits = np.unpackbits(
            ordered[starts[by_first]].astype("<u8").view(np.uint8),
            axis=1, bitorder="little",
        )
        group, owner = np.nonzero(bits)
        return HitGroups(group, allowed[owner], counts[by_first])

    # -- EM -----------------------------------------------------------------

    def estimate(
        self, groups: "Mapping[Tuple[int, ...], int] | Mapping[FrozenSet[int], int]"
    ) -> Tuple[AbundanceProfile, EmDiagnostics]:
        """Run EM on ambiguity groups; returns (profile, diagnostics).

        Group keys are any iterable of distinct taxIDs — sorted tuples or
        legacy ``frozenset`` keys; every count must be at least 1 (a group
        no hit supports is refused, not turned into a uniform profile).
        The mapping becomes :class:`HitGroups` columns in group order,
        then key order, for the one EM core :meth:`estimate_from_retrieval`
        runs too.
        """
        for owners, count in groups.items():
            if count < 1:
                raise ValueError(
                    f"group {owners!r} has count {count}; counts must be >= 1"
                )
        sizes = [len(owners) for owners in groups]
        return self._em(HitGroups(
            np.repeat(np.arange(len(sizes)), sizes),
            np.fromiter((t for owners in groups for t in owners), dtype=np.int64),
            np.fromiter(groups.values(), dtype=np.float64, count=len(sizes)),
        ))

    def _em(self, groups: HitGroups) -> Tuple[AbundanceProfile, EmDiagnostics]:
        """The EM over group columns.

        An iteration is two weighted ``np.bincount``s — each group's total
        mass, then each species' expected hits — and one
        ``np.add.accumulate`` for the M-step norm.  All three add strictly
        left to right, so the float sequence is the one a per-group walk
        with sequential sums gives, on every Python and NumPy version.
        ``np.sum`` is excluded because it adds pairwise in unrolled blocks
        (past 8 terms its order differs), and ``sum()`` because Python
        3.12 compensates float sums.
        """
        if not len(groups.owner):
            return AbundanceProfile(), EmDiagnostics(0, 0.0, True)
        group, n_groups = groups.group, len(groups.count)
        species, owner = np.unique(groups.owner, return_inverse=True)
        species = species.tolist()
        count = groups.count.astype(np.float64).take(group)
        sizes = self.sketch.sketch_sizes
        weights = np.array(
            [max(1.0, float(sizes.get(t, 1))) for t in species], dtype=np.float64
        )
        theta = np.full(len(species), 1.0 / len(species))
        delta = float("inf")
        iteration = 0
        for iteration in range(1, self.max_iterations + 1):  # noqa: B007
            # E-step: fractional assignment of each group's hits.  A group
            # whose total mass is zero has every mass 0, so its share
            # ``count * mass`` is already 0 and needs no division.
            mass = (theta * weights).take(owner)
            total = np.bincount(group, weights=mass, minlength=n_groups).take(group)
            share = count * mass
            np.divide(share, total, out=share, where=total > 0)
            expected = np.bincount(owner, weights=share, minlength=len(species))
            # M-step: refit abundances, normalizing by sketch size so big
            # genomes don't look more abundant than they are.
            raw = expected / weights
            norm = float(np.add.accumulate(raw)[-1])
            if norm <= 0:
                break
            new_theta = raw / norm
            delta = float(abs(new_theta - theta).max())
            theta = new_theta
            if delta < self.tolerance:
                break
        profile = AbundanceProfile.from_counts(dict(zip(species, theta.tolist())))
        return profile, EmDiagnostics(iteration, delta, delta < self.tolerance)

    def estimate_from_retrieval(
        self,
        retrieved: RetrievalResult,
        candidates: Iterable[int],
    ) -> Tuple[AbundanceProfile, EmDiagnostics]:
        """Straight from Step-2 output: :meth:`hit_groups`' columns feed
        the EM as they are."""
        return self._em(self.hit_groups(retrieved, candidates))
