"""Generated Step-2 retrieval results and the candidate sets Step 3 restricts them to."""

from __future__ import annotations

from typing import Dict, FrozenSet, List

from hypothesis import strategies as st

from repro.backends.retrieval import RetrievalResult

#: Owner taxIDs are drawn from ``1..MAX_TAXID``: wide enough that a
#: candidate set can span three 64-bit mask words.
MAX_TAXID = 160


@st.composite
def retrieval_results(draw, max_queries: int = 30) -> RetrievalResult:
    """A retrieval result over sorted distinct queries: 1-3 levels, each
    query's per-level owners sorted and duplicate-free (empty rows common),
    owner rows reused across queries so signatures and groups repeat, all
    interned into one fresh signature table."""
    queries = sorted(draw(st.sets(
        st.integers(0, 1 << 20), min_size=1, max_size=max_queries
    )))
    taxid = st.integers(1, MAX_TAXID)
    templates = draw(st.lists(
        st.lists(taxid, min_size=1, max_size=5, unique=True).map(sorted),
        min_size=1, max_size=6,
    ))
    row = st.sampled_from(templates) | st.just([]) | st.lists(
        taxid, max_size=5, unique=True
    ).map(sorted)
    levels: Dict[int, List[List[int]]] = {
        k: draw(st.lists(row, min_size=len(queries), max_size=len(queries)))
        for k in draw(st.lists(st.integers(3, 31), min_size=1, max_size=3, unique=True))
    }
    return RetrievalResult.from_sets(queries, levels)


@st.composite
def candidate_sets(draw, retrieved: RetrievalResult) -> FrozenSet[int]:
    """Candidates for ``retrieved``'s owners: empty, disjoint from every
    owner, a few of its owners (so a query's most specific level often
    holds only non-candidates), or more than 64 taxIDs (multi-word masks)."""
    owners = sorted({
        int(t) for taxids, _ in retrieved.expand().values() for t in taxids
    })
    taxid = st.integers(1, MAX_TAXID)
    if owners:
        taxid = st.sampled_from(owners) | taxid
    few = st.frozensets(taxid, max_size=12)
    kind = draw(st.sampled_from(["wide", "few", "disjoint", "empty"]))
    if kind == "wide":
        # At least 80 - 12 = 68 candidates survive the holes.
        return frozenset(range(1, draw(st.integers(80, MAX_TAXID)) + 1)) - draw(few)
    if kind == "few":
        return draw(few)
    if kind == "disjoint":
        return draw(st.frozensets(
            st.integers(MAX_TAXID + 1, 4 * MAX_TAXID), min_size=1, max_size=8
        ))
    return frozenset()
