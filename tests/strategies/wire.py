"""Generated wire inputs: Step-2 partials, JSON values, damaged frames."""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

import numpy as np
from hypothesis import strategies as st

from repro.backends.retrieval import RetrievalResult
from repro.backends.signatures import SignatureTable
from tests.oracles import signature_table_from_sets

#: The k-mer lengths the frame codec is checked at: every record width
#: from 3 to 10 bytes, with and without padding bits, both column dtypes.
FRAME_KS = (11, 18, 20, 31, 32, 40)

#: Any JSON value (no NaN / infinities: the wire refuses those first).
json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


@st.composite
def retrieval_partials(
    draw, k: int,
) -> Tuple[SignatureTable, List[Tuple[List[int], RetrievalResult]]]:
    """A node's signature table and 0-3 samples of its partial Step 2 at
    ``k``: sorted distinct queries anywhere in ``[0, 4^k)`` (both ends
    included), and one signature column per shared sketch level with ids
    anywhere in the table — misses (``0``), levels with no hits, empty
    samples and ``python``-backend list queries among them."""
    table, _ = signature_table_from_sets(draw(st.lists(
        st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True),
        max_size=6,
    )))
    levels = draw(st.lists(st.integers(1, k), min_size=1, max_size=3, unique=True))
    kmer = st.integers(0, (1 << (2 * k)) - 1) | st.sampled_from([0, (1 << (2 * k)) - 1])
    ids = st.integers(0, len(table) - 1)
    partials = []
    for _ in range(draw(st.integers(0, 3))):
        queries = sorted(draw(st.sets(kmer, max_size=12)))
        columns: Dict[int, np.ndarray] = {
            level: np.asarray(draw(st.lists(
                ids, min_size=len(queries), max_size=len(queries)
            )), dtype=np.int32)
            for level in levels
        }
        partials.append((queries, RetrievalResult(
            queries=queries, levels=columns, signatures=table
        )))
    return table, partials


@st.composite
def damaged(draw, frame: bytes) -> Tuple[dict, bytes]:
    """``frame`` split into (header, body), then damaged at most once: a
    header field replaced by any JSON value, a field dropped, a body byte
    changed, the body cut or extended, or the body replaced outright."""
    newline = frame.index(b"\n")
    header, body = json.loads(frame[:newline]), frame[newline + 1:]
    damage = draw(st.sampled_from(
        ["none", "field", "drop", "byte", "cut", "extend", "replace"]
    ))
    if damage == "field":
        header[draw(st.sampled_from(sorted(header)))] = draw(json_values)
    elif damage == "drop":
        del header[draw(st.sampled_from(sorted(header)))]
    elif damage == "byte" and body:
        at = draw(st.integers(0, len(body) - 1))
        body = body[:at] + bytes([draw(st.integers(0, 255))]) + body[at + 1:]
    elif damage == "cut":
        body = body[:draw(st.integers(0, len(body)))]
    elif damage == "extend":
        body += draw(st.binary(min_size=1, max_size=16))
    elif damage == "replace":
        body = draw(st.binary(max_size=64))
    return header, body
