"""Deliberately damaged ``MEGISIDX`` containers."""

from __future__ import annotations

import json
from typing import Callable, List, Sequence

from hypothesis import strategies as st

from repro.databases.serialization import pack_sections, unpack_sections


def with_manifest(payload: bytes, edit: Callable[[dict], object]) -> bytes:
    """``payload`` re-packed with its manifest replaced by ``edit(manifest)``
    — a well-formed container whose manifest lies."""
    sections = {name: bytes(view)
                for name, view in unpack_sections(payload).items()}
    manifest = edit(json.loads(sections["manifest"]))
    sections["manifest"] = json.dumps(manifest, sort_keys=True).encode("utf-8")
    return pack_sections(sections)


def lying_manifests(payload: bytes, kmers: Sequence[int]) -> st.SearchStrategy[bytes]:
    """``payload`` with one manifest field changed so that it disagrees
    with the ``db/kmers`` section (whose keys are ``kmers``): the row
    count off by one, a shard count its ranges do not have, or an interior
    boundary moved below the last key of the slot it closes / above the
    first key of the slot it opens (only slots that hold rows, so every
    draw is a lie)."""
    manifest = json.loads(bytes(unpack_sections(payload)["manifest"]))
    n, rows = manifest["n_shards"], manifest["db_rows"]
    edits: List[Callable[[dict], dict]] = [
        lambda m: {**m, "db_rows": rows + 1},
        lambda m: {**m, "n_shards": n + 1},
    ]
    if rows:
        edits.append(lambda m: {**m, "db_rows": rows - 1})

    def moved(i: int, cut: int) -> Callable[[dict], dict]:
        def edit(m: dict) -> dict:
            ranges = [list(pair) for pair in m["shard_ranges"]]
            ranges[i][1] = ranges[i + 1][0] = cut
            return {**m, "shard_ranges": ranges}
        return edit

    for i in range(n - 1):
        closes = kmers[rows * i // n:rows * (i + 1) // n]
        opens = kmers[rows * (i + 1) // n:rows * (i + 2) // n]
        if closes:
            edits.append(moved(i, closes[-1]))
        if opens:
            edits.append(moved(i, opens[0] + 1))
    return st.sampled_from(edits).map(lambda edit: with_manifest(payload, edit))
