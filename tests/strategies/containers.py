"""Deliberately damaged ``MEGISIDX`` containers."""

from __future__ import annotations

import json
from typing import Callable

from repro.databases.serialization import pack_sections, unpack_sections


def with_manifest(payload: bytes, edit: Callable[[dict], object]) -> bytes:
    """``payload`` re-packed with its manifest replaced by ``edit(manifest)``
    — a well-formed container whose manifest lies."""
    sections = {name: bytes(view)
                for name, view in unpack_sections(payload).items()}
    manifest = edit(json.loads(sections["manifest"]))
    sections["manifest"] = json.dumps(manifest, sort_keys=True).encode("utf-8")
    return pack_sections(sections)
