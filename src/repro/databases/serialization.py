"""Binary serialization: the k-mer key-column codec and the index container.

The paper's databases are encoded with two bits per character during their
offline generation (§4.2) and stored on flash in sorted order so the ISP
units can stream them.  The on-flash record is the key column's
(:mod:`repro.sequences.keys`): fixed-width records of ``ceil(2k / 8)``
bytes each, big-endian packed, so byte-wise lexicographic order equals
k-mer order (the property the streaming comparators rely on).  It
round-trips, so the MegIS FTL placement and the ISP stream operate on a
size that is *derived* from an actual encoding, not an estimate:
``len(pack_kmer_column(db.column(), db.k)) == db.size_bytes()``.

Loading never copies a column: every int column of a section is a dtype
view (``<i8`` or ``<i4``, the on-disk dtypes) of the buffer it was parsed from.
Whether that buffer is a ``bytes`` object (:func:`unpack_sections`) or a
``np.memmap`` of the index file (:func:`map_sections`) is decided once, by
whoever produced it; nothing below takes a parameter saying where the
bytes live.  Only the k-mer key columns materialize (they are stored
big-endian packed and every ``searchsorted`` walks them):
:func:`parse_kmer_column` returns the sorted key column, in the dtype
:func:`~repro.sequences.keys.column_dtype` gives, which is what a loaded
database or KSS level holds, and
:func:`~repro.sequences.keys.pack_kmer_column` is its mirror.

Index container format (``MEGISIDX``): a named-section archive holding the
database's packed key column (one ``db/kmers`` section — the flash image
Step 2 streams), the KSS columns (keys, ``int32`` row signatures, the
stored CSRs and the one signature table), the sketch sizes, and the
reference FASTA — what :class:`repro.megis.index.MegisIndex` persists, and
the only persisted form of the sorted database.  Version 3; older versions
(version 2's per-row full-set owner CSRs, version 1's per-shard database
sections) are refused, not converted.  The
container itself is format-agnostic: a 16-byte header (magic, ``u16
version``, ``u16 reserved``, ``u32 toc_length``), a JSON table of contents
mapping section names to ``[offset, length]`` within the body, then the
section bytes back to back.  Sections must tile the body exactly, so
truncation or trailing garbage is always detected.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.sequences.keys import kmer_record_bytes, parse_kmer_records

#: What the parsers read from: a ``bytes`` payload or a ``uint8`` section.
Buffer = Union[bytes, NDArray[np.uint8]]

INDEX_MAGIC = b"MEGISIDX"
INDEX_VERSION = 3
_INDEX_HEADER = struct.Struct("<8sHHI")


class SerializationError(ValueError):
    """Raised when a payload does not parse as a k-mer column or index."""


def parse_kmer_column(buf: Buffer, k: int, count: int) -> NDArray[Any]:
    """Parse ``count`` packed k-mer records into the sorted key column
    (:func:`~repro.sequences.keys.parse_kmer_records`), refusing a
    buffer too short to hold them.  The column attaches as a database's
    key column as is."""
    width = kmer_record_bytes(k)
    if len(buf) < count * width:
        raise SerializationError("truncated k-mer column")
    return parse_kmer_records(_as_u8(buf)[: count * width], k, count)


def pack_i64(values: ArrayLike) -> bytes:
    """One int64 column as little-endian bytes."""
    return np.asarray(values, dtype="<i8").tobytes()


def pack_i32(values: ArrayLike) -> bytes:
    """One int32 column (signature ids) as little-endian bytes."""
    return np.asarray(values, dtype="<i4").tobytes()


def _as_u8(buf: Buffer) -> NDArray[np.uint8]:
    """``buf`` as a ``uint8`` array over the same memory (never a copy).

    An ndarray (a section cut from either container source) passes
    through with its type — a ``np.memmap`` slice stays one; a bare
    ``bytes`` payload becomes a read-only ``np.frombuffer`` view.
    """
    if isinstance(buf, np.ndarray):
        return buf
    return np.frombuffer(buf, dtype=np.uint8)


def parse_i64(buf: Buffer) -> NDArray[np.int64]:
    """A little-endian int64 column as a view of ``buf`` (length-checked)."""
    if len(buf) % 8:
        raise SerializationError("int64 column length is not a multiple of 8")
    column: NDArray[np.int64] = _as_u8(buf).view("<i8")
    return column


def parse_i32(buf: Buffer) -> NDArray[np.int32]:
    """A little-endian int32 column as a view of ``buf`` (length-checked)."""
    if len(buf) % 4:
        raise SerializationError("int32 column length is not a multiple of 4")
    column: NDArray[np.int32] = _as_u8(buf).view("<i4")
    return column


# -- index section container -------------------------------------------------


def pack_sections(sections: Dict[str, bytes]) -> bytes:
    """Pack named byte sections into one ``MEGISIDX`` container payload.

    Sections are laid out back to back in the given order, from an
    8-byte aligned body start; the table of contents (JSON) records each
    section's offset and length within the body so a reader can load any
    single section — e.g. one SSD shard — without touching the rest.
    """
    toc: List[List[object]] = []
    body_parts: List[bytes] = []
    offset = 0
    for name, blob in sections.items():
        toc.append([name, offset, len(blob)])
        body_parts.append(blob)
        offset += len(blob)
    toc_bytes = json.dumps(toc, separators=(",", ":")).encode("utf-8")
    # Trailing JSON whitespace starts the body 8-byte aligned, so sections
    # placed at multiples of 8 view as int64 / int32 columns aligned.
    toc_bytes += b" " * (-(_INDEX_HEADER.size + len(toc_bytes)) % 8)
    header = _INDEX_HEADER.pack(INDEX_MAGIC, INDEX_VERSION, 0, len(toc_bytes))
    return header + toc_bytes + b"".join(body_parts)


def _container_toc_len(header: bytes) -> int:
    """Validate a ``MEGISIDX`` header; returns the TOC byte length."""
    if len(header) < _INDEX_HEADER.size:
        raise SerializationError("index payload shorter than header")
    magic, version, _, toc_len = _INDEX_HEADER.unpack_from(header, 0)
    if magic != INDEX_MAGIC:
        raise SerializationError(f"bad index magic {magic!r}")
    if version != INDEX_VERSION:
        raise SerializationError(
            f"unsupported index version {version} (reader takes {INDEX_VERSION}): rebuild the index"
        )
    return toc_len


def _container_entries(toc_bytes: bytes) -> List[Tuple[str, int, int]]:
    """Parse the JSON table of contents into (name, offset, length) rows."""
    try:
        toc = json.loads(toc_bytes.decode("utf-8"))
        return [(str(name), int(off), int(length)) for name, off, length in toc]
    except (ValueError, TypeError, OverflowError, RecursionError) as exc:
        # OverflowError: an infinite offset; RecursionError: nesting too deep.
        raise SerializationError(f"corrupt index table of contents: {exc}") from exc


def _tile_sections(
    entries: Sequence[Tuple[str, int, int]], body: NDArray[np.uint8], body_len: int
) -> Dict[str, NDArray[np.uint8]]:
    """Cut the body at the TOC entries, insisting they tile it exactly."""
    sections: Dict[str, NDArray[np.uint8]] = {}
    covered = 0
    for name, off, length in entries:
        if name in sections:
            raise SerializationError(f"duplicate index section {name!r}")
        if off != covered or length < 0 or off + length > body_len:
            raise SerializationError(
                f"index section {name!r} does not tile the body "
                f"(offset {off}, length {length}, body {body_len})"
            )
        sections[name] = body[off : off + length]
        covered = off + length
    if covered != body_len:
        raise SerializationError(
            f"{body_len - covered} trailing bytes after the last index section"
        )
    return sections


def unpack_sections(payload: bytes) -> Dict[str, NDArray[np.uint8]]:
    """Parse an in-memory ``MEGISIDX`` container into named section views.

    Rejects (loudly) anything malformed: wrong magic, unknown versions, a
    corrupt table of contents, sections pointing outside the body, and
    bodies the sections do not tile exactly (truncation / trailing garbage).
    """
    toc_len = _container_toc_len(payload[: _INDEX_HEADER.size])
    toc_start = _INDEX_HEADER.size
    if toc_start + toc_len > len(payload):
        raise SerializationError("truncated index table of contents")
    entries = _container_entries(bytes(payload[toc_start : toc_start + toc_len]))
    body = _as_u8(payload)[toc_start + toc_len :]
    return _tile_sections(entries, body, len(body))


def map_sections(path: Union[str, Path]) -> Dict[str, NDArray[np.uint8]]:
    """Memory-map a ``MEGISIDX`` container file into named section views.

    The header and table of contents are read eagerly (they are tiny);
    every section then becomes a ``np.memmap`` slice of the file — same
    validation and same section type (a ``uint8`` ndarray) as
    :func:`unpack_sections`, but no section's bytes are loaded until its
    pages are actually touched.  This is what lets
    :meth:`repro.megis.index.MegisIndex.open` serve databases larger than
    RAM.  The mapping holds the file's inode, so a file being served must
    be replaced (``os.replace``), never truncated in place.
    """
    with open(path, "rb") as handle:
        header = handle.read(_INDEX_HEADER.size)
        toc_len = _container_toc_len(header)
        toc_bytes = handle.read(toc_len)
    if len(toc_bytes) < toc_len:
        raise SerializationError("truncated index table of contents")
    entries = _container_entries(toc_bytes)
    mapped: NDArray[np.uint8] = np.memmap(path, dtype=np.uint8, mode="r")
    body = mapped[_INDEX_HEADER.size + toc_len :]
    return _tile_sections(entries, body, len(body))


def payload_pages(payload: bytes, page_bytes: int) -> Tuple[int, int]:
    """(full pages, tail bytes) a payload occupies on flash."""
    if page_bytes <= 0:
        raise ValueError("page_bytes must be positive")
    return len(payload) // page_bytes, len(payload) % page_bytes
