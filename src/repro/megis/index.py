"""The persistable MegIS index: build once, open anywhere, query many.

The paper's deployment model keeps the databases resident on the SSD and
serves a stream of samples against them (§4.2 builds them offline).  A
:class:`MegisIndex` is that resident artifact: the sorted k-mer database,
the KSS tables, the sketch metadata, and (optionally) the reference
sequences, owned together and persisted as one ``MEGISIDX`` container of
named CSR column sections (:mod:`repro.databases.serialization`).

Layout decisions that matter:

- the sorted database is stored as **one section, its packed key
  column** (``db/kmers``: fixed-width big-endian records, what Step 2
  streams, §4.3.1) — no per-k-mer owner CSR, since taxIDs come from the
  KSS (§4.3.2) and no query reads one; an opened database is therefore
  ownerless.  The manifest records the ``n_shards``-way range boundaries
  the file was saved with, and the loader checks every key against its
  slot's range; an open index shards that one column at the persisted
  count exactly as at any other — zero-copy views;
- the KSS is stored as its **per-level columns** (key rows, one
  ``int32`` signature per row, and the smaller levels' stored taxID CSR)
  plus **one signature table** — the CSR of the distinct full owner sets
  every row id names, built with the index, never at open.  ``open()``
  rebuilds the :class:`~repro.databases.kss.KssStore` by attaching
  views — no Python row objects are touched until (unless) the
  register-level reference backend runs.  The manifest records the
  table's digest (:attr:`~repro.backends.signatures.SignatureTable.digest`):
  the loader checks the table against it, and a cluster's fingerprint
  carries it;
- the sketch's per-level tables are **not** stored separately — they are
  the same data as the KSS columns, so the loaded
  :class:`~repro.databases.sketch.SketchDatabase` reconstructs them lazily
  from the KSS store; only the per-species sketch sizes get a section.

There is one way to open an index: every int column is a dtype view of the
container's bytes.  :meth:`MegisIndex.open` maps the file (the paper's
deployment: the database stays in storage, only touched pages become
resident); :meth:`MegisIndex.from_bytes` runs the same loader over an
in-memory payload.  What ``open`` allocates is the key columns and
nothing per row besides them: one ``uint64`` per database k-mer
(whatever the persisted shard count) and one per KSS k_max row and
prefix row — 25 B per database k-mer at the ``tracemalloc`` peak of the
ledger's one-shard ``map_short`` open, 18 B for its four-shard
``cluster_long`` (whose KSS is the smaller share).  An opened file stays
mapped for the index's lifetime, so :meth:`MegisIndex.save` replaces the
file atomically rather than truncating it.

:class:`IndexBuilder` is the offline construction step;
:class:`~repro.megis.session.AnalysisSession` is the serving side.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np
from numpy.typing import NDArray

from repro.backends.signatures import SignatureTable
from repro.databases.kss import KssLevelStore, KssStore, KssTables, level_store
from repro.databases.serialization import (
    SerializationError,
    map_sections,
    pack_i32,
    pack_i64,
    pack_sections,
    parse_i32,
    parse_i64,
    parse_kmer_column,
    unpack_sections,
)
from repro.databases.sketch import SketchDatabase, _check_fraction
from repro.databases.sorted_db import SortedKmerDatabase, extract_pairs
from repro.megis.multissd import (
    DatabaseShard,
    shard_kss,
    split_database,
    whole_shard,
)
from repro.sequences.generator import ReferenceCollection
from repro.sequences.keys import kmer_record_bytes, pack_kmer_column


class MegisIndex:
    """The opened (or freshly built) database bundle one session serves from.

    ``kss`` wraps the sketch's own store on first use when not supplied
    (an index constructed by hand, e.g. for a Metalign-only session;
    :meth:`IndexBuilder.build` supplies it); a sketch of dict tables
    carries no store, so its index needs ``kss``.  :meth:`shards` caches the
    per-SSD shard handles — database column slices plus prefix-aligned
    KSS range slices — per shard count, so sessions never re-split on a
    query.
    """

    def __init__(
        self,
        database: SortedKmerDatabase,
        sketch: SketchDatabase,
        references: Optional[ReferenceCollection] = None,
        kss: Optional[KssTables] = None,
    ) -> None:
        if database.k != sketch.k_max:
            raise ValueError(
                f"sorted database k ({database.k}) must equal sketch k_max "
                f"({sketch.k_max})"
            )
        self.database = database
        self.sketch = sketch
        self.references = references
        self._kss = kss
        self._shard_cache: Dict[int, List[DatabaseShard]] = {}

    @property
    def k(self) -> int:
        return int(self.database.k)

    @property
    def kss(self) -> KssTables:
        if self._kss is None:
            if self.sketch.kss_store is None:
                raise ValueError("a sketch of dict tables carries no KSS store: pass kss=")
            self._kss = KssTables(self.sketch.kss_store)
        return self._kss

    def shards(self, n_ssds: int) -> List[DatabaseShard]:
        """Per-SSD shard handles (built once per shard count, cached).

        One SSD is the whole-range handle on the database and KSS
        themselves — nothing sliced, nothing built.  For more, every shard
        is a zero-copy view of the database's columns and carries its
        prefix-aligned KSS range slice (§6.1 + range-sharded KSS).
        """
        if n_ssds < 1:
            raise ValueError(f"n_ssds must be >= 1, got {n_ssds}")
        shards = self._shard_cache.get(n_ssds)
        if shards is None:
            if n_ssds == 1:
                shards = [whole_shard(self.database, self.kss)]
            else:
                shards = split_database(self.database, n_ssds)
                shard_kss(self.kss, shards)
            self._shard_cache[n_ssds] = shards
        return shards

    # -- persistence -----------------------------------------------------------

    def to_bytes(self, n_shards: int = 1, include_references: bool = True) -> bytes:
        """Serialize to the ``MEGISIDX`` section container.

        ``n_shards`` fixes which N-way range boundaries the manifest
        records (the loader checks the keys against them); the sections
        are the same at every count, and a reader shards at any count
        after :meth:`open`.
        """
        shards = split_database(self.database, n_shards)
        kss_store = self.kss.store()
        sections: Dict[str, bytes] = {}
        manifest = {
            "k": self.k,
            "k_max": kss_store.k_max,
            "smaller_ks": list(kss_store.smaller_ks),
            "n_shards": n_shards,
            "shard_ranges": [[s.lo, s.hi] for s in shards],
            "db_rows": len(self.database),
            "kss_rows": int(len(kss_store.kmers)),
            "kss_level_rows": {
                str(k): int(len(level.prefixes))
                for k, level in kss_store.levels.items()
            },
            "signatures": len(kss_store.table),
            "signature_digest": kss_store.table.digest,
            "has_references": bool(include_references and self.references),
        }
        # The int columns go first: every int64 section is a multiple of 8
        # bytes long, so from the aligned body start each int64 and then
        # each int32 column attaches as an aligned view.
        taxids = sorted(self.sketch.sketch_sizes)
        sections["sketch/taxids"] = pack_i64(taxids)
        sections["sketch/sizes"] = pack_i64(
            [int(self.sketch.sketch_sizes[t]) for t in taxids]
        )
        sections["kss/signature_taxids"] = pack_i64(kss_store.table.taxids)
        sections["kss/signature_offsets"] = pack_i64(kss_store.table.offsets)
        for k, level in kss_store.levels.items():
            sections[f"kss/{k}/stored_taxids"] = pack_i64(level.stored_taxids)
            sections[f"kss/{k}/stored_offsets"] = pack_i64(level.stored_offsets)
        sections["kss/kmax_signatures"] = pack_i32(kss_store.signatures)
        for k, level in kss_store.levels.items():
            sections[f"kss/{k}/signatures"] = pack_i32(level.signatures)
        sections["manifest"] = json.dumps(manifest, sort_keys=True).encode("utf-8")
        sections["db/kmers"] = pack_kmer_column(self.database.column(), self.k)
        sections["kss/kmers"] = pack_kmer_column(kss_store.kmers, kss_store.k_max)
        for k, level in kss_store.levels.items():
            sections[f"kss/{k}/prefixes"] = pack_kmer_column(level.prefixes, k)
        if manifest["has_references"]:
            from repro.sequences.io import references_to_fasta

            sections["references"] = references_to_fasta(self.references).encode(
                "utf-8"
            )
        return pack_sections(sections)

    def save(self, path: Union[str, Path], n_shards: int = 1,
             include_references: bool = True) -> Path:
        """Write the serialized index to ``path``; returns the path.

        The bytes go to a sibling temp file that then replaces ``path``
        atomically: an index already opened from ``path`` (a running
        ``repro serve``) keeps the old inode mapped and keeps serving the
        old world, where truncating in place would change or SIGBUS it.
        """
        path = Path(path)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_bytes(self.to_bytes(n_shards, include_references))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path

    @classmethod
    def from_bytes(cls, payload: bytes) -> "MegisIndex":
        """Open an in-memory serialized index (see :meth:`open`)."""
        return cls._from_sections(unpack_sections(payload))

    @classmethod
    def _from_sections(cls, sections: Sections) -> "MegisIndex":
        """Attach every section as a live cache (nothing is rebuilt).

        The database is its one key column, whatever shard count the file
        was saved with; the manifest's boundaries are only checked against
        it, and :meth:`shards` splits it like any built database.
        """
        manifest = _manifest(sections)
        database = _database(sections, manifest)
        kss = KssTables(_kss_store(sections, manifest))
        sketch = _lazy_sketch(sections, manifest, kss)
        references = None
        if manifest.has_references:
            from repro.sequences.io import references_from_fasta

            references = references_from_fasta(
                bytes(_section(sections, "references")).decode("utf-8")
            )
        return cls(database, sketch, references, kss=kss)

    @classmethod
    def open(cls, path: Union[str, Path], mmap: bool = True) -> "MegisIndex":
        """Open a saved index file: every column is a view of the mapped file.

        The int sections — the KSS signature columns, stored CSRs and
        signature table — attach as ``np.memmap`` views in their on-disk dtypes, so only the
        touched pages become resident.  The k-mer/prefix *key* columns (the
        structures every ``searchsorted`` walks) materialize — one ndarray
        each, the database's and the KSS's whole key state.

        ``mmap=False`` is :meth:`from_bytes` over the file's bytes — the
        same loader over an in-memory buffer, for a caller that must not
        hold the file open.
        """
        if not mmap:
            return cls.from_bytes(Path(path).read_bytes())
        return cls._from_sections(map_sections(Path(path)))


# -- loading helpers ----------------------------------------------------------

#: What both container sources hand the loader: named ``uint8`` views.
Sections = Mapping[str, NDArray[np.uint8]]


@dataclass(frozen=True)
class _Manifest:
    """The validated ``manifest`` section (``k`` is also the KSS ``k_max``)."""

    k: int
    smaller_ks: Tuple[int, ...]
    n_shards: int
    shard_ranges: Tuple[Tuple[int, int], ...]
    db_rows: int
    kss_rows: int
    kss_level_rows: Dict[int, int]
    signatures: int
    signature_digest: str
    has_references: bool


def _manifest(sections: Sections) -> _Manifest:
    """Parse and validate the manifest: types, counts and range tiling.

    Everything the loader later indexes or sizes an array by is checked
    here, so a tampered manifest is one :class:`SerializationError`, never
    a ``KeyError`` / ``TypeError`` from deep inside the column loaders.
    """
    try:
        raw = json.loads(bytes(_section(sections, "manifest")).decode("utf-8"))
    except ValueError as exc:
        raise SerializationError(f"corrupt index manifest: {exc}") from exc
    if not isinstance(raw, dict):
        raise SerializationError("index manifest is not a JSON object")

    def bad(field: str, want: str) -> SerializationError:
        return SerializationError(
            f"index manifest field {field!r} must be {want}, "
            f"got {raw[field]!r}"
        )

    def integer(value: object, field: str, want: str, minimum: int) -> int:
        if (isinstance(value, bool) or not isinstance(value, int)
                or value < minimum):
            raise bad(field, want)
        return value

    for field in ("k", "k_max", "smaller_ks", "n_shards", "shard_ranges",
                  "db_rows", "kss_rows", "kss_level_rows", "signatures",
                  "signature_digest"):
        if field not in raw:
            raise SerializationError(f"index manifest is missing {field!r}")
    k = integer(raw["k"], "k", "a positive integer", 1)
    if raw["k_max"] != k:
        raise bad("k_max", f"the database k ({k})")
    if not isinstance(raw["smaller_ks"], list):
        raise bad("smaller_ks", "a list")
    want = f"integers descending within ({k}, 0)"
    smaller_ks = tuple(
        integer(level, "smaller_ks", want, 1) for level in raw["smaller_ks"]
    )
    if any(a <= b for a, b in zip((k,) + smaller_ks, smaller_ks)):
        raise bad("smaller_ks", want)
    n_shards = integer(raw["n_shards"], "n_shards", "an integer >= 1", 1)
    ranges = raw["shard_ranges"]
    want = f"{n_shards} abutting [lo, hi) pairs ascending from 0 to 4^k"
    if not isinstance(ranges, list) or len(ranges) != n_shards:
        raise bad("shard_ranges", want)
    edge = 0
    for pair in ranges:
        if not isinstance(pair, list) or len(pair) != 2 or pair[0] != edge:
            raise bad("shard_ranges", want)
        edge = integer(pair[1], "shard_ranges", want, edge)
    # 4^k is the one power of two with 2k + 1 bits; the power itself is
    # never built, so a huge manifest k cannot exhaust memory.
    if edge.bit_length() != 2 * k + 1 or edge & (edge - 1):
        raise bad("shard_ranges", want)
    level_rows = raw["kss_level_rows"]
    if not isinstance(level_rows, dict) or set(level_rows) != {
        str(level) for level in smaller_ks
    }:
        raise bad("kss_level_rows", "one row count per smaller_ks level")
    if not isinstance(raw["signature_digest"], str):
        raise bad("signature_digest", "a string")
    return _Manifest(
        k=k,
        smaller_ks=smaller_ks,
        n_shards=n_shards,
        shard_ranges=tuple((int(lo), int(hi)) for lo, hi in ranges),
        db_rows=integer(raw["db_rows"], "db_rows", "an integer >= 0", 0),
        kss_rows=integer(raw["kss_rows"], "kss_rows", "an integer >= 0", 0),
        kss_level_rows={
            level: integer(level_rows[str(level)], "kss_level_rows",
                           "non-negative integers", 0)
            for level in smaller_ks
        },
        signatures=integer(raw["signatures"], "signatures", "an integer >= 1", 1),
        signature_digest=raw["signature_digest"],
        has_references=raw.get("has_references") is True,
    )


def _section(sections: Sections, name: str) -> NDArray[np.uint8]:
    if name not in sections:
        raise SerializationError(f"index is missing section {name!r}")
    return sections[name]


def _database(sections: Sections, manifest: _Manifest) -> SortedKmerDatabase:
    """``db/kmers`` as an (ownerless) database, checked against the
    manifest.

    Slot ``i`` of an N-way file is rows ``[rows*i//N, rows*(i+1)//N)`` —
    :func:`~repro.megis.multissd.split_database`'s cut — and its keys must
    lie inside ``shard_ranges[i]``: queries are clipped to that range on
    trust, so a boundary that disagrees with the keys would silently lose
    matches.
    """
    n, rows = manifest.n_shards, manifest.db_rows
    column = _load_column(sections, "db/kmers", manifest.k, rows)
    for i, (lo, hi) in enumerate(manifest.shard_ranges):
        keys = column[rows * i // n:rows * (i + 1) // n]
        if len(keys) and not lo <= int(keys[0]) <= int(keys[-1]) < hi:
            raise SerializationError(
                f"shard {i} holds k-mers outside [{lo}, {hi}), its slot in the "
                f"manifest's ascending shard_ranges"
            )
    return SortedKmerDatabase.from_columns(manifest.k, column)


def _load_column(
    sections: Sections, name: str, k: int, rows: int
) -> NDArray[Any]:
    """A packed ``rows``-record k-mer/prefix column, materialized as a
    sorted ndarray."""
    section, width = _section(sections, name), kmer_record_bytes(k)
    if len(section) != rows * width:
        raise SerializationError(
            f"section {name!r} is {len(section)} bytes, not the manifest's "
            f"{rows} rows of {width}"
        )
    column = parse_kmer_column(section, k, rows)
    if np.any(column[1:] < column[:-1]):
        raise SerializationError(f"section {name!r} is not sorted ascending")
    return column


def _load_csr(
    sections: Sections, prefix: str, rows: int
) -> Tuple[NDArray[np.int64], NDArray[np.int64]]:
    """A ``(taxids, offsets)`` CSR pair, shape-checked against ``rows``."""
    taxids = parse_i64(_section(sections, f"{prefix}_taxids"))
    offsets = parse_i64(_section(sections, f"{prefix}_offsets"))
    if len(offsets) != rows + 1:
        raise SerializationError(
            f"section {prefix}_offsets has {len(offsets)} entries, "
            f"expected {rows + 1}"
        )
    if rows and (offsets[0] != 0 or np.any(offsets[1:] < offsets[:-1])):
        raise SerializationError(f"section {prefix}_offsets must ascend from zero")
    if len(offsets) and int(offsets[-1]) != len(taxids):
        raise SerializationError(
            f"section {prefix}_taxids has {len(taxids)} entries, offsets "
            f"claim {int(offsets[-1])}"
        )
    return taxids, offsets


def _load_signatures(
    sections: Sections, name: str, rows: int, limit: int
) -> NDArray[np.int32]:
    """An ``int32`` row -> signature column: ``rows`` ids in ``[0, limit)``."""
    ids = parse_i32(_section(sections, name))
    if len(ids) != rows:
        raise SerializationError(
            f"section {name!r} has {len(ids)} signatures, expected {rows}"
        )
    if bool(np.any(ids.view(np.uint32) >= limit)):
        raise SerializationError(
            f"section {name!r} names a signature outside [0, {limit})"
        )
    return ids


def _kss_store(sections: Sections, manifest: _Manifest) -> KssStore:
    taxids, offsets = _load_csr(sections, "kss/signature", manifest.signatures)
    table = SignatureTable(taxids, offsets)
    if offsets[1] != 0 or table.digest != manifest.signature_digest:
        raise SerializationError(
            "the signature table does not match the manifest's digest "
            "(or its signature 0 is not the empty set)"
        )
    kmers = _load_column(sections, "kss/kmers", manifest.k, manifest.kss_rows)
    signatures = _load_signatures(
        sections, "kss/kmax_signatures", manifest.kss_rows, len(table)
    )
    levels: Dict[int, KssLevelStore] = {}
    for k, level_rows in manifest.kss_level_rows.items():
        prefixes = _load_column(sections, f"kss/{k}/prefixes", k, level_rows)
        stored_taxids, stored_offsets = _load_csr(
            sections, f"kss/{k}/stored", level_rows
        )
        level_signatures = _load_signatures(
            sections, f"kss/{k}/signatures", level_rows, len(table)
        )
        try:
            levels[k] = level_store(
                kmers, 2 * (manifest.k - k), prefixes, stored_taxids,
                stored_offsets, level_signatures,
            )
        except ValueError as exc:
            raise SerializationError(f"section 'kss/{k}/prefixes': {exc}") from exc
    return KssStore(
        k_max=manifest.k, smaller_ks=manifest.smaller_ks, kmers=kmers,
        signatures=signatures, levels=levels, table=table,
    )


def _lazy_sketch(
    sections: Sections, manifest: _Manifest, kss: KssTables
) -> SketchDatabase:
    """Sketch metadata now, per-level tables only if a consumer asks: the
    sketch is a view of the KSS store, as a freshly built one is."""
    size_taxids = parse_i64(_section(sections, "sketch/taxids"))
    sizes = parse_i64(_section(sections, "sketch/sizes"))
    if len(size_taxids) != len(sizes):
        raise SerializationError("sketch size columns disagree in length")
    sketch_sizes = {
        int(t): int(s) for t, s in zip(size_taxids.tolist(), sizes.tolist())
    }
    return SketchDatabase.from_store(kss.store(), sketch_sizes)


@dataclass
class IndexBuilder:
    """Offline index construction (§4.2): references in, MegisIndex out.

    The one offline build — ``repro index build`` and a plain ``repro
    analyze REFERENCES READS`` both run it (``smaller_ks`` of ``None``
    resolves to ``(k - 8, k - 12)``).  It is one pass at every k: one
    k-mer extraction over all genomes and one sort give the distinct
    ``(k-mer, genome)`` pair columns
    (:func:`~repro.databases.sorted_db.extract_pairs`), and the database,
    the sketch and the KSS store are all column arithmetic over those
    pairs — no row objects.  Past 32 bases the key columns are ``object``
    (:mod:`repro.sequences.keys`), so the same arithmetic runs per key;
    the per-k-mer dict builders the tests hold these bytes to live in
    ``tests/oracles``.
    """

    k: int = 20
    smaller_ks: Optional[Tuple[int, ...]] = None
    sketch_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if any(not 0 < level < self.k for level in self.resolved_smaller_ks()):
            raise ValueError("smaller_ks must lie strictly between 0 and k_max")
        _check_fraction(self.sketch_fraction)

    def resolved_smaller_ks(self) -> Tuple[int, ...]:
        if self.smaller_ks is not None:
            return tuple(self.smaller_ks)
        return (self.k - 8, self.k - 12)

    def build(self, references: ReferenceCollection) -> MegisIndex:
        pairs = extract_pairs(references, self.k)
        database = SortedKmerDatabase.from_pairs(pairs)
        sketch = SketchDatabase.from_pairs(
            pairs, self.resolved_smaller_ks(), self.sketch_fraction, self.seed
        )
        # The KSS is part of the offline build, not of the first save.
        return MegisIndex(database, sketch, references, kss=KssTables(sketch.kss_store))

    def build_from_fasta(self, fasta_text: str) -> MegisIndex:
        from repro.sequences.io import references_from_fasta

        return self.build(references_from_fasta(fasta_text))
