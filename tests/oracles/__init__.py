"""Reference implementations the tests hold the product's fast paths to:
per-k-mer builds, dict lookups and per-level views over public state.
Nothing under ``src/repro`` imports this package.

Re-exports the commonly used names:
    from tests.oracles import database_from_rows, reference_kss
"""

from tests.oracles.databases import (
    build_rows,
    build_sub_table,
    build_tables,
    byte_order_matches_kmer_order,
    contains,
    database_from_rows,
    find_row,
    kss_store,
    owners_of,
    passes,
    reference_kss,
    signature_table_from_sets,
    sketch_lookup,
    sorted_kmax_entries,
    species_containment,
)
from tests.oracles.sequences import gc_content, is_sorted, kmer_spectrum, realized_profile
from tests.oracles.step3 import (
    build_unified_index,
    containment_score,
    hit_levels,
    merge_unified_index,
)

__all__ = [
    "build_rows",
    "build_sub_table",
    "build_tables",
    "build_unified_index",
    "byte_order_matches_kmer_order",
    "containment_score",
    "contains",
    "database_from_rows",
    "find_row",
    "gc_content",
    "hit_levels",
    "is_sorted",
    "kmer_spectrum",
    "kss_store",
    "merge_unified_index",
    "owners_of",
    "passes",
    "realized_profile",
    "reference_kss",
    "signature_table_from_sets",
    "sketch_lookup",
    "sorted_kmax_entries",
    "species_containment",
]
