"""Hypothesis strategies shared by the property-based tests.

Re-exports the commonly used names:
    from tests.strategies import STANDARD_SETTINGS, index_worlds
"""

from tests.strategies.containers import lying_manifests, with_manifest
from tests.strategies.databases import (
    IndexWorld,
    ReferenceWorld,
    collection,
    index_worlds,
    key_probes,
    kmer_rows,
    owner_sets,
    reference_worlds,
    sorted_kmer_databases,
    synthetic_sketch,
)
from tests.strategies.mapping import (
    MappingWorld,
    StreamSample,
    mapping_worlds,
    read_lists,
    reference_view,
    stream_samples,
)
from tests.strategies.retrieval import candidate_sets, retrieval_results
from tests.strategies.settings import STANDARD_SETTINGS, property_settings
from tests.strategies.wire import FRAME_KS, damaged, json_values, retrieval_partials

__all__ = [
    "FRAME_KS",
    "STANDARD_SETTINGS",
    "IndexWorld",
    "MappingWorld",
    "ReferenceWorld",
    "StreamSample",
    "candidate_sets",
    "collection",
    "damaged",
    "index_worlds",
    "json_values",
    "key_probes",
    "lying_manifests",
    "kmer_rows",
    "mapping_worlds",
    "owner_sets",
    "property_settings",
    "read_lists",
    "reference_view",
    "reference_worlds",
    "retrieval_partials",
    "retrieval_results",
    "sorted_kmer_databases",
    "stream_samples",
    "synthetic_sketch",
    "with_manifest",
]
