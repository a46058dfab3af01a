"""Names the ledger's tools share (no ``repro`` import: ``compare.py``
reads result files on hosts that cannot run the program)."""

#: Per-layer metrics that are counts of the inputs or of work done on one
#: thread: for a fixed seed they repeat exactly, run after run.  The
#: scheduling-dependent counts (``cluster.scatters``, ``service.batches``,
#: batch sizes) are not in this list.
EXACT_COUNTS = (
    "index.file_mb",
    "host.reads",
    "host.query_kmers",
    "step2.db_kmers_streamed",
    "step2.db_stream_passes",
    "step2.intersecting_kmers",
    "candidates.count",
    "step3.map.mapped_ratio",
    "step3.unified_cache_hit_ratio",
    "step3.species_cache_hit_ratio",
    "wire.request_bytes",
    "wire.result_bytes",
    "wire.step2_request_bytes",
    "wire.step2_result_bytes",
    "cluster.node.db_stream_passes_per_batch",
)
