"""Build-once / query-many analysis serving (the MegIS deployment model).

The paper's system is an SSD-resident database serving a *stream* of
samples: the databases are built (or loaded) once and every sample's
analysis reuses them.  :class:`AnalysisSession` is that serving loop — it
wraps a :class:`~repro.megis.index.MegisIndex`, runs Step 2 over its
shard handles (one SSD is the one-shard list), and exposes
:meth:`analyze` / :meth:`analyze_batch` (one sample is the batch of one).
Nothing is re-derived between calls: the database's key column, the KSS
CSR blocks, the shard handles, the bucket partitioner, and the Step-3
per-species indexes and merged unified indexes, which are cached so consecutive
samples with overlapping candidate sets skip the merge input construction
entirely (§4.4 batched across a stream, closing the batched-Step-3
ROADMAP item).  Those Step-3 indexes are columns — sorted key column, CSR
offsets, location column, genome ``starts`` — and the mapper votes for a
sample's reads a block at a time whenever the backend is columnar (the
default ``numpy``) and a mapper k-mer fits one key word
(:func:`~repro.sequences.keys.fits_word`); otherwise (the ``python``
reference backend named as the oracle, or a wider mapper k-mer) they are
the dict reference structures with the per-read vote.  The two are
equal by test and nothing else selects between them
(:mod:`repro.tools.mapping`).  A columnar
mapping analysis with ``mapper_k`` no wider than the database k keeps
Step 1's sorted ``(k-mer, read)`` stream
(:attr:`~repro.megis.host.BucketSet.stream`) and hands it to the vote,
which takes its seeds from it instead of extracting and sorting the reads
a second time; a statistical or presence-only analysis keeps none.

Orchestration per sample: Step 1 on the host (extract/bucket/sort/exclude)
-> Step 2 in the SSD (per-channel intersection + KSS taxID retrieval) ->
Step 3 (unified-index generation + read mapping, or the lightweight
statistical estimator).  The session drives no simulated SSD: the §4.6
command sequence around an analysis is
:meth:`~repro.megis.commands.CommandProcessor.analysis`, a scope the caller
wraps around :meth:`AnalysisSession.analyze` when it wants the device side
(FTL placement, metadata swap, §4.3.1 buffers).  Functionally the
session computes exactly what the accuracy-optimized software pipeline
(Metalign) computes — same intersecting k-mers, same sketch semantics,
same mapper — and :meth:`analyze_metalign` runs that baseline over the
same index (sharing the Step-3 caches), which is how the equivalence tests
pin the paper's identical-accuracy claim.

Multi-sample mode (§4.7) batches Step 2 across samples: each database
bucket slice is streamed from flash once and intersected against every
buffered sample's query bucket before advancing, so the dominant flash
traffic is amortized over the batch while each sample's result stays
identical to an independent analysis.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    Union,
)

from repro.backends import (
    DEFAULT_BACKEND,
    IntColumn,
    PhaseTimings,
    StepTwoBackend,
    StepTwoResult,
    available_backends,
    get_backend,
)
from repro.databases.sketch import TernarySearchTree
from repro.megis.abundance import IndexMergeStats, merge_species_indexes
from repro.megis.executors import parse_spec, shard_pool
from repro.megis.heap import keep_working_set
from repro.megis.host import BucketSet, KmerBucketPartitioner
from repro.megis.isp import IspStepTwo
from repro.megis.multissd import (
    DatabaseShard,
    MultiSsdStepTwo,
    step_two_over_shards,
    warm_shards,
    whole_range,
)
from repro.sequences.keys import fits_word
from repro.sequences.kmers import KmerStream
from repro.sequences.reads import Read, read_sequences
from repro.taxonomy.profiles import AbundanceProfile
from repro.tools.mapping import (
    ColumnarSpeciesIndex,
    ColumnarUnifiedIndex,
    ReadMapper,
    SpeciesIndex,
    UnifiedIndex,
)
from repro.tools.metalign import (
    MetalignResult,
    accumulate_hits,
    select_candidates,
)
from repro.tools.statistical import StatisticalAbundanceEstimator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (index -> session)
    from repro.databases.kss import KssTables
    from repro.megis.index import MegisIndex


#: The Step-2 stage of :meth:`AnalysisSession._analyze`: the batch's
#: bucket sets and timings in, one result per sample out.
StepTwoStage = Callable[[Sequence[BucketSet], PhaseTimings], List[StepTwoResult]]


@dataclass
class MegisConfig:
    """Tunables of the functional pipeline."""

    n_buckets: int = 16
    min_count: int = 1
    max_count: Optional[int] = None
    min_containment: float = 0.15
    mapper_k: int = 15
    host_dram_bytes: Optional[int] = None
    #: Step-3 flavor (§4.4): "mapping" (read mapping over the unified
    #: index, accurate) or "statistical" (EM over Step-2 hits, lightweight).
    abundance_method: str = "mapping"
    #: Step-2 execution backend: "numpy" columnar kernels, or a name such
    #: as "python", the register-level reference and bit-identity oracle.
    backend: str = DEFAULT_BACKEND
    #: Shard the sorted database across this many SSDs for Step 2 (§6.1);
    #: 1 keeps the single-SSD bucketed path.  Results are bit-identical
    #: either way — shards are disjoint lexicographic ranges.
    n_ssds: int = 1
    #: Executor spec: ``None``/"serial" runs the Step-2 shard tasks as a
    #: plain loop and "threads" / "threads:N" on the session's thread pool
    #: (:mod:`repro.megis.executors`).  A bare "threads" sizes itself to
    #: the CPUs this process may run on.
    #: Results are bit-identical across specs; only wall-clock
    #: overlap changes.
    executor: Optional[str] = None

    def __post_init__(self):
        if self.abundance_method not in {"mapping", "statistical"}:
            raise ValueError(
                f"abundance_method must be 'mapping' or 'statistical', "
                f"got {self.abundance_method!r}"
            )
        if self.backend not in available_backends():
            raise ValueError(
                f"backend must be one of {available_backends()}, "
                f"got {self.backend!r}"
            )
        if self.n_ssds < 1:
            raise ValueError(f"n_ssds must be >= 1, got {self.n_ssds}")
        if self.mapper_k < 1:
            raise ValueError(f"mapper_k must be >= 1, got {self.mapper_k}")
        # Not capped at 1: candidate scores add weighted levels.
        if not math.isfinite(self.min_containment):
            raise ValueError(
                f"min_containment must be finite, got {self.min_containment}"
            )
        if self.host_dram_bytes is not None and self.host_dram_bytes < 0:
            raise ValueError(
                f"host_dram_bytes must be >= 0, got {self.host_dram_bytes}"
            )
        if self.executor is not None:
            parse_spec(self.executor)  # raises ValueError on junk


class _BuiltOnRead:
    """A result field assigned a columnar value and read as a plain
    ``kind``: the value's ``convert`` method (``kind(value)`` where it
    has none) builds it on the first read and it is kept; a value
    already of ``kind`` passes through.  Its dataclass default is ``()``,
    read as an empty ``kind``."""

    def __init__(self, kind: type, convert: str) -> None:
        self._kind = kind
        self._convert = convert

    def __set_name__(self, owner: type, name: str) -> None:
        self._slot = "_" + name

    def __get__(self, result: object, owner: object = None) -> Any:
        if result is None:
            return ()
        value = result.__dict__[self._slot]
        if type(value) is not self._kind:
            convert = getattr(value, self._convert, None)
            value = convert() if convert is not None else self._kind(value)
            result.__dict__[self._slot] = value
        return value

    def __set__(self, result: object, value: Any) -> None:
        result.__dict__[self._slot] = value


@dataclass
class MegisResult:
    """Output and execution statistics of one analysis (``intersecting_kmers``
    keeps Step 2's column and becomes its int list on the first read;
    ``sketch_hits`` keeps the hit matrix and becomes its dict the same way)."""

    intersecting_kmers: List[int] = _BuiltOnRead(list, "tolist")  # type: ignore[assignment]
    sketch_hits: Dict[int, Dict[int, int]] = _BuiltOnRead(dict, "as_dict")  # type: ignore[assignment]
    candidates: Set[int] = field(default_factory=set)
    profile: AbundanceProfile = field(default_factory=AbundanceProfile)
    n_buckets: int = 0
    spilled_bytes: int = 0
    query_kmers: int = 0
    merge_stats: Optional[IndexMergeStats] = None
    #: Per-phase wall time and streaming counters.  In multi-sample mode the
    #: intersect/retrieve phases reflect the whole batch (the database is
    #: streamed once for all samples), with ``samples_batched`` recording
    #: how many samples shared the stream.
    timings: PhaseTimings = field(default_factory=PhaseTimings)

    def present(self, threshold: float = 0.0) -> Set[int]:
        return self.profile.present(threshold)


@dataclass
class CacheStats:
    """Hit/miss counters for one session cache (accurate under contention:
    every lookup increments exactly one side, under the session lock)."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


class AnalysisSession:
    """Open a :class:`~repro.megis.index.MegisIndex` once, serve many samples.

    All engine state — the Step-2 backend, shard handles (with their KSS
    range slices), the Step-1 partitioner, and the Step-3 index caches — is
    constructed in ``__init__`` and reused by
    every :meth:`analyze` / :meth:`analyze_batch` call.  ``backend``,
    ``n_ssds``, and ``executor`` are conveniences overriding the
    corresponding :class:`MegisConfig` fields; ``backend`` may also be a
    :class:`~repro.backends.StepTwoBackend` instance (e.g. a paced wrapper
    at its own bandwidth).  The backend is resolved once, here, and that
    one instance drives Step 1's partitioner, every Step 2 and the Step-3
    index type for the session's lifetime.

    ``__init__`` first calls :func:`~repro.megis.heap.keep_working_set`, so
    every tier built on a session runs under one glibc heap policy that
    keeps a sample's working set mapped between samples.

    Concurrency: the query path treats every engine structure as
    read-only, so multiple threads may call :meth:`analyze` /
    :meth:`analyze_batch` on one session simultaneously (that is what
    :class:`~repro.megis.service.AnalysisService` does).  The mutable
    pieces — lazy engine construction, the Step-3 per-species and merged
    unified-index caches, and their hit/miss counters
    (``cache_stats``) — are guarded by a session lock; index merging
    itself runs outside the lock so distinct candidate sets do not
    serialize.
    """

    #: Most-recently-used merged unified indexes kept alive; the
    #: per-species index cache is bounded by the reference set and
    #: never evicts.
    UNIFIED_CACHE_LIMIT = 32

    def __init__(
        self,
        index: "MegisIndex",
        config: Optional[MegisConfig] = None,
        *,
        backend: Union[str, StepTwoBackend, None] = None,
        n_ssds: Optional[int] = None,
        executor: Optional[str] = None,
        shard_range: Optional[Tuple[int, int]] = None,
    ):
        keep_working_set()
        config = config or MegisConfig()
        overrides = {}
        if isinstance(backend, str):
            overrides["backend"] = backend
        elif backend is not None and backend.name in available_backends():
            overrides["backend"] = backend.name
        if n_ssds is not None:
            overrides["n_ssds"] = n_ssds
        if executor is not None:
            overrides["executor"] = executor
        if overrides:
            config = replace(config, **overrides)
        self.index = index
        self.config = config
        #: The one Step-2 engine of this session: an instance passed in
        #: (which may be unregistered), else the config's name resolved.
        self._backend = (
            backend if isinstance(backend, StepTwoBackend)
            else get_backend(config.backend)
        )
        family, _ = parse_spec(config.executor or "serial")
        #: A "threads[:N]" spec names the session's one per-shard Step-2
        #: pool, built on the first Step 2 (and on the first after a
        #: :meth:`close`); any other spec runs the shards as a plain loop.
        self._threads_spec = config.executor if family == "threads" else None
        self._pool: Optional[ThreadPoolExecutor] = None
        #: Cluster-node mode: serve partial Step 2 over a contiguous
        #: subset ``[start, stop)`` of the index's ``n_ssds`` shards only
        #: (:meth:`step_two_partial`).  Such a session cannot run a full
        #: analysis — it holds no complete owner view.
        self.shard_range: Optional[Tuple[int, int]] = None
        if shard_range is not None:
            start, stop = int(shard_range[0]), int(shard_range[1])
            if not (0 <= start < stop <= config.n_ssds):
                raise ValueError(
                    f"shard_range {shard_range!r} must satisfy "
                    f"0 <= start < stop <= n_ssds ({config.n_ssds})"
                )
            self.shard_range = (start, stop)
        self.database = index.database
        self.sketch = index.sketch
        self.references = index.references
        #: Guards lazy engine construction, the Step-3 caches, and the
        #: cache counters; everything else on the query path is read-only.
        self._lock = threading.RLock()
        #: Step 2 under its engine names (:attr:`isp`, :attr:`multissd`),
        #: built on first access for callers that drive Step 2 alone; the
        #: analysis path runs the same kernel over the same shard handles
        #: (these views loop over them; only the session owns a pool).
        self._isp: Optional[IspStepTwo] = None
        self._multissd: Optional[MultiSsdStepTwo] = None
        self._partitioner = KmerBucketPartitioner(
            k=self.database.k,
            n_buckets=config.n_buckets,
            min_count=config.min_count,
            max_count=config.max_count,
            host_dram_bytes=config.host_dram_bytes,
            backend=self._backend,
        )
        #: Step-3 caches: per-species sorted indexes (reused whenever
        #: candidate sets overlap) and fully merged unified indexes (reused
        #: when a candidate set repeats exactly).  They hold columns when
        #: the backend is columnar and a mapper k-mer fits one key word
        #: (the vote packs a seed and its read into one), and the dict
        #: reference otherwise; nothing selects between the two but that.
        self._species_index_type: Union[
            Type[SpeciesIndex], Type[ColumnarSpeciesIndex]
        ] = (
            ColumnarSpeciesIndex
            if self._backend.columnar and fits_word(config.mapper_k)
            else SpeciesIndex
        )
        self._species_indexes: Dict[
            int, Union[SpeciesIndex, ColumnarSpeciesIndex]
        ] = {}
        self._unified_cache: Dict[
            frozenset,
            Tuple[Union[UnifiedIndex, ColumnarUnifiedIndex], IndexMergeStats],
        ] = {}
        #: Step-3 cache hit/miss counters ("species" and "unified").
        self.cache_stats: Dict[str, CacheStats] = {
            "species": CacheStats(), "unified": CacheStats(),
        }
        self._tree: Optional[TernarySearchTree] = None

    @property
    def kss(self) -> "KssTables":
        return self.index.kss

    @property
    def isp(self) -> IspStepTwo:
        """The single-SSD Step-2 engine: the kernel over the whole-range
        handle (built once, on first use)."""
        if self._isp is None:
            with self._lock:
                if self._isp is None:
                    self._isp = IspStepTwo(
                        self.database, self.kss, backend=self._backend,
                    )
        return self._isp

    @property
    def multissd(self) -> Optional[MultiSsdStepTwo]:
        """With n_ssds > 1, the sharded Step-2 fan-out (§6.1) over the
        index's pre-built shard handles — bit-identical results."""
        if self.config.n_ssds <= 1:
            return None
        if self._multissd is None:
            with self._lock:
                if self._multissd is None:
                    self._multissd = MultiSsdStepTwo(
                        kss=self.kss, backend=self._backend,
                        shards=self.index.shards(self.config.n_ssds),
                    )
        return self._multissd

    @property
    def backend_name(self) -> str:
        """The registry name of the session's one Step-2 engine."""
        return self._backend.name

    def warm(self) -> "AnalysisSession":
        """Pre-build every lazily-constructed engine structure.

        After ``warm()`` the :meth:`analyze` / :meth:`analyze_batch` path
        is pure reads over shared state: the shard handles exist with
        their KSS slices cut, the sketch's size columns are built and, for
        the reference backend, the row views it walks are materialized
        (the columnar backend reads the database's and the KSS's columns,
        which are what those objects are).  That is its one reason:
        :class:`~repro.megis.service.AnalysisService` calls this before
        starting its worker threads so no two service threads ever race
        to build the same cache.  (The ternary-tree sketch
        tables stay lazy — they back :meth:`analyze_metalign`, which the
        service does not serve, and materializing them would defeat the
        lazy-sketch open.  So do the shard handles' per-row KSS columns
        (:meth:`~repro.megis.multissd.DatabaseShard.row_levels`): the
        first Step 2 on a handle builds them, lock-free, so a router
        that only scatters never holds them.)
        """
        import numpy as np

        columnar = self._backend.columnar
        warm_shards(self.cluster_shards(), columnar)
        if self.shard_range is not None:
            # A cluster node serves :meth:`step_two_partial` and nothing
            # else: its shard subset is all it needs — no whole KSS, no
            # candidate-scoring or Step-3 state.
            return self

        # Candidate scoring consults the sorted sketch-size columns on
        # every sample; build them once, before any thread shares them.
        self.sketch.size_column(np.empty(0, dtype=np.int64))
        if not columnar:
            # The reference backend walks row objects and the per-level
            # covered-owner caches; an empty retrieval touches them all.
            self.kss.retrieve([])
        return self

    def close(self) -> None:
        """Shut down the session's shard thread pool, if it exists.

        Safe on any session, and not terminal: a threaded session builds a
        new pool on the next Step 2.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def __enter__(self) -> "AnalysisSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- analysis (single sample and §4.7 batch) ---------------------------------

    def analyze(self, reads: Sequence[Read], with_abundance: bool = True) -> MegisResult:
        """Run the three steps for one sample: the batch of one."""
        return self.analyze_batch([reads], with_abundance)[0]

    def analyze_batch(
        self, samples: Sequence[Sequence[Read]], with_abundance: bool = True
    ) -> List[MegisResult]:
        """Analyze several samples against the open index, batching Step 2.

        Functionally equivalent to analyzing each sample independently —
        identical candidates and profiles — but the sorted database is
        streamed from flash *once* for all buffered samples: every database
        interval is intersected against each sample's matching query bucket
        before the stream advances (§4.7).  The per-result timings record
        the shared stream (``db_kmers_streamed`` counts each database k-mer
        once per batch, ``samples_batched`` the batch width).  Step 3
        reuses the session's unified-index caches, so samples whose
        candidate sets overlap share the per-species index construction
        and identical candidate sets share the merge outright.
        """
        self._require_full("analyze_batch")
        if not samples:
            return []
        return self._analyze(samples, with_abundance, self._step_two_local)

    def _analyze(
        self,
        samples: Sequence[Sequence[Read]],
        with_abundance: bool,
        step_two: StepTwoStage,
    ) -> List[MegisResult]:
        """The one Step 1 -> Step 2 -> candidates -> Step 3 sequence.

        ``step_two`` is the Step-2 stage: given every sample's buffered
        bucket set and the batch's timings, it returns one
        ``(intersecting, retrieved)`` pair per sample — from the local
        shards (:meth:`_step_two_local`) or from a cluster scatter.
        """
        # Step 1 (host) per sample: extract, bucket, sort, exclude.  All
        # samples' buckets are buffered before the database stream starts.
        # A mapping Step 3 whose k-mers are prefixes of Step 1's keeps the
        # sorted (k-mer, read) stream to take its seeds from.
        keep_stream = (
            with_abundance
            and self.config.abundance_method == "mapping"
            and self._species_index_type is ColumnarSpeciesIndex
            and self.config.mapper_k <= self.database.k
        )
        bucket_sets: List[BucketSet] = []
        extract_ms: List[float] = []
        for reads in samples:
            start = time.perf_counter()
            bucket_sets.append(self._partitioner.partition(reads, keep_stream))
            extract_ms.append((time.perf_counter() - start) * 1e3)

        # Step 2 (ISP): intersection + KSS retrieval, one database stream
        # for the whole batch.
        batch_timings = PhaseTimings(
            backend=self.backend_name, samples_batched=len(samples)
        )
        step_two_results = step_two(bucket_sets, batch_timings)

        # One result per sample: its Step-1 statistics and the batch's
        # Step-2 timings; then candidates and Step 3 (mapping or
        # lightweight statistics).
        results = []
        for buckets, ms, reads, (intersecting, retrieved) in zip(
            bucket_sets, extract_ms, samples, step_two_results
        ):
            result = MegisResult(
                n_buckets=len(buckets),
                spilled_bytes=buckets.spilled_bytes,
                query_kmers=buckets.total_kmers(),
                timings=PhaseTimings(backend=batch_timings.backend, extract_ms=ms),
            )
            result.timings.merge(batch_timings)
            with result.timings.phase("candidates"):
                self._finish_step_two(result, intersecting, retrieved)
            if with_abundance:
                with result.timings.phase("abundance"):
                    self._estimate_abundance(
                        result, reads, retrieved, buckets.stream
                    )
            results.append(result)
        return results

    def _step_two_local(
        self, bucket_sets: Sequence[BucketSet], timings: PhaseTimings
    ) -> List[StepTwoResult]:
        """Every sample's buckets share one database stream per shard."""
        start = time.perf_counter()
        pool = None
        if self._threads_spec is not None:
            with self._lock:  # one pool between close() calls
                if self._pool is None:
                    self._pool = shard_pool(self._threads_spec)
                pool = self._pool
        results, shard_timings = step_two_over_shards(
            self._backend, self.cluster_shards(),
            [buckets.slices() for buckets in bucket_sets], pool=pool,
        )
        shard_timings.step2_wall_ms += (time.perf_counter() - start) * 1e3
        timings.merge(shard_timings)
        return results

    # -- partial Step 2 over a shard range (cluster-node mode) --------------------

    def _require_full(self, method: str) -> None:
        if self.shard_range is not None:
            raise ValueError(
                f"{method}() needs the full index; this session serves "
                f"shards [{self.shard_range[0]}, {self.shard_range[1]}) of "
                f"{self.config.n_ssds} only (use step_two_partial)"
            )

    def cluster_shards(self) -> List[DatabaseShard]:
        """The shard handles this session serves (all, or its range).

        Shard boundaries come from :meth:`MegisIndex.shards` over
        ``config.n_ssds``, so every participant opening the same index
        with the same shard count computes identical ranges — the
        agreement the cluster placement relies on.
        """
        with self._lock:  # the index builds a shard count's handles once
            shards = self.index.shards(self.config.n_ssds)
        if self.shard_range is None:
            return list(shards)
        start, stop = self.shard_range
        return list(shards[start:stop])

    def step_two_partial(
        self,
        queries: Sequence[IntColumn],
        timings: Optional[PhaseTimings] = None,
    ) -> List[StepTwoResult]:
        """Step 2 over this session's shard subset, one result per sample.

        ``queries`` are sorted query columns (one per sample — what
        :meth:`~repro.megis.host.BucketSet.merged_column` produces, or
        the k-mer columns a node decodes off the wire).
        :func:`~repro.megis.multissd.step_two_over_shards` runs each shard
        once for the whole request — one database stream however many
        samples it carries — and gathers the per-shard partials in
        ascending shard order.
        Because a cluster node owns a *contiguous* shard group, gathering
        the per-node results (in node order) reproduces the single-host
        sharded result bit-identically, which is the router's gather step.

        Returns ``[(intersecting_kmers, RetrievalResult), ...]`` — the
        intersecting k-mers are the retrieval result's ``queries``
        column restricted to this shard subset.
        """
        results, partial_timings = step_two_over_shards(
            self._backend, self.cluster_shards(),
            [whole_range(query, self.database.k) for query in queries],
        )
        if timings is not None:
            timings.merge(partial_timings)
        return results

    # -- Metalign baseline over the same index ----------------------------------

    @property
    def ternary_tree(self) -> TernarySearchTree:
        """The CMash lookup structure (built once per session, on demand)."""
        if self._tree is None:
            with self._lock:
                if self._tree is None:
                    self._tree = TernarySearchTree(self.sketch)
        return self._tree

    def find_candidates_metalign(self, sorted_query: Sequence[int]) -> MetalignResult:
        """Metalign Step 2: intersection + ternary-tree sketch lookups.

        The per-k-mer ternary-tree lookups (the pointer-chasing structure
        MegIS's KSS replaces) are interned into the same signature
        :class:`~repro.backends.retrieval.RetrievalResult` layout the
        Step-2 backends emit, so hit accumulation and containment scoring
        share the exact columnar kernels with :meth:`analyze` — the two
        pipelines call species identically by construction.
        """
        from repro.backends.retrieval import RetrievalResult

        result = MetalignResult()
        result.intersecting_kmers = self.database.intersect(sorted_query)
        tree = self.ternary_tree
        found = [tree.lookup(kmer) for kmer in result.intersecting_kmers]
        retrieved = RetrievalResult.from_sets(result.intersecting_kmers, {
            k: [levels.get(k, ()) for levels in found]
            for k in (self.sketch.k_max, *self.sketch.smaller_ks)
        })
        hits = accumulate_hits(retrieved)
        result.sketch_hits = hits.as_dict()
        result.candidates = select_candidates(
            self.sketch, hits, self.config.min_containment
        )
        return result

    def analyze_metalign(self, reads: Sequence[Read]) -> MetalignResult:
        """The full accuracy-optimized baseline (A-Opt) over the open index."""
        from repro.sequences.kmers import KmerCounter

        counter = KmerCounter(self.database.k, canonical=False)
        counter.add_sequences(read_sequences(reads))
        sorted_query = counter.selected(
            min_count=self.config.min_count, max_count=self.config.max_count
        )
        result = self.find_candidates_metalign(sorted_query.tolist())
        result.profile = self.map_abundance(reads, result.candidates)
        return result

    # -- Step 3 (shared, cached) -------------------------------------------------

    def unified_index(
        self, candidates: Sequence[int]
    ) -> Tuple[Union[UnifiedIndex, ColumnarUnifiedIndex], IndexMergeStats]:
        """The merged candidate index, cached across the sample stream.

        Per-species sorted indexes are built at most once per session, so
        overlapping candidate sets across consecutive samples reuse them;
        an exactly repeated candidate set returns the finished merge.  The
        merge itself is :func:`~repro.megis.abundance.merge_species_indexes`
        — the in-storage streaming data path — so the result is identical
        to an uncached merge of the same species indexes.

        A columnar-backend session whose mapper k-mer fits one key word
        builds and merges columns
        (:class:`~repro.tools.mapping.ColumnarUnifiedIndex`: sorted key
        column, CSR offsets, location column, genome ``starts``), over
        which :class:`~repro.tools.mapping.ReadMapper` votes for all reads
        of a sample at once; any other session runs
        the dict reference and its per-read vote.  Same entries, same
        :class:`~repro.megis.abundance.IndexMergeStats`, same profile
        either way.

        The merged-index cache is LRU-bounded: a long sample stream with
        many distinct candidate sets must not grow memory without bound
        (the per-species cache is bounded by the reference set and stays).

        Thread-safe: the cache lookup, LRU bookkeeping, and hit/miss
        counters run under the session lock; the merge itself runs outside
        it, so concurrent samples with *different* candidate sets build in
        parallel.  Two threads racing on the *same* novel key may both
        build (both counted as misses — the counters record cache
        effectiveness, not construction count); the first insertion wins
        and stays canonical.
        """
        if self.references is None:
            raise ValueError(
                "this index carries no reference sequences; mapping-based "
                "Step 3 needs an index saved with include_references=True"
            )
        key = frozenset(int(t) for t in candidates)
        with self._lock:
            cached = self._unified_cache.pop(key, None)
            if cached is not None:
                self.cache_stats["unified"].hits += 1
                self._unified_cache[key] = cached  # re-insert as most recent
                return cached
            self.cache_stats["unified"].misses += 1
        indexes = [self._species_index(taxid) for taxid in sorted(key)]
        built = merge_species_indexes(indexes)
        with self._lock:
            cached = self._unified_cache.pop(key, None)
            if cached is None:
                cached = built  # first build wins; a racing loser is dropped
            self._unified_cache[key] = cached
            if len(self._unified_cache) > self.UNIFIED_CACHE_LIMIT:
                self._unified_cache.pop(next(iter(self._unified_cache)))
        return cached

    def _species_index(
        self, taxid: int
    ) -> Union[SpeciesIndex, ColumnarSpeciesIndex]:
        with self._lock:
            index = self._species_indexes.get(taxid)
            if index is not None:
                self.cache_stats["species"].hits += 1
                return index
            self.cache_stats["species"].misses += 1
        built = self._species_index_type.build(
            taxid, self.references.sequence(taxid), self.config.mapper_k
        )
        with self._lock:
            return self._species_indexes.setdefault(taxid, built)

    def map_abundance(
        self, reads: Sequence[Read], candidates: Set[int]
    ) -> AbundanceProfile:
        """Mapping-based abundance over the (cached) unified candidate index."""
        if not candidates:
            return AbundanceProfile()
        unified, _ = self.unified_index(candidates)
        return ReadMapper(unified).estimate_abundance(reads)

    # -- helpers ------------------------------------------------------------------

    def _finish_step_two(self, result: MegisResult, intersecting, retrieved) -> None:
        """Fold retrieval columns into hit counts and call candidates.

        ``retrieved`` carries the signature columns
        (:class:`~repro.backends.retrieval.RetrievalResult`); accumulation
        counts hits per owner-set signature and containment is the
        vectorized batch score — no per-taxID Python
        loops on the numpy backend, identical results on the reference
        backend (the cross-backend tests enforce bit-equality).  A numpy
        backend's intersecting column is kept as it is; the public int
        list is built only if something reads it, and so is the
        ``sketch_hits`` dict of the kept hit matrix.
        """
        result.intersecting_kmers = intersecting
        hits = accumulate_hits(retrieved)
        result.sketch_hits = hits
        result.candidates = select_candidates(
            self.sketch, hits, self.config.min_containment
        )

    def _estimate_abundance(
        self, result: MegisResult, reads, retrieved, stream: Optional[KmerStream]
    ) -> None:
        if not result.candidates:
            return
        if self.config.abundance_method == "mapping":
            unified, merge_stats = self.unified_index(result.candidates)
            result.merge_stats = merge_stats
            result.profile = ReadMapper(unified).estimate_abundance(reads, stream)
        else:
            estimator = StatisticalAbundanceEstimator(self.sketch)
            result.profile, _ = estimator.estimate_from_retrieval(
                retrieved, result.candidates
            )
