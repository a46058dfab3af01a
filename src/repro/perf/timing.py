"""Analytic timing model for every evaluated configuration.

Each configuration produces a :class:`TimeBreakdown`: an ordered list of
phases with durations and resource tags.  Tags drive the energy model:

- ``host_compute`` — host CPU active;
- ``host_io`` — transfer over the host-SSD interface, CPU mostly idle;
- ``transfer`` — query/result shipping between host and SSD;
- ``isp`` — in-storage processing (flash streaming + accelerators);
- ``pim`` — processing-in-memory activity (Sieve).

Pipelined spans are modelled as ``max`` of their legs (the paper's Fig 11
timelines); serial spans as sums.  All byte counts come from
:class:`repro.workloads.datasets.DatasetSpec` and all bandwidths from the
:class:`repro.perf.specs.SystemSpec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.perf.calibration import Calibration, DEFAULT_CALIBRATION
from repro.perf.specs import SystemSpec
from repro.ssd.config import GB
from repro.workloads.datasets import DatasetSpec

#: Host DRAM reserved for the OS, code, and working buffers.
DRAM_RESERVE_BYTES = 4 * GB

#: Kraken2's default k-mer length (probe count per read derives from it).
KRAKEN_K = 35

HOST_COMPUTE = frozenset({"host_compute"})
HOST_IO = frozenset({"host_io"})
TRANSFER = frozenset({"transfer"})
ISP = frozenset({"isp"})


@dataclass(frozen=True)
class Phase:
    name: str
    seconds: float
    tags: frozenset

    def __post_init__(self):
        if self.seconds < 0:
            raise ValueError(f"phase {self.name!r} has negative duration")


@dataclass
class TimeBreakdown:
    config: str
    system: str
    phases: Tuple[Phase, ...]

    @property
    def total_seconds(self) -> float:
        return sum(p.seconds for p in self.phases)

    def tagged_seconds(self, tag: str) -> float:
        return sum(p.seconds for p in self.phases if tag in p.tags)

    def phase_seconds(self, name: str) -> float:
        return sum(p.seconds for p in self.phases if p.name == name)

    def speedup_over(self, other: "TimeBreakdown") -> float:
        return other.total_seconds / self.total_seconds

    def as_dict(self) -> Dict[str, float]:
        return {p.name: p.seconds for p in self.phases}


class TimingModel:
    """Timing for one (system, dataset) pair across all configurations."""

    def __init__(
        self,
        system: SystemSpec,
        dataset: DatasetSpec,
        calibration: Calibration = DEFAULT_CALIBRATION,
    ):
        self.system = system
        self.dataset = dataset
        self.cal = calibration

    # -- shared quantities -------------------------------------------------

    @property
    def ext_bw(self) -> float:
        return self.system.external_bw

    @property
    def int_bw(self) -> float:
        return self.system.internal_bw

    @property
    def dram_avail(self) -> float:
        return max(2 * GB, self.system.host.dram_bytes - DRAM_RESERVE_BYTES)

    def _reads_io(self) -> Phase:
        return Phase("load_reads", self.dataset.read_bytes / self.ext_bw, HOST_IO)

    def _extract_seconds(self) -> float:
        return self.dataset.read_bytes / self.cal.extract_bw

    def _sort_seconds(self, accelerated: bool = False) -> float:
        bw = self.cal.sort_accel_bw if accelerated else self.cal.sort_bw
        return self.dataset.extracted_kmer_bytes / bw

    def _kraken_compute_seconds(self) -> float:
        from repro.workloads.datasets import KRAKEN_DB_BYTES

        probes = self.dataset.n_reads * max(1, self.dataset.read_length - KRAKEN_K + 1)
        base = probes / self.cal.kraken_lookup_rate + self.cal.kraken_class_seconds
        locality = (
            self.dataset.kraken_db_bytes / KRAKEN_DB_BYTES
        ) ** self.cal.kraken_db_locality_exponent
        return (
            base
            * locality
            * self.cal.kraken_diversity_factor(self.dataset.lookup_factor)
        )

    def _cmash_seconds(self) -> float:
        return self.cal.cmash_seconds * self.dataset.lookup_factor

    def _isp_stream_seconds(self, compute_bw: float) -> float:
        """Step-2 streaming: database + KSS tables through the ISP units."""
        nbytes = self.dataset.sorted_db_bytes + self.dataset.kss_table_bytes
        return max(nbytes / self.int_bw, nbytes / compute_bw)

    def _finish(self, config: str, phases: Iterable[Phase]) -> TimeBreakdown:
        kept = tuple(p for p in phases if p.seconds > 0)
        return TimeBreakdown(config=config, system=self.system.name, phases=kept)

    # -- P-Opt: Kraken2 (R-Qry) ----------------------------------------------

    def popt(self, no_io: bool = False, abundance: bool = False) -> TimeBreakdown:
        """Kraken2(+Bracken): load database, probe hash table per k-mer.

        When the database exceeds host DRAM, the database is processed in
        chunks [57]: every chunk re-scans the whole query set and pays a
        cache-hostile per-chunk overhead.
        """
        phases: List[Phase] = []
        db = self.dataset.kraken_db_bytes
        n_chunks = max(1, math.ceil(db / self.dram_avail))
        if not no_io:
            phases.append(self._reads_io())
            phases.append(Phase("load_database", db / self.ext_bw, HOST_IO))
            if n_chunks > 1:
                rescan = (n_chunks - 1) * self.dataset.read_bytes / self.ext_bw
                phases.append(Phase("rescan_queries", rescan, HOST_IO))
        compute = self._kraken_compute_seconds()
        if n_chunks > 1:
            compute *= n_chunks * (1.0 + self.cal.chunk_compute_overhead * n_chunks)
        phases.append(Phase("kmer_match_classify", compute, HOST_COMPUTE))
        if abundance:
            phases.append(Phase("bracken", self.cal.bracken_seconds, HOST_COMPUTE))
        name = "P-Opt" + ("-ab" if abundance else "")
        return self._finish(name, phases)

    # -- Sieve: PIM-accelerated Kraken2 ---------------------------------------

    def sieve(self) -> TimeBreakdown:
        """End-to-end Kraken2 with k-mer matching on a PIM accelerator."""
        phases: List[Phase] = [self._reads_io()]
        db = self.dataset.kraken_db_bytes
        phases.append(Phase("load_database", db / self.ext_bw, HOST_IO))
        base = self._kraken_compute_seconds()
        matched = base * self.cal.sieve_match_fraction / self.cal.sieve_match_speedup
        rest = base * (1.0 - self.cal.sieve_match_fraction)
        phases.append(Phase("pim_kmer_match", matched, frozenset({"pim"})))
        phases.append(Phase("classify", rest, HOST_COMPUTE))
        return self._finish("Sieve", phases)

    # -- A-Opt: Metalign (S-Qry) ------------------------------------------------

    def aopt(
        self,
        no_io: bool = False,
        abundance: bool = False,
        use_kss: bool = False,
    ) -> TimeBreakdown:
        """KMC + sorted intersection + CMash (or software KSS) + mapping.

        KMC performs an external sort: the extracted k-mers make a round
        trip to the SSD.  The database intersection streams the sorted
        database at external bandwidth, overlapped with compute.
        """
        phases: List[Phase] = []
        if not no_io:
            phases.append(self._reads_io())
        extract = self._extract_seconds() * self.cal.kmc_extract_penalty
        phases.append(Phase("kmc_extract", extract, HOST_COMPUTE))
        if not no_io:
            spill = 2 * self.dataset.extracted_kmer_bytes
            if self.dataset.extracted_kmer_bytes > self.dram_avail:
                spill += 2 * (self.dataset.extracted_kmer_bytes - self.dram_avail)
            phases.append(Phase("kmc_external_sort_io", spill / self.ext_bw, HOST_IO))
        phases.append(Phase("sort_exclude", self._sort_seconds(), HOST_COMPUTE))

        db = self.dataset.sorted_db_bytes
        stream_io = 0.0 if no_io else db / self.ext_bw
        stream_compute = db / self.cal.host_stream_bw
        tags = HOST_IO if stream_io >= stream_compute else HOST_COMPUTE
        phases.append(Phase("intersection", max(stream_io, stream_compute), tags))

        if use_kss:
            kss_io = 0.0 if no_io else self.dataset.kss_table_bytes / self.ext_bw
            kss_compute = self.dataset.kss_table_bytes / self.cal.kss_software_bw
            tags = HOST_IO if kss_io >= kss_compute else HOST_COMPUTE
            phases.append(Phase("taxid_retrieval_kss", max(kss_io, kss_compute), tags))
        else:
            if not no_io:
                phases.append(
                    Phase(
                        "load_sketch_tree",
                        self.dataset.cmash_tree_bytes / self.ext_bw,
                        HOST_IO,
                    )
                )
            phases.append(
                Phase("taxid_retrieval_cmash", self._cmash_seconds(), HOST_COMPUTE)
            )
        if abundance:
            phases.extend(self._minimap_mapping_phases(no_io=no_io))
        name = "A-Opt+KSS" if use_kss else "A-Opt"
        return self._finish(name + ("-ab" if abundance else ""), phases)

    def _minimap_mapping_phases(self, no_io: bool = False) -> List[Phase]:
        """Minimap2-style unified index build + GenCache-class mapping."""
        phases = []
        idx = self.cal.candidate_index_bytes
        if not no_io:
            phases.append(Phase("load_candidate_indexes", idx / self.ext_bw, HOST_IO))
        phases.append(
            Phase("unified_index_build", idx / self.cal.minimap_index_bw, HOST_COMPUTE)
        )
        phases.append(self._mapping_phase())
        return phases

    def _mapping_phase(self) -> Phase:
        return Phase(
            "read_mapping",
            self.dataset.n_reads / self.cal.mapper_reads_per_second,
            HOST_COMPUTE,
        )

    # -- MegIS variants ------------------------------------------------------------

    def megis(self, variant: str = "ms", abundance: bool = False) -> TimeBreakdown:
        """MegIS and its ablations.

        ``variant``:

        - ``"ms"`` — full design: bucketed Step 1 overlaps Step 2 (Fig 11);
        - ``"ms-nol"`` — no overlap: host and SSD steps run serially;
        - ``"ms-cc"`` — ISP tasks on the SSD's embedded cores instead of
          the accelerators;
        - ``"ext-ms"`` — the same accelerators placed outside the SSD, so
          the database streams over the external interface.
        """
        variant = variant.lower()
        if variant not in {"ms", "ms-nol", "ms-cc", "ext-ms"}:
            raise ValueError(f"unknown MegIS variant {variant!r}")
        phases: List[Phase] = [self._reads_io()]
        phases.append(Phase("kmer_extraction", self._extract_seconds(), HOST_COMPUTE))
        phases.extend(self._bucket_spill_phases())

        sort = self._sort_seconds()
        transfer = self.dataset.selected_kmer_bytes / self.ext_bw
        if variant == "ext-ms":
            nbytes = self.dataset.sorted_db_bytes + self.dataset.kss_table_bytes
            step2 = max(nbytes / self.ext_bw, nbytes / self.cal.accel_stream_bw)
            step2_tags = HOST_IO
        elif variant == "ms-cc":
            cores_bw = self.system.ssd.n_cores * self.cal.core_stream_bw_per_core
            step2 = self._isp_stream_seconds(cores_bw) * 1.0
            step2_tags = ISP
        else:
            step2 = self._isp_stream_seconds(self.cal.accel_stream_bw)
            step2_tags = ISP

        if variant == "ms-nol":
            phases.append(Phase("sort_exclude", sort, HOST_COMPUTE))
            phases.append(Phase("transfer_queries", transfer, TRANSFER))
            phases.append(Phase("isp_intersect_taxid", step2, step2_tags))
        else:
            # Overlapped span, split for energy accounting: the host CPU is
            # only active while it still has buckets to sort; afterwards it
            # idles while the ISP stream drains.
            overlapped = max(sort, transfer, step2)
            active = min(sort, overlapped)
            phases.append(
                Phase(
                    "pipelined_sort_with_isp",
                    active,
                    frozenset({"host_compute"}) | step2_tags,
                )
            )
            if overlapped > active:
                phases.append(Phase("isp_drain", overlapped - active, step2_tags))
        if abundance:
            phases.extend(self._megis_mapping_phases())
        name = {"ms": "MS", "ms-nol": "MS-NOL", "ms-cc": "MS-CC", "ext-ms": "Ext-MS"}[
            variant
        ]
        return self._finish(name + ("-ab" if abundance else ""), phases)

    def _bucket_spill_phases(self) -> List[Phase]:
        """Buckets that do not fit host DRAM go to the SSD once (§4.2.1).

        The spill is sequential (dedicated write buffers) and roughly half
        of it hides under extraction, so half the round trip is charged.
        """
        excess = self.dataset.extracted_kmer_bytes - self.dram_avail
        if excess <= 0:
            return []
        return [Phase("bucket_spill_io", excess / self.ext_bw, HOST_IO)]

    def _megis_mapping_phases(self) -> List[Phase]:
        """Step 3: in-SSD unified-index merge, shipped to the host mapper.

        The merge streams per-species indexes at internal bandwidth; the
        index transfer to the host overlaps with the merge, so the span is
        the max of the two.
        """
        idx = self.cal.candidate_index_bytes
        merge = idx / self.int_bw
        transfer = idx / self.ext_bw
        return [
            Phase("isp_index_merge", max(merge, transfer), ISP | TRANSFER),
            self._mapping_phase(),
        ]

    def megis_nidx(self) -> TimeBreakdown:
        """MS-NIdx: MegIS without Step 3 (Minimap2 builds the index)."""
        base = self.megis("ms", abundance=False)
        phases = list(base.phases) + self._minimap_mapping_phases()
        return TimeBreakdown("MS-NIdx-ab", self.system.name, tuple(phases))

    # -- multi-sample mode (§4.7) ------------------------------------------------------

    def megis_multi(self, n_samples: int, software: bool = False) -> TimeBreakdown:
        """Multi-sample MegIS: buffer several samples, stream the db once.

        Per-sample host work (read loading, extraction, accelerated
        sorting, query transfer) pipelines across samples, so the host leg
        is ``n x max(per-sample stages)``; the SSD leg streams the database
        once plus per-sample KSS passes.  ``software`` models Opt-M /
        MS-SW: the same batching but intersection on the host, database
        streamed over the external interface once.
        """
        if n_samples <= 0:
            raise ValueError(f"n_samples must be positive, got {n_samples}")
        # Steady-state marginal cost of one more buffered sample: the
        # slowest pipeline stage (everything else overlaps; sorting uses a
        # TopSort-class accelerator in this mode, §4.7/Fig 21).
        per_sample_host = max(
            self.dataset.read_bytes / self.ext_bw,
            self._extract_seconds(),
            self._sort_seconds(accelerated=True),
            self.dataset.selected_kmer_bytes / self.ext_bw,
        )
        if software:
            kss_pass = max(
                self.dataset.kss_table_bytes / self.ext_bw,
                self.dataset.kss_table_bytes / self.cal.kss_software_bw,
            )
            first = (
                self.dataset.read_bytes / self.ext_bw
                + self._extract_seconds() * self.cal.kmc_extract_penalty
                + 2 * self.dataset.extracted_kmer_bytes / self.ext_bw
                + self._sort_seconds(accelerated=True)
                + self.dataset.sorted_db_bytes / self.ext_bw
                + kss_pass
            )
            name = f"MS-SW-x{n_samples}"
            tags = HOST_IO | HOST_COMPUTE
        else:
            kss_pass = self.dataset.kss_table_bytes / self.int_bw
            first = self.megis("ms").total_seconds
            name = f"MS-x{n_samples}"
            tags = ISP | HOST_COMPUTE
        marginal = max(per_sample_host, kss_pass)
        total = first + (n_samples - 1) * marginal
        return TimeBreakdown(
            name,
            self.system.name,
            (Phase("pipelined_multi_sample", total, tags),),
        )

    def baseline_multi(self, n_samples: int, tool: str = "popt",
                       sort_accel: bool = True) -> TimeBreakdown:
        """Baselines re-run per sample (the database is re-streamed each time)."""
        if tool == "popt":
            single = self.popt()
        elif tool == "aopt":
            single = self.aopt()
            if sort_accel:
                phases = [
                    p if p.name != "sort_exclude"
                    else Phase(p.name, self._sort_seconds(accelerated=True), p.tags)
                    for p in single.phases
                ]
                single = TimeBreakdown(single.config, single.system, tuple(phases))
        else:
            raise ValueError(f"unknown baseline {tool!r}")
        scaled = tuple(
            Phase(p.name, p.seconds * n_samples, p.tags) for p in single.phases
        )
        return TimeBreakdown(f"{single.config}-x{n_samples}", self.system.name, scaled)
