"""Energy model (paper §6.5).

Energy is the sum over phases of the power drawn by each component during
that phase.  Components: host CPU (active/idle), host DRAM (scales with
capacity), the SSD (read-active/idle), the PIM device (Sieve), and MegIS's
in-storage accelerators (Table 2: milliwatts — negligible, which is the
point).  The same model also reports external-interface data movement, the
quantity MegIS reduces by 30-70x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.perf.specs import SystemSpec
from repro.perf.timing import TimeBreakdown
from repro.ssd.config import GB
from repro.workloads.datasets import DatasetSpec

#: EPYC 7742-class node.
CPU_ACTIVE_W = 225.0
CPU_IDLE_W = 90.0

#: DRAM power per GB (DDR4 LRDIMM refresh + activity average).
DRAM_W_PER_GB = 0.06
DRAM_ACTIVE_EXTRA_W = 25.0

#: SSD power (Samsung 3D NAND class).
SSD_READ_W = {"SSD-C": 4.5, "SSD-P": 15.0}
SSD_IDLE_W = {"SSD-C": 1.2, "SSD-P": 5.0}

#: Sieve's in-situ DRAM accelerator while matching.
PIM_ACTIVE_W = 40.0

#: MegIS accelerators (Table 2, 8 channels); per-channel scaling applied.
ACCEL_W_PER_CHANNEL = 0.954e-3
ACCEL_CONTROL_W = 0.026e-3


@dataclass
class EnergyReport:
    config: str
    joules: float
    component_joules: Dict[str, float] = field(default_factory=dict)


class EnergyModel:
    """Charges component powers against a :class:`TimeBreakdown`."""

    def __init__(self, system: SystemSpec):
        self.system = system

    def _ssd_key(self) -> str:
        return "SSD-P" if self.system.ssd.name.startswith("SSD-P") else "SSD-C"

    def evaluate(self, breakdown: TimeBreakdown) -> EnergyReport:
        components: Dict[str, float] = {"cpu": 0.0, "dram": 0.0, "ssd": 0.0,
                                        "pim": 0.0, "accel": 0.0}
        dram_gb = self.system.host.dram_bytes / GB
        ssd_key = self._ssd_key()
        n_channels = self.system.ssd.geometry.channels
        accel_w = ACCEL_W_PER_CHANNEL * n_channels + ACCEL_CONTROL_W
        for phase in breakdown.phases:
            t = phase.seconds
            cpu_active = "host_compute" in phase.tags
            ssd_active = bool(
                phase.tags & {"host_io", "isp", "transfer"}
            )
            components["cpu"] += t * (CPU_ACTIVE_W if cpu_active else CPU_IDLE_W)
            dram_w = DRAM_W_PER_GB * dram_gb + (
                DRAM_ACTIVE_EXTRA_W if cpu_active else 0.0
            )
            components["dram"] += t * dram_w
            ssd_w = (
                SSD_READ_W[ssd_key] if ssd_active else SSD_IDLE_W[ssd_key]
            ) * self.system.n_ssds
            components["ssd"] += t * ssd_w
            if "pim" in phase.tags:
                components["pim"] += t * PIM_ACTIVE_W
            if "isp" in phase.tags:
                components["accel"] += t * accel_w * self.system.n_ssds
        return EnergyReport(
            config=breakdown.config,
            joules=sum(components.values()),
            component_joules=components,
        )


def external_data_movement_bytes(config: str, dataset: DatasetSpec,
                                 abundance: bool = False) -> float:
    """Bytes crossing the host-SSD interface for one analysis (§6.5).

    MegIS keeps the terabyte-scale database inside the SSD; only the reads,
    the selected query k-mers, and the results cross the interface.
    """
    reads = dataset.read_bytes
    results = 0.5 * GB  # taxIDs / report output, common to all tools
    key = config.lower()
    # MegIS consumes the read set in its 2-bit encoded form (§4.2): four
    # bases per byte instead of one ASCII byte per base.
    megis_reads = reads / 4.0
    if key.startswith("p-opt") or key.startswith("sieve"):
        total = reads + dataset.kraken_db_bytes + results
    elif key.startswith("a-opt"):
        total = (
            reads
            + 2 * dataset.extracted_kmer_bytes  # KMC external sort round trip
            + dataset.sorted_db_bytes
            + (dataset.kss_table_bytes if "kss" in key else dataset.cmash_tree_bytes)
            + results
        )
    elif key.startswith("ext-ms"):
        total = megis_reads + dataset.selected_kmer_bytes \
            + dataset.sorted_db_bytes + dataset.kss_table_bytes + results
    elif key.startswith("ms"):
        total = megis_reads + dataset.selected_kmer_bytes + results
    else:
        raise ValueError(f"unknown config {config!r}")
    if abundance:
        from repro.perf.calibration import DEFAULT_CALIBRATION

        total += DEFAULT_CALIBRATION.candidate_index_bytes
    return total
