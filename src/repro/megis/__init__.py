"""MegIS: the paper's primary contribution.

An efficient pipeline between the host and the SSD (paper §4):

- Step 1 (:mod:`repro.megis.host`): the host extracts k-mers from the input
  reads, partitions them into lexicographic buckets, sorts, and applies
  frequency exclusion;
- Step 2 (:mod:`repro.megis.isp`): in-storage Intersect units stream the
  sorted database against the query buckets and retrieve taxIDs from the
  KSS tables with the Index Generator;
- Step 3 (:mod:`repro.megis.abundance`): the SSD merges per-species
  reference indexes into a unified index for read mapping;
- :mod:`repro.megis.ftl` — the specialized block-level FTL and data layout;
- :mod:`repro.megis.commands` — the three NVMe command extensions and
  the scope a caller wraps around one analysis to issue them;
- :mod:`repro.megis.accelerator` — Table 2 area/power accounting;
- :mod:`repro.megis.buffers` — §4.3.1 ISP buffer sizing and internal-DRAM
  bandwidth;
- :mod:`repro.megis.multissd` — the database sharded over several SSDs
  (§6.1);
- :mod:`repro.megis.index` — the persistable build-once index
  (:class:`MegisIndex` / :class:`IndexBuilder`);
- :mod:`repro.megis.session` — :class:`AnalysisSession`, the open-once /
  query-many serving loop, including the multi-sample mode (§4.7);
- :mod:`repro.megis.service` — :class:`AnalysisService`, the concurrent
  futures-based serving front-end over one shared session (its worker
  threads are the one concurrency axis on a host; Step 2's shards run one
  after another);
- :mod:`repro.megis.wire` — the versioned JSONL wire format and its
  newline framing, shared by every serving command;
- :mod:`repro.megis.gateway` — :class:`AnalysisGateway`, the one asyncio
  serving front end (TCP clients, or ``repro serve``'s stdin/stdout)
  with per-client rate limiting and graceful drain;
- :mod:`repro.megis.cluster` — one index served from N nodes behind a
  scatter-gather router.
"""

from repro.backends import PhaseTimings, StepTwoBackend, available_backends, get_backend
from repro.backends.python_backend import IntersectUnit, TaxIdRetriever
from repro.megis.accelerator import AcceleratorReport, accelerator_report
from repro.megis.commands import CommandProcessor, MegisInit, MegisStep, MegisWrite
from repro.megis.ftl import DatabaseLayout, MegisFtl
from repro.megis.gateway import AnalysisGateway, GatewayStats, TokenBucket
from repro.megis.host import Bucket, BucketSet, KmerBucketPartitioner
from repro.megis.index import IndexBuilder, MegisIndex
from repro.megis.isp import IspStepTwo
from repro.megis.multissd import DatabaseShard, MultiSsdStepTwo, shard_kss, split_database
from repro.megis.service import AnalysisService, ServiceStats
from repro.megis.session import (
    AnalysisSession,
    CacheStats,
    MegisConfig,
    MegisResult,
)

__all__ = [
    "AcceleratorReport",
    "AnalysisGateway",
    "AnalysisService",
    "AnalysisSession",
    "Bucket",
    "BucketSet",
    "CacheStats",
    "CommandProcessor",
    "DatabaseLayout",
    "DatabaseShard",
    "GatewayStats",
    "IndexBuilder",
    "IntersectUnit",
    "IspStepTwo",
    "KmerBucketPartitioner",
    "MegisConfig",
    "MegisIndex",
    "MegisFtl",
    "MegisInit",
    "MegisResult",
    "MegisStep",
    "MegisWrite",
    "MultiSsdStepTwo",
    "PhaseTimings",
    "ServiceStats",
    "StepTwoBackend",
    "TaxIdRetriever",
    "TokenBucket",
    "accelerator_report",
    "available_backends",
    "get_backend",
    "shard_kss",
    "split_database",
]
