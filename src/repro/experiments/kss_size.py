"""§4.3.2: KSS size versus the ternary search tree and flat tables.

Two views:

- *measured*: the actual byte sizes of the three structures built over a
  synthetic reference collection (flat > KSS always holds; the
  tree-vs-KSS ordering is scale-dependent because prefix sharing grows
  with database density);
- *paper scale*: the sizes the paper reports for the NCBI-derived
  database — 107 GB flat, 14 GB KSS (7.5x smaller), 6.9 GB tree (KSS is
  2.1x larger).
"""

from __future__ import annotations

from repro.databases.kss import KssTables
from repro.databases.sketch import SketchDatabase, TernarySearchTree
from repro.experiments.runner import ExperimentResult
from repro.workloads.cami import CamiDiversity, make_cami_sample
from repro.workloads.datasets import CMASH_TREE_BYTES, FLAT_SKETCH_BYTES, KSS_TABLE_BYTES


def run() -> ExperimentResult:
    sample = make_cami_sample(CamiDiversity.MEDIUM, n_reads=64, seed=5)
    sketch = SketchDatabase.build(
        sample.references, k_max=20, smaller_ks=(12, 8), sketch_fraction=0.3
    )
    kss = KssTables(sketch.kss_store)
    tree = TernarySearchTree(sketch)

    flat = sketch.flat_tables_bytes()
    kss_bytes = kss.size_bytes()
    tree_bytes = tree.size_bytes()

    result = ExperimentResult(
        experiment="kss_size",
        title="Sketch data-structure sizes: flat tables vs KSS vs ternary tree",
        columns=["scope", "flat_bytes", "kss_bytes", "tree_bytes",
                 "flat_over_kss", "kss_over_tree"],
        paper_reference="§4.3.2: 107 GB / 14 GB / 6.9 GB -> 7.5x and 2.1x",
        notes=(
            "At synthetic scale the tree's node overhead dominates (little "
            "prefix sharing), so kss_over_tree < 1; at paper scale the "
            "ordering is tree < KSS < flat."
        ),
    )
    result.add_row(
        scope="measured",
        flat_bytes=float(flat),
        kss_bytes=float(kss_bytes),
        tree_bytes=float(tree_bytes),
        flat_over_kss=flat / kss_bytes,
        kss_over_tree=kss_bytes / tree_bytes,
    )
    result.add_row(
        scope="paper",
        flat_bytes=float(FLAT_SKETCH_BYTES),
        kss_bytes=float(KSS_TABLE_BYTES),
        tree_bytes=float(CMASH_TREE_BYTES),
        flat_over_kss=FLAT_SKETCH_BYTES / KSS_TABLE_BYTES,
        kss_over_tree=KSS_TABLE_BYTES / CMASH_TREE_BYTES,
    )
    return result
