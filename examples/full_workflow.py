#!/usr/bin/env python
"""Full workflow: FASTQ in, quality filtering, offline index, report out.

Exercises the complete downstream-user path:

1. simulate a sample and serialize it to FASTA/FASTQ (what a sequencer +
   basecaller would hand you);
2. quality-filter the reads (Phred trimming, as real preprocessing does);
3. build the index offline (sorted db + sketches + KSS; a Kraken table
   beside it for the size comparison) and place the database's packed key
   column — the index file's ``db/kmers`` section — through MegIS FTL;
4. run MegIS with both Step-3 flavors (mapping and lightweight statistics);
5. render Kraken-style text and JSON reports.
"""

from repro.databases.kraken import KrakenDatabase
from repro.megis.ftl import MegisFtl
from repro.megis.index import IndexBuilder
from repro.megis.session import AnalysisSession, MegisConfig
from repro.reporting import json_report, text_report
from repro.sequences.io import format_fastq, parse_fastq
from repro.sequences.quality import QualityFilter
from repro.ssd.config import ssd_c
from repro.taxonomy.metrics import f1_score
from repro.taxonomy.tree import Taxonomy
from repro.workloads.cami import CamiDiversity, make_cami_sample


def main() -> None:
    print("1. sequencing a CAMI-L-like sample to FASTQ...")
    sample = make_cami_sample(CamiDiversity.LOW, n_reads=500, seed=31)
    fastq_text = format_fastq(sample.reads)
    print(f"   {sample.n_reads} reads, {len(fastq_text)} bytes of FASTQ")

    print("2. quality filtering...")
    records = parse_fastq(fastq_text)
    reads = QualityFilter(min_length=30).apply(records)
    print(f"   {len(reads)}/{len(records)} reads survive")

    print("3. building the index offline...")
    index = IndexBuilder(k=20, smaller_ks=(12, 8)).build(sample.references)
    taxonomy = Taxonomy.from_reference_collection(sample.references)
    kraken = KrakenDatabase.build(sample.references, taxonomy, k=index.k + 1)
    db_bytes = index.database.size_bytes()
    print(f"   db/kmers {db_bytes / 1e3:.0f} kB of a "
          f"{len(index.to_bytes()) / 1e3:.0f} kB index file | "
          f"KSS {index.kss.size_bytes() / 1e3:.0f} kB "
          f"(flat sketch would be {index.sketch.flat_tables_bytes() / 1e3:.0f} kB) | "
          f"Kraken table {kraken.size_bytes() / 1e3:.0f} kB")
    layout = MegisFtl(ssd_c().geometry).place_database("kmer_db", db_bytes)
    print(f"   placed on flash: {layout.n_pages} pages across "
          f"{len(layout.block_sequences)} channels")

    print("4. running MegIS (mapping + statistical Step 3)...")
    mapping = AnalysisSession(
        index, MegisConfig(abundance_method="mapping")
    ).analyze(reads)
    statistical = AnalysisSession(
        index, MegisConfig(abundance_method="statistical")
    ).analyze(reads)
    truth = sample.present_species()
    print(f"   mapping:     F1 {f1_score(mapping.present(), truth):.3f}, "
          f"{len(mapping.profile)} species")
    print(f"   statistical: F1 {f1_score(statistical.present(0.02), truth):.3f}, "
          f"{len(statistical.profile)} species")

    print("5. reports:")
    print(text_report(mapping.profile, taxonomy, min_fraction=0.01))
    print("\nJSON (truncated):")
    print("\n".join(json_report(mapping.profile, taxonomy).splitlines()[:12]))


if __name__ == "__main__":
    main()
