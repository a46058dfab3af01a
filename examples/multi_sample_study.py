#!/usr/bin/env python
"""Multi-sample study: many samples against one database (paper §4.7, §6.3).

Scenario from the paper: globally tracing antimicrobial resistance or
associating gut microbiomes with health status requires analyzing many read
sets against the same reference database.  MegIS buffers the extracted
k-mers of several samples in host DRAM and streams the database from flash
*once* for the whole batch.

This example runs the functional pipeline over a small batch (verifying
per-sample results are unchanged) and then uses the timing model to
reproduce the Fig 21 scaling at paper scale.
"""

from repro.megis.index import IndexBuilder
from repro.megis.session import AnalysisSession
from repro.perf.specs import baseline_system
from repro.perf.timing import TimingModel
from repro.ssd.config import GB, ssd_c, ssd_p
from repro.taxonomy.metrics import f1_score
from repro.workloads.cami import CamiDiversity, make_cami_sample
from repro.workloads.datasets import cami_spec


def main() -> None:
    print("building 3 patient samples sharing one reference collection...")
    base = make_cami_sample(CamiDiversity.MEDIUM, n_reads=400, seed=100)
    # All samples must query the same database: build it on sample 0's
    # references and re-simulate the other samples' reads against the same
    # references with different abundance draws.
    references = base.references
    index = IndexBuilder(k=20).build(references)
    session = AnalysisSession(index)  # the numpy engine

    read_sets = [base.reads]
    truths = [base.present_species()]
    from repro.sequences.reads import ReadSimulator
    from repro.taxonomy.profiles import AbundanceProfile
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(77))
    for i in range(2):
        taxids = references.species_taxids
        chosen = sorted(rng.choice(taxids, size=8, replace=False).tolist())
        weights = rng.lognormal(0, 1.0, size=len(chosen))
        truth = AbundanceProfile.from_counts(dict(zip(chosen, weights)))
        reads = ReadSimulator(seed=200 + i).simulate(references, truth.fractions, 400)
        read_sets.append(reads)
        truths.append(truth.present())

    print("analyzing the batch (Step 2 batched: database streamed once)...")
    results = session.analyze_batch(read_sets)
    for i, (result, truth) in enumerate(zip(results, truths)):
        print(f"  sample {i}: F1 = {f1_score(result.present(), truth):.3f}, "
              f"{len(result.candidates)} candidates")
    timings = results[0].timings
    print(f"  batch: {timings.samples_batched} samples shared one database "
          f"stream of {timings.db_kmers_streamed} k-mers "
          f"({timings.backend} backend, "
          f"step 2 in {timings.intersect_ms + timings.retrieve_ms:.1f} ms)")

    print("\nFig 21 scaling at paper scale (100M reads/sample, 256 GB DRAM):")
    for ssd in (ssd_c(), ssd_p()):
        model = TimingModel(
            baseline_system(ssd).with_dram(256 * GB), cami_spec("CAMI-M")
        )
        for n in (1, 4, 8, 16):
            ms = model.megis_multi(n).total_seconds
            popt = model.baseline_multi(n, "popt").total_seconds
            aopt = model.baseline_multi(n, "aopt").total_seconds
            print(f"  {ssd.name} n={n:2d}: MegIS {ms / 3600:5.2f} h "
                  f"({popt / ms:5.1f}x vs P-Opt, {aopt / ms:5.1f}x vs A-Opt)")


if __name__ == "__main__":
    main()
