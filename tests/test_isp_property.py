"""Property tests of the whole ISP data path on randomly generated worlds.

Rather than reusing the shared fixture, these tests regenerate small
reference collections with random shapes (genera counts, genome lengths,
divergences, sketch fractions) and assert the load-bearing equivalences on
each: in-storage intersection == software intersection on both Step-2
backends (each through its ``step_two``), streaming KSS retrieval == tree
lookups, and MegIS == Metalign end to end.  This guards
the invariants against structural edge cases (single species, tiny genomes,
dense/sparse sketches) that a fixed fixture would never hit.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.databases.kss import KssTables
from repro.databases.sketch import SketchDatabase, TernarySearchTree
from repro.databases.sorted_db import SortedKmerDatabase
from repro.megis.isp import IspStepTwo
from repro.sequences.generator import GenomeGenerator
from repro.sequences.reads import ReadSimulator
from tests.columns import pairs_as_ints, query_dicts, retrieve_with
from tests.oracles import sketch_lookup
from tests.strategies import property_settings

world_strategy = st.fixed_dictionaries(
    {
        "n_genera": st.integers(1, 3),
        "species_per_genus": st.integers(1, 3),
        "genome_length": st.integers(120, 600),
        "divergence": st.floats(0.0, 0.15),
        "sketch_fraction": st.sampled_from([0.1, 0.3, 0.7, 1.0]),
        "seed": st.integers(0, 10_000),
    }
)

K = 16
SMALLER = (10, 6)


def build_world(params):
    references = GenomeGenerator(
        n_genera=params["n_genera"],
        species_per_genus=params["species_per_genus"],
        genome_length=params["genome_length"],
        divergence=params["divergence"],
        seed=params["seed"],
    ).generate()
    database = SortedKmerDatabase.build(references, k=K)
    sketch = SketchDatabase.build(
        references, k_max=K, smaller_ks=SMALLER,
        sketch_fraction=params["sketch_fraction"], seed=params["seed"],
    )
    return references, database, sketch


@given(world_strategy, st.integers(1, 7))
@settings(property_settings(12), suppress_health_check=[HealthCheck.too_slow])
def test_isp_matches_reference_on_random_worlds(params, n_channels):
    references, database, sketch = build_world(params)
    kss = KssTables(sketch.kss_store)
    # Query: a slice of database k-mers plus guaranteed misses.
    query = sorted(set(database.kmers[::3] + [0, (1 << (2 * K)) - 1]))
    isp = IspStepTwo(database, kss, n_channels=n_channels, backend="python")
    intersecting, retrieved = isp.run(query)
    assert intersecting == database.intersect(query)
    columnar = IspStepTwo(database, kss, n_channels=n_channels, backend="numpy")
    assert pairs_as_ints([columnar.run(query)]) == pairs_as_ints([(intersecting, retrieved)])
    tree = TernarySearchTree(sketch)
    retrieved = query_dicts(retrieved)
    for kmer in intersecting:
        assert retrieved[kmer] == tree.lookup(kmer) == sketch_lookup(sketch, kmer)


@given(world_strategy)
@settings(property_settings(8), suppress_health_check=[HealthCheck.too_slow])
def test_kss_equals_tree_on_random_worlds(params):
    _, database, sketch = build_world(params)
    kss = KssTables(sketch.kss_store)
    tree = TernarySearchTree(sketch)
    queries = sorted(sketch.tables[K])[:60]
    retrieved = query_dicts(retrieve_with("python", kss, queries))
    assert query_dicts(retrieve_with("numpy", kss, queries)) == retrieved
    for q in queries:
        assert retrieved[q] == tree.lookup(q)


@given(world_strategy, st.integers(20, 80))
@settings(property_settings(6), suppress_health_check=[HealthCheck.too_slow])
def test_megis_equals_metalign_on_random_worlds(params, n_reads):
    from repro.megis.index import MegisIndex
    from repro.megis.session import AnalysisSession

    references, database, sketch = build_world(params)
    taxids = references.species_taxids
    profile = {t: 1.0 for t in taxids[: max(1, len(taxids) // 2)]}
    reads = ReadSimulator(read_length=80, error_rate=0.01,
                          seed=params["seed"]).simulate(references, profile, n_reads)
    session = AnalysisSession(MegisIndex(database, sketch, references))
    ours = session.analyze(reads)
    theirs = session.analyze_metalign(reads)
    assert ours.intersecting_kmers == theirs.intersecting_kmers
    assert ours.candidates == theirs.candidates
    assert ours.profile.fractions == theirs.profile.fractions
