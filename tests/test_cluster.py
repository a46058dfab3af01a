"""Cluster tier: placement, scatter-gather bit-identity, node failover.

Every serving test drives real TCP — in-process :class:`ClusterNode`
servers behind a :class:`ClusterRouter` — over the golden-fixture world,
and pins the routed results bit-identical to a serial single-host
``session.analyze``.  Failure injection uses :meth:`ClusterNode.kill`
(transport aborts: connection resets, exactly what a killed process
produces) to exercise the retry-once contract on both its arms: the
replica / respawned-node path must stay bit-identical, the unretryable
path must yield a structured ``node_failed`` frame — never a silent
drop.
"""

import asyncio
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.backends.retrieval import RetrievalResult
from repro.databases.serialization import pack_i32, pack_sections, unpack_sections
from repro.databases.sketch import SketchDatabase
from repro.databases.sorted_db import SortedKmerDatabase
from repro.megis import wire
from repro.megis.cluster import (
    ClusterAnalysisSession,
    ClusterMap,
    ClusterNode,
    ClusterRouter,
    ClusterStepTwo,
    NodeEndpoint,
    NodeFailed,
)
from repro.megis.index import MegisIndex
from repro.megis.session import AnalysisSession, MegisConfig
from repro.sequences.generator import ReferenceCollection
from repro.sequences.keys import kmer_record_bytes, pack_kmer_column
from repro.sequences.reads import Read
from repro.workloads.cami import CamiDiversity, make_cami_sample
from tests.columns import as_ints, native_column, pairs_as_ints, query_dicts

GOLDEN = Path(__file__).parent / "data" / "golden_pipeline.json"

N_CHUNKS = 3
N_SHARDS = 4
SCENARIO_TIMEOUT_S = 120


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def golden_world(golden):
    p = golden["params"]
    sample = make_cami_sample(
        CamiDiversity.MEDIUM,
        n_reads=p["n_reads"],
        n_genera=p["n_genera"],
        species_per_genus=p["species_per_genus"],
        genome_length=p["genome_length"],
        seed=p["seed"],
    )
    return sample, golden_index(sample.references, golden)


def golden_index(references, golden):
    """The golden parameters' index over ``references``."""
    p = golden["params"]
    sorted_db = SortedKmerDatabase.build(references, k=p["k"])
    sketch = SketchDatabase.build(
        references,
        k_max=p["k"],
        smaller_ks=tuple(p["smaller_ks"]),
        sketch_fraction=p["sketch_fraction"],
    )
    return MegisIndex(sorted_db, sketch, references)


def swapped_taxids(references):
    """The same genomes, each under its neighbour's taxID (rotated)."""
    taxids = references.species_taxids
    genomes = [references.genomes[t] for t in taxids]
    return ReferenceCollection({
        taxid: replace(genome, taxid=taxid)
        for taxid, genome in zip(taxids, genomes[1:] + genomes[:1])
    })


def _config(golden, **overrides):
    p = golden["params"]
    return MegisConfig(
        n_buckets=p["n_buckets"],
        min_containment=p["min_containment"],
        abundance_method="statistical",
        **overrides,
    )


@pytest.fixture(scope="module")
def chunks(golden_world):
    sample, _ = golden_world
    size = len(sample.reads) // N_CHUNKS
    return [
        [
            Read(read_id=j, sequence=r.sequence, true_taxid=0)
            for j, r in enumerate(sample.reads[i * size:(i + 1) * size])
        ]
        for i in range(N_CHUNKS)
    ]


@pytest.fixture(scope="module")
def requests_wire(chunks):
    return [
        {"schema": 1, "id": f"c{i}", "reads": [r.sequence for r in chunk]}
        for i, chunk in enumerate(chunks)
    ]


@pytest.fixture(scope="module")
def serial_records(golden_world, golden, chunks):
    """The single-host serial truth every routed result must equal."""
    _, index = golden_world
    session = AnalysisSession(index, _config(golden)).warm()
    expected = {}
    for i, chunk in enumerate(chunks):
        result = session.analyze(chunk)
        expected[f"c{i}"] = (
            sorted(int(t) for t in result.candidates),
            {str(t): f
             for t, f in sorted(result.profile.fractions.items())},
        )
    return expected


def run_scenario(coro):
    async def bounded():
        return await asyncio.wait_for(coro, timeout=SCENARIO_TIMEOUT_S)
    return asyncio.run(bounded())


def _refuse_constant(name):
    raise AssertionError(f"reply frame holds {name}, which is not JSON")


def make_node_session(index, golden, cluster_map, node_id, backend="numpy"):
    return AnalysisSession(
        index,
        _config(golden, n_ssds=cluster_map.n_shards, backend=backend),
        shard_range=cluster_map.group(node_id),
    )


class Cluster:
    """In-process bring-up helper: N nodes (+ optional replicas), one
    router, all torn down in reverse order."""

    def __init__(self, index, golden, n_nodes, *, n_shards=N_SHARDS,
                 replicas=(), heartbeat_ms=None, timeout_s=10.0,
                 workers=2, backend="numpy", router_index=None):
        self.index = index
        self.router_index = router_index or index
        self.golden = golden
        self.backend = backend
        self.map = ClusterMap.for_index(index, n_nodes, n_shards)
        self.replica_ids = tuple(replicas)
        self.heartbeat_ms = heartbeat_ms
        self.timeout_s = timeout_s
        self.workers = workers
        self.nodes = []
        self.replicas = {}
        self.router = None
        self.step_two = None

    async def __aenter__(self):
        endpoints = []
        for node_id in range(self.map.n_nodes):
            node = ClusterNode(
                make_node_session(self.index, self.golden, self.map,
                                  node_id, self.backend),
                node_id, self.map,
            )
            address = await node.start()
            self.nodes.append(node)
            replica_address = None
            if node_id in self.replica_ids:
                replica = ClusterNode(
                    make_node_session(self.index, self.golden, self.map,
                                      node_id, self.backend),
                    node_id, self.map,
                )
                replica_address = await replica.start()
                self.replicas[node_id] = replica
            endpoints.append(NodeEndpoint(node_id, address,
                                          replica=replica_address))
        self.step_two = ClusterStepTwo(self.map, endpoints,
                                       timeout_s=self.timeout_s)
        local = AnalysisSession(self.router_index, _config(self.golden))
        self.router = ClusterRouter(
            ClusterAnalysisSession(local, self.step_two),
            heartbeat_ms=self.heartbeat_ms,
            workers=self.workers,
        )
        await self.router.start()
        return self

    async def __aexit__(self, exc_type, exc, tb):
        await self.router.drain()
        for node in list(self.replicas.values()) + self.nodes:
            await node.stop()

    async def respawn(self, node_id):
        """A fresh node process on the SAME port (the respawn story)."""
        host, port = self.step_two.endpoints[node_id].address
        node = ClusterNode(
            make_node_session(self.index, self.golden, self.map, node_id,
                              self.backend),
            node_id, self.map, host=host, port=port,
        )
        await node.start()
        self.nodes[node_id] = node
        return node


async def client_roundtrip(router, frames):
    host, port = router.bound_address
    reader, writer = await asyncio.open_connection(host, port)
    for frame in frames:
        writer.write((json.dumps(frame) + "\n").encode("utf-8"))
        await writer.drain()
    writer.write_eof()
    records = []
    while True:
        line = await reader.readline()
        if not line:
            break
        records.append(json.loads(line))
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    return records


def assert_bit_identical(records, serial_records, expected_ids):
    served = {r["id"]: r for r in records if "candidates" in r}
    assert set(served) == set(expected_ids)
    for request_id, record in served.items():
        assert record["schema"] == 1
        assert (record["candidates"], record["profile"]) \
            == serial_records[request_id], (
            "cluster result must be bit-identical to serial analyze"
        )


class TestClusterMap:
    def test_contiguous_ascending_groups(self):
        cluster_map = ClusterMap(n_nodes=3, n_shards=8)
        groups = cluster_map.groups
        assert groups == [(0, 2), (2, 5), (5, 8)]
        # Contiguity: every shard owned exactly once, in order.
        covered = [s for start, stop in groups for s in range(start, stop)]
        assert covered == list(range(8))
        for shard in range(8):
            start, stop = cluster_map.group(cluster_map.node_of(shard))
            assert start <= shard < stop

    def test_one_shard_per_node_default(self, golden_world):
        _, index = golden_world
        cluster_map = ClusterMap.for_index(index, 4)
        assert (cluster_map.n_nodes, cluster_map.n_shards) == (4, 4)
        assert cluster_map.fingerprint["db_kmers"] == len(index.database)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterMap(n_nodes=0, n_shards=4)
        with pytest.raises(ValueError):
            ClusterMap(n_nodes=4, n_shards=2)
        with pytest.raises(ValueError):
            ClusterMap(n_nodes=2, n_shards=4).group(2)
        with pytest.raises(ValueError):
            ClusterMap(n_nodes=2, n_shards=4).node_of(4)

    def test_save_load_roundtrip(self, golden_world, tmp_path):
        _, index = golden_world
        cluster_map = ClusterMap.for_index(index, 2, N_SHARDS)
        path = cluster_map.save(ClusterMap.sibling_path(
            tmp_path / "world.megis"))
        assert path.name == "world.megis.cluster.json"
        loaded = ClusterMap.load(path)
        assert loaded == cluster_map
        assert loaded.fingerprint == cluster_map.fingerprint
        loaded.verify(index)  # same build: accepted

    def test_load_rejects_tampered_groups(self, tmp_path):
        path = tmp_path / "map.json"
        ClusterMap(n_nodes=2, n_shards=4).save(path)
        payload = json.loads(path.read_text())
        payload["groups"] = [[0, 1], [1, 4]]  # not the deterministic split
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="deterministic placement"):
            ClusterMap.load(path)

    def test_load_rejects_wrong_kind_and_schema(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"kind": "something_else"}))
        with pytest.raises(ValueError, match="not a cluster map"):
            ClusterMap.load(path)
        path.write_text(json.dumps(
            {"kind": "cluster_map", "schema": 99, "n_nodes": 1,
             "n_shards": 1}))
        with pytest.raises(ValueError, match="schema"):
            ClusterMap.load(path)

    def test_verify_rejects_different_index_build(self, golden_world):
        _, index = golden_world
        cluster_map = ClusterMap(
            n_nodes=2, n_shards=4,
            fingerprint={"k": 11, "db_kmers": 1, "kss_rows": 1},
        )
        with pytest.raises(ValueError, match="different index build"):
            cluster_map.verify(index)

    def test_same_sizes_different_owners_refused(self, golden_world, golden,
                                                 chunks):
        """Two builds of the same sizes whose owners differ — the same
        genomes under swapped taxIDs — agree on k, database and KSS row
        counts, but not on the signature-table digest: the map refuses
        the other build, a router over it refuses to bind, and a node
        serving it fails every scatter attempt."""
        sample, index = golden_world
        other = golden_index(swapped_taxids(sample.references), golden)
        assert len(other.database) == len(index.database)
        assert len(other.kss) == len(index.kss)
        assert other.kss.signatures.digest != index.kss.signatures.digest
        cluster_map = ClusterMap.for_index(index, 1, 1)
        with pytest.raises(ValueError, match="different index build"):
            cluster_map.verify(other)
        with pytest.raises(ValueError, match="different index build"):
            ClusterStepTwo(cluster_map, [NodeEndpoint(0, ("127.0.0.1", 1))]
                           ).bind(other.kss.signatures,
                                  cluster_map.key_ranges(other))
        query = AnalysisSession(index, _config(golden))._partitioner.partition(
            chunks[0]).merged_column()

        async def scenario():
            node = ClusterNode(
                AnalysisSession(other, _config(golden, n_ssds=1),
                                shard_range=(0, 1)).warm(),
                0, ClusterMap.for_index(other, 1, 1),
            )
            address = await node.start()
            step_two = ClusterStepTwo(cluster_map, [NodeEndpoint(0, address)])
            step_two.bind(index.kss.signatures,
                          cluster_map.key_ranges(index))
            try:
                with pytest.raises(NodeFailed) as failed:
                    await asyncio.get_running_loop().run_in_executor(
                        None, step_two.scatter, [query]
                    )
            finally:
                await node.stop()
            return failed.value, step_two.stats

        failed, stats = run_scenario(scenario())
        assert "different index build" in failed.reason
        assert (stats.node_retries, stats.node_failures) == (1, 1)


class TestShardRangeSession:
    def test_full_pipeline_refused_on_partial_session(self, golden_world,
                                                      golden, chunks):
        _, index = golden_world
        cluster_map = ClusterMap.for_index(index, 2, N_SHARDS)
        session = make_node_session(index, golden, cluster_map, 0)
        with pytest.raises(ValueError, match="step_two_partial"):
            session.analyze(chunks[0])
        with pytest.raises(ValueError, match="step_two_partial"):
            session.analyze_batch([chunks[0]])

    def test_shard_range_validation(self, golden_world, golden):
        _, index = golden_world
        with pytest.raises(ValueError, match="shard_range"):
            AnalysisSession(index, _config(golden, n_ssds=4),
                            shard_range=(2, 2))
        with pytest.raises(ValueError, match="shard_range"):
            AnalysisSession(index, _config(golden, n_ssds=4),
                            shard_range=(0, 5))

    def test_node_rejects_mismatched_session(self, golden_world, golden):
        _, index = golden_world
        cluster_map = ClusterMap.for_index(index, 2, N_SHARDS)
        wrong = make_node_session(index, golden, cluster_map, 1)
        with pytest.raises(ValueError, match="must serve shards"):
            ClusterNode(wrong, 0, cluster_map)

    def test_partials_concatenate_to_single_host_step_two(
        self, golden_world, golden, chunks
    ):
        """The data-path core, no sockets: per-node partials gathered in
        node order equal the full single-session Step 2."""
        from repro.backends import PhaseTimings, RetrievalResult
        from repro.megis.session import MegisResult

        _, index = golden_world
        cluster_map = ClusterMap.for_index(index, 2, N_SHARDS)
        full = AnalysisSession(index, _config(golden)).warm()
        reference = full.analyze(chunks[0])

        sessions = [
            make_node_session(index, golden, cluster_map, w).warm()
            for w in range(2)
        ]
        query = full._partitioner.partition(chunks[0]).merged_column()
        partials = [s.step_two_partial([query])[0] for s in sessions]
        gathered = RetrievalResult.concatenate([p[1] for p in partials])
        intersecting = [k for p in partials for k in p[0]]

        clustered = MegisResult(timings=PhaseTimings(backend="python"))
        full._finish_step_two(clustered, intersecting, gathered)
        assert sorted(clustered.candidates) == sorted(reference.candidates)

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_partial_streams_each_shard_once_per_request(
        self, golden_world, golden, chunks, backend
    ):
        """A 2-sample request shares one database stream per shard (§4.7
        on the node), and answers what two 1-sample requests answer."""
        from repro.backends import PhaseTimings

        _, index = golden_world
        cluster_map = ClusterMap.for_index(index, 2, N_SHARDS)
        session = AnalysisSession(
            index, _config(golden, backend=backend, n_ssds=N_SHARDS),
            shard_range=cluster_map.group(0),
        ).warm()
        full = AnalysisSession(index, _config(golden, backend=backend))
        queries = [
            full._partitioner.partition(chunk).merged_column()
            for chunk in chunks[:2]
        ]
        one, two = PhaseTimings(), PhaseTimings()
        single = session.step_two_partial(queries[:1], timings=one)
        both = session.step_two_partial(queries, timings=two)
        assert two.db_stream_passes == len(session.cluster_shards()) == 2
        assert two.db_kmers_streamed == one.db_kmers_streamed
        assert pairs_as_ints(both) == pairs_as_ints(
            single + session.step_two_partial(queries[1:])
        )

    def test_numpy_partial_is_database_dtype_columns(self, golden_world,
                                                     golden, chunks):
        """On numpy a node's partial intersecting k-mers are columns in the
        database column's dtype, each its retrieval result's ``queries``;
        as ints they equal the python node's lists."""
        _, index = golden_world
        cluster_map = ClusterMap.for_index(index, 2, N_SHARDS)
        full = AnalysisSession(index, _config(golden, backend="python"))
        queries = [
            full._partitioner.partition(chunk).merged_column()
            for chunk in chunks[:2]
        ]
        python, numpy_ = (
            make_node_session(index, golden, cluster_map, 1, backend)
            .warm().step_two_partial(queries)
            for backend in ("python", "numpy")
        )
        assert any(kmers for kmers, _ in python)
        for (got, retrieved), (want, reference) in zip(numpy_, python):
            assert native_column(got, index.database) == want
            assert retrieved.queries is got
            assert query_dicts(retrieved) == query_dicts(reference)


class TestBitIdentity:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_two_node_scatter_gathers_database_dtype_columns(
        self, golden_world, golden, chunks, backend
    ):
        """A real scatter over two nodes: every sample's gathered
        intersecting k-mers are one column in the database column's dtype
        — its retrieval result's ``queries`` — on either node backend, and
        equal as ints (owner columns too) to one python session's Step 2."""
        _, index = golden_world
        full = AnalysisSession(index, _config(golden, backend="python")).warm()
        queries = [
            full._partitioner.partition(chunk).merged_column()
            for chunk in chunks[:2]
        ]

        async def scenario():
            async with Cluster(index, golden, 2, backend=backend) as cluster:
                return await asyncio.get_running_loop().run_in_executor(
                    None, cluster.step_two.scatter, queries
                )

        gathered = run_scenario(scenario())
        expected = full.step_two_partial(queries)
        assert all(isinstance(kmers, list) for kmers, _ in expected)
        assert any(kmers for kmers, _ in expected)
        for (intersecting, retrieved), (want, reference) in zip(gathered, expected):
            assert native_column(intersecting, index.database) == want
            assert retrieved.queries is intersecting
            assert retrieved.signatures is index.kss.signatures
            assert query_dicts(retrieved) == query_dicts(reference)

    @pytest.mark.parametrize("n_nodes", [2, 4])
    def test_routed_results_equal_serial(self, golden_world, golden,
                                         requests_wire, serial_records,
                                         n_nodes):
        _, index = golden_world

        async def scenario():
            async with Cluster(index, golden, n_nodes) as cluster:
                records = await client_roundtrip(cluster.router,
                                                 requests_wire)
                return records, cluster.step_two.stats.scatters

        records, scatters = run_scenario(scenario())
        assert_bit_identical(records, serial_records,
                             [f"c{i}" for i in range(N_CHUNKS)])
        assert scatters >= 1

    def test_k40_index_routed_through_two_nodes_equals_serial(
        self, golden_world, golden, chunks, requests_wire
    ):
        """Past 32 bases a k-mer outgrows ``uint64``: queries and
        intersecting k-mers ride ``object`` columns, packed record by
        record, and the routed result must still equal serial analyze."""
        sample, _ = golden_world
        references = sample.references
        index = MegisIndex(
            SortedKmerDatabase.build(references, k=40),
            SketchDatabase.build(
                references, k_max=40, smaller_ks=(36, 29),
                sketch_fraction=golden["params"]["sketch_fraction"],
            ),
            references,
        )
        serial = AnalysisSession(index, _config(golden)).warm()
        expected = {}
        for i, chunk in enumerate(chunks):
            result = serial.analyze(chunk)
            expected[f"c{i}"] = (
                sorted(int(t) for t in result.candidates),
                {str(t): f
                 for t, f in sorted(result.profile.fractions.items())},
            )
        assert all(candidates for candidates, _ in expected.values())

        async def scenario():
            async with Cluster(index, golden, 2) as cluster:
                return await client_roundtrip(cluster.router, requests_wire)

        assert_bit_identical(run_scenario(scenario()), expected,
                             [f"c{i}" for i in range(N_CHUNKS)])

    def test_cluster_result_carries_the_local_statistics(self, golden_world,
                                                         golden, chunks):
        """The router runs the local session's one analysis sequence, so
        a cluster result carries the same Step-1 and batch statistics as a
        local one."""
        _, index = golden_world

        async def scenario():
            async with Cluster(index, golden, 2) as cluster:
                return await asyncio.get_running_loop().run_in_executor(
                    None, cluster.router.session.analyze_batch, chunks[:2]
                )

        results = run_scenario(scenario())
        local = AnalysisSession(index, _config(golden)).analyze_batch(chunks[:2])
        for routed, serial in zip(results, local):
            assert routed.candidates == serial.candidates
            assert routed.profile.fractions == serial.profile.fractions
            assert routed.n_buckets == serial.n_buckets
            assert routed.timings.samples_batched == 2

    def test_heartbeat_tracks_live_nodes(self, golden_world, golden,
                                         requests_wire):
        _, index = golden_world

        async def scenario():
            async with Cluster(index, golden, 2,
                               heartbeat_ms=50.0) as cluster:
                await client_roundtrip(cluster.router, requests_wire[:1])
                await asyncio.sleep(0.3)
                return dict(cluster.step_two.health), \
                    cluster.step_two.stats.pongs

        health, pongs = run_scenario(scenario())
        assert pongs >= 2
        assert all(h.alive for h in health.values())
        assert sum(h.served for h in health.values()) >= 1


class TestFailover:
    def test_killed_primary_fails_over_to_replica_bit_identical(
        self, golden_world, golden, requests_wire, serial_records
    ):
        """One injected node kill with a standby configured: the request
        retries onto the replica and the result stays bit-identical."""
        _, index = golden_world

        async def scenario():
            async with Cluster(index, golden, 2,
                               replicas=(1,)) as cluster:
                cluster.nodes[1].kill()
                records = await client_roundtrip(cluster.router,
                                                 requests_wire)
                return records, cluster.step_two.stats

        records, stats = run_scenario(scenario())
        assert_bit_identical(records, serial_records,
                             [f"c{i}" for i in range(N_CHUNKS)])
        assert stats.node_retries >= 1
        assert stats.node_failures == 0

    def test_dead_primary_marked_by_heartbeat_routes_to_replica_first(
        self, golden_world, golden, requests_wire, serial_records
    ):
        _, index = golden_world

        async def scenario():
            async with Cluster(index, golden, 2, replicas=(0,),
                               heartbeat_ms=40.0) as cluster:
                cluster.nodes[0].kill()
                # Let heartbeats observe the death.
                for _ in range(50):
                    await asyncio.sleep(0.05)
                    if cluster.step_two.health[0].alive is False:
                        break
                assert cluster.step_two.health[0].alive is False
                retries_before = cluster.step_two.stats.node_retries
                records = await client_roundtrip(cluster.router,
                                                 requests_wire[:1])
                return records, retries_before, cluster.step_two.stats

        records, retries_before, stats = run_scenario(scenario())
        assert_bit_identical(records, serial_records, ["c0"])
        # The replica was the FIRST attempt — no retry was needed.
        assert stats.node_retries == retries_before

    def test_replica_answers_do_not_mark_a_dead_primary_alive(
        self, golden_world, golden, requests_wire, serial_records
    ):
        """``alive`` describes the primary address: with no heartbeat, the
        first scatter after the kill pays the one retry and every later
        one goes replica-first; only the primary itself (here a pong from
        its respawn) marks the node alive again."""
        _, index = golden_world

        async def scenario():
            async with Cluster(index, golden, 2, replicas=(0,)) as cluster:
                step_two = cluster.step_two
                cluster.nodes[0].kill()
                records = []
                for frame in requests_wire:  # one scatter each
                    records += await client_roundtrip(cluster.router, [frame])
                dead = (step_two.stats.node_retries, step_two.health[0].alive)
                await cluster.respawn(0)
                await asyncio.get_running_loop().run_in_executor(
                    None, step_two.check_health
                )
                revived = step_two.health[0].alive
                records += await client_roundtrip(cluster.router,
                                                  requests_wire[:1])
                return records, dead, revived, step_two.stats

        records, dead, revived, stats = run_scenario(scenario())
        assert dead == (1, False)
        assert revived is True
        assert stats.node_retries == 1 and stats.node_failures == 0
        assert stats.scatters == N_CHUNKS + 1
        assert_bit_identical(records[:N_CHUNKS], serial_records,
                             [f"c{i}" for i in range(N_CHUNKS)])
        assert_bit_identical(records[N_CHUNKS:], serial_records, ["c0"])

    def test_killed_node_respawned_on_same_port_serves_retry(
        self, golden_world, golden, requests_wire, serial_records
    ):
        """No replica: the single retry reconnects to the same address,
        where a respawned node answers — bit-identical."""
        _, index = golden_world

        async def scenario():
            async with Cluster(index, golden, 2) as cluster:
                cluster.nodes[0].kill()
                await cluster.respawn(0)
                records = await client_roundtrip(cluster.router,
                                                 requests_wire)
                return records, cluster.step_two.stats

        records, stats = run_scenario(scenario())
        assert_bit_identical(records, serial_records,
                             [f"c{i}" for i in range(N_CHUNKS)])
        assert stats.node_failures == 0

    def test_unretryable_death_yields_structured_node_failed_frame(
        self, golden_world, golden, requests_wire
    ):
        """Kill with no replica and no respawn: the accepted request must
        come back as a structured node_failed error frame — the
        connection stays up and nothing is silently dropped."""
        _, index = golden_world

        async def scenario():
            async with Cluster(index, golden, 2) as cluster:
                cluster.nodes[1].kill()
                records = await client_roundtrip(cluster.router,
                                                 requests_wire[:1])
                return records, cluster.step_two.stats, \
                    cluster.router.stats

        records, stats, gateway_stats = run_scenario(scenario())
        assert len(records) == 1
        frame = records[0]
        assert frame["schema"] == 1
        assert frame["id"] == "c0"
        assert "node_failed: node=1 after 2 attempts" in frame["error"]
        assert stats.node_failures >= 1
        # Accounted, not dropped: the request failed loudly.
        assert gateway_stats.requests_failed == 1

    def test_failed_scatter_closes_every_socket(self, golden_world, golden,
                                                monkeypatch):
        """Node 0 dead for good: the NodeFailed leaves the requests
        already sent to nodes 1 and 2 unread, and the scatter itself must
        close their sockets — not leave them to the garbage collector
        (a ``ResourceWarning``, and two nodes computing for nobody)."""
        _, index = golden_world
        opened = []
        connect_send = ClusterStepTwo._connect_send

        def recording(self, address, frame, timeout=None):
            sock = connect_send(self, address, frame, timeout)
            opened.append(sock)
            return sock

        monkeypatch.setattr(ClusterStepTwo, "_connect_send", recording)

        async def scenario():
            async with Cluster(index, golden, 3) as cluster:
                cluster.nodes[0].kill()
                with pytest.raises(NodeFailed) as failed:
                    await asyncio.get_running_loop().run_in_executor(
                        None, cluster.step_two.scatter, [[1, 2, 3]]
                    )
                return failed.value.node_id, [s.fileno() for s in opened]

        node_id, filenos = run_scenario(scenario())
        assert node_id == 0
        assert filenos == [-1, -1]  # nodes 1 and 2: sent to, never read

    @pytest.mark.parametrize("with_replica", [True, False])
    def test_malformed_reply_costs_the_retry_not_the_batch(
        self, golden_world, golden, requests_wire, serial_records,
        with_replica
    ):
        """A node whose reply passes the frame checks but does not decode
        (a level block without its columns) fails that *attempt*: the
        replica serves the request bit-identically after one retry, and
        with no replica the client gets the structured node_failed frame
        — never the decoder's ``KeyError`` text."""
        _, index = golden_world

        async def garbage_node(reader, writer):
            request = json.loads(await reader.readline())
            await reader.readexactly(request["bytes"])
            body = pack_sections({f"q{i}": b""
                                  for i in range(len(request["counts"]))})
            reply = {"schema": 1, "op": "step2_result", "id": request["id"],
                     "node": 1, "k": request["k"],
                     "counts": [0] * len(request["counts"]), "levels": [20],
                     "signatures": index.kss.signatures.digest,
                     "bytes": len(body)}
            writer.write((json.dumps(reply) + "\n").encode("utf-8") + body)
            await writer.drain()
            writer.close()

        async def scenario():
            async with Cluster(index, golden, 2) as cluster:
                server = await asyncio.start_server(garbage_node,
                                                    "127.0.0.1", 0)
                healthy = cluster.step_two.endpoints[1].address
                cluster.step_two.endpoints[1] = NodeEndpoint(
                    1, server.sockets[0].getsockname()[:2],
                    replica=healthy if with_replica else None,
                )
                try:
                    records = await client_roundtrip(cluster.router,
                                                     requests_wire[:1])
                finally:
                    server.close()
                    await server.wait_closed()
                return records, cluster.step_two.stats

        records, stats = run_scenario(scenario())
        assert stats.node_retries == 1
        if with_replica:
            assert_bit_identical(records, serial_records, ["c0"])
            assert stats.node_failures == 0
        else:
            [frame] = records
            assert frame["id"] == "c0"
            assert "node_failed: node=1 after 2 attempts" in frame["error"]
            assert "does not match its header" in frame["error"]
            assert stats.node_failures == 1

    def test_reply_without_a_newline_is_bounded(self, golden_world, golden,
                                                monkeypatch):
        """Whatever listens on a node's port and streams bytes with no
        ``\\n`` costs one bounded buffer per attempt, not a service thread
        and memory for ever: past the wire's line limit the attempt fails
        like any malformed reply — one retry, then ``node_failed``."""
        _, index = golden_world
        bound, chunk = 1 << 20, 65536  # (the real limit is 32 MiB)
        monkeypatch.setattr(wire, "MAX_LINE_BYTES", bound)

        class CountingSocket:
            def __init__(self, sock):
                self.sock, self.received = sock, 0

            def recv(self, n):
                data = self.sock.recv(n)
                self.received += len(data)
                return data

            def __getattr__(self, name):
                return getattr(self.sock, name)

        opened = []
        connect_send = ClusterStepTwo._connect_send

        def counting(self, address, frame, timeout=None):
            opened.append(CountingSocket(
                connect_send(self, address, frame, timeout)))
            return opened[-1]

        monkeypatch.setattr(ClusterStepTwo, "_connect_send", counting)

        async def endless_node(reader, writer):
            await reader.readline()
            try:
                while True:
                    writer.write(b"x" * chunk)
                    await writer.drain()
            except (ConnectionError, OSError):
                pass
            finally:
                writer.close()

        async def scenario():
            async with Cluster(index, golden, 1) as cluster:
                server = await asyncio.start_server(endless_node,
                                                    "127.0.0.1", 0)
                cluster.step_two.endpoints[0] = NodeEndpoint(
                    0, server.sockets[0].getsockname()[:2])
                try:
                    with pytest.raises(NodeFailed) as failed:
                        await asyncio.get_running_loop().run_in_executor(
                            None, cluster.step_two.scatter, [[1, 2, 3]]
                        )
                finally:
                    server.close()
                    await server.wait_closed()
                return failed.value, cluster.step_two.stats

        failed, stats = run_scenario(scenario())
        assert "without a newline" in failed.reason
        assert (stats.node_retries, stats.node_failures) == (1, 1)
        assert len(opened) == 2
        for sock in opened:
            assert bound < sock.received <= bound + chunk

    def test_declared_body_over_the_limit_is_refused_unread(
        self, golden_world, golden, monkeypatch
    ):
        """A reply header declaring a body past the wire's limit fails the
        attempt before the router reads a body byte: one bounded buffer
        per attempt, one retry, then ``node_failed``."""
        bound = 1 << 16
        monkeypatch.setattr(wire, "MAX_LINE_BYTES", bound)
        received = []

        async def boasting_node(reader, writer):
            request = json.loads(await reader.readline())
            header = {"schema": 1, "op": "step2_result", "id": request["id"],
                      "node": 0, "k": request["k"], "counts": [0],
                      "levels": [], "bytes": 1 << 40}
            writer.write((json.dumps(header) + "\n").encode("utf-8"))
            try:
                while True:
                    writer.write(b"x" * 65536)
                    await writer.drain()
            except (ConnectionError, OSError):
                pass
            finally:
                writer.close()

        class CountingSocket:
            def __init__(self, sock):
                self.sock = sock

            def recv(self, n):
                data = self.sock.recv(n)
                received.append(len(data))
                return data

            def __getattr__(self, name):
                return getattr(self.sock, name)

        connect_send = ClusterStepTwo._connect_send
        monkeypatch.setattr(
            ClusterStepTwo, "_connect_send",
            lambda self, address, frame, timeout=None: CountingSocket(
                connect_send(self, address, frame, timeout)),
        )

        async def scenario():
            server = await asyncio.start_server(boasting_node,
                                                "127.0.0.1", 0)
            step_two = ClusterStepTwo(
                ClusterMap(n_nodes=1, n_shards=1),
                [NodeEndpoint(0, server.sockets[0].getsockname()[:2])], k=18,
            )
            step_two.bind(RetrievalResult.from_sets([], {}).signatures,
                          [(0, 1 << (2 * 18))])
            try:
                with pytest.raises(NodeFailed) as failed:
                    await asyncio.get_running_loop().run_in_executor(
                        None, step_two.scatter, [[1, 2, 3]]
                    )
            finally:
                server.close()
                await server.wait_closed()
            return failed.value, step_two.stats

        failed, stats = run_scenario(scenario())
        assert f"exceeds --max-line-bytes {bound}" in failed.reason
        assert (stats.node_retries, stats.node_failures) == (1, 1)
        # Header reads only: one recv per attempt, never the body.
        assert len(received) == 2 and all(n <= 65536 for n in received)

    @pytest.mark.parametrize("defect, message", [
        pytest.param(lambda h, s: (h, s, -5), "mid-body", id="truncated"),
        pytest.param(lambda h, s: (h, s, "toc"), "table of contents",
                     id="bad-section-table"),
        pytest.param(lambda h, s: ({**h, "counts": [4]}, s, None),
                     "not 4 k-mer records", id="counts-disagree"),
        pytest.param(lambda h, s: (h, {**s, "q0": pack_kmer_column(
            [12, 9, 5], 18)}, None), "sorted ascending", id="unsorted"),
        pytest.param(lambda h, s: (h, {**s, "s0/18": pack_i32(
            [0, 2, 9])}, None), "outside [0, 4)", id="signature-out-of-range"),
        pytest.param(lambda h, s: ({**h, "signatures": "0" * 32}, s, None),
                     "different index build", id="foreign-signature-table"),
        pytest.param(lambda h, s: (h, {**s, "q0": s["q0"][:-1] + b"\x01"},
                                   None), "padding bits", id="padding-bits"),
        pytest.param(lambda h, s: ({**h, "k": 19}, s, None), "k=19",
                     id="wrong-k"),
    ])
    def test_undecodable_reply_costs_the_retry_then_node_failed(
        self, defect, message
    ):
        """Every defect a reply frame can carry is one failed attempt:
        the retry meets the same defect, and the scatter raises
        ``NodeFailed`` naming it — never a decoder's own exception."""
        k = 18
        partial = RetrievalResult.from_sets([5, 9, 12], {
            18: [[562, 1280], [], [1280]],
            11: [[], [99], []],
        })

        def damaged_reply(request_id):
            frame = wire.step2_result_frame(request_id, 0, k, partial.signatures,
                                            [(partial.queries, partial)])
            newline = frame.index(b"\n")
            header = json.loads(frame[:newline])
            sections = {name: bytes(view) for name, view in
                        unpack_sections(frame[newline + 1:]).items()}
            [(_, intact)] = wire.parse_step2_result_frame(
                header, frame[newline + 1:], k, partial.signatures)
            assert query_dicts(intact) == query_dicts(partial)
            header, sections, cut = defect(header, sections)
            body = pack_sections(sections)
            if cut == "toc":
                body = body[:16] + b"{" + body[17:]
            header = {**header, "bytes": len(body)}
            if isinstance(cut, int):
                body = body[:cut]
            return (json.dumps(header) + "\n").encode("utf-8") + body

        async def bad_node(reader, writer):
            request = json.loads(await reader.readline())
            await reader.readexactly(request["bytes"])
            writer.write(damaged_reply(request["id"]))
            await writer.drain()
            writer.close()

        async def scenario():
            server = await asyncio.start_server(bad_node, "127.0.0.1", 0)
            step_two = ClusterStepTwo(
                ClusterMap(n_nodes=1, n_shards=1),
                [NodeEndpoint(0, server.sockets[0].getsockname()[:2])], k=k,
            )
            step_two.bind(partial.signatures, [(0, 1 << (2 * k))])
            try:
                with pytest.raises(NodeFailed) as failed:
                    await asyncio.get_running_loop().run_in_executor(
                        None, step_two.scatter, [[1, 2, 3]]
                    )
            finally:
                server.close()
                await server.wait_closed()
            return failed.value, step_two.stats

        failed, stats = run_scenario(scenario())
        assert message in failed.reason
        assert (stats.node_retries, stats.node_failures) == (1, 1)

    def test_router_needs_the_index_k(self):
        endpoints = [NodeEndpoint(0, ("127.0.0.1", 1))]
        with pytest.raises(ValueError, match="needs the index's k"):
            ClusterStepTwo(ClusterMap(n_nodes=1, n_shards=1), endpoints)
        pinned = ClusterMap(n_nodes=1, n_shards=1, fingerprint={"k": 18})
        assert ClusterStepTwo(pinned, endpoints).k == 18
        assert ClusterStepTwo(pinned, endpoints, k=20).k == 20

    def test_node_failed_str_is_the_wire_message(self):
        error = NodeFailed(3, attempts=2, reason="connection refused")
        assert str(error) == (
            "node_failed: node=3 after 2 attempts: connection refused"
        )


def step2_request(request_id, k, sections, **header):
    """A step2 frame built by hand around ``sections`` (defects and all);
    ``header`` overrides the fields a well-formed one would carry."""
    body = pack_sections(sections)
    fields = {"schema": 1, "op": "step2", "id": request_id, "k": k,
              "counts": [len(sections["q0"]) // kmer_record_bytes(k)]
              if "q0" in sections else [],
              "bytes": len(body), **header}
    return (json.dumps(fields) + "\n").encode("utf-8") + body


class TestNodeProtocol:
    async def _ask(self, node, frames):
        host, port = node.bound_address
        reader, writer = await asyncio.open_connection(host, port)
        for frame in frames:
            raw = frame if isinstance(frame, bytes) else (
                json.dumps(frame) + "\n").encode("utf-8")
            writer.write(raw)
        await writer.drain()
        writer.write_eof()
        records = []
        while True:
            line = await reader.readline()
            if not line:
                break
            record = json.loads(line, parse_constant=_refuse_constant)
            if "bytes" in record:
                record["body"] = await reader.readexactly(record["bytes"])
            records.append(record)
        writer.close()
        return records

    def test_schema_enforced_and_errors_keep_connection(self, golden_world,
                                                        golden):
        _, index = golden_world
        cluster_map = ClusterMap.for_index(index, 2, N_SHARDS)
        header = {"op": "step2", "k": index.k, "counts": [0], "bytes": 0}

        async def scenario():
            node = ClusterNode(
                make_node_session(index, golden, cluster_map, 0),
                0, cluster_map,
            )
            async with node:
                return await self._ask(node, [
                    b"not json\n",
                    {**header, "id": 1},
                    {"schema": 9, **header, "id": 2},
                    {"schema": 1, "op": "warp", "id": 3},
                    {"schema": 1, **header, "id": 4, "counts": "nope"},
                    {"schema": 1, "op": "ping", "id": 5},
                    b'{"schema": 1, "op": "ping", "id": NaN}\n',
                    b'{"schema": 1, "op": "ping", "id": -Infinity}\n',
                ])

        records = run_scenario(scenario())
        assert len(records) == 8
        assert "bad JSON" in records[0]["error"]
        assert "missing 'schema'" in records[1]["error"]
        assert "unsupported schema 9" in records[2]["error"]
        assert "unknown op" in records[3]["error"]
        assert "'counts' must be a list" in records[4]["error"]
        pong = records[5]
        assert pong["op"] == "pong"
        assert pong["node"] == 0
        assert pong["shards"] == [0, 2]
        # Non-finite constants are refused at decode, not echoed as an id.
        for record in records[6:]:
            assert record["id"] is None
            assert record["error"].startswith("bad JSON (")

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_malformed_query_columns_refused(self, golden_world, golden,
                                             chunks, backend):
        """A query column is validated once per request, before the
        kernel bisects it: unsorted records, records with padding bits
        set, sections that disagree with ``counts``, a foreign ``k`` and a
        bad section table get a structured error frame and the
        connection keeps serving."""
        _, index = golden_world
        k = index.k
        cluster_map = ClusterMap.for_index(index, 2, N_SHARDS)
        config = _config(golden, backend=backend, n_ssds=N_SHARDS)
        full = AnalysisSession(index, _config(golden, backend=backend))
        column = [
            int(kmer) for kmer in
            full._partitioner.partition(chunks[0]).merged_column()
        ]
        half = len(column) // 2
        records = bytearray(pack_kmer_column(column, k))
        records[kmer_record_bytes(k) - 1] |= 1  # k=18 leaves 4 padding bits

        async def scenario():
            node = ClusterNode(
                AnalysisSession(index, config,
                                shard_range=cluster_map.group(0)),
                0, cluster_map,
            )
            async with node:
                return await self._ask(node, [
                    wire.step2_frame(1, k, [column[half:] + column[:half]]),
                    step2_request(2, k, {"q0": bytes(records)}),
                    step2_request(3, k, {"q0": pack_kmer_column(column, k)},
                                  counts=[len(column) + 1]),
                    wire.step2_frame(4, k + 1, [column]),
                    step2_request(5, k, {"q1": pack_kmer_column(column, k)},
                                  counts=[len(column)]),
                    wire.step2_frame(6, k, [column]),
                    {"schema": 1, "op": "ping", "id": 7},
                ])

        records = run_scenario(scenario())
        assert len(records) == 7
        assert "sorted ascending" in records[0]["error"]
        assert "padding bits" in records[1]["error"]
        assert f"not {len(column) + 1} k-mer records" in records[2]["error"]
        assert f"k={k + 1}; this index has k={k}" in records[3]["error"]
        assert "does not match its header" in records[4]["error"]
        served = records[5]
        assert served["op"] == "step2_result" and served["id"] == 6
        [(intersecting, _)] = wire.parse_step2_result_frame(
            served, served["body"], k, index.kss.signatures)
        lo, hi = (index.shards(N_SHARDS)[0].lo, index.shards(N_SHARDS)[1].hi)
        assert as_ints(intersecting) == [
            kmer for kmer in index.database.intersect(column) if lo <= kmer < hi
        ]
        assert records[6]["op"] == "pong"
        assert records[6]["served"] == 1

    def test_declared_body_is_bounded_and_truncation_refused(
        self, golden_world, golden, chunks
    ):
        """A declared body past the node's line limit is refused before
        any of it is read, and the connection keeps serving; a body cut
        short by the end of the stream is refused, not computed on."""
        _, index = golden_world
        k = index.k
        cluster_map = ClusterMap.for_index(index, 2, N_SHARDS)
        full = AnalysisSession(index, _config(golden))
        column = full._partitioner.partition(chunks[0]).merged_column()
        frame = wire.step2_frame(3, k, [column])

        async def scenario():
            node = ClusterNode(
                make_node_session(index, golden, cluster_map, 0),
                0, cluster_map, max_line_bytes=len(frame),
            )
            async with node:
                return await self._ask(node, [
                    {"schema": 1, "op": "step2", "id": 1, "k": k,
                     "counts": [1], "bytes": len(frame) + 1},
                    {"schema": 1, "op": "ping", "id": 2},
                    frame,
                    frame[:-3],
                ])

        records = run_scenario(scenario())
        assert len(records) == 4
        assert (f"declared body of {len(frame) + 1} bytes exceeds "
                f"--max-line-bytes {len(frame)}") in records[0]["error"]
        assert records[1]["op"] == "pong"
        assert records[2]["op"] == "step2_result" and records[2]["id"] == 3
        assert records[3]["id"] == 3 and "body bytes, got" in records[3]["error"]


class TestTimingKnobs:
    """The router's timing knobs are refused at construction, as the CLI
    refuses them: a NaN or negative ``timeout_s`` used to raise a raw
    ``ValueError`` out of the first scatter, an infinite one an
    ``OverflowError``, and 0 turned every connect non-blocking; a
    heartbeat of 0 or less pinged back to back, a NaN one never woke."""

    @pytest.mark.parametrize("timeout_s", [float("nan"), float("inf"), 0.0, -1.0])
    def test_step_two_refuses_a_bad_timeout(self, timeout_s):
        with pytest.raises(ValueError, match="timeout_s must be a finite number > 0"):
            ClusterStepTwo(ClusterMap(n_nodes=1, n_shards=1),
                           [NodeEndpoint(0, ("127.0.0.1", 1))], k=18,
                           timeout_s=timeout_s)

    @pytest.mark.parametrize("heartbeat_ms",
                             [float("nan"), float("inf"), 0.0, -5.0])
    def test_router_refuses_a_bad_heartbeat(self, golden_world, golden,
                                            heartbeat_ms):
        _, index = golden_world
        session = ClusterAnalysisSession(
            AnalysisSession(index, _config(golden)),
            ClusterStepTwo(ClusterMap.for_index(index, 1, 1),
                           [NodeEndpoint(0, ("127.0.0.1", 1))]),
        )
        with pytest.raises(ValueError, match="heartbeat_ms must be a finite number > 0"):
            ClusterRouter(session, heartbeat_ms=heartbeat_ms)
        assert ClusterRouter(session, heartbeat_ms=None).heartbeat_ms is None
        assert ClusterRouter(session, heartbeat_ms=0.5).heartbeat_ms == 0.5


def _run_in_thread(fn, *args):
    return asyncio.get_running_loop().run_in_executor(None, fn, *args)


class TestRowColumnConfinement:
    """A shard handle's per-row KSS columns are built by the first Step 2
    that runs on it: a router, which only scatters, never builds them,
    and a node builds them for its own shard group only."""

    def test_router_holds_no_row_columns_after_a_scatter(
        self, golden_world, golden, requests_wire, serial_records
    ):
        _, index = golden_world
        payload = index.to_bytes()
        nodes_index = MegisIndex.from_bytes(payload)
        router_index = MegisIndex.from_bytes(payload)

        async def scenario():
            async with Cluster(nodes_index, golden, 2,
                               router_index=router_index) as cluster:
                return await client_roundtrip(cluster.router, requests_wire)

        records = run_scenario(scenario())
        assert_bit_identical(records, serial_records,
                             [f"c{i}" for i in range(N_CHUNKS)])
        router_shards = [shard for shards in router_index._shard_cache.values()
                         for shard in shards]
        assert router_shards, "warm() cut the router's shard handles"
        assert not any(shard._rows for shard in router_shards)
        assert all(shard._rows for shard in nodes_index.shards(N_SHARDS))

    def test_node_builds_row_columns_for_its_own_shards_only(
        self, golden_world, golden, chunks
    ):
        _, index = golden_world
        fresh = MegisIndex.from_bytes(index.to_bytes())
        cluster_map = ClusterMap.for_index(fresh, 2, N_SHARDS)
        node = make_node_session(fresh, golden, cluster_map, 0).warm()
        full = AnalysisSession(index, _config(golden))
        queries = [full._partitioner.partition(chunk).merged_column()
                   for chunk in chunks[:2]]
        assert not any(shard._rows for shard in fresh.shards(N_SHARDS))
        expected = full.step_two_partial(queries)
        gathered = node.step_two_partial(queries)
        start, stop = cluster_map.group(0)
        assert [bool(shard._rows) for shard in fresh.shards(N_SHARDS)] == [
            start <= i < stop for i in range(N_SHARDS)
        ]
        hi = fresh.shards(N_SHARDS)[stop - 1].hi
        for (kmers, retrieved), (want, whole) in zip(gathered, expected):
            assert as_ints(kmers) == [x for x in as_ints(want) if x < hi]
            assert query_dicts(retrieved) == {
                q: levels for q, levels in query_dicts(whole).items() if q < hi
            }


class TestKeptConnections:
    """Each node is sent only its key range's k-mers, over a connection
    the router keeps between scatters."""

    def test_each_node_is_sent_only_its_key_range(self, golden_world, golden,
                                                  chunks, monkeypatch):
        _, index = golden_world
        full = AnalysisSession(index, _config(golden))
        queries = [full._partitioner.partition(chunk).merged_column()
                   for chunk in chunks[:2]]
        headers = []
        step2 = ClusterNode._step2

        async def recording(self, request_id, request, line_no, frames):
            headers.append((self.node_id, request["counts"]))
            return await step2(self, request_id, request, line_no, frames)

        monkeypatch.setattr(ClusterNode, "_step2", recording)

        async def scenario():
            async with Cluster(index, golden, 2) as cluster:
                gathered = await _run_in_thread(cluster.step_two.scatter,
                                                queries)
                return gathered, cluster.map.key_ranges(index)

        gathered, ranges = run_scenario(scenario())
        assert ranges[0][0] == 0 and ranges[0][1] == ranges[1][0]
        assert ranges[1][1] == 1 << (2 * index.k)
        assert sorted(headers) == [
            (node, [sum(1 for kmer in as_ints(query) if lo <= kmer < hi)
                    for query in queries])
            for node, (lo, hi) in enumerate(ranges)
        ]
        reference = full.step_two_partial(queries)
        for (kmers, retrieved), (expected, whole) in zip(gathered, reference):
            assert as_ints(kmers) == as_ints(expected)
            assert query_dicts(retrieved) == query_dicts(whole)

    def test_scatters_reuse_one_connection_per_node(self, golden_world, golden,
                                                    chunks, monkeypatch):
        """M scatters open one connection per node, not one per node and
        scatter; ``close`` drops the idle ones and the next scatter
        reconnects."""
        _, index = golden_world
        query = AnalysisSession(index, _config(golden))._partitioner.partition(
            chunks[0]).merged_column()
        accepted = []
        handle = ClusterNode._handle

        async def counting(self, reader, writer):
            accepted.append(self.node_id)
            await handle(self, reader, writer)

        monkeypatch.setattr(ClusterNode, "_handle", counting)

        async def scenario():
            async with Cluster(index, golden, 2) as cluster:
                results = [await _run_in_thread(cluster.step_two.scatter, [query])
                           for _ in range(5)]
                kept = sorted(accepted)
                cluster.step_two.close()
                results.append(
                    await _run_in_thread(cluster.step_two.scatter, [query]))
                return results, kept, sorted(accepted), cluster.step_two.stats

        results, kept, reopened, stats = run_scenario(scenario())
        assert kept == [0, 1]
        assert reopened == [0, 0, 1, 1]
        assert stats.scatters == 6 and stats.node_retries == 0
        first = query_dicts(results[0][0][1])
        assert all(query_dicts(result[0][1]) == first for result in results)

    @pytest.mark.parametrize("how", ["stop", "kill"])
    def test_node_restarted_between_scatters_costs_no_retry(
        self, golden_world, golden, chunks, how
    ):
        """The kept connection to a node that restarted on its port fails
        before the reply's first byte: the attempt reopens it once and the
        respawned node answers — no retry, no ``NodeFailed``."""
        _, index = golden_world
        query = AnalysisSession(index, _config(golden))._partitioner.partition(
            chunks[0]).merged_column()

        async def scenario():
            async with Cluster(index, golden, 2) as cluster:
                before = await _run_in_thread(cluster.step_two.scatter, [query])
                if how == "stop":
                    await cluster.nodes[0].stop()
                else:
                    cluster.nodes[0].kill()
                await cluster.respawn(0)
                after = await _run_in_thread(cluster.step_two.scatter, [query])
                return before, after, cluster.step_two.stats

        before, after, stats = run_scenario(scenario())
        assert (stats.node_retries, stats.node_failures) == (0, 0)
        assert query_dicts(after[0][1]) == query_dicts(before[0][1])

    def test_gathered_columns_are_plain_arrays(self, golden_world, golden,
                                               chunks, tmp_path):
        """Over a mapped index, the gathered k-mers and signature columns
        are plain ``np.ndarray`` (no ``np.memmap`` subclass downstream)."""
        import numpy as np

        _, built = golden_world
        path = tmp_path / "world.megis"
        built.save(path, n_shards=N_SHARDS)
        index = MegisIndex.open(path)
        query = AnalysisSession(index, _config(golden))._partitioner.partition(
            chunks[0]).merged_column()

        async def scenario():
            async with Cluster(index, golden, 2) as cluster:
                return await _run_in_thread(cluster.step_two.scatter, [query])

        [(kmers, retrieved)] = run_scenario(scenario())
        assert type(kmers) is np.ndarray and type(retrieved.queries) is np.ndarray
        assert all(type(ids) is np.ndarray for ids in retrieved.levels.values())
