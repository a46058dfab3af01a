"""Process-pool serving tier: fork-after-mmap COW, the forked session, respawn.

Three layers under test (each guarded by the suite-wide pytest-timeout
ceiling, since a hung pipe or a lost respawn would otherwise deadlock):

- :class:`~repro.megis.executors.ProcessExecutor` — fork semantics,
  pinned submission, crash detection via the process sentinel, respawn
  with one retry, and :class:`WorkerCrashed` after the retry dies too;
- :class:`~repro.megis.procpool.ProcessAnalysisRunner` through
  :class:`~repro.megis.session.AnalysisSession` — a worker is the warmed
  session forked, so results *and* stream counters equal the serial
  path's, and the copy-on-write contract: workers forked after
  ``MegisIndex.open()`` + ``warm()`` must see the parent's column-build
  counters unchanged (a duplicated index would rebuild);
- :class:`~repro.megis.service.AnalysisService` over a process-backed
  session — a worker killed mid-batch is respawned, queued samples all
  complete, and only the poisoned request fails with a structured error.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.megis.executors import (
    ProcessExecutor,
    WorkerCrashed,
    get_executor,
    worker_state,
)
from repro.megis.index import MegisIndex
from repro.megis.service import AnalysisService
from repro.megis.session import AnalysisSession, MegisConfig


# -- module-level task functions (cross the worker pipe by reference) ---------

def _square(x):
    return x * x


def _pid():
    return os.getpid()


def _state_echo():
    return worker_state()


def _die_unless_flagged(flag_path):
    """First run: leave a flag and die.  Retry run: survive."""
    if not os.path.exists(flag_path):
        with open(flag_path, "w"):
            pass
        os._exit(43)
    return "survived"


def _die_always():
    os._exit(9)


def _raise_value_error():
    raise ValueError("relayed")


def _return_unpicklable():
    return lambda: None


class _HookedState:
    """Fork state whose after_fork hook leaves a visible trace."""

    def __init__(self):
        self.forked_pid = None

    def after_fork(self):
        self.forked_pid = os.getpid()


def _state_fork_pid():
    return worker_state().forked_pid


@pytest.fixture
def pool():
    executor = ProcessExecutor(2)
    yield executor
    executor.shutdown(wait=False)


class TestProcessExecutor:
    def test_submit_and_map_ordered(self, pool):
        assert pool.submit(_square, 7).result(timeout=60) == 49
        assert pool.map_ordered(_square, range(5)) == [0, 1, 4, 9, 16]
        assert pool.workers == 2
        assert pool.name == "processes:2"

    def test_get_executor_resolves_processes(self):
        executor = get_executor("processes:2")
        try:
            assert isinstance(executor, ProcessExecutor)
            assert executor.workers == 2
        finally:
            executor.shutdown(wait=False)

    def test_tasks_run_out_of_process(self, pool):
        pids = {pool.submit(_pid).result(timeout=60) for _ in range(8)}
        assert os.getpid() not in pids

    def test_submit_to_pins_worker(self, pool):
        pid_a = pool.submit_to(0, _pid).result(timeout=60)
        pid_b = pool.submit_to(1, _pid).result(timeout=60)
        assert pid_a != pid_b
        assert pool.submit_to(0, _pid).result(timeout=60) == pid_a
        with pytest.raises(ValueError):
            pool.submit_to(2, _pid)

    def test_state_is_fork_inherited_and_hook_runs(self):
        state = _HookedState()
        executor = ProcessExecutor(1, state=state)
        try:
            echoed = executor.submit(_state_echo).result(timeout=60)
            assert isinstance(echoed, _HookedState)
            # The child's after_fork ran (its pid, not the parent's);
            # the parent's copy stays untouched — COW, not shared writes.
            assert executor.submit(_state_fork_pid).result(timeout=60) \
                != os.getpid()
            assert state.forked_pid is None
        finally:
            executor.shutdown(wait=False)

    def test_crash_respawns_and_retries_once(self, pool, tmp_path):
        flag = tmp_path / "died-once"
        future = pool.submit(_die_unless_flagged, str(flag))
        assert future.result(timeout=60) == "survived"
        assert pool.respawns == 1
        assert flag.exists()

    def test_persistent_crash_fails_structured(self, pool):
        with pytest.raises(WorkerCrashed) as crashed:
            pool.submit(_die_always).result(timeout=60)
        assert crashed.value.attempts == 2  # first run + one retry
        assert crashed.value.exitcode == 9
        assert "_die_always" in str(crashed.value)
        # The pool keeps serving after giving up on the poisoned task.
        assert pool.submit(_square, 3).result(timeout=60) == 9
        assert pool.respawns >= 2

    def test_sigkill_idle_worker_respawns(self, pool):
        victim = pool.submit_to(0, _pid).result(timeout=60)
        os.kill(victim, signal.SIGKILL)
        deadline = time.time() + 30
        while time.time() < deadline:  # let the OS reap the victim
            try:
                os.kill(victim, 0)
            except OSError:
                break
            time.sleep(0.01)
        replacement = pool.submit_to(0, _pid).result(timeout=60)
        assert replacement != victim
        assert pool.respawns >= 1

    def test_exceptions_cross_the_pipe(self, pool):
        with pytest.raises(ValueError, match="relayed"):
            pool.submit(_raise_value_error).result(timeout=60)

    def test_unpicklable_payload_degrades_to_error(self, pool):
        with pytest.raises(RuntimeError, match="did not survive the pipe"):
            pool.submit(_return_unpicklable).result(timeout=60)

    def test_shutdown_wait_drains_queued_tasks(self):
        executor = ProcessExecutor(1)
        futures = [executor.submit(_square, i) for i in range(6)]
        executor.shutdown(wait=True)
        assert [f.result(timeout=0) for f in futures] == [
            i * i for i in range(6)
        ]
        with pytest.raises(RuntimeError):
            executor.submit(_square, 1)

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            ProcessExecutor(0)

    def test_state_frozen_after_fork(self, pool):
        pool.start()
        with pytest.raises(RuntimeError, match="frozen"):
            pool.bind_state(object())


# -- session / runner ---------------------------------------------------------

def _signature(result):
    return (
        result.intersecting_kmers,
        result.sketch_hits,
        sorted(result.candidates),
        sorted(result.profile.fractions.items()),
    )


@pytest.fixture(scope="module")
def process_world(sorted_db, sketch_db, references):
    return MegisIndex(sorted_db, sketch_db, references)


class TestProcessBackedSession:
    @pytest.mark.parametrize("abundance", ["statistical", "mapping"])
    def test_bit_identical_to_serial(self, process_world, sample, abundance):
        config = MegisConfig(abundance_method=abundance, backend="numpy")
        serial = AnalysisSession(process_world, config)
        expected_single = _signature(serial.analyze(sample.reads))
        chunks = [sample.reads[i * 60:(i + 1) * 60] for i in range(4)]
        expected_batch = [
            _signature(r) for r in serial.analyze_batch(chunks)
        ]
        with AnalysisSession(
            process_world, config, executor="processes:2"
        ) as session:
            assert _signature(session.analyze(sample.reads)) == expected_single
            assert [
                _signature(r) for r in session.analyze_batch(chunks)
            ] == expected_batch

    def test_spec_variants_resolve(self, process_world):
        bare = AnalysisSession(
            process_world, MegisConfig(executor="processes")
        )
        assert bare._process_workers == (os.cpu_count() or 1)
        sized = AnalysisSession(
            process_world, MegisConfig(executor="processes:3")
        )
        assert sized._process_workers == 3
        assert sized._executor.name == "serial"  # Step 2 stays serial in-worker

    def test_rejects_executor_instance_and_ssd(self, process_world):
        from repro.ssd.config import ssd_c
        from repro.ssd.device import SSD

        executor = ProcessExecutor(1)
        try:
            with pytest.raises(ValueError, match="processes"):
                AnalysisSession(process_world, executor=executor)
        finally:
            executor.shutdown(wait=False)
        with pytest.raises(ValueError, match="process-backed"):
            AnalysisSession(
                process_world, MegisConfig(executor="processes:2"),
                ssd=SSD(ssd_c()),
            )

    def test_mmap_fork_shares_columns_cow(self, process_world, tmp_path):
        """The ISSUE's COW assertion: fork after ``open(mmap=True)`` +
        ``warm()`` duplicates no index state — the counters a worker
        reads *inside the forked process* equal the parent's snapshot
        (a per-worker copy would have to rebuild its columns)."""
        path = tmp_path / "world.megis"
        process_world.save(path)
        index = MegisIndex.open(path, mmap=True)
        assert isinstance(index.kss.store().taxids, np.memmap)
        with AnalysisSession(
            index, MegisConfig(abundance_method="statistical",
                               backend="numpy", executor="processes:2"),
        ) as session:
            session.warm()  # the fork point
            parent_builds = index.database.column_builds
            parent_owner_builds = index.database.owner_column_builds
            for probe in session._runner.probe_workers():
                assert probe["pid"] != os.getpid()
                assert probe["column_builds"] == parent_builds
                assert probe["owner_column_builds"] == parent_owner_builds
            # The pool forked once, at warm(): no crash respawns.
            assert session._runner.respawns == 0

    def test_close_reaps_workers_and_session_can_refork(self, process_world,
                                                        sample):
        session = AnalysisSession(
            process_world,
            MegisConfig(abundance_method="statistical", backend="numpy",
                        executor="processes:2"),
        )
        session.warm()
        runner = session._runner
        pids = [probe["pid"] for probe in runner.probe_workers()]
        session.close()
        deadline = time.time() + 30
        while time.time() < deadline and any(
            _alive(pid) for pid in pids
        ):
            time.sleep(0.01)
        assert not any(_alive(pid) for pid in pids)
        # Closing is not terminal: the next analysis re-warms and re-forks.
        result = session.analyze(sample.reads[:40])
        assert result.candidates is not None
        assert session._runner is not runner
        session.close()

    @pytest.mark.parametrize("abundance", ["statistical", "mapping"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n_ssds", [1, 3])
    def test_equals_serial_counters_included(self, process_world, sample,
                                             n_ssds, workers, abundance):
        """A worker is the session forked: whatever ``workers`` is, the
        database is streamed as the ``n_ssds`` shards the config asked
        for, so every stream counter reads what the serial session's
        does — not just the species table."""
        config = MegisConfig(abundance_method=abundance, backend="numpy",
                             n_ssds=n_ssds)
        chunks = [sample.reads[:60], sample.reads[60:120]]
        expected = AnalysisSession(process_world, config).analyze_batch(chunks)
        with AnalysisSession(
            process_world, config, executor=f"processes:{workers}"
        ) as session:
            got = session.analyze_batch(chunks)
        assert [_signature(r) for r in got] == [_signature(r) for r in expected]
        for ours, theirs in zip(got, expected):
            assert ours.merge_stats == theirs.merge_stats
            for counter in ("db_stream_passes", "db_kmers_streamed",
                            "buckets_processed", "samples_batched"):
                assert getattr(ours.timings, counter) == \
                    getattr(theirs.timings, counter), counter
            assert len(ours.timings.measured_buckets) == \
                len(theirs.timings.measured_buckets)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


# -- service-level crash semantics -------------------------------------------

def _install_poison(monkeypatch):
    """Replace the analysis task with one that kills the worker on a
    poison sample.  Patched *before* the session forks, so workers (and
    every respawn, which re-forks the patched parent) inherit it; the
    pickle-by-reference lookup resolves to the patched function on both
    sides of the pipe."""
    from repro.megis import procpool

    real = procpool._task_analyze

    def poisoned_analyze(samples, with_abundance):
        if any(reads and reads[0].sequence == "POISON" for reads in samples):
            os._exit(51)
        return real(samples, with_abundance)

    poisoned_analyze.__module__ = real.__module__
    poisoned_analyze.__qualname__ = real.__qualname__
    poisoned_analyze.__name__ = real.__name__
    monkeypatch.setattr(procpool, "_task_analyze", poisoned_analyze)


class TestServiceCrashSemantics:
    def test_killed_worker_respawns_without_losing_queue(
        self, process_world, sample, monkeypatch
    ):
        """A worker killed mid-batch fails only the poisoned request —
        with a structured error after one respawn-retry — while every
        queued sample completes on the respawned worker."""
        from repro.sequences.reads import Read

        _install_poison(monkeypatch)
        config = MegisConfig(abundance_method="statistical", backend="numpy",
                             executor="processes:2")
        serial = AnalysisSession(process_world, MegisConfig(
            abundance_method="statistical", backend="numpy"))
        good = [sample.reads[i * 40:(i + 1) * 40] for i in range(3)]
        expected = [_signature(serial.analyze(reads)) for reads in good]
        poison = [Read(read_id=0, sequence="POISON", true_taxid=0)]

        with AnalysisSession(process_world, config) as session:
            # One sample per batch: the poison kill must not take
            # innocent batch-mates down with it in this test.
            with AnalysisService(session, workers=1, max_batch=1) as service:
                assert session._runner is not None
                futures = [service.submit(good[0], tag="g0"),
                           service.submit(poison, tag="poison"),
                           service.submit(good[1], tag="g1"),
                           service.submit(good[2], tag="g2")]
                service.close_submissions()  # end the completion stream
                completed = {
                    entry.tag: entry for entry in service.results()
                }
            assert set(completed) == {"g0", "poison", "g1", "g2"}
            with pytest.raises(WorkerCrashed) as crashed:
                completed["poison"].future.result()
            assert crashed.value.attempts == 2  # respawn happened, retried
            assert crashed.value.exitcode == 51
            for tag, want in zip(("g0", "g1", "g2"), expected):
                assert _signature(
                    completed[tag].future.result()) == want
            # Both deaths (initial + retry) respawned a worker, and the
            # respawned worker served the queued samples.
            assert session._runner.respawns >= 2
            assert all(future.done() for future in futures)
