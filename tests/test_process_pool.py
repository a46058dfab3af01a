"""Process serving tier: fork-after-mmap COW, the forked session, respawn.

Three layers under test (a hung pipe or a lost respawn would deadlock,
so every wait on another thread is bounded):

- the worker protocol of :mod:`repro.megis.procpool`, through a
  process-backed session with a hook patched onto
  ``AnalysisSession._analyze`` before ``warm()`` — fork semantics, crash
  detection via the process sentinel, respawn with one retry,
  :class:`WorkerCrashed` after the retry dies too, and the idle queue
  (callers beyond N wait; ``close()`` waits, reaps, releases);
- :class:`~repro.megis.procpool.ProcessAnalysisRunner` through
  :class:`~repro.megis.session.AnalysisSession` — a worker is the warmed
  session forked, so results *and* stream counters equal the serial
  path's, and the copy-on-write contract: workers forked after
  ``MegisIndex.open()`` + ``warm()`` must see the parent's column-build
  counters unchanged (a duplicated index would rebuild);
- :class:`~repro.megis.service.AnalysisService` over a process-backed
  session — a worker killed mid-batch is respawned, queued samples all
  complete, and only the poisoned request fails with a structured error;
  and the service starts a thread per forked worker whatever ``workers``
  says, so no child idles behind too few drivers.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.megis.executors import default_workers
from repro.megis.index import MegisIndex
from repro.megis.procpool import WorkerCrashed
from repro.megis.service import AnalysisService
from repro.megis.session import AnalysisSession, MegisConfig
from repro.sequences.reads import Read

#: One non-empty batch for hooks that never reach the real analysis.
_ANY = [[]]
_POISON = [Read(read_id=0, sequence="POISON", true_taxid=0)]


def _install_hook(monkeypatch, hook):
    """Run ``hook(session, samples)`` in front of the one analysis body.

    Patched onto ``AnalysisSession._analyze`` *before* the session forks,
    so workers (and every respawn, which re-forks the patched parent)
    inherit it; in a process-backed session ``_analyze`` runs only in
    the children.  A hook returning ``None`` falls through to the real
    analysis; anything else is the batch's answer.
    """
    real = AnalysisSession._analyze

    def hooked(self, samples, with_abundance, step_two):
        answer = hook(self, samples)
        if answer is not None:
            return answer
        return real(self, samples, with_abundance, step_two)

    monkeypatch.setattr(AnalysisSession, "_analyze", hooked)


def _poisoned(samples) -> bool:
    return any(reads and reads[0].sequence == "POISON" for reads in samples)


def _worker_processes():
    return {p.pid for p in multiprocessing.active_children()
            if p.name.startswith("megis-procworker")}


def _wait_for(predicate, seconds=30.0):
    deadline = time.time() + seconds
    while time.time() < deadline and not predicate():
        time.sleep(0.01)
    return predicate()


class _Call(threading.Thread):
    """A started daemon thread that keeps what its target returned or
    raised in ``outcome``."""

    def __init__(self, target):
        super().__init__(daemon=True)
        self._call, self.outcome = target, None
        self.start()

    def run(self):
        try:
            self.outcome = self._call()
        except BaseException as exc:  # noqa: BLE001 - asserted by the caller
            self.outcome = exc


def _run_in_threads(targets, seconds=120.0):
    """Run each callable on its own thread; returns ``(outcomes, hung)``
    where an outcome is the return value or the raised exception."""
    threads = [_Call(target) for target in targets]
    deadline = time.time() + seconds
    for thread in threads:
        thread.join(max(0.0, deadline - time.time()))
    return ([t.outcome for t in threads],
            [t for t in threads if t.is_alive()])


@pytest.fixture
def hooked(monkeypatch, process_world):
    """Factory: a hook -> the warmed (forked) ``processes:N`` session
    whose workers run it; every session is closed at teardown."""
    sessions = []

    def make(hook, workers=2):
        _install_hook(monkeypatch, hook)
        session = AnalysisSession(process_world, MegisConfig(
            abundance_method="statistical", backend="numpy",
            executor=f"processes:{workers}"))
        sessions.append(session)
        return session.warm()

    yield make
    for session in sessions:
        session.close()


class TestProcessExecutor:
    def test_tasks_run_out_of_process(self, hooked):
        session = hooked(lambda self, samples: [os.getpid()])
        pids = {session.analyze_batch(_ANY)[0] for _ in range(8)}
        assert os.getpid() not in pids

    def test_state_is_fork_inherited_and_hook_runs(self, hooked):
        state = ["before-fork"]

        def report(self, samples):
            return [(os.getpid(), list(state), self._runner is None,
                     self._process_workers)]

        session = hooked(report, workers=1)
        state.append("after-fork")
        [(pid, seen, unhooked, process_workers)] = session.analyze_batch(_ANY)
        assert pid != os.getpid()
        # Inherited at the fork, not shipped per batch — and the parent's
        # later writes are its own: COW, not shared memory.
        assert seen == ["before-fork"]
        # The child-side repair ran there (serial path, no recursion into
        # the parent's workers) and left the parent's session untouched.
        assert unhooked and process_workers is None
        assert session._runner is not None and session._process_workers == 1

    def test_crash_respawns_and_retries_once(self, hooked, tmp_path):
        flag = tmp_path / "died-once"

        def die_unless_flagged(self, samples):
            """First run: leave a flag and die.  Retry run: survive."""
            if not flag.exists():
                flag.touch()
                os._exit(43)
            return ["survived"]

        session = hooked(die_unless_flagged)
        assert session.analyze_batch(_ANY) == ["survived"]
        assert session._runner.respawns == 1
        assert flag.exists()

    def test_persistent_crash_fails_structured(self, hooked):
        session = hooked(
            lambda self, samples: os._exit(9) if _poisoned(samples) else ["ok"]
        )
        with pytest.raises(WorkerCrashed) as crashed:
            session.analyze_batch([_POISON])
        assert crashed.value.attempts == 2  # first run + one retry
        assert crashed.value.exitcode == 9
        assert "analyze_batch" in str(crashed.value)
        # The workers keep serving after giving up on the poisoned batch.
        assert session.analyze_batch(_ANY) == ["ok"]
        assert session._runner.respawns == 2

    def test_twice_crashed_batch_leaves_the_pool_whole(self, hooked):
        """Both deaths are replaced before the handle is checked back in
        (the ``finally``): N live children without anyone asking."""
        session = hooked(
            lambda self, samples: os._exit(9) if _poisoned(samples) else ["ok"]
        )
        with pytest.raises(WorkerCrashed):
            session.analyze_batch([_POISON])
        assert len(_worker_processes()) == 2
        pids = {probe["pid"] for probe in session._runner.probe_workers()}
        assert len(pids) == 2 and all(_alive(pid) for pid in pids)
        assert session.analyze_batch(_ANY) == ["ok"]

    def test_sigkill_idle_worker_respawns(self, hooked):
        session = hooked(lambda self, samples: [os.getpid()])
        runner = session._runner
        victim = runner.probe_workers()[0]["pid"]
        os.kill(victim, signal.SIGKILL)
        # A killed child stays a zombie (kill(pid, 0) succeeds) until its
        # parent reaps it; is_alive() polls waitpid.
        assert _wait_for(lambda: len(_worker_processes()) == 1)
        replacements = {probe["pid"] for probe in runner.probe_workers()}
        assert victim not in replacements and len(replacements) == 2
        assert runner.respawns == 1
        served = {session.analyze_batch(_ANY)[0] for _ in range(4)}
        assert served <= replacements

    def test_exceptions_cross_the_pipe(self, hooked):
        def raise_value_error(self, samples):
            raise ValueError("relayed")

        session = hooked(raise_value_error)
        with pytest.raises(ValueError, match="relayed"):
            session.analyze_batch(_ANY)
        assert session._runner.respawns == 0

    def test_unpicklable_payload_degrades_to_error(self, hooked):
        session = hooked(lambda self, samples: [lambda: None])
        with pytest.raises(RuntimeError, match="did not survive the pipe"):
            session.analyze_batch(_ANY)
        # ...and an unpicklable *request* fails before anything is sent.
        with pytest.raises(Exception, match="pickle"):
            session.analyze_batch([[lambda: None]])
        assert session._runner.respawns == 0

    def test_rejects_bad_worker_count(self, process_world):
        with pytest.raises(ValueError):
            AnalysisSession(process_world, executor="processes:0")
        with pytest.raises(ValueError):
            MegisConfig(executor="processes:-1")

    def test_more_callers_than_workers(self, process_world, sample):
        """One queue, one thread per busy worker: six callers share two
        forked workers, the extra four wait on the idle queue, and every
        answer is the serial session's."""
        config = MegisConfig(abundance_method="statistical", backend="numpy")
        chunks = [sample.reads[i * 40:(i + 1) * 40] for i in range(6)]
        serial = AnalysisSession(process_world, config)
        expected = [_signature(serial.analyze(reads)) for reads in chunks]
        seen = []

        def call(reads):
            result = session.analyze(reads)
            seen.append((len(_worker_processes()), [
                t.name for t in threading.enumerate()
                if t.name.startswith("megis-procpool")
            ]))
            return _signature(result)

        with AnalysisSession(
            process_world, config, executor="processes:2"
        ) as session:
            session.warm()
            got, hung = _run_in_threads(
                [lambda reads=reads: call(reads) for reads in chunks]
            )
            assert not hung
            assert got == expected
            assert session._runner.respawns == 0
        # Under load: exactly the N forked children, and no parent-side
        # thread of the runner's own.
        assert seen == [(2, [])] * 6

    def test_close_waits_reaps_and_releases_waiters(self, hooked, tmp_path):
        started, release = tmp_path / "started", tmp_path / "release"

        def slow(self, samples):
            started.touch()
            while not release.exists():
                time.sleep(0.01)
            return ["finished"]

        session = hooked(slow, workers=1)
        runner = session._runner
        [pid] = [probe["pid"] for probe in runner.probe_workers()]
        in_flight = _Call(lambda: runner.analyze_batch(_ANY))
        assert _wait_for(started.exists)
        waiting = _Call(lambda: runner.analyze_batch(_ANY))
        closing = _Call(session.close)
        time.sleep(0.3)
        # close() is waiting for the batch in flight, not abandoning it.
        assert in_flight.is_alive() and closing.is_alive()
        assert _alive(pid)
        release.touch()
        for thread in (in_flight, waiting, closing):
            thread.join(60)
            assert not thread.is_alive()
        assert in_flight.outcome == ["finished"]
        assert closing.outcome is None
        assert isinstance(waiting.outcome, RuntimeError)
        assert "closed" in str(waiting.outcome)
        assert not _worker_processes()
        with pytest.raises(RuntimeError, match="closed"):
            runner.analyze_batch(_ANY)
        with pytest.raises(RuntimeError, match="closed"):
            runner.probe_workers()

    def test_concurrent_probes_do_not_deadlock(self, hooked):
        """Each probe collects *every* handle; two of them must not end
        up holding half the pool each."""
        session = hooked(lambda self, samples: [os.getpid()])
        runner = session._runner

        def probe_repeatedly():
            return [
                frozenset(probe["pid"] for probe in runner.probe_workers())
                for _ in range(25)
            ]

        outcomes, hung = _run_in_threads(
            [probe_repeatedly, probe_repeatedly,
             lambda: [session.analyze_batch(_ANY) for _ in range(25)]],
            seconds=60,
        )
        assert not hung
        pids = set(outcomes[0]) | set(outcomes[1])
        assert len(pids) == 1 and len(next(iter(pids))) == 2


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
        assert bare._process_workers == default_workers()
        assert default_workers() == len(os.sched_getaffinity(0))
        sized = AnalysisSession(
            process_world, MegisConfig(executor="processes:3")
        )
        assert sized._process_workers == 3 == sized.process_workers
        assert sized._threads_spec is None  # Step 2 stays serial in-worker

    def test_scope_wraps_a_process_backed_analysis(self, process_world,
                                                   sample):
        """The §4.6 command scope lives with the caller, so a
        process-backed session can run inside one: the forked worker's
        answer is the serial one and the SSD ends in baseline mode."""
        from repro.megis.commands import CommandProcessor, SsdMode
        from repro.ssd.config import ssd_c
        from repro.ssd.device import SSD

        config = MegisConfig(abundance_method="statistical", backend="numpy")
        expected = _signature(
            AnalysisSession(process_world, config).analyze(sample.reads)
        )
        processor = CommandProcessor(SSD(ssd_c()))
        with AnalysisSession(
            process_world, config, executor="processes:2"
        ) as session:
            with processor.analysis(process_world):
                assert _signature(session.analyze(sample.reads)) == expected
        assert processor.mode is SsdMode.BASELINE
        assert set(processor.ssd.dram.allocations()) == {"baseline_l2p"}

    def test_mmap_fork_shares_columns_cow(self, process_world, tmp_path):
        """The ISSUE's COW assertion: fork after ``open(mmap=True)`` +
        ``warm()`` duplicates no index state — the columns a worker
        reads *inside the forked process* sit at the parent's addresses
        (a per-worker copy would land somewhere else) and the KSS taxID
        column is still the mapped file there."""
        path = tmp_path / "world.megis"
        process_world.save(path)
        index = MegisIndex.open(path, mmap=True)
        assert isinstance(index.kss.store().taxids, np.memmap)
        with AnalysisSession(
            index, MegisConfig(abundance_method="statistical",
                               backend="numpy", executor="processes:2"),
        ) as session:
            session.warm()  # the fork point
            column_address = index.database.column().ctypes.data
            taxids_address = index.kss.store().taxids.ctypes.data
            for probe in session._runner.probe_workers():
                assert probe["pid"] != os.getpid()
                assert probe["column_address"] == column_address
                assert probe["taxids_address"] == taxids_address
                assert probe["taxids_mapped"] is True
                assert probe["row_materializations"] == 0
                assert index.database.row_materializations == 0
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


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


# -- service-level crash semantics -------------------------------------------

class TestServiceCrashSemantics:
    def test_killed_worker_respawns_without_losing_queue(
        self, process_world, sample, monkeypatch
    ):
        """A worker killed mid-batch fails only the poisoned request —
        with a structured error after one respawn-retry — while every
        queued sample completes on the respawned worker."""
        _install_hook(
            monkeypatch,
            lambda self, samples: os._exit(51) if _poisoned(samples) else None,
        )
        config = MegisConfig(abundance_method="statistical", backend="numpy",
                             executor="processes:2")
        serial = AnalysisSession(process_world, MegisConfig(
            abundance_method="statistical", backend="numpy"))
        good = [sample.reads[i * 40:(i + 1) * 40] for i in range(3)]
        expected = [_signature(serial.analyze(reads)) for reads in good]
        with AnalysisSession(process_world, config) as session:
            # One sample per batch: the poison kill must not take
            # innocent batch-mates down with it in this test.
            with AnalysisService(session, workers=1, max_batch=1) as service:
                assert session._runner is not None
                futures = [service.submit(good[0], tag="g0"),
                           service.submit(_POISON, tag="poison"),
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
            assert session._runner.respawns == 2
            assert all(future.done() for future in futures)
            # Conservation: the crash cost the poisoned request its
            # answer, not the service a request.
            stats = service.stats
            assert stats.samples_submitted == 4
            assert stats.samples_submitted == (
                stats.samples_completed + stats.samples_cancelled
                + stats.samples_expired
            )


class TestServiceDrivesEveryWorker:
    def test_bare_service_keeps_both_children_busy(
        self, process_world, sample, monkeypatch, tmp_path
    ):
        """Each service thread drives one forked worker, so a service
        over ``processes:2`` starts two even when asked for one: the
        children rendezvous — each waits until both hold a batch — which
        a single driving thread could never satisfy.  ``max_batch`` stays
        what ``workers`` implied, and the answers are the serial ones."""
        config = MegisConfig(abundance_method="statistical", backend="numpy")
        chunks = [sample.reads[i * 40:(i + 1) * 40] for i in range(4)]
        serial = AnalysisSession(process_world, config)
        expected = [_signature(serial.analyze(reads)) for reads in chunks]

        def rendezvous(self, samples):
            (tmp_path / str(os.getpid())).touch()
            if not _wait_for(lambda: len(list(tmp_path.iterdir())) == 2,
                             seconds=20):
                raise RuntimeError("the other forked worker sat idle")

        _install_hook(monkeypatch, rendezvous)
        with AnalysisSession(
            process_world, config, executor="processes:2"
        ) as session:
            with AnalysisService(session) as service:
                assert service.max_batch == 1
                futures = [service.submit(reads) for reads in chunks]
                got = [_signature(f.result(timeout=120)) for f in futures]
        assert got == expected
        assert len(list(tmp_path.iterdir())) == 2
