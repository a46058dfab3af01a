"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestSimulate:
    def test_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert main(["simulate", str(out), "--reads", "60"]) == 0
        assert (out / "references.fasta").exists()
        assert (out / "reads.fastq").exists()
        truth = json.loads((out / "truth.json").read_text())
        assert truth and all(float(v) > 0 for v in truth.values())

    def test_diversity_choices(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["simulate", "x", "--diversity", "CAMI-X"])


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "ds"
    main(["simulate", str(out), "--reads", "120", "--seed", "5"])
    return out


class TestAnalyze:
    @pytest.mark.parametrize("tool", ["megis", "metalign", "kraken2"])
    def test_tools_run(self, dataset, tool, capsys):
        code = main([
            "analyze", str(dataset / "references.fasta"),
            str(dataset / "reads.fastq"), "--tool", tool,
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert f"tool: {tool}" in output
        assert "taxid" in output

    def test_statistical_abundance(self, dataset, capsys):
        code = main([
            "analyze", str(dataset / "references.fasta"),
            str(dataset / "reads.fastq"), "--abundance", "statistical",
        ])
        assert code == 0
        assert "species called" in capsys.readouterr().out

    def test_timings_print_the_phases_and_stream_counters(self, dataset, capsys):
        # No --backend: the default engine is numpy.
        code = main([
            "analyze", str(dataset / "references.fasta"),
            str(dataset / "reads.fastq"), "--timings",
        ])
        assert code == 0
        output = capsys.readouterr().out
        lines = [line.split() for line in output.splitlines()]
        assert ["step-2", "backend:", "numpy"] in lines
        for label in ("extract", "intersect", "retrieve", "abundance", "total"):
            [row] = [words for words in lines if words[:1] == [label]]
            assert row[2] == "ms" and float(row[1]) >= 0
        [counters] = [words for words in lines if words[:3] == ["db", "k-mers", "streamed:"]]
        assert int(counters[3]) > 0 and "buckets:" in counters
        assert "bucket pipeline" not in output

    def test_megis_matches_metalign_output(self, dataset, capsys):
        main(["analyze", str(dataset / "references.fasta"),
              str(dataset / "reads.fastq"), "--tool", "megis"])
        default_out = capsys.readouterr().out
        megis_out = default_out.splitlines()[1:]
        main(["analyze", str(dataset / "references.fasta"),
              str(dataset / "reads.fastq"), "--tool", "metalign"])
        metalign_out = capsys.readouterr().out.splitlines()[1:]
        assert megis_out == metalign_out
        # The default (numpy) engine prints the python reference's bytes.
        main(["analyze", str(dataset / "references.fasta"),
              str(dataset / "reads.fastq"), "--tool", "megis",
              "--backend", "python"])
        assert capsys.readouterr().out == default_out


class TestIndexLifecycle:
    @pytest.fixture(scope="class")
    def index_path(self, dataset, tmp_path_factory):
        path = tmp_path_factory.mktemp("idx") / "world.megis"
        assert main(["index", "build", str(dataset / "references.fasta"),
                     str(path)]) == 0
        return path

    def test_build_reports_stats(self, dataset, tmp_path, capsys):
        path = tmp_path / "out.megis"
        assert main(["index", "build", str(dataset / "references.fasta"),
                     str(path)]) == 0
        output = capsys.readouterr().out
        assert "wrote" in output and "db k-mers" in output
        assert path.exists()

    def test_analyze_from_index_matches_rebuild(self, dataset, index_path, capsys):
        main(["analyze", str(dataset / "reads.fastq"),
              "--index", str(index_path), "--ssds", "2"])
        from_index = capsys.readouterr().out
        main(["analyze", str(dataset / "references.fasta"),
              str(dataset / "reads.fastq")])
        rebuilt = capsys.readouterr().out
        assert from_index == rebuilt

    @pytest.mark.parametrize("tool", ["megis", "metalign"])
    def test_ad_hoc_analyze_runs_the_one_offline_build(self, dataset, tool,
                                                       monkeypatch, capsys):
        from repro.megis.index import IndexBuilder

        built = []
        build = IndexBuilder.build
        monkeypatch.setattr(
            IndexBuilder, "build",
            lambda self, references: built.append(build(self, references)) or built[-1],
        )
        assert main(["analyze", str(dataset / "references.fasta"),
                     str(dataset / "reads.fastq"), "--tool", tool]) == 0
        # ... which builds the KSS offline rather than inside the first query.
        assert len(built) == 1 and built[0]._kss is not None

    def test_metalign_from_index(self, dataset, index_path, capsys):
        code = main(["analyze", str(dataset / "reads.fastq"),
                     "--index", str(index_path), "--tool", "metalign"])
        assert code == 0
        assert "tool: metalign" in capsys.readouterr().out

    def test_mapping_without_references_fails_cleanly(self, dataset, tmp_path,
                                                      capsys):
        path = tmp_path / "slim.megis"
        main(["index", "build", str(dataset / "references.fasta"), str(path),
              "--no-references"])
        capsys.readouterr()
        code = main(["analyze", str(dataset / "reads.fastq"),
                     "--index", str(path)])
        assert code == 2
        assert "statistical" in capsys.readouterr().err
        assert main(["analyze", str(dataset / "reads.fastq"), "--index",
                     str(path), "--abundance", "statistical"]) == 0

    def test_kraken2_with_index_rejected(self, dataset, index_path, capsys):
        code = main(["analyze", str(dataset / "reads.fastq"),
                     "--index", str(index_path), "--tool", "kraken2"])
        assert code == 2
        assert "--index" in capsys.readouterr().err

    def test_analyze_without_reads_errors(self, dataset, capsys):
        assert main(["analyze", str(dataset / "references.fasta")]) == 2
        assert "READS" in capsys.readouterr().err


class TestUnopenableIndex:
    """A missing or corrupt --index is one stderr line and exit status 2
    from every command that opens one — never a traceback."""

    COMMANDS = {
        "analyze": lambda dataset, index: [
            "analyze", str(dataset / "reads.fastq"), "--index", index],
        "serve": lambda dataset, index: ["serve", "--index", index],
        "gateway": lambda dataset, index: ["gateway", "--index", index],
        "node": lambda dataset, index: [
            "node", "--index", index, "--node-id", "0", "--nodes", "1"],
        "cluster": lambda dataset, index: [
            "cluster", "--index", index, "--nodes", "1",
            "--node", "127.0.0.1:1"],
    }

    @pytest.fixture(scope="class")
    def truncated(self, dataset, tmp_path_factory):
        directory = tmp_path_factory.mktemp("broken")
        whole = directory / "whole.megis"
        assert main(["index", "build", str(dataset / "references.fasta"),
                     str(whole)]) == 0
        path = directory / "truncated.megis"
        path.write_bytes(whole.read_bytes()[: whole.stat().st_size // 2])
        return path

    @pytest.fixture(scope="class")
    def tampered(self, truncated):
        """A well-formed container whose manifest lies about its shards."""
        from tests.strategies import with_manifest

        whole = truncated.with_name("whole.megis")
        path = truncated.with_name("tampered.megis")
        path.write_bytes(with_manifest(
            whole.read_bytes(), lambda m: {**m, "n_shards": "two"}))
        return path

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_tampered_manifest(self, command, dataset, tampered, capsys):
        assert main(self.COMMANDS[command](dataset, str(tampered))) == 2
        err = capsys.readouterr().err
        assert "n_shards" in err and len(err.splitlines()) == 1

    def test_no_command_takes_a_mmap_flag(self, dataset, capsys):
        """Opening is mapping: the switch is gone, not defaulted."""
        for command in sorted(self.COMMANDS):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    self.COMMANDS[command](dataset, "x.megis") + ["--mmap"])
            assert "unrecognized arguments: --mmap" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_nonexistent_path(self, command, dataset, tmp_path, capsys):
        missing = str(tmp_path / "nowhere.megis")
        assert main(self.COMMANDS[command](dataset, missing)) == 2
        err = capsys.readouterr().err
        assert missing in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_truncated_file(self, command, dataset, truncated, capsys):
        assert main(self.COMMANDS[command](dataset, str(truncated))) == 2
        err = capsys.readouterr().err
        assert str(truncated) in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["analyze", "serve", "gateway"])
def test_retired_process_executor_is_a_usage_error(command, dataset, capsys):
    """``--executor processes:2`` names no executor: argparse refuses it
    (exit 2) before anything opens, and points at ``threads:N``."""
    argv = TestUnopenableIndex.COMMANDS[command](dataset, "unused.megis")
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--executor", "processes:2"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "'processes:2'" in err and "'threads:N'" in err


class TestBadNumbers:
    """A number the command cannot use is one stderr message and exit
    status 2 — argparse's usage error, or the builder's or the
    simulator's refusal — never a ValueError traceback."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "{tmp}/ds", "--reads", "-5"],
        ["index", "build", "{refs}", "{tmp}/x.megis", "--k", "0"],
        ["index", "build", "{refs}", "{tmp}/x.megis", "--k", "1"],
        ["index", "build", "{refs}", "{tmp}/x.megis", "--sketch-fraction", "0"],
        ["index", "build", "{refs}", "{tmp}/x.megis", "--sketch-fraction", "nan"],
        ["index", "build", "{refs}", "{tmp}/x.megis", "--sketch-fraction", "2"],
        ["analyze", "{refs}", "{reads}", "--k", "0"],
        ["analyze", "{refs}", "{reads}", "--k", "1"],
    ], ids=lambda argv: " ".join(arg for arg in argv if "{" not in arg))
    def test_exit_2_without_traceback(self, argv, dataset, tmp_path, capsys):
        argv = [arg.format(tmp=tmp_path, refs=dataset / "references.fasta",
                           reads=dataset / "reads.fastq") for arg in argv]
        try:
            code = main(argv)
        except SystemExit as usage:
            code = usage.code
        assert code == 2
        err = capsys.readouterr().err
        assert err.strip() and "Traceback" not in err
        assert not (tmp_path / "x.megis").exists()


class TestReplicaFlag:
    """``--replica NODE=HOST:PORT``: parsed by ``options.replica_spec``,
    then refused by ``repro cluster`` unless each names a placed node once
    — all before any connection is made."""

    @pytest.mark.parametrize("value, want", [
        ("0=127.0.0.1:7001", (0, ("127.0.0.1", 7001))),
        ("12=node-b.local:65535", (12, ("node-b.local", 65535))),
        ("1=::1:80", (1, ("::1", 80))),
    ])
    def test_spec_parses(self, value, want):
        from repro.options import replica_spec

        assert replica_spec(value) == want

    @pytest.mark.parametrize("value, message", [
        ("127.0.0.1:7001", "NODE=HOST:PORT"),
        ("one=127.0.0.1:7001", "integer node id"),
        ("-1=127.0.0.1:7001", "node id must be >= 0"),
        ("0=127.0.0.1:http", "numeric port"),
        ("0=127.0.0.1:0", "port must be in"),
        ("0=127.0.0.1", "HOST:PORT"),
    ])
    def test_spec_refuses(self, value, message):
        import argparse

        from repro.options import replica_spec

        with pytest.raises(argparse.ArgumentTypeError, match=message):
            replica_spec(value)

    @pytest.fixture(scope="class")
    def index_path(self, dataset, tmp_path_factory):
        path = tmp_path_factory.mktemp("replica") / "world.megis"
        assert main(["index", "build", str(dataset / "references.fasta"),
                     str(path)]) == 0
        return path

    @pytest.mark.parametrize("replicas, message", [
        (["2=127.0.0.1:7003"], "--replica names nodes [2] outside [0, 2)"),
        (["0=127.0.0.1:7003", "0=127.0.0.1:7004"], "--replica names node 0 twice"),
    ])
    def test_cluster_refuses(self, index_path, replicas, message, capsys):
        argv = ["cluster", "--index", str(index_path), "--nodes", "2",
                "--node", "127.0.0.1:7001", "--node", "127.0.0.1:7002"]
        for replica in replicas:
            argv += ["--replica", replica]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1


class TestServe:
    @pytest.fixture(scope="class")
    def index_path(self, dataset, tmp_path_factory):
        path = tmp_path_factory.mktemp("serve") / "world.megis"
        assert main(["index", "build", str(dataset / "references.fasta"),
                     str(path)]) == 0
        return path

    @pytest.fixture(scope="class")
    def sample_chunks(self, dataset):
        from repro.sequences.io import reads_from_fastq

        reads = reads_from_fastq((dataset / "reads.fastq").read_text())
        size = len(reads) // 3
        return [reads[i * size:(i + 1) * size] for i in range(3)]

    def _serve(self, monkeypatch, capsys, index_path, lines, *flags):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        code = main(["serve", "--index", str(index_path), *flags])
        captured = capsys.readouterr()
        return code, [json.loads(line) for line in
                      captured.out.strip().splitlines()], captured.err

    def test_jsonl_roundtrip_matches_analyze(self, monkeypatch, capsys,
                                             index_path, sample_chunks):
        """Served results == serial session.analyze; --strict-order
        restores input order however batches coalesce."""
        lines = "".join(
            json.dumps({"schema": 1, "id": f"s{i}",
                        "reads": [r.sequence for r in chunk]}) + "\n"
            for i, chunk in enumerate(sample_chunks)
        )
        code, records, err = self._serve(
            monkeypatch, capsys, index_path, lines,
            "--workers", "2", "--backend", "numpy",
            "--executor", "threads:2", "--strict-order",
        )
        assert code == 0
        assert [r["id"] for r in records] == ["s0", "s1", "s2"]
        assert "served 3 samples" in err
        assert "peak queued" in err

        from repro.megis.index import MegisIndex
        from repro.megis.session import AnalysisSession, MegisConfig

        session = AnalysisSession(MegisIndex.open(index_path),
                                  MegisConfig(backend="numpy"))
        for record, chunk in zip(records, sample_chunks):
            expected = session.analyze(chunk)
            assert record["schema"] == 1
            assert record["n_reads"] == len(chunk)
            assert record["candidates"] == sorted(expected.candidates)
            assert record["profile"] == {
                str(t): f
                for t, f in sorted(expected.profile.fractions.items())
            }
            assert record["queue_wait_ms"] >= 0
            assert record["latency_ms"] >= record["queue_wait_ms"]

    def test_malformed_lines_become_error_records(self, monkeypatch, capsys,
                                                  index_path, sample_chunks):
        """Each malformed line yields one structured error object; errors
        stream out as parsed, so match on content, not position."""
        lines = "\n".join([
            "this is not json",
            json.dumps({"schema": 1, "no_reads_key": True}),
            json.dumps({"schema": 1, "id": "ok",
                        "reads": [r.sequence for r in sample_chunks[0]]}),
            json.dumps({"schema": 1, "id": "bad", "reads": [1, 2, 3]}),
            json.dumps({"id": "unversioned", "reads": []}),
            json.dumps({"schema": 99, "id": "future", "reads": []}),
        ]) + "\n"
        code, records, _ = self._serve(monkeypatch, capsys, index_path, lines)
        assert code == 0
        assert all(r["schema"] == 1 for r in records)
        by_line = {r["line"]: r for r in records if "error" in r}
        assert set(by_line) == {1, 2, 4, 5, 6}
        assert "bad JSON" in by_line[1]["error"]
        assert "expected an object" in by_line[2]["error"]
        assert "sequence strings" in by_line[4]["error"]
        assert by_line[4]["id"] == "bad"
        assert "missing 'schema'" in by_line[5]["error"]
        assert by_line[5]["id"] == "unversioned"
        assert "unsupported schema 99" in by_line[6]["error"]
        ok = next(r for r in records if "error" not in r)
        assert ok["id"] == "ok" and "candidates" in ok

    def test_duplicate_ids_rejected_on_the_wire(self, monkeypatch, capsys,
                                                index_path, sample_chunks):
        reads = [r.sequence for r in sample_chunks[0]]
        lines = "".join([
            json.dumps({"schema": 1, "id": "twin", "reads": reads}) + "\n",
            "\n",  # blank lines are skipped, not errors
            json.dumps({"schema": 1, "id": "twin", "reads": reads}) + "\n",
        ])
        code, records, err = self._serve(monkeypatch, capsys, index_path,
                                         lines)
        assert code == 0
        assert len(records) == 2
        errors = [r for r in records if "error" in r]
        assert len(errors) == 1
        assert "duplicate id 'twin'" in errors[0]["error"]
        assert errors[0]["line"] == 3
        assert "served 1 samples" in err

    def test_deadline_zero_expires_every_request(self, monkeypatch, capsys,
                                                 index_path, sample_chunks):
        """--deadline-ms 0: claim time is strictly after enqueue, so every
        request fails with a structured deadline error."""
        lines = json.dumps(
            {"schema": 1, "id": "late",
             "reads": [r.sequence for r in sample_chunks[0]]}
        ) + "\n"
        code, records, err = self._serve(monkeypatch, capsys, index_path,
                                         lines, "--deadline-ms", "0")
        assert code == 0
        assert records[0]["id"] == "late"
        assert "deadline" in records[0]["error"]
        assert "1 past deadline" in err

    def test_bounded_queue_reports_peak_at_bound(self, monkeypatch, capsys,
                                                 index_path, sample_chunks):
        """--max-queue N: stdin reading blocks when full, so the queue
        high-water mark never exceeds the configured bound."""
        lines = "".join(
            json.dumps({"schema": 1, "id": i,
                        "reads": [r.sequence for r in sample_chunks[0]]})
            + "\n"
            for i in range(6)
        )
        code, records, err = self._serve(monkeypatch, capsys, index_path,
                                         lines, "--max-queue", "2",
                                         "--max-batch", "1")
        assert code == 0
        assert len(records) == 6
        assert "peak queued 2" in err

    def test_submit_failure_is_error_record_not_fatal(self, monkeypatch,
                                                      capsys, index_path,
                                                      sample_chunks):
        """A submit-side exception for one line becomes one structured
        error record; later lines still serve and the summary prints."""
        from repro.megis.service import AnalysisService

        real_submit = AnalysisService.submit

        def failing_submit(self, sample, **kwargs):
            if kwargs.get("tag", (None,))[0] == "boom":
                raise RuntimeError("disk on fire")
            return real_submit(self, sample, **kwargs)

        monkeypatch.setattr(AnalysisService, "submit", failing_submit)
        reads = [r.sequence for r in sample_chunks[0]]
        lines = "".join(
            json.dumps({"schema": 1, "id": rid, "reads": reads}) + "\n"
            for rid in ("ok1", "boom", "ok2")
        )
        code, records, err = self._serve(monkeypatch, capsys, index_path,
                                         lines)
        assert code == 0
        by_id = {r["id"]: r for r in records}
        assert "submit failed: disk on fire" in by_id["boom"]["error"]
        assert by_id["boom"]["line"] == 2
        assert "candidates" in by_id["ok1"]
        assert "candidates" in by_id["ok2"]
        assert "served 2 samples" in err

    def test_dead_consumer_unblocks_backpressured_reader(self, monkeypatch,
                                                         capsys, index_path,
                                                         sample_chunks):
        """stdout closing mid-stream while the reader is parked on
        --max-queue backpressure must not deadlock the drain: accepted
        samples finish, the stderr summary prints, exit status is 1."""
        import io
        import time

        from repro.megis.session import AnalysisSession

        real_analyze = AnalysisSession.analyze_batch

        def slow_analyze(self, samples, *args, **kwargs):
            time.sleep(0.15)  # hold the queue full while stdout dies
            return real_analyze(self, samples, *args, **kwargs)

        monkeypatch.setattr(AnalysisSession, "analyze_batch", slow_analyze)

        class DyingStdout(io.TextIOBase):
            """Accepts one full line, then raises like a closed pipe."""

            def __init__(self):
                self.lines = []
                self._buffer = ""

            def write(self, text):
                if self.lines:
                    raise BrokenPipeError(32, "Broken pipe")
                self._buffer += text
                if "\n" in self._buffer:
                    line, self._buffer = self._buffer.split("\n", 1)
                    self.lines.append(line)
                return len(text)

            def flush(self):
                if self.lines and not self._buffer:
                    return
                if self.lines:
                    raise BrokenPipeError(32, "Broken pipe")

        reads = [r.sequence for r in sample_chunks[0]]
        lines = "".join(
            json.dumps({"schema": 1, "id": i, "reads": reads}) + "\n"
            for i in range(6)
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        fake_stdout = DyingStdout()
        monkeypatch.setattr("sys.stdout", fake_stdout)
        code = main(["serve", "--index", str(index_path),
                     "--max-queue", "1", "--max-batch", "1",
                     "--workers", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "output consumer went away, stopped early" in err
        assert "served" in err  # the summary still prints
        assert len(fake_stdout.lines) == 1
        assert json.loads(fake_stdout.lines[0])["id"] == 0

    def test_help_documents_malformed_input(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        text = capsys.readouterr().out
        assert "Malformed input never stops the stream" in text
        assert "--max-line-bytes" in text
        assert '"schema": 1' in text

    def test_statistical_without_references(self, monkeypatch, capsys, dataset,
                                            tmp_path, sample_chunks):
        slim = tmp_path / "slim.megis"
        main(["index", "build", str(dataset / "references.fasta"), str(slim),
              "--no-references"])
        capsys.readouterr()
        code = main(["serve", "--index", str(slim)])
        assert code == 2
        assert "statistical" in capsys.readouterr().err
        lines = json.dumps(
            {"schema": 1, "id": 1,
             "reads": [r.sequence for r in sample_chunks[0]]}
        ) + "\n"
        code, records, _ = self._serve(monkeypatch, capsys, slim, lines,
                                       "--abundance", "statistical")
        assert code == 0
        assert records[0]["candidates"]

    def test_non_utf8_stdin_serves_error_record(self, monkeypatch, capsys,
                                                tmp_path):
        """End to end: a binary-garbage line becomes an error object and
        later valid lines still get served."""
        import io

        from repro.workloads.cami import CamiDiversity, make_cami_sample
        from repro.sequences.io import references_to_fasta

        sample = make_cami_sample(CamiDiversity.LOW, n_reads=40, seed=3)
        fasta = tmp_path / "refs.fasta"
        fasta.write_text(references_to_fasta(sample.references))
        index_path = tmp_path / "w.megis"
        assert main(["index", "build", str(fasta), str(index_path)]) == 0
        capsys.readouterr()
        good = json.dumps({"schema": 1, "id": "ok", "reads":
                           [r.sequence for r in sample.reads[:10]]})
        raw = b'{"id": "\xff", "reads": []}\n' + good.encode() + b"\n"
        monkeypatch.setattr("sys.stdin",
                            io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
        assert main(["serve", "--index", str(index_path)]) == 0
        records = [json.loads(line) for line in
                   capsys.readouterr().out.strip().splitlines()]
        by_id = {r["id"]: r for r in records}
        assert "not valid UTF-8" in by_id[1]["error"]
        assert "candidates" in by_id["ok"]


class TestServingKnobFlags:
    """Serving time and rate flags refuse values that would stall, kill
    or silently disable serving: a usage error (exit 2) naming the flag,
    before any index is opened."""

    @pytest.mark.parametrize("command,flag,value", [
        *[(command, flag, value)
          for command in ("serve", "gateway")
          for flag, values in (("--batch-window-ms", ("nan", "inf", "-1")),
                               ("--deadline-ms", ("-5", "nan", "inf")))
          for value in values],
        ("gateway", "--rate-limit", "nan"),
        ("gateway", "--rate-limit", "inf"),
        ("gateway", "--rate-limit", "0"),
        ("gateway", "--rate-burst", "0.5"),
        ("gateway", "--rate-burst", "nan"),
        ("gateway", "--rate-burst", "inf"),
        ("gateway", "--admission-timeout-ms", "nan"),
        ("gateway", "--admission-timeout-ms", "inf"),
        ("gateway", "--admission-timeout-ms", "-1"),
    ])
    def test_bad_value_is_a_usage_error(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as usage:
            main([command, "--index", "unused.megis", f"{flag}={value}"])
        assert usage.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    def test_zero_finite_and_unset_values_parse(self):
        parser = build_parser()
        flags = parser.parse_args([
            "gateway", "--index", "unused.megis", "--batch-window-ms", "0",
            "--deadline-ms", "0", "--rate-limit", "2.5", "--rate-burst", "1",
            "--admission-timeout-ms", "0",
        ])
        assert (flags.batch_window_ms, flags.deadline_ms, flags.rate_limit,
                flags.rate_burst, flags.admission_timeout_ms) == (
            0.0, 0.0, 2.5, 1.0, 0.0)
        unset = parser.parse_args(["serve", "--index", "unused.megis",
                                   "--batch-window-ms", "2.5"])
        assert unset.batch_window_ms == 2.5 and unset.deadline_ms is None


class TestValidate:
    def test_validate_passes(self, capsys):
        assert main(["validate"]) == 0
        output = capsys.readouterr().out
        assert "targets in band" in output
        assert "OUT OF BAND" not in output


class TestModel:
    def test_model_prints_all_configs(self, capsys):
        assert main(["model", "--ssd", "SSD-P", "--sample", "CAMI-L"]) == 0
        output = capsys.readouterr().out
        for config in ("P-Opt", "A-Opt", "Sieve", "MS-NOL", "MS-CC", "MS"):
            assert config in output

    def test_ms_speedup_is_one(self, capsys):
        main(["model"])
        output = capsys.readouterr().out
        ms_line = next(line for line in output.splitlines() if line.strip().startswith("MS "))
        assert "1.00x" in ms_line
