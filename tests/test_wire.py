"""The wire format in isolation: every constructor round-trips, every
malformed input is a message (never an exception), schema versioning is
enforced on ingest.

The serving surfaces (serve/gateway/cluster) all import
:mod:`repro.megis.wire`, so this suite is the contract they share —
end-to-end coverage lives with each surface, byte-level fidelity lives
here.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.backends.retrieval import LevelHits, RetrievalResult
from repro.megis import wire


def parse(line, line_no=1, **kwargs):
    return wire.parse_request_line(line, line_no, **kwargs)


def decode(record):
    """encode() -> one framed line -> the JSON object back."""
    raw = wire.encode(record)
    assert raw.endswith(b"\n") and raw.count(b"\n") == 1
    return json.loads(raw[:-1].decode("utf-8"))


class TestParseRequestLine:
    def test_valid_request_bytes_and_str(self):
        payload = json.dumps({"schema": 1, "id": "a", "reads": ["ACGT"]})
        for line in (payload, payload.encode()):
            request_id, reads, error = parse(line)
            assert error is None
            assert (request_id, reads) == ("a", ["ACGT"])

    def test_missing_schema_is_rejected(self):
        request_id, reads, error = parse(
            json.dumps({"id": "a", "reads": ["ACGT"]}))
        assert reads is None and request_id == "a"
        assert "missing 'schema'" in error and "schema 1" in error

    def test_unknown_schema_is_rejected(self):
        for bad in (0, 2, "1", None):
            request_id, reads, error = parse(
                json.dumps({"schema": bad, "id": "x", "reads": []}))
            assert reads is None, bad
            assert f"unsupported schema {bad!r}" in error

    def test_schema_checked_before_reads(self):
        """A frame wrong on both counts reports the version problem —
        the client's parser generation is the more fundamental error."""
        _, reads, error = parse(json.dumps({"id": "x"}))
        assert reads is None and "missing 'schema'" in error

    def test_missing_reads_after_valid_schema(self):
        request_id, reads, error = parse(json.dumps({"schema": 1, "id": "x"}))
        assert reads is None and request_id == "x"
        assert "'reads'" in error

    def test_non_object_payloads(self):
        for payload in ("[1, 2]", '"just a string"', "42", "null"):
            _, reads, error = parse(payload)
            assert reads is None
            assert "expected an object" in error

    def test_bad_json(self):
        request_id, reads, error = parse("{not json", line_no=9)
        assert (request_id, reads) == (9, None)
        assert "bad JSON" in error

    def test_non_utf8_bytes(self):
        request_id, reads, error = parse(b'{"id": "\xff\xfe"}', line_no=4)
        assert (request_id, reads) == (4, None)
        assert "not valid UTF-8" in error

    def test_oversized_line_rejected_before_parsing(self):
        line = json.dumps({"schema": 1, "id": "big", "reads": ["A" * 512]})
        request_id, reads, error = parse(line, line_no=2, max_bytes=64)
        assert (request_id, reads) == (2, None)
        assert "line too long" in error and "--max-line-bytes 64" in error
        _, reads, error = parse(line, max_bytes=len(line.encode()))
        assert error is None and reads == ["A" * 512]

    def test_duplicate_id_rejected_second_time(self):
        seen = set()
        line = json.dumps({"schema": 1, "id": 7, "reads": ["ACGT"]})
        _, reads, error = parse(line, seen_ids=seen)
        assert error is None and reads == ["ACGT"]
        request_id, reads, error = parse(line, line_no=2, seen_ids=seen)
        assert reads is None and request_id == 7
        assert "duplicate id 7" in error

    def test_rejected_requests_do_not_burn_their_id(self):
        """A rejection must not poison the id for a corrected resend."""
        seen = set()
        _, _, error = parse(json.dumps({"schema": 1, "id": "r"}),
                            seen_ids=seen)
        assert error is not None and seen == set()
        _, reads, error = parse(
            json.dumps({"schema": 1, "id": "r", "reads": []}), seen_ids=seen)
        assert error is None and seen == {"r"}

    def test_missing_id_defaults_to_line_number(self):
        seen = set()
        request_id, reads, error = parse(
            json.dumps({"schema": 1, "reads": ["ACGT"]}), line_no=11,
            seen_ids=seen)
        assert error is None and request_id == 11
        assert seen == {11}

    def test_non_scalar_id(self):
        request_id, reads, error = parse(
            json.dumps({"schema": 1, "id": [1], "reads": []}), line_no=3)
        assert (request_id, reads) == (3, None)
        assert "'id' must be a JSON scalar" in error

    def test_reads_must_be_sequence_strings(self):
        for bad in ([1, 2], "ACGT", {"a": 1}, [["ACGT"]]):
            _, reads, error = parse(
                json.dumps({"schema": 1, "id": "x", "reads": bad}))
            assert reads is None, bad
            assert "'reads' must be a list of sequence strings" in error


class TestCheckSchema:
    def test_exact_version_passes(self):
        assert wire.check_schema({"schema": wire.SCHEMA}) is None

    def test_missing_and_wrong(self):
        assert "missing 'schema'" in wire.check_schema({})
        assert "unsupported schema 99" in wire.check_schema({"schema": 99})
        # A stringified version is a different client generation, not a
        # sloppy match.
        assert "unsupported schema '1'" in wire.check_schema({"schema": "1"})


class _FakeProfile:
    fractions = {562: 0.75, 1280: 0.25}


class _FakeTimings:
    samples_batched = 2


class _FakeResult:
    candidates = [1280, 562]
    profile = _FakeProfile()
    timings = _FakeTimings()


class _FakeMetrics:
    queue_wait_ms = 1.23456
    latency_ms = 7.65432


class _FakeClientStats:
    submitted = 5
    completed = 4
    failed = 1
    malformed = 2
    rate_limited = 3
    rejected = 0


class TestRecordConstructors:
    def test_result_record_roundtrip(self):
        record = decode(wire.result_record("s1", 100, _FakeResult(),
                                           _FakeMetrics()))
        assert record["schema"] == wire.SCHEMA
        assert record["id"] == "s1"
        assert record["n_reads"] == 100
        assert record["candidates"] == [562, 1280]
        assert record["profile"] == {"562": 0.75, "1280": 0.25}
        assert record["samples_batched"] == 2
        assert record["queue_wait_ms"] == 1.235
        assert record["latency_ms"] == 7.654

    def test_error_record_roundtrip(self):
        record = decode(wire.error_record("x", "boom", 3))
        assert record == {"schema": wire.SCHEMA, "id": "x", "error": "boom",
                          "line": 3}
        anonymous = decode(wire.error_record(None, "bad JSON", None))
        assert anonymous["id"] is None and anonymous["line"] is None

    def test_drain_record_roundtrip(self):
        record = decode(wire.drain_record(4, _FakeClientStats()))
        assert record["event"] == "drain"
        assert record["client"] == 4
        assert record["submitted"] == 5
        assert record["completed"] == 4
        assert record["rate_limited"] == 3

    def test_every_record_is_stamped_with_the_schema(self):
        retrieved = RetrievalResult(queries=[], levels={})
        records = [
            wire.result_record(1, 0, _FakeResult(), _FakeMetrics()),
            wire.error_record(1, "e", 1),
            wire.drain_record(0, _FakeClientStats()),
            wire.step2_request_record(1, [[1, 2]]),
            wire.step2_result_record(1, 0, [([], retrieved)]),
            wire.ping_record(0),
            wire.pong_record(0, 1, (0, 2), 9),
        ]
        for record in records:
            assert record["schema"] == wire.SCHEMA
            assert wire.check_schema(decode(record)) is None


class TestClusterRecords:
    def _retrieved(self):
        return RetrievalResult(
            queries=[5, 9, 12],
            levels={
                31: LevelHits(taxids=np.asarray([562, 562, 1280], np.int64),
                              offsets=np.asarray([0, 2, 2, 3], np.int64)),
                21: LevelHits(taxids=np.asarray([99], np.int64),
                              offsets=np.asarray([0, 0, 1, 1], np.int64)),
            },
        )

    def test_retrieval_columns_roundtrip_bit_identical(self):
        original = self._retrieved()
        rebuilt = wire.parse_retrieval(decode(
            {"schema": wire.SCHEMA, **wire.retrieval_columns(original)}))
        assert list(rebuilt.queries) == list(original.queries)
        assert set(rebuilt.levels) == set(original.levels)
        for k, hits in original.levels.items():
            assert rebuilt.levels[k].taxids.tolist() == list(hits.taxids)
            assert rebuilt.levels[k].offsets.tolist() == list(hits.offsets)

    def test_retrieval_columns_accepts_list_columns(self):
        """The python backend's plain-list columns serialize identically."""
        listy = RetrievalResult(
            queries=[5], levels={31: LevelHits(taxids=[562], offsets=[0, 1])})
        assert (wire.retrieval_columns(listy)
                == {"queries": [5],
                    "levels": {"31": {"taxids": [562], "offsets": [0, 1]}}})

    def test_parse_retrieval_rejects_garbage(self):
        for payload in (None, [], {"levels": {}}):
            with pytest.raises(ValueError):
                wire.parse_retrieval(payload)

    @pytest.mark.parametrize("queries, levels", [
        ([1], {"20": {}}),                                   # no columns
        ([1], {"20": {"taxids": 5, "offsets": [0, 0]}}),     # not a list
        ([1], {"20": {"taxids": ["a"], "offsets": [0, 1]}}),  # not integers
        ([1], {"x": {"taxids": [5], "offsets": [0, 1]}}),    # level key
        ([1, 2], {"20": {"taxids": [5], "offsets": [0, 9]}}),  # length
        ([1], {"20": {"taxids": [5], "offsets": [1, 1]}}),   # starts at 1
        ([1, 2], {"20": {"taxids": [5, 6], "offsets": [0, 2, 1]}}),  # descends
        ([1], {"20": {"taxids": [5, 6], "offsets": [0, 1]}}),  # end != len
        ([2, 1], {}),                                        # unsorted
        ([1], []),                                           # levels type
    ])
    def test_parse_retrieval_rejects_malformed_columns(self, queries, levels):
        """Schema-valid but malformed columns are a ValueError at decode —
        never a KeyError there, nor a late failure in the gather."""
        with pytest.raises(ValueError, match="retrieval"):
            wire.parse_retrieval({"queries": queries, "levels": levels})

    def test_step2_request_roundtrip(self):
        record = decode(wire.step2_request_record(
            8, [np.asarray([3, 1], np.int64), [9]]))
        assert record["op"] == "step2"
        assert record["id"] == 8
        assert record["queries"] == [[3, 1], [9]]
        # json round-trip leaves plain ints, ready for another encode().
        assert all(isinstance(k, int)
                   for query in record["queries"] for k in query)

    def test_step2_result_roundtrip(self):
        original = self._retrieved()
        record = decode(wire.step2_result_record(
            8, 1, [(list(original.queries), original)]))
        assert record["op"] == "step2_result"
        assert (record["id"], record["node"]) == (8, 1)
        [(intersecting, rebuilt)] = wire.parse_step2_result(record)
        assert intersecting == [5, 9, 12]
        assert rebuilt.levels[31].taxids.tolist() == [562, 562, 1280]

    def test_parse_step2_result_requires_samples(self):
        with pytest.raises(ValueError):
            wire.parse_step2_result({"op": "step2_result", "id": 1})

    def test_ping_pong_roundtrip(self):
        ping = decode(wire.ping_record(3))
        assert (ping["op"], ping["id"]) == ("ping", 3)
        pong = decode(wire.pong_record(3, 1, (2, 4), served=17))
        assert pong["op"] == "pong"
        assert (pong["id"], pong["node"]) == (3, 1)
        assert pong["shards"] == [2, 4]
        assert pong["served"] == 17


class _Chunks:
    """A byte source handing out fixed chunks, then EOF."""

    def __init__(self, chunks):
        self._chunks = list(chunks)

    async def read(self, n):
        return self._chunks.pop(0) if self._chunks else b""


TOO_LONG = "line too long ({} bytes > --max-line-bytes 8)"


class TestFrameReader:
    @pytest.mark.parametrize("chunks, expected", [
        pytest.param(
            [b"a\n\n  \nb\n"], [(1, b"a"), (4, b"b")],
            id="blank lines are skipped but counted"),
        pytest.param(
            [b"a\n", b"0123456789", b"ABCDE\nb\n"],
            [(1, b"a"), (2, TOO_LONG.format(15)), (3, b"b")],
            id="an over-long line costs one rejection, the next is served"),
        pytest.param(
            [b"a\nta", b"il"], [(1, b"a"), (2, b"tail")],
            id="a final unterminated line is delivered"),
        pytest.param(
            [b"a\n", b"0123456789", b"ABCDE"],
            [(1, b"a"), (2, TOO_LONG.format(15))],
            id="EOF mid-overflow ends cleanly"),
        pytest.param(
            [b"one\ntw", b"o\nthree\n"],
            [(1, b"one"), (2, b"two"), (3, b"three")],
            id="lines split across reads are reassembled"),
        pytest.param([], [], id="empty stream"),
    ])
    def test_framing(self, chunks, expected):
        async def frames():
            reader = wire.FrameReader(_Chunks(chunks), max_line_bytes=8)
            out = []
            while (frame := await reader.next_frame()) is not None:
                out.append(frame)
            return out

        assert asyncio.run(frames()) == expected
