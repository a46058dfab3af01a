"""The wire format in isolation: every constructor round-trips, every
malformed request line is a message (never an exception), every malformed
Step-2 frame is a ``ValueError`` (never another exception), schema
versioning is enforced on ingest.

The serving surfaces (serve/gateway/cluster) all import
:mod:`repro.megis.wire`, so this suite is the contract they share —
end-to-end coverage lives with each surface, byte-level fidelity lives
here.
"""

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.backends.retrieval import RetrievalResult
from repro.databases.serialization import (
    INDEX_VERSION,
    pack_i32,
    pack_sections,
    unpack_sections,
)
from repro.megis import wire
from repro.sequences.keys import kmer_record_bytes, pack_kmer_column
from tests.columns import as_ints, query_dicts
from tests.oracles import signature_table_from_sets
from tests.strategies import FRAME_KS, damaged, json_values, retrieval_partials


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

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constants_are_bad_json(self, constant):
        """``json.loads`` accepts these; an id holding one would be echoed
        into a frame strict JSON parsers reject, so ingest refuses them."""
        for line in (
            f'{{"schema":1,"id":{constant},"reads":["ACGT"]}}',
            f'{{"schema":1,"id":"x","reads":["ACGT"],"extra":{constant}}}',
        ):
            request_id, reads, error = parse(line.encode(), line_no=6)
            assert (request_id, reads) == (6, None)
            assert error.startswith("bad JSON (") and constant in error
        with pytest.raises(ValueError):
            wire.decode(f"[{constant}]")

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
        retrieved = RetrievalResult.from_sets([], {})
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
        return RetrievalResult.from_sets([5, 9, 12], {
            31: [[562, 1280], [], [1280]],
            21: [[], [99], []],
        })

    def test_retrieval_columns_roundtrip_bit_identical(self):
        """The JSON codec expands for the probe: owner lists per query,
        parsed back into a result over a fresh table with the same sets."""
        original = self._retrieved()
        columns = wire.retrieval_columns(original)
        assert columns["levels"]["31"] == {
            "taxids": [562, 1280, 1280], "offsets": [0, 2, 2, 3]}
        rebuilt = wire.parse_retrieval(decode(
            {"schema": wire.SCHEMA, **columns}))
        assert list(rebuilt.queries) == list(original.queries)
        assert list(rebuilt.levels) == list(original.levels)
        for k, (taxids, offsets) in original.expand().items():
            got_taxids, got_offsets = rebuilt.expand()[k]
            assert got_taxids.tolist() == taxids.tolist()
            assert got_offsets.tolist() == offsets.tolist()

    def test_retrieval_columns_accepts_list_columns(self):
        """The python backend's plain-list queries serialize identically."""
        listy = RetrievalResult.from_sets([5], {31: [[562]]})
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
        assert query_dicts(rebuilt) == query_dicts(original)

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

    @pytest.mark.parametrize("chunks, body, after", [
        pytest.param([b"h\nBOD", b"Y", b"next\n"], b"BODY", [(2, b"next")],
                     id="a body split across reads, then the next line"),
        pytest.param([b"h\nBODYnext\n"], b"BODY", [(2, b"next")],
                     id="a body and the next line in one read"),
        pytest.param([b"h\nBO"], b"BO", [],
                     id="a truncated body comes back short at EOF"),
        pytest.param([b"h\n"], b"", [], id="no body at all"),
    ])
    def test_read_exact_takes_the_body_after_its_header(self, chunks, body,
                                                        after):
        async def frames():
            reader = wire.FrameReader(_Chunks(chunks), max_line_bytes=8)
            header = await reader.next_frame()
            got = await reader.read_exact(4)
            rest = []
            while (frame := await reader.next_frame()) is not None:
                rest.append(frame)
            return header, got, rest

        assert asyncio.run(frames()) == ((1, b"h"), body, after)


def split(frame):
    """A Step-2 frame -> (header dict, body bytes); the header says how
    many body bytes follow its newline, and that is all that follows."""
    newline = frame.index(b"\n")
    header, body = json.loads(frame[:newline]), frame[newline + 1:]
    assert header["bytes"] == len(body)
    return header, body


def column_at(k, n=40, seed=0):
    """A sorted query column at ``k`` with both key-space ends and a
    duplicate, in the dtype a k-``k`` index keys with."""
    top = (1 << (2 * k)) - 1
    rng = np.random.default_rng(seed)
    middle = [int(x) for x in rng.integers(0, min(top, 2**62), n)]
    if 2 * k > 64:
        middle = [x << (2 * k - 62) for x in middle]
    values = sorted([0, top, middle[0], *middle])
    return np.asarray(values, dtype=np.uint64 if 2 * k <= 64 else object)


def partials_at(k):
    """One node's table and partials: a sample with hits at some levels
    and none at another (a list query column, as the python backend
    emits), then an empty sample (an ndarray query column)."""
    queries = [int(q) for q in column_at(k, n=3)][:4]
    levels = (k, k - 3, k - 7)
    hit = RetrievalResult.from_sets(queries, {
        k: [[562, 1280], [], [], [1280]],
        k - 3: [[], [], [], []],
        k - 7: [[7], [8], [9], [10]],
    })
    empty = RetrievalResult(
        queries=np.zeros(0, np.uint64),
        levels={level: np.zeros(0, np.int32) for level in levels},
        signatures=hit.signatures,
    )
    return hit.signatures, [(queries, hit), ([], empty)]


def assert_partials_identical(decoded, original, k, table):
    """Each decoded sample's intersecting k-mers are one parsed column —
    ``uint64``, ``object`` past 32 bases — that is also its retrieval
    result's ``queries``, equal as ints to what was sent; its signature
    columns are ``int32``, equal to the sent ones, over the reader's
    table."""
    assert len(decoded) == len(original)
    for (intersecting, got), (_, want) in zip(decoded, original):
        assert intersecting is got.queries
        assert got.queries.dtype == np.dtype(np.uint64 if 2 * k <= 64 else object)
        assert as_ints(got.queries) == as_ints(want.queries)
        assert got.signatures is table
        assert list(got.levels) == list(want.levels)
        for level, ids in want.levels.items():
            assert got.levels[level].dtype == np.int32
            assert got.levels[level].tolist() == ids.tolist()


def refit(header, sections):
    """A frame body re-packed from ``sections`` under ``header``, with
    ``bytes`` made to agree (so only the intended defect remains)."""
    body = pack_sections(sections)
    return {**header, "bytes": len(body)}, body


class TestStep2Frames:
    @pytest.mark.parametrize("k", FRAME_KS)
    def test_request_frame_roundtrip_bit_identical(self, k):
        column = column_at(k)
        header, body = split(wire.step2_frame(8, k, [column, [], column[:1]]))
        assert (header["schema"], header["op"], header["id"]) == (1, "step2", 8)
        assert (header["k"], header["counts"]) == (k, [len(column), 0, 1])
        columns = wire.parse_step2_frame(header, body, k)
        expected = np.uint64 if 2 * k <= 64 else object
        assert [c.dtype for c in columns] == [np.dtype(expected)] * 3
        assert [c.tolist() for c in columns] == [
            [int(x) for x in column], [], [int(column[0])]
        ]
        # Records are the index file's own: ceil(2k / 8) bytes each.
        assert [len(view) for view in unpack_sections(body).values()] == [
            len(column) * kmer_record_bytes(k), 0, kmer_record_bytes(k)]

    @pytest.mark.parametrize("k", FRAME_KS)
    def test_result_frame_roundtrip_bit_identical(self, k):
        table, original = partials_at(k)
        header, body = split(wire.step2_result_frame(8, 1, k, table, original))
        assert (header["op"], header["id"], header["node"]) == ("step2_result", 8, 1)
        assert (header["counts"], header["levels"]) == ([4, 0], [k, k - 3, k - 7])
        assert header["signatures"] == table.digest
        decoded = wire.parse_step2_result_frame(header, body, k, table)
        assert_partials_identical(decoded, original, k, table)
        assert [query_dicts(r) for _, r in decoded] == [
            query_dicts(r) for _, r in original]

    def test_result_frame_requires_one_level_set(self):
        table, [(queries, hit), (empty_queries, empty)] = partials_at(20)
        del empty.levels[13]
        with pytest.raises(ValueError, match="same levels"):
            wire.step2_result_frame(
                1, 0, 20, table, [(queries, hit), (empty_queries, empty)])

    def test_result_frame_requires_the_nodes_table(self):
        _, partials = partials_at(20)
        other, _ = signature_table_from_sets([[562]])
        with pytest.raises(ValueError, match="node's signature table"):
            wire.step2_result_frame(1, 0, 20, other, partials)

    @staticmethod
    def _request(k=18):
        return split(wire.step2_frame(1, k, [column_at(k, n=5)]))

    @staticmethod
    def _result(k=18):
        return split(wire.step2_result_frame(1, 0, k, *partials_at(k)))

    @staticmethod
    def _sections(body):
        return {name: bytearray(view) for name, view in unpack_sections(body).items()}

    def _padded(self, frame):
        header, body = frame
        sections = self._sections(body)
        sections["q0"][kmer_record_bytes(18) - 1] |= 1  # a padding bit at k=18
        return refit(header, sections)

    def _unsorted(self, frame):
        header, body = frame
        sections = self._sections(body)
        column = column_at(18, n=5) if header["op"] == "step2" else [
            int(q) for q in partials_at(18)[1][0][0]]
        sections["q0"] = pack_kmer_column(list(reversed(column)), 18)
        return refit(header, sections)

    def _repeated(self, frame):
        """Sorted, but one k-mer twice (the record count unchanged)."""
        header, body = frame
        sections = self._sections(body)
        column = column_at(18, n=5) if header["op"] == "step2" else [
            int(q) for q in partials_at(18)[1][0][0]]
        sections["q0"] = pack_kmer_column([column[0], *column[:-1]], 18)
        return refit(header, sections)

    def test_request_frame_keeps_repeated_kmers(self):
        """A scattered query column may repeat a k-mer (the kernel matches
        it once); only a reply's intersecting k-mers must be distinct."""
        header, body = self._repeated(self._request())
        [column] = wire.parse_step2_frame(header, body, 18)
        assert column[0] == column[1]

    def _recounted(self, frame):
        header, body = frame
        return {**header, "counts": [header["counts"][0] + 1, *header["counts"][1:]]}, body

    def _retabled(self, frame):
        header, body = frame
        sections = self._sections(body)
        sections["x0"] = sections.pop("q0")
        return refit(header, sections)

    @staticmethod
    def _bad_toc(frame):
        header, body = frame
        return header, body[:16] + b"{" + body[17:]

    @staticmethod
    def _infinite_offset(frame):
        header, body = frame
        toc = json.dumps([["q0", 1e400, 0]]).encode()
        body = (b"MEGISIDX" + INDEX_VERSION.to_bytes(2, "little") + b"\x00\x00"
                + len(toc).to_bytes(4, "little") + toc)
        return {**header, "counts": [0], "bytes": len(body)}, body

    @staticmethod
    def _truncated(frame):
        header, body = frame
        return header, body[:-1]

    @staticmethod
    def _wrong_k(frame):
        header, body = frame
        return {**header, "k": 19}, body

    @staticmethod
    def _wrong_op(frame):
        header, body = frame
        return {**header, "op": "ping"}, body

    @staticmethod
    def _counts_not_a_list(frame):
        header, body = frame
        return {**header, "counts": "nope"}, body

    DEFECTS = [
        pytest.param(defect, message, id=defect[1:])
        for defect, message in [
            ("_truncated", "declares"),
            ("_bad_toc", "table of contents"),
            ("_infinite_offset", "table of contents"),
            ("_retabled", "does not match its header"),
            ("_recounted", r"holds \d+ bytes, not \d+ k-mer records"),
            ("_unsorted", "sorted ascending"),
            ("_padded", "padding bits"),
            ("_wrong_k", "k=19"),
            ("_wrong_op", "expected a step2"),
            ("_counts_not_a_list", "'counts' must be a list"),
        ]
    ]

    @pytest.mark.parametrize("defect, message", DEFECTS)
    def test_request_frame_defects_are_value_errors(self, defect, message):
        header, body = getattr(self, defect)(self._request())
        with pytest.raises(ValueError, match=message):
            wire.parse_step2_frame(header, body, 18)

    @pytest.mark.parametrize("defect, message", DEFECTS + [
        pytest.param(defect, message, id=defect[1:])
        for defect, message in [
            ("_levels_not_a_list", "'levels' must be a list"),
            ("_signature_out_of_range", r"outside \[0, 7\)"),
            ("_negative_signature", r"outside \[0, 7\)"),
            ("_short_signatures", "holds 3 signatures for 4 queries"),
            ("_ragged_signatures", "multiple of 4"),
            ("_missing_level", "does not match its header"),
            ("_foreign_table", "a different index build"),
            # Intersecting k-mers are distinct: a repeat would count its
            # hits twice at the gather.
            ("_repeated", "sorted ascending and distinct"),
        ]
    ])
    def test_result_frame_defects_are_value_errors(self, defect, message):
        header, body = getattr(self, defect)(self._result())
        with pytest.raises(ValueError, match=message):
            wire.parse_step2_result_frame(header, body, 18, partials_at(18)[0])

    @staticmethod
    def _levels_not_a_list(frame):
        header, body = frame
        return {**header, "levels": {"18": 1}}, body

    def _signature_out_of_range(self, frame):
        """An id one past the table's last signature."""
        header, body = frame
        sections = self._sections(body)
        sections["s0/18"] = pack_i32([1, 0, 0, 7])
        return refit(header, sections)

    def _negative_signature(self, frame):
        header, body = frame
        sections = self._sections(body)
        sections["s0/18"] = pack_i32([1, 0, -1, 2])
        return refit(header, sections)

    def _short_signatures(self, frame):
        """Three ids for the sample's four queries."""
        header, body = frame
        sections = self._sections(body)
        sections["s0/18"] = pack_i32([1, 0, 0])
        return refit(header, sections)

    def _ragged_signatures(self, frame):
        header, body = frame
        sections = self._sections(body)
        sections["s0/18"] += b"\x00"
        return refit(header, sections)

    def _missing_level(self, frame):
        """The header's levels, one section short."""
        header, body = frame
        sections = self._sections(body)
        del sections["s0/11"]
        return refit(header, sections)

    @staticmethod
    def _foreign_table(frame):
        """A reply naming another build's signature table."""
        header, body = frame
        return {**header, "signatures": "0" * 32}, body

    @pytest.mark.parametrize("header, expected", [
        ({}, 0),
        ({"bytes": 0}, 0),
        ({"bytes": 64}, 64),
        ({"bytes": 65}, "exceeds --max-line-bytes 64"),
        ({"bytes": -1}, "non-negative integer"),
        ({"bytes": True}, "non-negative integer"),
        ({"bytes": 1.0}, "non-negative integer"),
        ({"bytes": "8"}, "non-negative integer"),
    ])
    def test_body_length_is_bounded_before_reading(self, header, expected):
        if isinstance(expected, int):
            assert wire.body_length(header, 64) == expected
        else:
            with pytest.raises(ValueError, match=expected):
                wire.body_length(header, 64)


class TestWireProperties:
    @given(st.binary(max_size=256) | json_values.map(
        lambda value: json.dumps(value).encode()))
    def test_parse_request_line_never_raises(self, line):
        request_id, reads, error = wire.parse_request_line(line, 3)
        assert (reads is None) != (error is None)

    def test_parse_request_line_refuses_deep_nesting(self):
        _, reads, error = wire.parse_request_line(b"[" * 100_000, 1)
        assert reads is None and error.startswith("bad JSON (")

    @given(st.sampled_from(FRAME_KS).flatmap(
        lambda k: retrieval_partials(k).map(lambda drawn: (k, *drawn))))
    def test_generated_partials_roundtrip_unchanged(self, drawn):
        k, table, partials = drawn
        header, body = split(wire.step2_result_frame(5, 2, k, table, partials))
        assert_partials_identical(
            wire.parse_step2_result_frame(header, body, k, table), partials, k,
            table)

    @given(st.data())
    def test_frame_parsers_raise_only_value_errors(self, data):
        k = data.draw(st.sampled_from(FRAME_KS))
        if data.draw(st.booleans()):
            table, partials = data.draw(retrieval_partials(k))
            frame = wire.step2_result_frame(1, 0, k, table, partials)

            def parse(header, body, k):
                return wire.parse_step2_result_frame(header, body, k, table)
        else:
            queries = data.draw(st.lists(
                st.lists(st.integers(0, (1 << (2 * k)) - 1), max_size=8).map(sorted),
                max_size=3))
            frame = wire.step2_frame(1, k, queries)
            parse = wire.parse_step2_frame
        header, body = data.draw(damaged(frame))
        try:
            parse(header, body, k)
        except ValueError:
            pass
