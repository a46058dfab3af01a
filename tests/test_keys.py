"""The key column against its per-k-mer oracles, on both sides of the word.

Every operation of :mod:`repro.sequences.keys` is checked at every k from 1
to 64 against plain Python: :func:`iter_kmers` for extraction,
:func:`pack_kmer` and ``int.from_bytes`` for the record codec,
``bisect_left`` for the searches and ``>>`` / ``&`` for the shifts — so the
``uint64`` arm (k <= 32) and the ``object`` arm (k > 32) give the same ints
and the same bytes.  k = 31, 32 and 33 (the last k with a free bit, the
last k in the word, the first past it) are pinned as well.
"""

from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sequences.keys import (
    as_column,
    column_dtype,
    edge_cuts,
    extract_kmers,
    extract_kmers_batch,
    fits_word,
    iter_kmers,
    kmer_record_bytes,
    low_word,
    pack_kmer,
    pack_kmer_column,
    parse_kmer_records,
    rshift,
    searchsorted_clamped,
    spare_bits,
)
from tests.strategies import property_settings

dna = st.text(alphabet="ACGT", max_size=90)


def _check_every_operation(k, data):
    space = 1 << (2 * k)
    keys = sorted(data.draw(
        st.sets(st.integers(min_value=0, max_value=space - 1), max_size=30),
        label="keys",
    ))
    column = as_column(keys, column_dtype(k))

    # The word test and the column it picks.
    assert fits_word(k) == (k <= 32) and spare_bits(k) == 64 - 2 * k
    assert column.dtype == (np.uint64 if k <= 32 else object)
    assert column.tolist() == keys
    assert as_column(column, column.dtype) is column

    # Extraction, one sequence and a batch, against iter_kmers.
    sequences = data.draw(st.lists(dna, max_size=4), label="sequences")
    for seq in sequences[:1]:
        for canonical in (False, True):
            assert extract_kmers(seq, k, canonical).tolist() == list(
                iter_kmers(seq, k, canonical)
            )
    kmers, reads = extract_kmers_batch(sequences, k)
    assert kmers.dtype == column.dtype
    assert kmers.tolist() == [
        kmer for seq in sequences for kmer in iter_kmers(seq, k, canonical=False)
    ]
    assert reads.tolist() == [
        i for i, seq in enumerate(sequences) for _ in range(max(0, len(seq) - k + 1))
    ]

    # Shifts and the sketch hash's input word.
    shift = data.draw(st.integers(min_value=0, max_value=2 * k), label="shift")
    assert rshift(column, shift).tolist() == [key >> shift for key in keys]
    assert low_word(column).dtype == np.uint64
    assert low_word(column).tolist() == [key & ((1 << 64) - 1) for key in keys]

    # Searches: probes anywhere in the key space, its bound included.
    probes = sorted(data.draw(
        st.lists(st.integers(min_value=0, max_value=space - 1), max_size=8),
        label="probes",
    ))
    edges = sorted(set(probes) | {0, space})
    assert edge_cuts(column, edges) == [bisect_left(keys, e) for e in edges]
    if keys:
        got = searchsorted_clamped(column, as_column(probes, column.dtype))
        assert got.tolist() == [min(bisect_left(keys, p), len(keys) - 1) for p in probes]

    # On-flash records: left-aligned big-endian, byte order = key order.
    width = kmer_record_bytes(k)
    assert width == -(-2 * k // 8)
    packed = pack_kmer_column(column, k)
    assert packed == b"".join(pack_kmer(key, k) for key in keys)
    records = [packed[i * width:(i + 1) * width] for i in range(len(keys))]
    assert records == sorted(records)
    assert [int.from_bytes(r, "big") >> (8 * width - 2 * k) for r in records] == keys
    parsed = parse_kmer_records(np.frombuffer(packed, dtype=np.uint8), k, len(keys))
    assert parsed.dtype == column.dtype and parsed.tolist() == keys


@property_settings(60)
@given(k=st.integers(min_value=1, max_value=64), data=st.data())
def test_every_operation_matches_its_oracle(k, data):
    _check_every_operation(k, data)


@pytest.mark.parametrize("k", [31, 32, 33])
@property_settings(30)
@given(data=st.data())
def test_the_word_edge(k, data):
    _check_every_operation(k, data)


@pytest.mark.parametrize("k", [31, 32, 33])
def test_the_key_space_ends_at_the_word_edge(k):
    """The largest key packs, parses and searches exactly: at k = 32 it is
    ``2**64 - 1``, and the range bound ``4**k`` past it cuts at the end."""
    top = (1 << (2 * k)) - 1
    column = as_column([0, top], column_dtype(k))
    packed = pack_kmer_column(column, k)
    assert packed == pack_kmer(0, k) + pack_kmer(top, k)
    assert parse_kmer_records(np.frombuffer(packed, np.uint8), k, 2).tolist() == [0, top]
    assert edge_cuts(column, [0, top, top + 1]) == [0, 1, 2]
    assert extract_kmers("T" * (k + 1), k, canonical=False).tolist() == [top, top]
