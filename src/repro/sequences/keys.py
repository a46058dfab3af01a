"""The k-mer key column: how packed k-mers are held, and every operation on one.

A k-mer of ``k`` bases packs into ``2k`` bits (:mod:`repro.sequences.encoding`).
This module alone decides how a column of such keys is held, by
:func:`fits_word`: while ``2k <= 64`` (k up to 32) a ``uint64`` column, one
word per key and every operation here one NumPy pass, a key leaving
:func:`spare_bits` free for a read or genome id to ride beside it; past
the word (the paper's k = 60, Table 2's 120-bit Intersect register) an
``object`` column of Python ints, every operation here per key — the same
values and the same on-flash bytes, at Python speed.  Callers ask the
column and never test ``k``.  The ``object`` arm's per-key code
(:func:`iter_kmers`, :func:`pack_kmer`, ``int.from_bytes``) is what the
word arm is tested against, bit for bit.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.sequences.encoding import BITS_PER_BASE, canonical_kmer, encode_sequence
from repro.sequences.encoding import reverse_complement

#: Bits of the word a key column holds its keys in, when they fit one.
WORD_BITS = 64

_WORD = np.dtype(np.uint64)
_OBJECT = np.dtype(object)


def fits_word(k: int) -> bool:
    """Whether a ``k``-mer key is held in one ``uint64`` word (``2k <= 64``)."""
    return spare_bits(k) >= 0


def spare_bits(k: int) -> int:
    """Bits a ``k``-mer key leaves free in its word: ``64 - 2k`` (negative
    past the word)."""
    key_bits: int = BITS_PER_BASE * k
    return WORD_BITS - key_bits


def column_dtype(k: int) -> "np.dtype[Any]":
    """Key column dtype: ``uint64`` when a key fits one word, else ``object``."""
    return _WORD if fits_word(k) else _OBJECT


def _object_column(values: Iterable[int]) -> NDArray[Any]:
    """Python ints (numpy integers unboxed) as an ``object`` column."""
    return np.fromiter(map(int, values), dtype=object)


def as_column(values: Any, dtype: "np.dtype[Any]") -> NDArray[Any]:
    """Sorted k-mers as a key column of ``dtype`` (the identity on an
    ndarray that already has it)."""
    if isinstance(values, np.ndarray) and values.dtype == dtype:
        return values
    if dtype == _OBJECT:
        return _object_column(values)
    column: NDArray[Any] = np.asarray(values, dtype=dtype)
    return column


def rshift(column: NDArray[Any], shift: int) -> NDArray[Any]:
    """``column >> shift`` in the column's own dtype (the j-prefixes of its
    keys for ``shift = 2 (k - j)``)."""
    if column.dtype == _OBJECT:
        shifted: NDArray[Any] = column >> shift
        return shifted
    return column >> np.uint64(shift)


def prefix_column(column: NDArray[Any], k: int, j: int) -> NDArray[Any]:
    """The j-prefixes of a k-mer key column, held as a j-mer column
    (:func:`column_dtype` of ``j``, whatever the k-mers' dtype)."""
    return as_column(rshift(column, 2 * (k - j)), column_dtype(j))


def low_word(column: NDArray[Any]) -> NDArray[np.uint64]:
    """The low 64 bits of every key, as ``uint64`` — all a hash whose
    product wraps at 64 bits reads of a key (the sketch selection)."""
    if column.dtype != _OBJECT:
        return column
    return np.fromiter((v & 0xFFFF_FFFF_FFFF_FFFF for v in column), dtype=np.uint64)


def iter_kmers(seq: str, k: int, canonical: bool = True) -> Iterator[int]:
    """Yield packed k-mers of a DNA string in order of appearance."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if len(seq) < k:
        return
    codes = encode_sequence(seq)
    mask = (1 << (BITS_PER_BASE * k)) - 1
    value = 0
    for i, code in enumerate(codes):
        value = ((value << BITS_PER_BASE) | int(code)) & mask
        if i >= k - 1:
            yield canonical_kmer(value, k) if canonical else value


def extract_kmers(seq: str, k: int, canonical: bool = True) -> NDArray[Any]:
    """All packed k-mers of a sequence, in order, as a key column: the
    batch extraction of the one sequence, and for canonical k-mers the
    smaller of each and its reverse complement (the k-mer at the mirrored
    position of the reverse-complemented sequence)."""
    forward = extract_kmers_batch([seq], k)[0]
    if not canonical or not len(forward):
        return forward
    reverse = extract_kmers_batch([reverse_complement(seq)], k)[0][::-1]
    return np.minimum(forward, reverse)


#: Word of the doubling pack's window of ``2**j`` bases, by ``j``: the
#: narrowest unsigned integer holding its ``2 * 2**j`` bits.
_WINDOW_DTYPES = (np.uint8, np.uint8, np.uint8, np.uint16, np.uint32, np.uint64)


def extract_kmers_batch(
    sequences: Sequence[str], k: int
) -> Tuple[NDArray[Any], NDArray[np.int64]]:
    """Forward k-mers of many sequences in one pass, with their origins.

    Returns ``(kmers, read_ids)``: the k-mers of every sequence in turn,
    in order, as one key column, and for each the index into
    ``sequences`` it came from.  Sequences shorter than ``k`` hold none
    and are left out unencoded.  An ``object`` column is
    :func:`iter_kmers` over each sequence.  For a word column one encode
    and one pack run over the concatenation (the §4.2.1 streaming
    extraction over the sample), and a validity mask drops the windows
    that straddle a join between two sequences.

    The pack doubles: the window of ``2**j`` bases starting at ``i`` is
    the window of ``2**(j - 1)`` bases at ``i`` times ``4**(2**(j - 1))``,
    or-ed with the one at ``i + 2**(j - 1)``, for windows of 1 to 32
    bases, each in the narrowest word that holds it.  K-mer ``i`` then
    joins one window per binary digit of ``k``, largest first — in
    ``uint32`` while its ``2k`` bits fit, else in ``uint64`` — so a k-mer
    costs ``floor(log2(k))`` doubling passes and ``popcount(k) - 1``
    joins instead of ``k`` rolling ones.  The doubling steps multiply
    rather than shift: numpy's ``uint8`` shift is a scalar loop, several
    times slower than a ``uint8`` multiply.

    Step 1 calls this once per sample at the database k; a mapping
    analysis keeps both columns, sorted, as a
    :class:`~repro.sequences.kmers.KmerStream`, from which the Step-3 vote
    derives its shorter seeds.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    lengths = np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences))
    kept = (lengths >= k).nonzero()[0]
    read_ids: NDArray[np.int64] = kept.repeat(lengths[kept] - k + 1)
    if not fits_word(k):
        column = _object_column(
            kmer
            for i in kept.tolist()
            for kmer in iter_kmers(sequences[i], k, canonical=False)
        )
        return column, read_ids
    if kept.size == 0:
        return np.empty(0, dtype=np.uint64), read_ids
    codes: NDArray[np.uint8] = encode_sequence(
        "".join([seq for seq in sequences if len(seq) >= k])
    )
    n = codes.size - k + 1
    windows: List[NDArray[Any]] = [codes]  # windows[j][i]: the 2**j bases from i
    while 1 << len(windows) <= k:
        half, dtype = 1 << (len(windows) - 1), _WINDOW_DTYPES[len(windows)]
        window = windows[-1][:-half].astype(dtype)
        window *= dtype(1 << (BITS_PER_BASE * half))
        window |= windows[-1][half:]
        windows.append(window)
    top = len(windows) - 1
    word = np.uint32 if BITS_PER_BASE * k <= 32 else np.uint64
    forward = windows[top][:n].astype(word)
    offset = 1 << top
    for j in range(top - 1, -1, -1):
        if k >> j & 1:
            forward <<= word(BITS_PER_BASE << j)
            forward |= windows[j][offset : offset + n]
            offset += 1 << j
    # A window is a k-mer of one read unless it starts within k - 1 bases
    # of a join: the last k - 1 starts before every read end but the last.
    valid = np.ones(n, dtype=bool)
    joins = lengths[kept].cumsum()[:-1]
    valid[(joins[:, None] - np.arange(1, k)).ravel()] = False
    # A mask, not a take: this mask is dense and regular (81-96% kept on
    # 100-500 bp reads), where numpy 2.4's mask gather of 60k keys runs
    # ~50-60 us against ~115 us for a take at its flatnonzero.
    kmers: NDArray[np.uint64] = forward[valid].astype(np.uint64, copy=False)
    return kmers, read_ids


def searchsorted_clamped(column: NDArray[Any], values: Any) -> NDArray[np.intp]:
    """Each value's insertion point in the sorted ``column``, clamped to
    its last row: the one candidate an exact-match probe compares
    against (``column`` must not be empty)."""
    found: NDArray[np.intp] = np.searchsorted(column, values, side="left")
    return np.minimum(found, len(column) - 1)


def edge_cuts(column: NDArray[Any], edges: Sequence[int]) -> List[int]:
    """``bisect_left`` of each range edge into the sorted ``column``.

    An edge past a word column's range (the key-space bound ``1 << 2k`` of
    the last range at k = 32) would overflow the cast, so it resolves to
    ``len(column)`` directly — every representable key lies below it.
    """
    if column.dtype == _OBJECT:
        cuts: List[int] = np.searchsorted(column, _object_column(edges)).tolist()
        return cuts
    limit = int(np.iinfo(column.dtype).max)
    if max(edges, default=0) <= limit:  # the usual case: one cast, one search
        cuts = np.searchsorted(column, np.array(edges, dtype=column.dtype)).tolist()
        return cuts
    clamped = np.asarray([min(int(e), limit) for e in edges], dtype=column.dtype)
    cuts = np.searchsorted(column, clamped).tolist()
    return [len(column) if int(e) > limit else c for e, c in zip(edges, cuts)]


def kmer_record_bytes(k: int) -> int:
    """Bytes of one on-flash k-mer record: ``2k`` bits, padded to whole bytes."""
    return (BITS_PER_BASE * k + 7) // 8


def pack_kmer(value: int, k: int) -> bytes:
    """One key as its big-endian record, left-aligned so that byte order
    is k-mer order."""
    width = kmer_record_bytes(k)
    key_bits: int = BITS_PER_BASE * k
    return (int(value) << (width * 8 - key_bits)).to_bytes(width, "big")


def pack_kmer_column(column: Any, k: int) -> bytes:
    """Pack a sorted key column into big-endian records (one bulk blob).

    The mirror of :func:`parse_kmer_records`, which reads the big-endian
    ``uint64`` word starting at each record: for a word column each
    left-aligned key is written as that word, at the record stride, in
    one strided store.  A word spills ``8 - width`` zero bytes into the
    records after it, and the next word overwrites them: this relies on
    numpy storing a self-overlapping destination in ascending order, cast
    buffer after cast buffer (``tests/test_keys.py`` pins it past one
    buffer at every width).  An ``object`` column is packed one
    :func:`pack_kmer` at a time.
    """
    if not fits_word(k):
        return b"".join(pack_kmer(int(v), k) for v in column)
    width = kmer_record_bytes(k)
    count = len(column)
    out = np.empty(count * width + 8 - width, dtype=np.uint8)
    words = np.ndarray((count,), dtype=">u8", buffer=out, strides=(width,))
    words[...] = np.asarray(column, dtype=np.uint64) << np.uint64(spare_bits(k))
    return out[: count * width].tobytes()


def parse_kmer_records(raw: NDArray[np.uint8], k: int, count: int) -> NDArray[Any]:
    """The key column of ``count`` packed records (``raw`` holds exactly
    those ``count * kmer_record_bytes(k)`` bytes).

    For a word column the records are copied once into a buffer with
    ``8 - width`` zero bytes after them, and the big-endian ``uint64``
    word starting at each record (the record, then the next record's
    first bytes) is read at the record stride and shifted down to its
    ``2k`` key bits.  An ``object`` column is filled one record at a time.
    """
    width = kmer_record_bytes(k)
    if not fits_word(k):
        view = raw.tobytes()
        shift = width * 8 - BITS_PER_BASE * k
        return _object_column(
            int.from_bytes(view[i * width : (i + 1) * width], "big") >> shift
            for i in range(count)
        )
    padded = np.empty(count * width + 8 - width, dtype=np.uint8)
    padded[: count * width] = raw
    padded[count * width :] = 0
    words = np.ndarray((count,), dtype=">u8", buffer=padded, strides=(width,))
    column: NDArray[np.uint64] = words.astype(np.uint64)
    column >>= np.uint64(spare_bits(k))
    return column
