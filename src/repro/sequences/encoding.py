"""Two-bit nucleotide encoding used throughout the MegIS pipeline.

The paper (§4.2) encodes ``A, C, G, T`` with two bits per character during
offline database generation and uses the 2-bit encoding for the remainder of
the pipeline.  We use the lexicographic code ``A=0, C=1, G=2, T=3`` so that
integer order on encoded k-mers equals lexicographic order on their string
form — the property MegIS's sorted databases and streaming intersection rely
on.

A k-mer of length ``k`` is packed into a single Python integer (two bits per
base, most-significant bits hold the first base), so any ``k`` works here:
the 120-bit width quoted for the Intersect registers in Table 2 is the
``k = 60`` that Metalign and MegIS use.  How a column of packed k-mers is
held — one ``uint64`` word per key, or Python ints past the word — is
:mod:`repro.sequences.keys`.
"""

from __future__ import annotations

import numpy as np

ALPHABET = "ACGT"

#: Number of bits used per nucleotide.
BITS_PER_BASE = 2

_CHAR_TO_CODE = {c: i for i, c in enumerate(ALPHABET)}
_COMPLEMENT_CODE = 3  # complement(x) == 3 - x under the A<C<G<T code

# Lookup table from ASCII byte to 2-bit code (255 marks invalid characters).
_BYTE_TO_CODE = np.full(256, 255, dtype=np.uint8)
for _c, _i in _CHAR_TO_CODE.items():
    _BYTE_TO_CODE[ord(_c)] = _i
    _BYTE_TO_CODE[ord(_c.lower())] = _i
_BYTE_TO_CODE_TABLE = _BYTE_TO_CODE.tobytes()  # the same table for bytearray.translate


class EncodingError(ValueError):
    """Raised when a sequence contains characters outside ``ACGT``."""


def encode_sequence(seq: str) -> np.ndarray:
    """Encode a DNA string into an array of 2-bit codes (one byte each).

    The per-base array form is the working representation for genome and
    read payloads; :func:`encode_kmer` packs fixed-length windows of it into
    integers for sorting and intersection.

    One ``bytearray.translate`` through ``_BYTE_TO_CODE`` maps the bytes.
    A character outside ASCII encodes as one ``?`` byte (code 255), so
    byte ``i`` is still character ``i`` and every character outside
    ``ACGTacgt`` raises :class:`EncodingError` naming itself.
    """
    codes = np.frombuffer(
        bytearray(seq, "ascii", "replace").translate(_BYTE_TO_CODE_TABLE),
        dtype=np.uint8,
    )
    if codes.max(initial=0) == 255:
        bad = seq[int(np.argmax(codes == 255))]
        raise EncodingError(f"invalid nucleotide {bad!r} in sequence")
    return codes


def decode_sequence(codes: np.ndarray) -> str:
    """Decode an array of 2-bit codes back into a DNA string."""
    lut = np.frombuffer(ALPHABET.encode("ascii"), dtype=np.uint8)
    return lut[np.asarray(codes, dtype=np.uint8)].tobytes().decode("ascii")


def encode_kmer(kmer: str) -> int:
    """Pack a k-mer string into an integer preserving lexicographic order."""
    value = 0
    for char in kmer:
        try:
            code = _CHAR_TO_CODE[char.upper()]
        except KeyError:
            raise EncodingError(f"invalid nucleotide {char!r} in k-mer") from None
        value = (value << BITS_PER_BASE) | code
    return value


def decode_kmer(value: int, k: int) -> str:
    """Unpack an integer produced by :func:`encode_kmer` back into a string."""
    if value < 0 or value >= 1 << (BITS_PER_BASE * k):
        raise ValueError(f"value {value} out of range for k={k}")
    chars = []
    for shift in range((k - 1) * BITS_PER_BASE, -1, -BITS_PER_BASE):
        chars.append(ALPHABET[(value >> shift) & 3])
    return "".join(chars)


def reverse_complement(seq: str) -> str:
    """Reverse-complement a DNA string."""
    codes = encode_sequence(seq)
    return decode_sequence((_COMPLEMENT_CODE - codes[::-1]).astype(np.uint8))


def reverse_complement_code(value: int, k: int) -> int:
    """Reverse-complement a packed k-mer without decoding to a string."""
    result = 0
    for _ in range(k):
        result = (result << BITS_PER_BASE) | (_COMPLEMENT_CODE - (value & 3))
        value >>= BITS_PER_BASE
    return result


def canonical_kmer(value: int, k: int) -> int:
    """Return the smaller of a packed k-mer and its reverse complement.

    Metagenomic tools index canonical k-mers so a read matches regardless of
    the strand it was sequenced from; Kraken2 and KMC both do this.
    """
    return min(value, reverse_complement_code(value, k))


def kmer_prefix(value: int, k: int, prefix_len: int) -> int:
    """Return the packed ``prefix_len``-mer prefix of a packed ``k``-mer.

    MegIS's Index Generator (§4.3.2) compares consecutive k-mers' prefixes to
    detect the start of a new shorter k-mer while streaming KSS tables.
    """
    if not 0 < prefix_len <= k:
        raise ValueError(f"prefix_len must be in (0, {k}], got {prefix_len}")
    return value >> (BITS_PER_BASE * (k - prefix_len))
