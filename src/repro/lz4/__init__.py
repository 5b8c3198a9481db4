"""Pure-Python LZ4 block-format codec.

The paper uses the native LZ4 library for NEPTUNE's selective
compression because of its very fast compression/decompression with a
reasonable ratio.  No native LZ4 binding is available in this
environment, so this package implements the LZ4 *block* format from its
specification: greedy hash-chain matching on 4-byte sequences, token
bytes carrying literal/match lengths with 255-extension bytes, and
little-endian 2-byte match offsets.

:func:`compress` / :func:`decompress` round-trip arbitrary byte strings
and honour the format's end-of-block constraints (final sequence is
literals-only; matches must not begin within the last 12 bytes).

The data plane no longer runs this codec: selective compression
deflates with CPython's C ``zlib`` (:mod:`repro.compression.policy`).
:func:`xxh32` remains the hash of key partitioning and chaos decisions.
"""

from repro.lz4.block import compress, decompress, max_compressed_length
from repro.lz4.xxh import xxh32

__all__ = ["compress", "decompress", "max_compressed_length", "xxh32"]
