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

from __future__ import annotations

from typing import Any

from repro.util.lazy import lazy_export

# Imported on first use: key partitioning hashes with ``xxh32`` and
# never loads the block codec.
_EXPORTS = {
    "compress": "repro.lz4.block",
    "decompress": "repro.lz4.block",
    "max_compressed_length": "repro.lz4.block",
    "xxh32": "repro.lz4.xxh",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    return lazy_export(__name__, _EXPORTS, name)
