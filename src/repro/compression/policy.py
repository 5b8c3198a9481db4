"""The selective compression policy and its wire encoding.

A :class:`CompressionPolicy` is attached per-stream (the paper notes
effectiveness "depends on the nature of the stream data, hence should be
enabled and configured for each stream individually even within the same
stream processing job").  ``encode`` prepends a one-byte flag so the
receiver knows whether to decompress; ``decode`` inverts it.

The codec is CPython's C ``zlib`` as raw deflate at level 1: a fast
native codec, which is what the paper's cost argument rests on
(DESIGN.md §2).
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from enum import Enum

from repro.compression.entropy import preload as preload_entropy, sampled_entropy

FLAG_RAW = 0x00
FLAG_DEFLATE = 0x02

# Raw deflate: the flag byte says what the body is and a wire frame's
# CRC-32 covers it, so a zlib header and Adler-32 trailer would only add
# 6 bytes and a second checksum.
WBITS = -15
# Level 1: ~15 ns/B for ratio 0.175 on 8 KiB sensor batches; level 6
# buys 0.15 for 1.7x the CPU (EXPERIMENTS.md "Selective compression at
# native speed").
LEVEL = 1

# Hard cap guarding decompression of hostile / corrupted wire data.
MAX_DECOMPRESSED = 1 << 30


class CompressionDecision(Enum):
    """Why a payload was (not) compressed — recorded for observability."""

    DISABLED = "disabled"
    ENTROPY_TOO_HIGH = "entropy_too_high"
    TOO_SMALL = "too_small"
    COMPRESSED = "compressed"
    INCOMPRESSIBLE = "incompressible"  # compressed output was not smaller


@dataclass
class CompressionStats:
    """Running counters for one stream's compression behaviour."""

    payloads_seen: int = 0
    payloads_compressed: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    compress_seconds: float = 0.0
    decisions: dict = field(default_factory=dict)

    def record(self, decision: CompressionDecision, n_in: int, n_out: int, secs: float) -> None:
        """Record one observation."""
        self.payloads_seen += 1
        self.bytes_in += n_in
        self.bytes_out += n_out
        self.compress_seconds += secs
        if decision is CompressionDecision.COMPRESSED:
            self.payloads_compressed += 1
        self.decisions[decision] = self.decisions.get(decision, 0) + 1

    @property
    def ratio(self) -> float:
        """Overall output/input byte ratio (1.0 when nothing compressed)."""
        return self.bytes_out / self.bytes_in if self.bytes_in else 1.0


class CompressionPolicy:
    """Entropy-gated deflate compression for outbound buffers.

    Parameters
    ----------
    enabled:
        Master switch; when False every payload is sent raw.
    entropy_threshold:
        Compress only when the payload's estimated entropy (bits/byte)
        is strictly below this.  8.0 compresses everything compressible;
        0.0 never compresses.
    min_size:
        Payloads smaller than this are never compressed (header overhead
        and CPU cost dominate on tiny buffers).
    """

    def __init__(
        self,
        enabled: bool = True,
        entropy_threshold: float = 6.0,
        min_size: int = 64,
    ) -> None:
        if not 0.0 <= entropy_threshold <= 8.0:
            raise ValueError(f"entropy_threshold must be in [0, 8]: {entropy_threshold}")
        if min_size < 0:
            raise ValueError(f"min_size must be non-negative: {min_size}")
        if enabled:
            preload_entropy()  # at wiring time, not on a running job's first flush
        self.enabled = enabled
        self.entropy_threshold = entropy_threshold
        self.min_size = min_size
        self.stats = CompressionStats()

    def encode(self, payload: bytes | bytearray | memoryview) -> bytes:
        """Return flag byte + (possibly compressed) payload.

        Accepts any bytes-like payload (e.g. a pooled flush bytearray);
        the returned frame is always an independent ``bytes`` object.
        """
        t0 = time.perf_counter()
        decision, body = self._encode_body(payload)
        flag = FLAG_DEFLATE if decision is CompressionDecision.COMPRESSED else FLAG_RAW
        out = b"".join((bytes((flag,)), body))
        self.stats.record(decision, len(payload), len(out), time.perf_counter() - t0)
        return out

    def _encode_body(
        self, payload: bytes | bytearray | memoryview
    ) -> tuple[CompressionDecision, bytes | bytearray | memoryview]:
        if not self.enabled:
            return CompressionDecision.DISABLED, payload
        if len(payload) < self.min_size:
            return CompressionDecision.TOO_SMALL, payload
        if sampled_entropy(payload) >= self.entropy_threshold:
            return CompressionDecision.ENTROPY_TOO_HIGH, payload
        deflater = zlib.compressobj(LEVEL, zlib.DEFLATED, WBITS)
        packed = deflater.compress(payload) + deflater.flush()
        if len(packed) >= len(payload):
            return CompressionDecision.INCOMPRESSIBLE, payload
        return CompressionDecision.COMPRESSED, packed

    @staticmethod
    def decode(data: bytes | bytearray | memoryview) -> bytes | memoryview:
        """Invert :meth:`encode` (usable without a policy instance).

        A raw frame comes back as a view of ``data`` past the flag byte
        (no copy of the batch); a compressed one as fresh ``bytes``.
        Every malformed body (an unknown flag, corrupt, truncated or
        trailing bytes, more than ``MAX_DECOMPRESSED`` inflated) raises
        ``ValueError``.
        """
        if not data:
            raise ValueError("empty compressed frame")
        flag = data[0]
        body = memoryview(data)[1:]
        if flag == FLAG_RAW:
            return body
        if flag != FLAG_DEFLATE:
            raise ValueError(f"unknown compression flag: {flag:#x}")
        inflater = zlib.decompressobj(WBITS)
        try:
            out = inflater.decompress(body, MAX_DECOMPRESSED)
        except zlib.error as exc:
            raise ValueError(f"corrupt deflate body: {exc}") from None
        if not inflater.eof:
            if len(out) >= MAX_DECOMPRESSED:
                raise ValueError(f"deflate body inflates past {MAX_DECOMPRESSED} bytes")
            raise ValueError("truncated deflate body")
        if inflater.unused_data:
            raise ValueError(f"{len(inflater.unused_data)} trailing bytes after deflate body")
        return out
