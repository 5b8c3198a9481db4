"""Wire framing for NEPTUNE batches.

One frame carries one application-level buffer flush: a batch of
serialized stream packets for a single link, possibly compressed by the
stream's :class:`~repro.compression.CompressionPolicy`.

Frame layout (all integers little-endian)::

    magic      2 bytes   0x4E50 ("NP")
    version    1 byte
    link_id    4 bytes   destination link
    seq        8 bytes   per-link frame sequence number (in-order check)
    count      4 bytes   number of packets in the batch
    length     4 bytes   body length in bytes
    checksum   4 bytes   CRC-32 of every other byte of the frame
    [trace_len 2 bytes   version 6 only: trace block length]
    [trace     `trace_len` bytes   version 6 only: observe trace notes]
    body       `length` bytes

The body is the batch of ``count`` packets laid out by
:mod:`repro.core.serde`: the records' fixed-width fields as one block,
then one column per variable-width field (strings as a per-batch
dictionary).  It carries no count of its own; the header's is the one
the decoder uses.

Version 5 frames carry no trace block; version 6 frames insert one
between header and body (see :mod:`repro.observe.tracing`).  The
encoder emits version 5 whenever the trace block is empty, so tracing
is zero wire overhead unless a sampled packet is actually aboard, and
decoders accept both versions.

The checksum is one running ``zlib.crc32`` over the 23 header bytes
that precede it (magic ... length), then the trace block (``trace_len``
and ``trace``) if there is one, then the body: every bit of a frame
but the checksum itself is covered, so a flipped ``seq``, ``count`` or
``link_id`` is refused exactly like a flipped body byte — the
transport resets the connection and the sender replays — instead of
being acted on.  The decoder verifies it before it acts on anything
but magic, version and the two lengths, which it must read first to
know how many bytes to wait for (a corrupted length is caught when the
bytes it asked for arrive and the CRC fails).

Versions 1 and 2 (body-only xxh32 checksum) and 3 and 4 (a body of
records back to back, each variable-width field behind its own length)
are refused as "unsupported frame version".  There is no compatibility
path: every peer of a job is spawned from one source tree and replay
windows live in memory, so no frame in an old format can reach this
decoder.

The sequence number and checksum implement the paper's correctness
requirements: no corrupted, dropped, duplicated, or reordered packets.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from zlib import crc32

from repro.util.errors import SerializationError

MAGIC = 0x4E50
VERSION = 5
VERSION_TRACED = 6
# The header fields the checksum covers, then the checksum itself.
_HEAD = struct.Struct("<HBIQII")
_CHECKSUM = struct.Struct("<I")
HEADER_SIZE = _HEAD.size + _CHECKSUM.size
_TRACE_LEN = struct.Struct("<H")
MAX_TRACE = 0xFFFF

# Upper bound on a frame body; a flush is at most the application buffer
# (1 MB default) plus compression flag — anything bigger is corruption.
MAX_BODY = 64 * 1024 * 1024


@dataclass(frozen=True)
class FrameHeader:
    """Decoded frame header."""

    link_id: int
    seq: int
    count: int
    length: int
    checksum: int


@dataclass(frozen=True)
class Frame:
    """A decoded frame: header plus body bytes (and any trace block).

    In-process frames may carry a ``bytearray`` body on loan from the
    sender's :class:`~repro.core.buffering.StreamBuffer` pool (zero-copy
    flush); wire-decoded frames always hold ``bytes``.
    """

    header: FrameHeader
    body: bytes | bytearray | memoryview
    trace: bytes = b""

    @property
    def link_id(self) -> int:
        """Destination link id carried by this frame."""
        return self.header.link_id

    @property
    def seq(self) -> int:
        """Per-link sequence number of this frame."""
        return self.header.seq

    @property
    def count(self) -> int:
        """Number of observations recorded."""
        return self.header.count


class FrameEncoder:
    """Stateful encoder assigning per-link sequence numbers.

    One encoder per outbound connection; it is the single writer for its
    links, so a plain dict of counters suffices (the runtime serializes
    access through the IO thread that owns the connection).
    """

    def __init__(self) -> None:
        self._seqs: dict[int, int] = {}

    def encode(
        self,
        link_id: int,
        body: bytes | bytearray | memoryview,
        count: int,
        trace: bytes = b"",
    ) -> bytes:
        """Encode one batch into a single wire-frame byte string.

        Materializes header+body in one buffer: the form a replay
        window keeps.
        """
        header, _ = self.encode_parts(link_id, body, count, trace)
        return b"".join((header, body))

    def encode_parts(
        self,
        link_id: int,
        body: bytes | bytearray | memoryview,
        count: int,
        trace: bytes = b"",
    ) -> tuple[bytes, bytes | bytearray | memoryview]:
        """Encode one batch as ``(header, body)`` and bump the link's seq.

        The header part includes any trace block; the body is returned
        as given, uncopied.  A non-empty ``trace`` block upgrades the
        frame to the traced version.
        """
        if link_id < 0 or link_id > 0xFFFFFFFF:
            raise SerializationError(f"link_id out of range: {link_id}")
        if len(body) > MAX_BODY:
            raise SerializationError(f"frame body too large: {len(body)}")
        if len(trace) > MAX_TRACE:
            raise SerializationError(f"frame trace block too large: {len(trace)}")
        seq = self._seqs.get(link_id, 0)
        self._seqs[link_id] = seq + 1
        if trace:
            head = _HEAD.pack(MAGIC, VERSION_TRACED, link_id, seq, count, len(body))
            trace_block = _TRACE_LEN.pack(len(trace)) + trace
            checksum = crc32(body, crc32(trace_block, crc32(head)))
            return head + _CHECKSUM.pack(checksum) + trace_block, body
        head = _HEAD.pack(MAGIC, VERSION, link_id, seq, count, len(body))
        return head + _CHECKSUM.pack(crc32(body, crc32(head))), body

    def sequence(self, link_id: int) -> int:
        """Next sequence number that will be assigned for ``link_id``."""
        return self._seqs.get(link_id, 0)


class FrameDecoder:
    """Incremental decoder over a byte stream.

    Feed arbitrary chunks with :meth:`feed`; the frames they complete
    come out.  Verifies magic, version, length bounds and checksum;
    sequence continuity is the receiver's
    (:class:`repro.net.protocol.Receiver`), across connections.
    ``verify_sequence`` is accepted only as False.
    """

    def __init__(self, verify_sequence: bool = False) -> None:
        if verify_sequence is not False:
            raise ValueError("FrameDecoder does not check sequence numbers")
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[Frame]:
        """Append ``data`` and return all frames completed by it."""
        self._buf += data
        out: list[Frame] = []
        while True:
            frame = self._try_decode_one()
            if frame is None:
                return out
            out.append(frame)

    def _try_decode_one(self) -> Frame | None:
        if len(self._buf) < HEADER_SIZE:
            return None
        magic, version, link_id, seq, count, length = _HEAD.unpack_from(self._buf)
        if magic != MAGIC:
            raise SerializationError(f"bad frame magic: {magic:#06x}")
        if version not in (VERSION, VERSION_TRACED):
            raise SerializationError(f"unsupported frame version: {version}")
        if length > MAX_BODY:
            raise SerializationError(f"frame body too large: {length}")
        trace = b""
        body_at = HEADER_SIZE
        if version == VERSION_TRACED:
            if len(self._buf) < HEADER_SIZE + _TRACE_LEN.size:
                return None
            (trace_len,) = _TRACE_LEN.unpack_from(self._buf, HEADER_SIZE)
            body_at = HEADER_SIZE + _TRACE_LEN.size + trace_len
        end = body_at + length
        if len(self._buf) < end:
            return None
        (checksum,) = _CHECKSUM.unpack_from(self._buf, _HEAD.size)
        # Slicing the bytearray itself would copy each part twice (a
        # temporary bytearray, then bytes); through a view it is once,
        # and the checksum runs over the views before anything is
        # copied.  The views must be gone before the resize below: a
        # bytearray with a live export cannot shrink (BufferError).
        with memoryview(self._buf) as view:
            with view[: _HEAD.size] as part:
                actual = crc32(part)
            with view[HEADER_SIZE:end] as part:
                actual = crc32(part, actual)
            if actual == checksum:
                if version == VERSION_TRACED:
                    with view[HEADER_SIZE + _TRACE_LEN.size : body_at] as part:
                        trace = bytes(part)
                with view[body_at:end] as part:
                    body = bytes(part)
        del self._buf[:end]
        if actual != checksum:
            raise SerializationError(
                f"checksum mismatch on link {link_id} seq {seq}: packet corrupted"
            )
        return Frame(FrameHeader(link_id, seq, count, length, checksum), body, trace)

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting a complete frame."""
        return len(self._buf)
