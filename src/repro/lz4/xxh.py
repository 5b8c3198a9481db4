"""xxHash32 — the checksum used by the LZ4 frame format.

NEPTUNE uses xxh32 as its stable, seedable 32-bit hash: key routing in
:class:`~repro.core.partitioning.FieldsPartitioning`, the broker's key
to partition map, and the chaos plan's per-decision hash.  (Wire frames
are checked with ``zlib.crc32`` — see :mod:`repro.net.framing`.)
Implemented from the xxHash specification; verified against published
test vectors in the test suite.

The 16-byte stripe loop is a per-byte interpreter loop, so it carries
the four accumulator lanes as *one* Python integer: each lane sits in
its own 64-bit slot, where a 32x32-bit product can never carry into its
neighbour, and one big-integer multiply, shift or mask advances all
four lanes at once.  A stripe then costs nine integer operations
instead of some forty.
"""

from __future__ import annotations

import struct

_PRIME1 = 2654435761
_PRIME2 = 2246822519
_PRIME3 = 3266489917
_PRIME4 = 668265263
_PRIME5 = 374761393
_MASK = 0xFFFFFFFF

_STRIPE = struct.Struct("32s")  # one input stripe, spread to four 64-bit slots


def _lanes(value: int) -> int:
    """``value`` replicated into each of the four 64-bit lane slots."""
    return value | value << 64 | value << 128 | value << 192


_LOW32 = _lanes(_MASK)
_LOW13 = _lanes(0x1FFF)
_HIGH19 = _LOW32 ^ _LOW13


def _stripes(view: memoryview, seed: int) -> int:
    """Fold the whole 16-byte stripes of ``view`` into the merged lanes.

    Invariant at the top of each step: every slot of ``acc`` holds a
    product of two 32-bit values, so adding a 32-bit lane input cannot
    overflow the slot; only the low 32 bits of a slot are the lane.
    """
    # Spread the 32-bit input words onto 64-bit slots with one strided
    # copy (pure byte movement: independent of the host's byte order).
    spread = bytearray(2 * len(view))
    memoryview(spread).cast("I")[::2] = view.cast("I")
    acc = (
        ((seed + _PRIME1 + _PRIME2) & _MASK)
        | ((seed + _PRIME2) & _MASK) << 64
        | seed << 128
        | ((seed - _PRIME1) & _MASK) << 192
    )
    from_bytes = int.from_bytes
    for (stripe,) in _STRIPE.iter_unpack(spread):
        acc += from_bytes(stripe, "little") * _PRIME2 & _LOW32
        # rotl(lane, 13) on the low 32 bits of every slot, then * PRIME1.
        acc = ((acc << 13) & _HIGH19 | (acc >> 19) & _LOW13) * _PRIME1
    v1 = acc & _MASK
    v2 = (acc >> 64) & _MASK
    v3 = (acc >> 128) & _MASK
    v4 = (acc >> 192) & _MASK
    return (
        ((v1 << 1 | v1 >> 31) & _MASK)
        + ((v2 << 7 | v2 >> 25) & _MASK)
        + ((v3 << 12 | v3 >> 20) & _MASK)
        + ((v4 << 18 | v4 >> 14) & _MASK)
    ) & _MASK


def xxh32(data: bytes | bytearray | memoryview, seed: int = 0) -> int:
    """Compute the 32-bit xxHash of ``data`` with the given ``seed``."""
    if not isinstance(data, (bytes, bytearray)):
        data = bytes(data)  # any other buffer: flatten its format and strides
    n = len(data)
    seed &= _MASK
    if n >= 16:
        body = n & ~15
        view = memoryview(data)
        h = _stripes(view[:body], seed)
        tail = bytes(view[body:])
    else:
        h = (seed + _PRIME5) & _MASK
        tail = data
    h = (h + n) & _MASK
    i = 0
    left = len(tail)
    while i + 4 <= left:
        h = (h + int.from_bytes(tail[i : i + 4], "little") * _PRIME3) & _MASK
        h = ((h << 17 | h >> 15) & _MASK) * _PRIME4 & _MASK
        i += 4
    while i < left:
        h = (h + tail[i] * _PRIME5) & _MASK
        h = ((h << 11 | h >> 21) & _MASK) * _PRIME1 & _MASK
        i += 1
    h ^= h >> 15
    h = (h * _PRIME2) & _MASK
    h ^= h >> 13
    h = (h * _PRIME3) & _MASK
    h ^= h >> 16
    return h
