"""LZ4 block-format compression and decompression.

Implements the format documented at
https://github.com/lz4/lz4/blob/dev/doc/lz4_Block_format.md:

A compressed block is a series of *sequences*.  Each sequence is::

    token | [literal-length extension bytes] | literals
          | offset (2 bytes, little-endian)  | [match-length extension bytes]

- token high nibble = literal length (15 means "read extension bytes"),
- token low nibble  = match length - 4 (15 means "read extension bytes"),
- extension bytes add 0..255 each; a value of 255 means "keep reading".

End-of-block rules enforced here (and required for interoperability):

- the last sequence contains only literals (no match part),
- a match may not start within the last 12 bytes of the input,
- the last 5 bytes of input are always emitted as literals.

Inputs shorter than 13 bytes are therefore emitted as a single literal
run.  The compressor is greedy with one candidate per 4-byte prefix,
mirroring the reference LZ4 fast compressor.
"""

from __future__ import annotations

import sys

MIN_MATCH = 4
# A match must not start within the last MFLIMIT bytes of input.
MFLIMIT = 12
# The last LAST_LITERALS bytes are always literals.
LAST_LITERALS = 5
MAX_OFFSET = 65535

# Match extension compares this many bytes per slice comparison; the
# first differing byte of the one unequal chunk is located with an XOR.
_CHUNK = 32
# Positions scanned between two sweeps of the prefix table: entries
# further back than MAX_OFFSET can never be matched, so dropping them
# keeps the table's size bounded by the window, not by the input.
_WINDOW = 1 << 16
# "No candidate": far enough back to fail the offset test on its own.
_OUT_OF_REACH = -(MAX_OFFSET + 1)


def max_compressed_length(n: int) -> int:
    """Worst-case compressed size for ``n`` input bytes.

    Matches the reference ``LZ4_compressBound``: incompressible data
    expands by one token byte plus one extension byte per 255 literals.
    """
    if n < 0:
        raise ValueError(f"negative length: {n}")
    return n + n // 255 + 16


def compress(data: bytes | bytearray | memoryview) -> bytes:
    """Compress ``data`` into an LZ4 block.

    Returns the raw block (no frame header; callers needing the original
    length must carry it out-of-band, as NEPTUNE's wire format does).

    Greedy, one candidate per 4-byte prefix (the most recent position
    that started with the same four bytes).  The work is per sequence,
    not per byte: the table is a dict keyed by the prefix itself, so a
    candidate needs no re-comparison, and a match is extended
    ``_CHUNK`` bytes per comparison.
    """
    src = bytes(data)
    n = len(src)
    out = bytearray()
    anchor = 0
    if n > MFLIMIT:
        table: dict[bytes, int] = {}
        lookup = table.get
        from_bytes = int.from_bytes
        # The last LAST_LITERALS bytes are never part of a match, and
        # no match starts beyond n - MFLIMIT.
        match_limit = n - LAST_LITERALS
        search_end = n - MFLIMIT
        pos = 0
        while pos <= search_end:
            window_end = min(search_end, pos + _WINDOW)
            while pos <= window_end:
                key = src[pos : pos + MIN_MATCH]
                cand = lookup(key, _OUT_OF_REACH)
                table[key] = pos
                offset = pos - cand
                if offset > MAX_OFFSET:
                    pos += 1
                    continue
                # Extend the match as far as allowed, a chunk at a time.
                m = pos + MIN_MATCH
                end = m + _CHUNK
                while end <= match_limit:
                    ahead = src[m:end]
                    behind = src[m - offset : end - offset]
                    if ahead != behind:
                        break
                    m = end
                    end += _CHUNK
                else:
                    ahead = src[m:match_limit]
                    behind = src[m - offset : match_limit - offset]
                if ahead == behind:
                    m = match_limit
                else:
                    # Lowest set bit of the XOR = first differing byte.
                    diff = from_bytes(ahead, "little") ^ from_bytes(behind, "little")
                    m += ((diff & -diff).bit_length() - 1) >> 3
                lit_len = pos - anchor
                ml = m - pos - MIN_MATCH
                if lit_len < 15 and ml < 15:
                    out.append(lit_len << 4 | ml)
                    out += src[anchor:pos]
                    out += offset.to_bytes(2, "little")
                else:
                    out.append(min(lit_len, 15) << 4 | min(ml, 15))
                    if lit_len >= 15:
                        _emit_length(out, lit_len - 15)
                    out += src[anchor:pos]
                    out += offset.to_bytes(2, "little")
                    if ml >= 15:
                        _emit_length(out, ml - 15)
                pos = anchor = m
                # Seed the table inside the match region to find
                # overlapping repeats (cheap approximation of the
                # reference's step).
                if pos <= search_end:
                    table[src[pos - 2 : pos + 2]] = pos - 2
            if pos <= search_end:
                reach = pos - MAX_OFFSET
                for key in [k for k, at in table.items() if at < reach]:
                    del table[key]
    # The last sequence is literals only.
    lit_len = n - anchor
    out.append(min(lit_len, 15) << 4)
    if lit_len >= 15:
        _emit_length(out, lit_len - 15)
    out += src[anchor:]
    return bytes(out)


def _emit_length(out: bytearray, extra: int) -> None:
    """Emit 255-extension bytes for a length value beyond the nibble."""
    while extra >= 255:
        out.append(255)
        extra -= 255
    out.append(extra)


def decompress(block: bytes | bytearray | memoryview, max_size: int | None = None) -> bytes:
    """Decompress an LZ4 block produced by :func:`compress`.

    Parameters
    ----------
    block:
        The compressed block bytes.
    max_size:
        Optional safety cap on the decompressed size; exceeded output
        raises ``ValueError`` (guards against decompression bombs when
        decoding wire data).
    """
    # Indexing and slicing ``bytes`` is cheaper per sequence than the
    # same on a memoryview, and a compressed block is small: one copy
    # of a non-``bytes`` input (none of a ``bytes`` one) is the faster
    # trade.
    src = bytes(block)
    n = len(src)
    cap = sys.maxsize if max_size is None else max_size
    out = bytearray()
    size = 0  # == len(out)
    i = 0
    while i < n:
        token = src[i]
        i += 1
        # --- literals ---
        lit_len = token >> 4
        if lit_len:
            if lit_len == 15:
                while True:
                    if i >= n:
                        raise ValueError("truncated literal length")
                    b = src[i]
                    i += 1
                    lit_len += b
                    if b != 255:
                        break
            end = i + lit_len
            if end > n:
                raise ValueError("truncated literals")
            out += src[i:end]
            i = end
            size += lit_len
            if size > cap:
                raise ValueError(f"decompressed size exceeds cap of {max_size}")
        # --- match ---
        if i + 2 > n:
            if i == n:
                break  # last sequence: literals only
            raise ValueError("truncated match offset")
        offset = src[i] | src[i + 1] << 8
        i += 2
        start = size - offset
        if not 0 <= start < size:
            if offset == 0:
                raise ValueError("invalid zero match offset")
            raise ValueError(f"match offset {offset} beyond output start")
        match_len = token & 0x0F
        if match_len == 15:
            while True:
                if i >= n:
                    raise ValueError("truncated match length")
                b = src[i]
                i += 1
                match_len += b
                if b != 255:
                    break
        match_len += MIN_MATCH
        size += match_len
        if size > cap:
            raise ValueError(f"decompressed size exceeds cap of {max_size}")
        if offset >= match_len:
            out += out[start : start + match_len]
        else:
            # Overlapping match (RLE-style): the last ``offset`` bytes
            # repeat, so replicate them instead of copying byte by byte.
            pattern = out[start:]
            repeats, rest = divmod(match_len, offset)
            out += pattern * repeats
            out += pattern[:rest]
    return bytes(out)
