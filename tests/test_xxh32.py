"""xxHash32 verified against published test vectors, and against a
lane-at-a-time oracle written straight from the specification."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.lz4 import xxh32


class TestKnownVectors:
    """Vectors from the xxHash reference implementation's sanity checks."""

    def test_empty_seed0(self):
        assert xxh32(b"") == 0x02CC5D05

    def test_empty_seed_prime(self):
        assert xxh32(b"", seed=2654435761) == 0x36B78AE7

    def test_abc(self):
        # Published sanity vector from the xxHash repository.
        assert xxh32(b"abc") == 0x32D153FF

    def test_regression_pins(self):
        # Not published vectors — pinned outputs guarding against
        # accidental changes to the (vector-verified) implementation.
        assert xxh32(b"Hello, world!") == 0x31B7405D
        data = bytes(range(256)) * 16
        assert xxh32(data) == xxh32(bytearray(data))
        assert xxh32(data) == 0x693C0BC2


class TestProperties:
    def test_seed_changes_hash(self):
        assert xxh32(b"payload", seed=0) != xxh32(b"payload", seed=1)

    def test_deterministic(self):
        data = b"sensor-reading-42"
        assert xxh32(data) == xxh32(data)

    @pytest.mark.parametrize("n", [0, 1, 3, 4, 15, 16, 17, 31, 32, 33, 100])
    def test_length_boundaries(self, n):
        data = bytes(range(n % 256 or 1)) * (n // max(1, n % 256 or 1) + 1)
        h = xxh32(data[:n])
        assert 0 <= h <= 0xFFFFFFFF

    def test_accepts_memoryview(self):
        data = b"0123456789abcdef" * 4
        assert xxh32(memoryview(data)) == xxh32(data)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=256), st.integers(min_value=0, max_value=2**32 - 1))
def test_range_property(data, seed):
    assert 0 <= xxh32(data, seed) <= 0xFFFFFFFF


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=1, max_size=128))
def test_single_bit_flip_changes_hash(data):
    flipped = bytearray(data)
    flipped[0] ^= 0x01
    assert xxh32(bytes(flipped)) != xxh32(data)


# -- the merged-lane stripe loop against a lane-at-a-time oracle -------------

_P1, _P2, _P3, _P4, _P5 = 2654435761, 2246822519, 3266489917, 668265263, 374761393
_M = 0xFFFFFFFF


def _rotl(x, r):
    x &= _M
    return ((x << r) | (x >> (32 - r))) & _M


class _Oracle:
    """xxh32 one 32-bit lane at a time (the loop the production code
    replaced).  Stripes are fed once and any prefix length finalised
    from the running lanes, so a sweep over every length stays linear."""

    def __init__(self, data, seed):
        self.data = data
        self.seed = seed & _M
        self.lanes = [
            (self.seed + _P1 + _P2) & _M,
            (self.seed + _P2) & _M,
            self.seed,
            (self.seed - _P1) & _M,
        ]
        self.stripes = 0

    def digest(self, n):
        """xxh32(data[:n], seed); ``n`` must not go backwards by a stripe."""
        data = self.data
        while (self.stripes + 1) * 16 <= n:
            at = self.stripes * 16
            for lane in range(4):
                word = int.from_bytes(data[at + 4 * lane : at + 4 * lane + 4], "little")
                acc = (self.lanes[lane] + word * _P2) & _M
                self.lanes[lane] = (_rotl(acc, 13) * _P1) & _M
            self.stripes += 1
        assert self.stripes == n // 16
        if n >= 16:
            v1, v2, v3, v4 = self.lanes
            h = (_rotl(v1, 1) + _rotl(v2, 7) + _rotl(v3, 12) + _rotl(v4, 18)) & _M
        else:
            h = (self.seed + _P5) & _M
        h = (h + n) & _M
        i = self.stripes * 16
        while i + 4 <= n:
            h = (h + int.from_bytes(data[i : i + 4], "little") * _P3) & _M
            h = (_rotl(h, 17) * _P4) & _M
            i += 4
        while i < n:
            h = (h + data[i] * _P5) & _M
            h = (_rotl(h, 11) * _P1) & _M
            i += 1
        h ^= h >> 15
        h = (h * _P2) & _M
        h ^= h >> 13
        h = (h * _P3) & _M
        h ^= h >> 16
        return h


SEEDS = (0, 1, 0xDEADBEEF)


def test_oracle_reproduces_the_published_vectors():
    assert _Oracle(b"", 0).digest(0) == 0x02CC5D05
    assert _Oracle(b"", 2654435761).digest(0) == 0x36B78AE7
    assert _Oracle(b"abc", 0).digest(3) == 0x32D153FF


@pytest.mark.parametrize("seed", SEEDS)
def test_every_short_length_matches_the_oracle(seed):
    rng = random.Random(seed)
    for n in range(71):
        data = rng.randbytes(n)
        expected = _Oracle(data, seed).digest(n)
        assert xxh32(data, seed) == expected, n
        assert xxh32(bytearray(data), seed) == expected, n
        assert xxh32(memoryview(data), seed) == expected, n


def test_lengths_straddling_every_stripe_boundary_match_the_oracle():
    # 32 KiB is one default application buffer: the frame bodies the
    # wire path checksums.  All-ones words exercise the lane carries.
    limit = 32 * 1024 + 3
    rng = random.Random(7)
    data = rng.randbytes(limit // 2) + b"\xff" * (limit - limit // 2)
    oracles = [_Oracle(data, seed) for seed in SEEDS]
    view = memoryview(data)
    for boundary in range(16, limit, 16):
        oracle = oracles[(boundary // 16) % len(SEEDS)]
        for n in (boundary - 1, boundary, boundary + 1):
            assert xxh32(view[:n], oracle.seed) == oracle.digest(n), n
    for oracle in oracles:
        assert xxh32(data, oracle.seed) == oracle.digest(limit)


def test_seed_is_taken_modulo_32_bits():
    data = bytes(range(64))
    assert xxh32(data, seed=2**32 + 5) == xxh32(data, seed=5)
