"""Tests for entropy estimation and the selective compression policy."""

import math
import random
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression import (
    CompressionDecision,
    CompressionPolicy,
    sampled_entropy,
    shannon_entropy,
)
from repro.compression import policy as policy_module
from repro.compression.policy import FLAG_DEFLATE


class TestShannonEntropy:
    def test_empty_is_zero(self):
        assert shannon_entropy(b"") == 0.0

    def test_constant_is_zero(self):
        assert shannon_entropy(b"\x07" * 1000) == 0.0

    def test_two_symbols_equal_is_one_bit(self):
        assert shannon_entropy(b"ab" * 500) == pytest.approx(1.0)

    def test_uniform_random_near_eight(self):
        rng = random.Random(0)
        data = bytes(rng.getrandbits(8) for _ in range(100_000))
        assert shannon_entropy(data) > 7.95

    def test_all_256_symbols_uniform_is_eight(self):
        assert shannon_entropy(bytes(range(256)) * 10) == pytest.approx(8.0)

    def test_monotone_in_alphabet_size(self):
        e1 = shannon_entropy(b"ab" * 100)
        e2 = shannon_entropy(b"abcd" * 50)
        e3 = shannon_entropy(b"abcdefgh" * 25)
        assert e1 < e2 < e3


class TestSampledEntropy:
    def test_small_input_exact(self):
        data = b"abcd" * 100
        assert sampled_entropy(data) == shannon_entropy(data)

    def test_large_input_close_to_exact(self):
        rng = random.Random(1)
        data = bytes(rng.getrandbits(8) for _ in range(200_000))
        assert abs(sampled_entropy(data) - shannon_entropy(data)) < 0.3

    def test_deterministic(self):
        rng = random.Random(2)
        data = bytes(rng.getrandbits(8) for _ in range(50_000))
        assert sampled_entropy(data) == sampled_entropy(data)

    @pytest.mark.parametrize("size", [8096, 12_287])
    def test_the_sample_spans_the_whole_payload(self, size):
        # Zeros, then noise: a sample of the first 4 096 bytes (or of
        # the first 4 096 strides) reads only the zeros.
        rng = random.Random(4)
        zeros = 4096 if size == 8096 else 8192
        data = bytes(zeros) + bytes(rng.getrandbits(8) for _ in range(size - zeros))
        for view in (data, bytearray(data), memoryview(data)):
            assert abs(sampled_entropy(view) - shannon_entropy(data)) < 0.2

    def test_a_constant_payload_reads_positive_zero(self):
        for size in (100, 10_000):
            assert math.copysign(1.0, sampled_entropy(bytes(size))) == 1.0


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=2048))
def test_entropy_bounds_property(data):
    e = shannon_entropy(data)
    assert 0.0 <= e <= 8.0


class TestCompressionPolicy:
    def test_low_entropy_payload_is_compressed(self):
        policy = CompressionPolicy(entropy_threshold=6.0)
        payload = b"sensor=21.5;valve=open;" * 100
        out = policy.encode(payload)
        assert out[0] == FLAG_DEFLATE
        assert len(out) < len(payload)
        assert CompressionPolicy.decode(out) == payload

    def test_high_entropy_payload_is_raw(self):
        rng = random.Random(3)
        payload = bytes(rng.getrandbits(8) for _ in range(4096))
        policy = CompressionPolicy(entropy_threshold=6.0)
        out = policy.encode(payload)
        assert out[0] == 0x00
        assert CompressionPolicy.decode(out) == payload
        assert policy.stats.decisions[CompressionDecision.ENTROPY_TOO_HIGH] == 1

    def test_disabled_policy_never_compresses(self):
        policy = CompressionPolicy(enabled=False)
        payload = b"\x00" * 1000
        out = policy.encode(payload)
        assert out[0] == 0x00
        assert policy.stats.decisions[CompressionDecision.DISABLED] == 1

    def test_tiny_payload_skipped(self):
        policy = CompressionPolicy(min_size=64)
        out = policy.encode(b"\x00" * 10)
        assert out[0] == 0x00
        assert policy.stats.decisions[CompressionDecision.TOO_SMALL] == 1

    def test_incompressible_falls_back_to_raw(self):
        # Low entropy threshold satisfied but deflate can't shrink it:
        # short non-repeating payload with a tiny alphabet still repeats,
        # so use threshold 8.0 and random-ish data instead.
        rng = random.Random(4)
        payload = bytes(rng.getrandbits(8) for _ in range(200))
        policy = CompressionPolicy(entropy_threshold=8.0, min_size=0)
        out = policy.encode(payload)
        assert CompressionPolicy.decode(out) == payload

    def test_stats_ratio(self):
        policy = CompressionPolicy()
        payload = b"\x00" * 10_000
        policy.encode(payload)
        assert policy.stats.ratio < 0.1
        assert policy.stats.payloads_compressed == 1

    def test_decode_rejects_empty(self):
        with pytest.raises(ValueError):
            CompressionPolicy.decode(b"")

    def test_decode_rejects_unknown_flag(self):
        with pytest.raises(ValueError):
            CompressionPolicy.decode(b"\x7fdata")

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            CompressionPolicy(entropy_threshold=9.0)
        with pytest.raises(ValueError):
            CompressionPolicy(min_size=-1)

    def test_threshold_zero_never_compresses(self):
        policy = CompressionPolicy(entropy_threshold=0.0)
        out = policy.encode(b"\x00" * 1000)
        assert out[0] == 0x00


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=4096), st.floats(min_value=0.0, max_value=8.0))
def test_policy_roundtrip_property(payload, threshold):
    policy = CompressionPolicy(entropy_threshold=threshold, min_size=0)
    assert CompressionPolicy.decode(policy.encode(payload)) == payload


def _deflated(payload: bytes) -> bytes:
    """A compressed frame body as the policy writes one."""
    out = CompressionPolicy(entropy_threshold=8.0, min_size=0).encode(payload)
    assert out[0] == FLAG_DEFLATE
    return out


class TestDeflateDecodeGuards:
    """Every malformed compressed body is a ``ValueError``, never a
    ``zlib.error`` and never wrong bytes."""

    PAYLOAD = b"sensor=21.5;valve=open;" * 200

    def test_the_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(policy_module, "MAX_DECOMPRESSED", 1 << 20)
        payload = b"\x00" * (1 << 20)
        assert CompressionPolicy.decode(_deflated(payload)) == payload
        with pytest.raises(ValueError, match="inflates past 1048576 bytes"):
            CompressionPolicy.decode(_deflated(payload + b"\x00"))

    def test_truncated_stream(self):
        encoded = _deflated(self.PAYLOAD)
        with pytest.raises(ValueError, match="truncated"):
            CompressionPolicy.decode(encoded[:-3])

    def test_trailing_bytes(self):
        encoded = _deflated(self.PAYLOAD)
        with pytest.raises(ValueError, match="2 trailing bytes"):
            CompressionPolicy.decode(encoded + b"\x00\x00")

    def test_old_lz4_flag_is_refused_by_name(self):
        """0x01 was the pure-Python LZ4 body: one codec per tree, no
        compat path."""
        body = _deflated(self.PAYLOAD)[1:]
        with pytest.raises(ValueError, match="unknown compression flag: 0x1"):
            CompressionPolicy.decode(b"\x01" + body)

    def test_body_is_raw_deflate(self):
        encoded = _deflated(self.PAYLOAD)
        assert zlib.decompress(encoded[1:], wbits=-15) == self.PAYLOAD


@settings(max_examples=100, deadline=None)
@given(
    st.binary(max_size=4096),
    st.sampled_from((bytes, bytearray, memoryview)),
    st.booleans(),
)
def test_deflate_roundtrip_over_bytes_likes(payload, kind, repetitive):
    """Any bytes-like payload, compressible or not, comes back equal;
    ``repetitive`` sends about half the examples down the deflate
    path."""
    if repetitive:
        payload = payload[:16] * 64
    policy = CompressionPolicy(entropy_threshold=8.0, min_size=0)
    encoded = policy.encode(kind(payload))
    assert isinstance(encoded, bytes)
    assert CompressionPolicy.decode(encoded) == payload
    assert CompressionPolicy.decode(kind(encoded)) == payload
