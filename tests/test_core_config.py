"""Tests for runtime configuration."""

import pytest

from repro.core import NeptuneConfig


class TestDefaults:
    def test_paper_defaults(self):
        cfg = NeptuneConfig()
        assert cfg.buffer_capacity == 1 << 20  # "buffer size is set to 1 MB"
        assert cfg.buffer_max_delay == 0.010
        assert cfg.compression_enabled is False
        assert cfg.emit_timeout is None  # never drop by default

    def test_low_watermark_default_is_half(self):
        cfg = NeptuneConfig(inbound_high_watermark=1000)
        assert cfg.low_watermark() == 500

    def test_low_watermark_explicit(self):
        cfg = NeptuneConfig(inbound_high_watermark=1000, inbound_low_watermark=100)
        assert cfg.low_watermark() == 100


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"buffer_capacity": 0},
            {"buffer_capacity": -1},
            {"buffer_max_delay": 0},
            {"inbound_high_watermark": 0},
            {"inbound_low_watermark": 100, "inbound_high_watermark": 100},
            {"inbound_low_watermark": -1},
            {"transport_replay_window": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NeptuneConfig(**kwargs)

