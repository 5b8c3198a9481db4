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
            {"worker_threads": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NeptuneConfig(**kwargs)


class TestEffectiveWorkers:
    def test_auto_covers_hosted_instances(self):
        cfg = NeptuneConfig()
        # Never fewer workers than hosted instances: a blocked emit
        # must not starve its downstream consumer (deadlock freedom).
        assert cfg.effective_workers(100) >= 100

    def test_auto_at_least_one(self):
        assert NeptuneConfig().effective_workers(0) >= 1

    def test_explicit_floored_at_instances(self):
        cfg = NeptuneConfig(worker_threads=2)
        assert cfg.effective_workers(10) == 10
        assert cfg.effective_workers(1) == 2
