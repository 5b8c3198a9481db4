"""Entropy-based selective compression (paper §III-B5).

NEPTUNE compresses a buffered payload only when its byte entropy falls
below a configurable threshold: low-entropy sensor streams (e.g. the
DEBS manufacturing readings, where consecutive packets barely change)
compress well and gain bandwidth; high-entropy (random) streams would
only pay CPU for nothing, so they are sent raw.  What is compressed
goes through CPython's C ``zlib`` as raw deflate at level 1.
"""

from repro.compression.entropy import shannon_entropy, sampled_entropy
from repro.compression.policy import (
    CompressionPolicy,
    CompressionDecision,
    CompressionStats,
)

__all__ = [
    "shannon_entropy",
    "sampled_entropy",
    "CompressionPolicy",
    "CompressionDecision",
    "CompressionStats",
]
