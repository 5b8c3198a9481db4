"""Shannon entropy estimation over byte payloads.

Entropy is measured in bits per byte, in [0, 8].  A uniform random byte
stream approaches 8; a constant payload is 0.  The selective-compression
policy compares this estimate against its threshold.

The histogram is numpy's, and numpy is imported on use: a runtime whose
links do not compress never pays its ~0.2 s / 16 MiB.  One that does
calls :func:`preload` while wiring (constructing an enabled
:class:`~repro.compression.CompressionPolicy`), so the import is
start-up cost rather than CPU charged to the first flush of a running
job.
"""

from __future__ import annotations

from typing import Any

#: Bytes :func:`sampled_entropy` histograms at most.
SAMPLE_SIZE = 4096


def preload() -> None:
    """Import numpy now rather than inside the first entropy estimate."""
    import numpy  # noqa: F401


def shannon_entropy(data: bytes | bytearray | memoryview) -> float:
    """Exact Shannon entropy (bits/byte) of the byte histogram of ``data``.

    Returns 0.0 for empty input.
    """
    import numpy as np

    return _entropy(np.frombuffer(data, dtype=np.uint8))


def sampled_entropy(data: bytes | bytearray | memoryview) -> float:
    """Entropy estimate from a strided sample of ``data``.

    For large buffered batches an exact histogram is unnecessary; every
    ⌈n / :data:`SAMPLE_SIZE`⌉-th byte, across the whole payload, is
    within a few percent for the payloads NEPTUNE carries while costing
    O(sample) instead of O(n).  The sample is a strided view of the
    buffer, not a copy.  Deterministic (no RNG) so repeated calls on the
    same buffer always agree — the compression decision must be stable.
    """
    import numpy as np

    buf = np.frombuffer(data, dtype=np.uint8)
    stride = -(-buf.size // SAMPLE_SIZE)
    return _entropy(buf[::stride] if stride > 1 else buf)


def _entropy(buf: Any) -> float:
    import numpy as np

    if buf.size == 0:
        return 0.0
    counts = np.bincount(buf, minlength=256)
    probs = counts[counts > 0] / buf.size
    # 0.0 - x, not -x: a one-symbol histogram sums to 0.0, not -0.0.
    return float(0.0 - (probs * np.log2(probs)).sum())
