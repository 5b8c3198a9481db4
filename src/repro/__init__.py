"""repro — a reproduction of NEPTUNE (IPPS 2016).

NEPTUNE is a real-time, high-throughput stream-processing framework for
IoT and sensing environments.  This package contains:

- :mod:`repro.core` — the NEPTUNE programming model and threaded runtime
  (stream packets, sources/processors, links, partitioning, graphs,
  application-level buffering, batched scheduling, object reuse,
  backpressure, selective compression).
- :mod:`repro.granules` — the Granules substrate NEPTUNE builds on
  (computational tasks, datasets, resources, scheduling strategies).
- :mod:`repro.net` — framing and transports (in-process and TCP).
- :mod:`repro.lz4` — xxHash32 (key hashing, chaos decisions) and a
  pure-Python LZ4 block codec the data plane no longer runs.
- :mod:`repro.compression` — entropy estimation and the selective
  compression policy (entropy-gated raw deflate via C ``zlib``).
- :mod:`repro.sim` — a discrete-event cluster simulator used to
  regenerate the paper's evaluation (Figures 2, 4-7, 9, 10; Table I),
  including a faithful Apache Storm baseline model; its significance
  tests call ``scipy.stats`` directly.
- :mod:`repro.workloads` — IoT / DEBS-2012 / synthetic stream generators.
"""

from typing import Any

from repro.util.lazy import lazy_export

__version__ = "1.0.0"

# Lazy re-exports (PEP 562): `import repro` stays cheap; the runtime is
# only imported when one of these names is first touched.
_EXPORTS = {
    "StreamPacket": "repro.core.packet",
    "StreamProcessingGraph": "repro.core.graph",
    "StreamSource": "repro.core.operators",
    "StreamProcessor": "repro.core.operators",
    "NeptuneRuntime": "repro.core.runtime",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    return lazy_export(__name__, _EXPORTS, name)
