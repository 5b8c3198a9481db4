"""The observer: one handle bundling tracing, telemetry, and timeline.

A :class:`RuntimeObserver` is the single object threaded through the
runtime (``NeptuneRuntime(..., observer=...)``), workers, transports,
and chaos scenarios.  Components hold a reference and guard every
observation with ``if observer is not None`` — an unobserved runtime
pays exactly that check on its hot paths.
"""

from __future__ import annotations

from typing import Optional

from repro.observe.instruments import Counter, TelemetryRegistry
from repro.observe.profiler import SamplingProfiler
from repro.observe.timeline import EventTimeline
from repro.observe.tracing import TraceCollector, Tracer
from repro.util.clock import SYSTEM_CLOCK, Clock

__all__ = ["RuntimeObserver"]

#: Bounds of an observer's facilities: timeline events kept, distinct
#: traces held, named instruments registered.
TIMELINE_CAPACITY = 4096
MAX_TRACES = 2048
MAX_INSTRUMENTS = 4096


class RuntimeObserver:
    """Aggregates the four observability facilities for one runtime.

    - ``tracer`` mints sampled trace contexts at sources
      (``sample_every=0`` disables tracing while keeping telemetry and
      the timeline live);
    - ``collector`` stores closed per-hop stage spans;
    - ``registry`` holds named counters / gauges / histograms;
    - ``timeline`` rings structured runtime events.
    """

    def __init__(
        self,
        sample_every: int = 0,
        clock: Clock = SYSTEM_CLOCK,
    ) -> None:
        self.clock = clock
        self.tracer = Tracer(sample_every=sample_every)
        self.collector = TraceCollector(max_traces=MAX_TRACES)
        self.registry = TelemetryRegistry(max_instruments=MAX_INSTRUMENTS)
        self.timeline = EventTimeline(capacity=TIMELINE_CAPACITY, clock=clock)
        # Attached by whoever builds a SamplingProfiler for this
        # runtime; scrape_observer exports its series when present.
        self.profiler: Optional[SamplingProfiler] = None

    def event(self, category: str, name: str, **attrs: object) -> None:
        """Record a timeline event (convenience passthrough)."""
        self.timeline.record(category, name, **attrs)

    def internal_error(self, site: str, exc: BaseException, event: bool = True) -> None:
        """An exception the observability plane swallowed at ``site``
        (it must never kill the job it watches): counted in
        ``neptune_internal_errors_total{site}`` and, unless the caller
        already put this site on the timeline this dump or poll,
        recorded as an ``internal.error`` event — never silent."""
        self._error_counter(site).inc()
        if event:
            self.timeline.record("internal", "error", site=site, error=repr(exc))

    def internal_errors(self, *sites: str) -> int:
        """Swallowed exceptions so far, summed over ``sites``."""
        return int(sum(self._error_counter(site).value for site in sites))

    def _error_counter(self, site: str) -> Counter:
        return self.registry.counter(
            "neptune_internal_errors_total",
            {"site": site},
            "Exceptions swallowed by the observability plane, by site",
        )
