"""Exception hierarchy for the repro package.

All framework-raised exceptions derive from :class:`NeptuneError` so
applications can catch framework faults without masking programming
errors (``TypeError`` etc.) in user operator code.
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # import cycle: analysis -> core -> util
    from repro.analysis.diagnostics import DiagnosticReport


class NeptuneError(Exception):
    """Base class for all framework errors."""


class GraphValidationError(NeptuneError):
    """A stream-processing graph is structurally invalid.

    Raised when a graph references undeclared operators, contains no
    source, declares non-positive parallelism, or wires a link whose
    partitioning scheme is unknown.
    """


class DescriptorError(GraphValidationError):
    """A JSON graph descriptor is malformed (missing or mistyped keys)."""


class UnknownOperatorError(GraphValidationError):
    """A link references an operator the graph never declared."""


class DuplicateLinkError(GraphValidationError):
    """The same (sender, receiver, stream) link was declared twice."""


class PartitioningError(GraphValidationError):
    """A partitioning spec names an unknown scheme or cannot be built."""


class SerializationError(NeptuneError):
    """A stream packet could not be encoded or decoded.

    Includes schema mismatches, unsupported field types, truncated
    buffers, and checksum failures detected by the framing layer.
    """


class TransportError(NeptuneError):
    """A transport endpoint failed (connection refused, closed mid-write)."""


class BackpressureTimeout(NeptuneError):
    """A blocked producer waited longer than its configured bound.

    NEPTUNE never drops packets; when a downstream stage stays saturated
    past the producer's patience, the producer surfaces this instead of
    silently discarding data (contrast with Storm's fail-fast drops).
    """


class JobStateError(NeptuneError):
    """An operation was attempted in an illegal job lifecycle state."""


class PlanVerificationError(NeptuneError):
    """A cluster deployment plan failed static verification.

    Raised by :meth:`ClusterCoordinator.launch` before any worker is
    spawned when the NEPG130–139 plan verifier reports errors.  The
    message names every failing rule code; :attr:`report` carries the
    full :class:`~repro.analysis.diagnostics.DiagnosticReport`.
    """

    def __init__(self, report: "DiagnosticReport") -> None:
        codes = sorted({d.code for d in report.errors()})
        super().__init__(
            f"deployment plan failed verification ({', '.join(codes)}); "
            "run `repro analyze --cluster` for the full report"
        )
        self.report = report


class PoolExhausted(NeptuneError):
    """A bounded object pool had no free object and ``strict`` was set."""
