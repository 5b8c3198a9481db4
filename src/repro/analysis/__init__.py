"""Static analysis for NEPTUNE jobs and for the runtime itself.

Two pillars, both producing structured :class:`Diagnostic` records
instead of runtime surprises:

- :mod:`repro.analysis.graphcheck` — a multi-pass verifier for
  stream-processing graphs (API-built or JSON descriptors): structure,
  schema flow, partitioning soundness, backpressure/watermark
  consistency, and latency-budget feasibility.  Catches the class of
  misconfiguration that otherwise only surfaces mid-run on a deployed
  cluster.
- :mod:`repro.analysis.lintrules` (driven by
  :mod:`repro.analysis.threadmodel`) — an AST concurrency lint over the
  runtime's own two-tier (worker / IO) thread code: unsynchronized
  cross-thread mutation, inconsistent locking, lock-order cycles,
  state locks held across blocking calls, and callbacks invoked under
  a state lock — plus a process-model tier (NEPL210–214) covering the
  ``multiprocessing`` spawn boundary.

Two cluster-era extensions ride on the same diagnostics spine:

- :mod:`repro.analysis.plancheck` — a deployment-plan verifier
  (NEPG130–139) over graph + :class:`DeploymentPlan`/``WorkerSpec``
  sets: port and socket-path collisions, pin faults, cross-worker
  partitioning determinism, config drift, exactly-once feasibility.
  ``ClusterCoordinator.launch`` gates on it.
- :mod:`repro.analysis.sanitizer` — an opt-in runtime lock-order
  sanitizer whose witness files cross-validate the static NEPL203
  lock-order prediction.

Both are exposed through ``python -m repro.cli analyze`` and run in CI
as a gate.  The package is stdlib-only (``ast`` + the repro core) so it
can run anywhere the code parses.
"""

from __future__ import annotations

from typing import Any

from repro.util.lazy import lazy_export

# Imported on first use: validating a graph loads ``graphcheck`` and
# what it needs, not the AST lint or the plan verifier.
_EXPORTS = {
    "Diagnostic": "repro.analysis.diagnostics",
    "DiagnosticReport": "repro.analysis.diagnostics",
    "Severity": "repro.analysis.diagnostics",
    "GraphVerifier": "repro.analysis.graphcheck",
    "verify_descriptor": "repro.analysis.graphcheck",
    "verify_descriptor_file": "repro.analysis.graphcheck",
    "verify_graph": "repro.analysis.graphcheck",
    "lint_paths": "repro.analysis.lint",
    "PlanVerifier": "repro.analysis.plancheck",
    "verify_cluster": "repro.analysis.plancheck",
    "verify_cluster_file": "repro.analysis.plancheck",
    "verify_plan": "repro.analysis.plancheck",
    "is_assignable": "repro.analysis.schemaflow",
    "unsatisfied_requirements": "repro.analysis.schemaflow",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    return lazy_export(__name__, _EXPORTS, name)
