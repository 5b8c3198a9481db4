"""Structured diagnostics shared by the graph verifier and the lint.

Every finding is a :class:`Diagnostic`: a stable code (``NEPGxxx`` for
graph findings, ``NEPLxxx`` for concurrency findings), a severity, the
location (operator/link for graphs, ``file:line`` for the lint), a
human message, and a fix hint.  A :class:`DiagnosticReport` aggregates
them and knows how to render text or JSON and to fold into a process
exit code — the CI gate is ``exit_code() == 0``.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass, field
from typing import Any


class Severity(enum.IntEnum):
    """Finding severity; ordering is by increasing seriousness."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One verifier/lint finding."""

    code: str
    severity: Severity
    message: str
    #: Where: ``operator``/``link from->to/stream`` for graph findings,
    #: ``path:line`` for lint findings.
    where: str = ""
    hint: str = ""

    def render(self) -> str:
        """One-line human form: ``CODE severity where: message``."""
        loc = f" {self.where}" if self.where else ""
        text = f"{self.code} {self.severity}{loc}: {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


@dataclass
class DiagnosticReport:
    """An ordered collection of diagnostics with gate semantics."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: What was analyzed (descriptor path, source root, ...).
    subject: str = ""
    #: ``(graph, plan)`` a graph or cluster verifier built on its way
    #: (``plan`` None without a deployment), for passes that follow it.
    verified: tuple[Any, Any] | None = field(default=None, repr=False, compare=False)

    def add(
        self,
        code: str,
        severity: Severity,
        message: str,
        where: str = "",
        hint: str = "",
    ) -> Diagnostic:
        """Record one finding and return it."""
        diag = Diagnostic(code, severity, message, where, hint)
        self.diagnostics.append(diag)
        return diag

    def extend(self, other: "DiagnosticReport") -> None:
        """Fold another report's findings into this one."""
        self.diagnostics.extend(other.diagnostics)

    # -- queries ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def errors(self) -> list[Diagnostic]:
        """Findings with ERROR severity."""
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def warnings(self) -> list[Diagnostic]:
        """Findings with WARNING severity."""
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    def codes(self) -> list[str]:
        """All finding codes, in emission order (with repeats)."""
        return [d.code for d in self.diagnostics]

    def count(self, code: str) -> int:
        """How many findings carry ``code``."""
        return sum(1 for d in self.diagnostics if d.code == code)

    def exit_code(self, fail_on: Severity = Severity.ERROR) -> int:
        """0 when no finding reaches ``fail_on``; 1 otherwise."""
        return int(any(d.severity >= fail_on for d in self.diagnostics))

    # -- rendering -------------------------------------------------------------
    def render(self) -> str:
        """Multi-line human-readable report."""
        lines = []
        if self.subject:
            lines.append(f"analyze {self.subject}:")
        for diag in self.diagnostics:
            for row in diag.render().splitlines():
                lines.append(f"  {row}")
        n_err = len(self.errors())
        n_warn = len(self.warnings())
        if not n_err and not n_warn:
            # Info findings (chain verdicts) are facts, not problems.
            lines.append("  clean — no findings")
            return "\n".join(lines)
        lines.append(
            f"  {len(self.diagnostics)} finding(s): "
            f"{n_err} error(s), {n_warn} warning(s)"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        """JSON form (machine-readable CI artifact)."""
        return json.dumps(
            {
                "subject": self.subject,
                "findings": [
                    {**asdict(d), "severity": str(d.severity)}
                    for d in self.diagnostics
                ],
            },
            indent=2,
        )
