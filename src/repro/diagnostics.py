"""Shared diagnostics substrate for the Devil and mini-C front ends.

Both compilers in this repository (``repro.devil`` and ``repro.minic``)
report problems as :class:`Diagnostic` objects carrying a source location,
a severity, a stable error code and a human-readable message.  The mutation
harness relies on two properties of this module:

* *compile-time detection* is defined as "the relevant front end produced at
  least one diagnostic of severity ``ERROR``" — see
  :meth:`DiagnosticSink.has_errors`;
* diagnostics are deterministic and ordered (sorted by position, then code),
  so experiment output is reproducible run to run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class SourceLocation:
    """A position in a source text: 1-based line, 1-based column."""

    line: int = 0
    column: int = 0
    filename: str = "<input>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


class Severity(enum.Enum):
    """Importance of a diagnostic; only ERROR blocks compilation."""

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One problem found in a source text."""

    severity: Severity
    code: str
    message: str
    location: SourceLocation = field(default_factory=SourceLocation)

    def __str__(self) -> str:
        return f"{self.location}: {self.severity}: {self.code}: {self.message}"

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR


class CompileError(Exception):
    """Raised by front-end entry points when compilation cannot proceed.

    Carries every diagnostic collected up to the failure so callers (tests,
    the mutation runner) can assert on codes and messages.
    """

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        summary = "; ".join(str(d) for d in self.diagnostics[:5])
        extra = len(self.diagnostics) - 5
        if extra > 0:
            summary += f" (+{extra} more)"
        super().__init__(summary or "compilation failed")

    @property
    def codes(self) -> list[str]:
        """Stable error codes of all carried diagnostics."""
        return [d.code for d in self.diagnostics]


class DiagnosticSink:
    """Accumulates diagnostics during a front-end pass."""

    def __init__(self) -> None:
        self._diagnostics: list[Diagnostic] = []

    def emit(
        self,
        severity: Severity,
        code: str,
        message: str,
        location: SourceLocation | None = None,
    ) -> Diagnostic:
        diag = Diagnostic(severity, code, message, location or SourceLocation())
        self._diagnostics.append(diag)
        return diag

    def error(
        self, code: str, message: str, location: SourceLocation | None = None
    ) -> Diagnostic:
        return self.emit(Severity.ERROR, code, message, location)

    def warning(
        self, code: str, message: str, location: SourceLocation | None = None
    ) -> Diagnostic:
        return self.emit(Severity.WARNING, code, message, location)

    def note(
        self, code: str, message: str, location: SourceLocation | None = None
    ) -> Diagnostic:
        return self.emit(Severity.NOTE, code, message, location)

    def extend(self, diagnostics: list[Diagnostic]) -> None:
        self._diagnostics.extend(diagnostics)

    def emitted_since(self, count: int) -> tuple[Diagnostic, ...]:
        """The diagnostics emitted after the first ``count``, in order."""
        return tuple(self._diagnostics[count:])

    @property
    def diagnostics(self) -> list[Diagnostic]:
        """All diagnostics, sorted by location then code for determinism."""
        return sorted(
            self._diagnostics,
            key=lambda d: (d.location.filename, d.location.line, d.location.column, d.code),
        )

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    def has_errors(self) -> bool:
        return any(d.is_error for d in self._diagnostics)

    def raise_if_errors(self) -> None:
        if self.has_errors():
            raise CompileError(self.errors)

    def __len__(self) -> int:
        return len(self._diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)
