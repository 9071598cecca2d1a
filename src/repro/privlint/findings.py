"""Finding records and the Rule protocol of the privacy-invariant linter.

A :class:`Finding` is one violation of one rule at one source location; the
whole subsystem trades in immutable findings so that suppression filtering,
baseline matching and output formatting are plain set/list operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ModuleContext

__all__ = ["Finding", "ProjectRule", "Rule", "SEVERITIES"]

#: Recognised severities, most severe first.  Every shipped rule is an
#: ``error`` (CI gates on them); ``warning`` exists for advisory rules.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str       #: posix-style path as given to the linter
    line: int       #: 1-based source line
    rule: str       #: rule id, e.g. ``"PL001"``
    severity: str   #: ``"error"`` or ``"warning"``
    message: str    #: human-readable description of the violation
    col: int = 1         #: 1-based start column (SARIF regions need it)
    end_lineno: int = 0  #: last source line of the finding; 0 means same as ``line``

    def location(self) -> str:
        return f"{self.path}:{self.line}"

    @property
    def end_line(self) -> int:
        return self.end_lineno or self.line

    def baseline_key(self) -> tuple[str, str, str]:
        """Identity used for baseline matching.

        Deliberately excludes the line number so grandfathered findings
        survive unrelated edits above them; a file can carry the same
        (rule, message) more than once, which the baseline handles by count.
        """
        return (self.rule, self.path, self.message)

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "end_lineno": self.end_line,
            "message": self.message,
        }


@runtime_checkable
class Rule(Protocol):
    """One privacy invariant, checked module-by-module over the AST.

    Implementations are stateless: :meth:`check` receives a fully parsed
    :class:`~repro.privlint.engine.ModuleContext` and yields findings.
    """

    id: str
    name: str
    description: str
    severity: str

    def check(self, module: "ModuleContext") -> Iterable[Finding]:
        ...  # pragma: no cover - protocol


@runtime_checkable
class ProjectRule(Protocol):
    """One privacy invariant checked over the *whole project* at once.

    Project rules consume a :class:`~repro.privlint.dataflow.ProjectAnalysis`
    (call graph + interprocedural summaries) instead of a single module, so
    they can reason about flows that cross function and file boundaries.
    """

    id: str
    name: str
    description: str
    severity: str

    def check_project(self, analysis) -> Iterable[Finding]:
        ...  # pragma: no cover - protocol

