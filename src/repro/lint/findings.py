"""Findings, severities and suppression comments for :mod:`repro.lint`.

A :class:`Finding` is one rule violation at one source location. Every
finding carries a stable rule code (``DET001``, ``EXC001``, ...) so it
can be suppressed in place with a trailing comment::

    for name in names:  # lint: disable=DET003
        ...

Multiple codes are comma-separated (``# lint: disable=DET001,NUM001``)
and ``# lint: disable-file=CODE`` anywhere in a file suppresses the code
for the whole file. Suppressions are deliberately explicit — there is no
blanket ``disable=all`` — so every exception to an invariant is
greppable and reviewable.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Any, Iterable

__all__ = ["Severity", "Finding", "SuppressionTable"]

#: Matches ``# lint: disable=CODE[,CODE...]`` / ``# lint: disable-file=...``.
_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*(?P<scope>disable(?:-file)?)\s*=\s*"
    r"(?P<codes>[A-Z]{2,3}\d{3}(?:\s*,\s*[A-Z]{2,3}\d{3})*)"
)


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings break domain invariants (nondeterminism, swallowed
    faults) and fail the default ``caasper lint`` exit code; ``WARNING``
    findings are strong smells that only fail ``--strict`` runs.
    """

    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        """Sort key: errors above warnings."""
        return 1 if self is Severity.ERROR else 0


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    code: str
    message: str
    path: str
    line: int
    column: int
    severity: Severity

    def to_dict(self) -> dict[str, Any]:
        """Flat JSON-serialisable form (see ``reporters.render_json``)."""
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "severity": self.severity.value,
        }

    def sort_key(self) -> tuple[str, int, int, str]:
        """Stable ordering: by file, then position, then code."""
        return (self.path, self.line, self.column, self.code)


class SuppressionTable:
    """Per-file index of ``# lint: disable`` comments.

    Built once per module from the raw source lines; rules never see it —
    the engine filters findings after collection so suppression behaviour
    is uniform across rules.
    """

    def __init__(self, source_lines: Iterable[str]) -> None:
        self._by_line: dict[int, frozenset[str]] = {}
        self._file_wide: set[str] = set()
        for lineno, text in enumerate(source_lines, start=1):
            if "lint:" not in text:
                continue
            for match in _SUPPRESS_RE.finditer(text):
                codes = frozenset(
                    code.strip() for code in match.group("codes").split(",")
                )
                if match.group("scope") == "disable-file":
                    self._file_wide.update(codes)
                else:
                    merged = self._by_line.get(lineno, frozenset()) | codes
                    self._by_line[lineno] = merged

    def is_suppressed(self, code: str, line: int) -> bool:
        """True when ``code`` is disabled at ``line`` (or file-wide)."""
        if code in self._file_wide:
            return True
        return code in self._by_line.get(line, frozenset())
