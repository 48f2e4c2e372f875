"""Human-readable and JSON reporters for lint runs."""

from __future__ import annotations

import json

from .engine import LintReport
from .registry import registered_rules

__all__ = [
    "render_text",
    "render_json",
    "render_sarif",
    "render_rule_list",
]


def render_text(report: LintReport) -> str:
    """Compiler-style ``path:line:col CODE message`` lines plus a summary."""
    lines: list[str] = []
    for path, error in report.parse_errors:
        lines.append(f"{path}: PARSE {error}")
    for finding in report.findings:
        lines.append(
            f"{finding.path}:{finding.line}:{finding.column + 1} "
            f"{finding.severity.value} {finding.code} {finding.message}"
        )
    summary = (
        f"checked {report.files_checked} files: "
        f"{len(report.errors)} errors, {len(report.warnings)} warnings"
    )
    if report.suppressed:
        summary += f", {report.suppressed} suppressed"
    if report.parse_errors:
        summary += f", {len(report.parse_errors)} unparseable"
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Machine-readable form (stable key order) for CI annotations."""
    payload = {
        "files_checked": report.files_checked,
        "errors": len(report.errors),
        "warnings": len(report.warnings),
        "suppressed": report.suppressed,
        "parse_errors": [
            {"path": path, "error": error}
            for path, error in report.parse_errors
        ],
        "findings": [finding.to_dict() for finding in report.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_sarif(report: LintReport) -> str:
    """SARIF 2.1.0 for GitHub code scanning (PR annotations).

    One run, one ``caasper-lint`` driver, every registered rule in the
    tool metadata so suppressed-to-zero codes still document
    themselves, and one result per finding with a physical location.
    """
    rules = [
        {
            "id": code,
            "name": rule_class.__name__,
            "shortDescription": {"text": rule_class.title},
            "defaultConfiguration": {
                "level": (
                    "error"
                    if rule_class.severity.value == "error"
                    else "warning"
                ),
            },
        }
        for code, rule_class in sorted(registered_rules().items())
    ]
    results = [
        {
            "ruleId": finding.code,
            "level": finding.severity.value,
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path.replace("\\", "/"),
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.column + 1,
                        },
                    }
                }
            ],
        }
        for finding in report.findings
    ]
    payload = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "caasper-lint",
                        "informationUri": (
                            "https://github.com/caasper/repro"
                        ),
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_rule_list() -> str:
    """``caasper lint --list-rules`` output."""
    lines = []
    for code, rule_class in sorted(registered_rules().items()):
        severity = rule_class.severity.value
        lines.append(f"{code}  [{severity:7s}] {rule_class.title}")
    return "\n".join(lines)
