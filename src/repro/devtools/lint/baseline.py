"""Committed lint baseline: pre-existing, intentionally-kept findings.

The baseline exists so adopting a new rule never blocks CI on debt that
predates it, and so *intentional* violations (for example a test
fixture that imports ``pickle`` precisely to prove WIRE001 fires) live in
one reviewed file with a written rationale instead of scattered inline
escapes.  Entries match on ``(rule, path, snippet)`` — never the line
number — so surrounding edits cannot resurrect or orphan them silently.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.devtools.lint.findings import Finding

BASELINE_VERSION = 1

#: Default baseline location, relative to the project root.
DEFAULT_BASELINE = ".repro-lint-baseline.json"


class Baseline:
    """The set of accepted findings loaded from a baseline file."""

    def __init__(self, entries: Optional[List[dict]] = None) -> None:
        self.entries: List[dict] = entries or []
        self._index: Dict[Tuple[str, str, str], dict] = {
            (e["rule"], e["path"], e.get("snippet", "")): e for e in self.entries
        }

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        if not path.exists():
            return cls()
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload.get("version") != BASELINE_VERSION:
            raise ValueError(
                f"baseline {path} has version {payload.get('version')!r}, "
                f"this tool reads version {BASELINE_VERSION}"
            )
        return cls(payload.get("findings", []))

    def matches(self, finding: Finding) -> bool:
        return (finding.rule, finding.path, finding.snippet) in self._index

    @staticmethod
    def write(path: Path, findings: List[Finding], notes: str = "") -> None:
        """Serialise ``findings`` as the new baseline.

        Existing notes for entries that are still present are preserved;
        new entries get ``notes`` (empty by default — a reviewer should
        replace it with the reason the violation is being kept).
        """
        previous = Baseline.load(path) if path.exists() else Baseline()
        entries = []
        for finding in sorted(
            findings, key=lambda f: (f.rule, f.path, f.line)
        ):
            key = (finding.rule, finding.path, finding.snippet)
            kept = previous._index.get(key, {})
            entries.append(
                {
                    "rule": finding.rule,
                    "path": finding.path,
                    "snippet": finding.snippet,
                    "note": kept.get("note", notes),
                }
            )
        payload = {
            "version": BASELINE_VERSION,
            "comment": (
                "Accepted repro-lint findings. Every entry needs a 'note' "
                "saying why the violation is kept; remove entries as the "
                "debt is paid down. Regenerate with "
                "'python -m repro lint --update-baseline'."
            ),
            "findings": entries,
        }
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
