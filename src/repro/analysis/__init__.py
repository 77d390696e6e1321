"""reprolint: project-invariant static analysis for this codebase.

The serving stack's correctness rests on conventions that ordinary
linters cannot see: a declared latch hierarchy, ``# guarded by:``
field annotations, a wire-error taxonomy that must stay registered,
and charge/release style resource pairing.  This package checks those
conventions with nothing but the standard library's ``ast`` module —
no type inference, no new dependencies — and is wired into CI as
``python -m repro.analysis --baseline analysis-baseline.json``.

Layout:

* :mod:`repro.analysis.model` — findings, fingerprints, suppressions.
* :mod:`repro.analysis.loader` — source loading, comment extraction,
  ``# reprolint: disable=RLxxx <reason>`` suppression parsing.
* :mod:`repro.analysis.scopes` — parent links, qualified names, and
  the lexical ``with``-statement lock-context tracker.
* :mod:`repro.analysis.config` — the declared lock hierarchy (checked
  against the code: a declared lock that no longer matches any
  acquisition is itself an error).
* :mod:`repro.analysis.rules` — the rule implementations (RL001, RL002,
  RL004, RL005).
* :mod:`repro.analysis.baseline` — the committed-findings ratchet.

See ``docs/static-analysis.md`` for the rule catalog and conventions.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from repro.analysis.config import validate_hierarchy
from repro.analysis.loader import Module, load_path, load_source
from repro.analysis.model import Finding
from repro.analysis.rules import ALL_RULES

__all__ = [
    "ALL_RULES",
    "Finding",
    "Module",
    "analyze_modules",
    "analyze_paths",
    "load_path",
    "load_source",
    "repo_root",
]


def repo_root() -> Path:
    """The repository root (three levels above this package)."""
    return Path(__file__).resolve().parents[3]


def iter_source_files(root: Path, targets: Sequence[Path]) -> List[Path]:
    """Every ``*.py`` file under the targets, sorted, de-duplicated."""
    files: set = set()
    for target in targets:
        if target.is_dir():
            files.update(target.rglob("*.py"))
        elif target.suffix == ".py":
            files.add(target)
    return sorted(files)


def analyze_modules(modules: Iterable[Module],
                    rules: Optional[Sequence[str]] = None
                    ) -> List[Finding]:
    """Run the (selected) rules over already-loaded modules.

    Returns the surviving findings: suppressed ones are dropped, and
    loader-level problems (unparseable files, malformed suppressions —
    a suppression without a reason is a finding, not a waiver) are
    always included.  Findings come back sorted by location.
    """
    modules = list(modules)
    findings: List[Finding] = []
    for module in modules:
        findings.extend(module.problems)
    if rules is None or "RL000" in rules:
        findings.extend(validate_hierarchy(modules))
    for rule_id, _title, check in ALL_RULES:
        if rules is not None and rule_id not in rules:
            continue
        for finding in check(modules):
            if not _suppressed(modules, finding):
                findings.append(finding)
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))


def _suppressed(modules: Iterable[Module], finding: Finding) -> bool:
    for module in modules:
        if module.path == finding.path:
            return module.is_suppressed(finding.rule, finding.line)
    return False


def analyze_paths(targets: Optional[Sequence[str]] = None,
                  root: Optional[Path] = None,
                  rules: Optional[Sequence[str]] = None
                  ) -> List[Finding]:
    """Load and analyze files or directories (default: ``src/repro``)."""
    root = root or repo_root()
    if targets:
        paths = [Path(target) if Path(target).is_absolute()
                 else root / target for target in targets]
    else:
        paths = [root / "src" / "repro"]
    modules = [load_path(path, root)
               for path in iter_source_files(root, paths)]
    return analyze_modules(modules, rules=rules)
