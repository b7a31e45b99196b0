"""The simlint engine: walk files, run rules, apply suppressions/baseline.

Pipeline per run:

1. collect and parse ``*.py`` files under the requested paths
   (skipping hidden directories and caches) into
   :class:`~repro.analysis.core.ModuleUnit` records;
2. build the :class:`~repro.analysis.core.ProjectContext` (trace
   taxonomy);
3. run the active module-scope rules on each unit, then the active
   project-scope rules over the full project graph;
4. route each finding: inline-suppressed → counted, baselined →
   counted (and its baseline entry consumed), otherwise actionable.

Unparseable files are reported through the same pipeline as rule
``SL000`` so a syntax error cannot silently shrink coverage.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import repro.analysis.rules  # noqa: F401  (registers the built-in rules)
from repro.analysis.baseline import Baseline
from repro.analysis.config import LintConfig
from repro.analysis.core import (
    RULES,
    Finding,
    ModuleUnit,
    ProjectContext,
    Rule,
    Severity,
    register_rule,
    resolve_rule_ids,
)
from repro.analysis.rules.taxonomy import extract_taxonomy

_SKIP_DIRS = {"__pycache__", ".git", ".spider-cache", ".venv", "node_modules"}


@register_rule
class ParseError(Rule):
    """SL000: the file could not be parsed — no other rule saw it."""

    id = "SL000"
    name = "parse-error"
    severity = Severity.ERROR
    description = "file does not parse; other rules were skipped"

    def check(self, unit: ModuleUnit, project: ProjectContext) -> Iterable[Finding]:
        error = unit.parse_error
        if error is not None:
            yield self.finding(
                unit.path, error.lineno or 1, f"syntax error: {error.msg}", col=error.offset or 0
            )


@dataclass
class LintRun:
    """Everything a reporter needs about one lint invocation."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    stale_baseline: List[Tuple[str, str, str]] = field(default_factory=list)
    files: int = 0
    #: path (as reported in findings) -> source lines, for baseline keys.
    sources: Dict[str, Sequence[str]] = field(default_factory=dict)

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity == Severity.ERROR.value)

    @property
    def warnings(self) -> int:
        return sum(1 for f in self.findings if f.severity == Severity.WARNING.value)


def module_name_for(path: Path) -> Optional[str]:
    """Dotted import path, walked up through ``__init__.py`` parents."""
    path = path.resolve()
    parts: List[str] = [] if path.name == "__init__.py" else [path.stem]
    directory = path.parent
    in_package = False
    while (directory / "__init__.py").is_file():
        in_package = True
        parts.insert(0, directory.name)
        directory = directory.parent
    if not in_package:
        return None  # standalone script: exempt from package-scoped rules
    return ".".join(parts) if parts else None


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    files: List[Path] = []
    seen: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if not any(part in _SKIP_DIRS or part.startswith(".") for part in p.parts)
            )
        elif path.suffix == ".py":
            candidates = [path]
        else:
            continue
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                files.append(candidate)
    return files


def _display_path(path: Path, root: Optional[Path]) -> str:
    resolved = path.resolve()
    if root is not None:
        try:
            return resolved.relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return str(path)


def load_plugins(names: Iterable[str]) -> None:
    """Import plugin modules for their rule-registration side effect."""
    for name in names:
        importlib.import_module(name)


def build_units(paths: Iterable[Path], root: Optional[Path] = None) -> List[ModuleUnit]:
    units = []
    for file in iter_python_files(paths):
        source = file.read_text(encoding="utf-8")
        units.append(
            ModuleUnit.from_source(_display_path(file, root), source, module=module_name_for(file))
        )
    return units


def build_project(units: List[ModuleUnit], config: LintConfig) -> ProjectContext:
    project = ProjectContext(config=config, units=units)
    taxonomy_unit = project.unit_for_module(config.taxonomy_module)
    if taxonomy_unit is not None and taxonomy_unit.tree is not None:
        project.taxonomy = extract_taxonomy(taxonomy_unit.tree)
    return project


def active_rules(
    select: Sequence[str] = (), ignore: Sequence[str] = ()
) -> Dict[str, Rule]:
    chosen = resolve_rule_ids(select) if select else set(RULES)
    chosen -= resolve_rule_ids(ignore)
    chosen.add("SL000")  # parse errors are never ignorable
    return {key: rule for key, rule in RULES.items() if key in chosen}


def lint_units(
    units: List[ModuleUnit],
    config: LintConfig,
    baseline: Optional[Baseline] = None,
    select: Sequence[str] = (),
    ignore: Sequence[str] = (),
) -> LintRun:
    load_plugins(config.plugins)
    rules = active_rules(select or config.select, ignore or config.ignore)
    run = LintRun(files=len(units))
    for unit in units:
        run.sources[unit.path] = unit.source.splitlines()

    project = build_project(units, config)

    raw: List[Finding] = []
    module_rules = [rule for rule in rules.values() if rule.scope == "module"]
    for unit in units:
        for rule in module_rules:
            if unit.tree is None and rule.id != "SL000":
                continue
            raw.extend(rule.check(unit, project))
    for rule in rules.values():
        if rule.scope == "project":
            raw.extend(rule.check_project(project))

    units_by_path = {unit.path: unit for unit in units}
    for finding in sorted(raw):
        unit = units_by_path.get(finding.path)
        if unit is not None and unit.is_suppressed(finding):
            run.suppressed.append(finding)
        elif baseline is not None and baseline.absorbs(
            finding, run.sources.get(finding.path, ())
        ):
            run.baselined.append(finding)
        else:
            run.findings.append(finding)
    if baseline is not None:
        run.stale_baseline = baseline.stale_entries()
    return run


def lint_paths(
    paths: Sequence[Path],
    config: LintConfig,
    baseline: Optional[Baseline] = None,
    select: Sequence[str] = (),
    ignore: Sequence[str] = (),
    root: Optional[Path] = None,
) -> LintRun:
    units = build_units(paths, root=root if root is not None else config.root)
    return lint_units(units, config, baseline=baseline, select=select, ignore=ignore)
