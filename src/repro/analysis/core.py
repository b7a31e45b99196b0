"""simlint rule framework: findings, rules, the registry, suppressions.

The determinism and observability guarantees of this reproduction —
byte-identical parallel vs. sequential runs, a trace taxonomy that
downstream tooling can rely on, a shard protocol whose entry points
survive ``pickle`` — are *invariants of the source*, not of any one
test run. simlint makes them machine-checked: each invariant is a
:class:`Rule` that walks a module's AST and yields :class:`Finding`
records.

Rules are pluggable: subclass :class:`Rule`, decorate with
:func:`register_rule`, and the engine picks it up. Third-party rules
load the same way via ``[tool.simlint] plugins`` (modules imported for
their registration side effect).

Suppressions are line-scoped comments::

    frob(random.random())  # simlint: disable=SL001

or file-scoped (anywhere in the file, typically the top)::

    # simlint: disable-file=SL003

``disable=all`` silences every rule for that line/file. Suppressed
findings are counted but never fail the run; prefer fixing or the
committed baseline (:mod:`repro.analysis.baseline`) for anything
longer-lived than a deliberate one-off.
"""

from __future__ import annotations

import ast
import enum
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Set, Tuple, Type

from repro.analysis.config import LintConfig

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.analysis.graph import ProjectGraph


class Severity(enum.Enum):
    """How bad a finding is; only the value's *name* leaves this module."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True, order=True)
class RelatedLocation:
    """A secondary source location attached to a finding.

    Interprocedural rules use these to carry evidence that lives away
    from the primary location — SL011 attaches one per hop of the call
    chain from the hot entry point to the offending call. They render
    as indented continuation lines in the text report and as SARIF
    ``relatedLocations``.
    """

    path: str
    line: int
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {"path": self.path, "line": self.line, "message": self.message}


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    severity: str
    message: str
    #: Supporting locations (e.g. a call chain); excluded from ordering
    #: and from baseline keys so chains can be re-rendered freely.
    related: Tuple[RelatedLocation, ...] = field(default=(), compare=False)

    def format(self) -> str:
        head = f"{self.path}:{self.line}:{self.col}: {self.rule} [{self.severity}] {self.message}"
        if not self.related:
            return head
        tail = "".join(
            f"\n    {loc.path}:{loc.line}: {loc.message}" for loc in self.related
        )
        return head + tail

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }
        if self.related:
            data["related"] = [loc.to_dict() for loc in self.related]
        return data


_SUPPRESS_RE = re.compile(r"#\s*simlint:\s*disable=([A-Za-z0-9_,\- ]+|all)")
_SUPPRESS_FILE_RE = re.compile(r"#\s*simlint:\s*disable-file=([A-Za-z0-9_,\- ]+|all)")


def _parse_rule_list(raw: str) -> Set[str]:
    return {token.strip().upper() for token in raw.split(",") if token.strip()}


@dataclass
class ModuleUnit:
    """One parsed source file plus everything rules need to inspect it.

    ``module`` is the dotted import path when the file sits inside a
    package (walked up through ``__init__.py`` parents, then through a
    ``src/`` root); standalone scripts get ``None`` and are exempt from
    the package-scoped rules.
    """

    path: str
    source: str
    module: Optional[str] = None
    tree: Optional[ast.Module] = None
    parse_error: Optional[SyntaxError] = None
    line_suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    file_suppressions: Set[str] = field(default_factory=set)

    @classmethod
    def from_source(cls, path: str, source: str, module: Optional[str] = None) -> "ModuleUnit":
        unit = cls(path=path, source=source, module=module)
        try:
            unit.tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            unit.parse_error = error
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(text)
            if match:
                unit.line_suppressions[lineno] = _parse_rule_list(match.group(1))
            match = _SUPPRESS_FILE_RE.search(text)
            if match:
                unit.file_suppressions |= _parse_rule_list(match.group(1))
        return unit

    @property
    def is_package_init(self) -> bool:
        return self.path.replace("\\", "/").endswith("__init__.py")

    def is_suppressed(self, finding: Finding) -> bool:
        rule = finding.rule.upper()
        if "ALL" in self.file_suppressions or rule in self.file_suppressions:
            return True
        rules = self.line_suppressions.get(finding.line)
        return rules is not None and ("ALL" in rules or rule in rules)

    def in_package(self, prefixes: Iterable[str]) -> bool:
        if self.module is None:
            return False
        return any(
            self.module == prefix or self.module.startswith(prefix + ".") for prefix in prefixes
        )


@dataclass
class ProjectContext:
    """Cross-module facts shared by every rule invocation.

    Built once per lint run; project-scope rules (SL006) walk ``units``
    directly for anything not precomputed here.
    """

    config: LintConfig
    units: List[ModuleUnit] = field(default_factory=list)
    #: taxonomy constant name -> event-kind string (from the taxonomy module)
    taxonomy: Dict[str, str] = field(default_factory=dict)
    _graph: Optional["ProjectGraph"] = field(default=None, repr=False)

    def unit_for_module(self, module: str) -> Optional[ModuleUnit]:
        for unit in self.units:
            if unit.module == module:
                return unit
        return None

    @property
    def graph(self) -> "ProjectGraph":
        """The project-wide import/symbol/call graph, built on first use."""
        if self._graph is None:
            from repro.analysis.graph import build_graph

            self._graph = build_graph(self.units)
        return self._graph


class Rule:
    """Base class for simlint rules.

    Subclasses set the class attributes and implement :meth:`check`.
    ``scope`` is ``"module"`` (called once per file) or ``"project"``
    (called once per run with the full :class:`ProjectContext`).
    """

    id: str = ""
    name: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""
    scope: str = "module"

    def check(self, unit: ModuleUnit, project: ProjectContext) -> Iterator[Finding]:
        raise NotImplementedError

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        unit_path: str,
        node_or_line,
        message: str,
        col: Optional[int] = None,
        related: Iterable[RelatedLocation] = (),
    ) -> Finding:
        if isinstance(node_or_line, int):
            line, column = node_or_line, 0 if col is None else col
        else:
            line = getattr(node_or_line, "lineno", 1)
            column = getattr(node_or_line, "col_offset", 0) if col is None else col
        return Finding(
            path=unit_path,
            line=line,
            col=column,
            rule=self.id,
            severity=self.severity.value,
            message=message,
            related=tuple(related),
        )


#: rule id (upper-case) -> rule instance; insertion order is report order.
RULES: Dict[str, Rule] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and register a rule by its id."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    key = rule.id.upper()
    if key in RULES and type(RULES[key]) is not cls:
        raise ValueError(
            f"duplicate rule id {rule.id!r} ({cls.__name__} vs {type(RULES[key]).__name__})"
        )
    RULES[key] = rule
    return cls


def resolve_rule_ids(tokens: Iterable[str]) -> Set[str]:
    """Map user-supplied selectors (ids or slugs) to registered rule ids."""
    by_name = {rule.name.lower(): key for key, rule in RULES.items()}
    resolved: Set[str] = set()
    for token in tokens:
        token = token.strip()
        if not token:
            continue
        key = token.upper()
        if key in RULES:
            resolved.add(key)
        elif token.lower() in by_name:
            resolved.add(by_name[token.lower()])
        else:
            raise KeyError(f"unknown rule: {token!r} (known: {', '.join(sorted(RULES))})")
    return resolved
