"""Project-wide analysis graph: imports, symbols, and a conservative call graph.

The per-file rules (SL001–SL009) see one AST at a time, so an invariant
that spans modules — a wall-clock read two call-hops below a sim hot
path, a back-edge import, a taxonomy constant nobody emits — is
invisible to them. This module gives project-scope rules the
cross-module view in two layers:

**Facts** (:class:`ModuleFacts`) are everything the project rules need
from one file, extracted in a single AST walk: resolved import aliases,
import sites, function/method definitions with their call sites, class
bases, module-level constants, and ``*.emit(...)`` sites.

**The graph** (:class:`ProjectGraph`) joins all facts: a module-level
import graph (raw targets resolved to project modules), a qualified
symbol table, and a call graph in which each call site either resolves
to a project function/method node or to a fully dotted *external* name
(``time.time``, ``os.urandom``). Resolution is a deliberately
conservative approximation — it follows bare names, imported names,
``self.method`` (through project-local base classes), local
``Cls.method``, and module-level lambda assignments, and leaves
anything dynamic (callbacks, duck-typed receivers, ``getattr``)
unresolved. Rules built on it therefore under-approximate reachability:
they may miss a path, but a path they report exists in the source.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.astutil import ImportMap, dotted_name
from repro.analysis.core import ModuleUnit

#: Call sites whose *arguments* cross a process boundary (SL014): the
#: process pool's ``submit`` and the ``Shard`` payload container. Only
#: these calls get their argument expressions recorded in the facts.
PAYLOAD_CALLEE_SUFFIXES = ("submit", "Shard")

#: Receiver names whose ``.emit(...)`` is treated as a trace-bus
#: emission (mirrors the SL004 idiom; ``self`` covers the bus emitting
#: its own bookkeeping events inside the taxonomy module).
EMIT_RECEIVERS = {"trace", "bus", "_trace", "_bus", "self"}


@dataclass(frozen=True)
class CallSite:
    """One call expression, recorded by its raw dotted callee text."""

    callee: str
    line: int
    col: int
    #: Dotted names referenced anywhere in the arguments (payload-
    #: boundary calls only; see :data:`PAYLOAD_CALLEE_SUFFIXES`).
    arg_refs: Tuple[str, ...] = ()
    #: Lines of ``lambda`` expressions inside the arguments (ditto).
    lambda_lines: Tuple[int, ...] = ()


@dataclass(frozen=True)
class EmitSite:
    """One ``receiver.emit(kind, ...)`` call."""

    line: int
    col: int
    #: Raw dotted reference of the kind argument (``tr.DHCP_SEND``),
    #: or None when the kind is a string literal / unresolvable.
    ref: Optional[str] = None
    #: Literal kind string, when the argument is a constant.
    literal: Optional[str] = None


@dataclass
class FunctionInfo:
    """A function or method, flattened: calls made inside nested defs
    and lambdas are attributed to the enclosing function (if the outer
    runs, the inner may run — the conservative direction for taint)."""

    qualname: str  # module-relative: "func" or "Cls.func"
    line: int
    cls: Optional[str] = None
    calls: List[CallSite] = field(default_factory=list)
    #: Names bound to nested defs/classes/lambdas inside this function
    #: — the things that are *not* import-addressable (SL014).
    local_callables: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ImportSite:
    """One imported dotted target (per-alias for ``from`` imports)."""

    target: str
    line: int
    toplevel: bool


@dataclass
class ClassInfo:
    line: int
    bases: Tuple[str, ...] = ()  # raw dotted base-class texts
    methods: Dict[str, int] = field(default_factory=dict)  # name -> line


@dataclass
class ModuleFacts:
    """Everything the project rules need from one source file."""

    path: str
    module: Optional[str]
    is_package: bool = False
    aliases: Dict[str, str] = field(default_factory=dict)
    imports: List[ImportSite] = field(default_factory=list)
    functions: List[FunctionInfo] = field(default_factory=list)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    module_defs: Tuple[str, ...] = ()
    #: module-level ``name = lambda ...`` bindings: name -> line
    lambda_assigns: Dict[str, int] = field(default_factory=dict)
    #: module-level ``UPPER_CASE = "string"`` constants: name -> (value, line)
    constants: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    emits: List[EmitSite] = field(default_factory=list)


# -- extraction -------------------------------------------------------------


def _arg_payload(node: ast.Call) -> Tuple[Tuple[str, ...], Tuple[int, ...]]:
    """Dotted-name references and lambda lines inside a call's arguments."""
    refs: List[str] = []
    lambdas: List[int] = []
    for arg in [*node.args, *[kw.value for kw in node.keywords]]:
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Lambda):
                lambdas.append(sub.lineno)
            elif isinstance(sub, (ast.Name, ast.Attribute)):
                dotted = dotted_name(sub)
                if dotted is not None:
                    refs.append(dotted)
    # An Attribute chain walks into its own Name child; dedupe while
    # keeping first-seen order so "a.b" survives, bare "a" goes.
    seen: Set[str] = set()
    out: List[str] = []
    for ref in refs:
        if ref not in seen and not any(other.startswith(ref + ".") for other in refs):
            seen.add(ref)
            out.append(ref)
    return tuple(out), tuple(lambdas)


def _emit_kinds(node: ast.Call) -> List[EmitSite]:
    """EmitSites for one ``*.emit(...)`` call (IfExp arms unwrapped)."""

    def sites(kind: ast.AST) -> List[EmitSite]:
        if isinstance(kind, ast.IfExp):
            return sites(kind.body) + sites(kind.orelse)
        if isinstance(kind, ast.Constant) and isinstance(kind.value, str):
            return [EmitSite(line=kind.lineno, col=kind.col_offset, literal=kind.value)]
        ref = dotted_name(kind)
        return [EmitSite(line=kind.lineno, col=kind.col_offset, ref=ref)]

    if not node.args:
        return []
    return sites(node.args[0])


def _is_emit_call(node: ast.Call) -> bool:
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr == "emit"):
        return False
    value = func.value
    if isinstance(value, ast.Name):
        return value.id in EMIT_RECEIVERS
    if isinstance(value, ast.Attribute):
        return value.attr in EMIT_RECEIVERS
    return False


class _FactsVisitor(ast.NodeVisitor):
    """One-pass extractor; see the module docstring for the data model."""

    def __init__(self, facts: ModuleFacts):
        self.facts = facts
        self._class_stack: List[str] = []
        self._func_stack: List[FunctionInfo] = []

    # -- structure ------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._func_stack:
            # Class defined inside a function: not import-addressable.
            self._func_stack[0].local_callables += (node.name,)
            return  # don't descend: its methods can't be resolved anyway
        name = ".".join([*self._class_stack, node.name])
        bases = tuple(b for b in (dotted_name(base) for base in node.bases) if b is not None)
        info = ClassInfo(line=node.lineno, bases=bases)
        self.facts.classes[name] = info
        self._class_stack.append(node.name)
        for child in node.body:
            self.visit(child)
        self._class_stack.pop()

    def _visit_func(self, node) -> None:
        if self._func_stack:
            # Nested def: record the binding, flatten the body into the
            # enclosing function's call list.
            self._func_stack[0].local_callables += (node.name,)
            for child in node.body:
                self.visit(child)
            return
        cls = ".".join(self._class_stack) if self._class_stack else None
        qualname = f"{cls}.{node.name}" if cls else node.name
        info = FunctionInfo(qualname=qualname, line=node.lineno, cls=cls)
        self.facts.functions.append(info)
        if cls:
            owner = self.facts.classes.get(cls)
            if owner is not None:
                owner.methods[node.name] = node.lineno
        else:
            self.facts.module_defs += (node.name,)
        self._func_stack.append(info)
        for child in node.body:
            self.visit(child)
        self._func_stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # Lambda bodies execute in their enclosing function's context.
        self.visit(node.body)

    def visit_Assign(self, node: ast.Assign) -> None:
        if isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    if self._func_stack:
                        self._func_stack[0].local_callables += (target.id,)
                    elif not self._class_stack:
                        self.facts.lambda_assigns[target.id] = node.lineno
                        # A module-level lambda is callable through the
                        # graph like a def (its body is its own node).
                        info = FunctionInfo(qualname=target.id, line=node.lineno)
                        self.facts.functions.append(info)
                        self._func_stack.append(info)
                        self.visit(node.value.body)
                        self._func_stack.pop()
                        return
        if (
            not self._func_stack
            and not self._class_stack
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    self.facts.constants[target.id] = (node.value.value, node.lineno)
        self.generic_visit(node)

    # -- imports --------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        toplevel = not self._func_stack and not self._class_stack
        for alias in node.names:
            self.facts.imports.append(ImportSite(alias.name, node.lineno, toplevel))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        toplevel = not self._func_stack and not self._class_stack
        if node.level:
            from repro.analysis.astutil import resolve_relative

            base = resolve_relative(
                self.facts.module, node.level, node.module, self.facts.is_package
            )
            if base is None:
                return
        else:
            base = node.module
            if base is None:
                return
        for alias in node.names:
            if alias.name == "*":
                self.facts.imports.append(ImportSite(base, node.lineno, toplevel))
            else:
                self.facts.imports.append(
                    ImportSite(f"{base}.{alias.name}", node.lineno, toplevel)
                )

    # -- calls ----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if _is_emit_call(node):
            self.facts.emits.extend(_emit_kinds(node))
        callee = dotted_name(node.func)
        if callee is not None and self._func_stack:
            last = callee.rsplit(".", 1)[-1]
            if last in PAYLOAD_CALLEE_SUFFIXES:
                refs, lambdas = _arg_payload(node)
            else:
                refs, lambdas = (), ()
            self._func_stack[0].calls.append(
                CallSite(callee, node.lineno, node.col_offset, refs, lambdas)
            )
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # ``os.environ[...]`` is an env read without a call; record it
        # as a pseudo call-site so the taint rule sees it.
        dotted = dotted_name(node.value)
        if dotted is not None and dotted.endswith("environ") and self._func_stack:
            self._func_stack[0].calls.append(
                CallSite(dotted, node.lineno, node.col_offset)
            )
        self.generic_visit(node)


def extract_facts(unit: ModuleUnit) -> Optional[ModuleFacts]:
    """Facts for one parsed unit (None when the file does not parse)."""
    tree = unit.tree
    if tree is None:
        return None
    facts = ModuleFacts(
        path=unit.path, module=unit.module, is_package=unit.is_package_init
    )
    facts.aliases = ImportMap(
        tree, module_name=unit.module, is_package=unit.is_package_init
    ).aliases
    _FactsVisitor(facts).visit(tree)
    return facts


# -- the graph --------------------------------------------------------------


@dataclass(frozen=True)
class ResolvedImport:
    """One import edge resolved to a project module."""

    source: str
    target: str  # project module
    raw: str  # the dotted text as written
    line: int
    toplevel: bool


@dataclass
class ResolvedCall:
    site: CallSite
    #: Fully qualified project function node, when resolution succeeded.
    target: Optional[str] = None
    #: Fully dotted external name (``time.time``) when the callee
    #: resolves outside the project.
    external: Optional[str] = None


@dataclass
class FunctionNode:
    qualname: str  # fully qualified: "module.Cls.func"
    module: str
    path: str
    line: int
    cls: Optional[str]
    calls: List[ResolvedCall] = field(default_factory=list)
    local_callables: Tuple[str, ...] = ()


class ProjectGraph:
    """Joined view over every module's facts; see the module docstring."""

    def __init__(self, all_facts: Sequence[ModuleFacts]):
        #: module name -> facts (standalone scripts, which have no
        #: importable name, stay out of the graph).
        self.modules: Dict[str, ModuleFacts] = {
            f.module: f for f in all_facts if f.module is not None
        }
        #: fully qualified symbol -> ("function"|"class"|"lambda", path, line)
        self.symbols: Dict[str, Tuple[str, str, int]] = {}
        self.functions: Dict[str, FunctionNode] = {}
        self.import_graph: Dict[str, List[ResolvedImport]] = {}
        # Pass 1: symbols and nodes, so pass-2 resolution sees the
        # complete table regardless of module order.
        for module, facts in self.modules.items():
            for fn in facts.functions:
                kind = "lambda" if fn.qualname in facts.lambda_assigns else "function"
                self.symbols[f"{module}.{fn.qualname}"] = (kind, facts.path, fn.line)
                self.functions[f"{module}.{fn.qualname}"] = FunctionNode(
                    qualname=f"{module}.{fn.qualname}",
                    module=module,
                    path=facts.path,
                    line=fn.line,
                    cls=fn.cls,
                    local_callables=fn.local_callables,
                )
            for cname, cinfo in facts.classes.items():
                self.symbols[f"{module}.{cname}"] = ("class", facts.path, cinfo.line)
        # Pass 2: import edges and call resolution.
        for module, facts in self.modules.items():
            self.import_graph[module] = self._resolve_imports(module, facts)
            for fn in facts.functions:
                node = self.functions[f"{module}.{fn.qualname}"]
                node.calls = [self._resolve_call(facts, fn, site) for site in fn.calls]

    # -- imports --------------------------------------------------------

    def _project_module_of(self, dotted: str) -> Optional[str]:
        """Longest project module that is ``dotted`` or a prefix of it."""
        candidate = dotted
        while candidate:
            if candidate in self.modules:
                return candidate
            if "." not in candidate:
                return None
            candidate = candidate.rsplit(".", 1)[0]
        return None

    def _resolve_imports(self, module: str, facts: ModuleFacts) -> List[ResolvedImport]:
        edges: List[ResolvedImport] = []
        for site in facts.imports:
            target = self._project_module_of(site.target)
            if target is not None and target != module:
                edges.append(
                    ResolvedImport(module, target, site.target, site.line, site.toplevel)
                )
        return edges

    # -- calls ----------------------------------------------------------

    def _lookup_method(
        self, module: str, cls: str, method: str, _seen: Optional[Set[str]] = None
    ) -> Optional[str]:
        """Resolve ``cls.method`` through project-local base classes."""
        key = f"{module}.{cls}"
        seen = _seen if _seen is not None else set()
        if key in seen:
            return None
        seen.add(key)
        facts = self.modules.get(module)
        if facts is None:
            return None
        cinfo = facts.classes.get(cls)
        if cinfo is None:
            return None
        if method in cinfo.methods:
            return f"{module}.{cls}.{method}"
        for base in cinfo.bases:
            resolved = self._resolve_class_ref(facts, base)
            if resolved is None:
                continue
            base_module, base_cls = resolved
            found = self._lookup_method(base_module, base_cls, method, seen)
            if found is not None:
                return found
        return None

    def _resolve_class_ref(
        self, facts: ModuleFacts, raw: str
    ) -> Optional[Tuple[str, str]]:
        """(module, class) for a raw dotted class reference, if project-local."""
        if raw in facts.classes and facts.module is not None:
            return facts.module, raw
        head, _, rest = raw.partition(".")
        expanded = facts.aliases.get(head)
        if expanded is None:
            return None
        dotted = f"{expanded}.{rest}" if rest else expanded
        if self.symbols.get(dotted, ("",))[0] != "class":
            return None
        module = self._project_module_of(dotted)
        if module is None or not dotted.startswith(module + "."):
            return None
        return module, dotted[len(module) + 1 :]

    def _match_project_callable(self, dotted: str) -> Optional[str]:
        """Project function node for a fully dotted reference, if any."""
        kind = self.symbols.get(dotted, ("",))[0]
        if kind in ("function", "lambda"):
            return dotted
        if kind == "class":
            # Instantiating a class runs its constructor; resolve
            # through project-local bases like any other method.
            module = self._project_module_of(dotted)
            if module is not None and dotted.startswith(module + "."):
                return self._lookup_method(module, dotted[len(module) + 1 :], "__init__")
        return None

    def _resolve_call(
        self, facts: ModuleFacts, fn: FunctionInfo, site: CallSite
    ) -> ResolvedCall:
        raw = site.callee
        module = facts.module
        head, _, rest = raw.partition(".")
        if head == "self":
            if module is not None and fn.cls is not None and rest and "." not in rest:
                target = self._lookup_method(module, fn.cls, rest)
                if target is not None and target in self.functions:
                    return ResolvedCall(site, target=target)
            return ResolvedCall(site)
        expanded = facts.aliases.get(head)
        if expanded is not None:
            dotted = f"{expanded}.{rest}" if rest else expanded
            target = self._match_project_callable(dotted)
            if target is not None and target in self.functions:
                return ResolvedCall(site, target=target)
            if self._project_module_of(dotted) is None:
                return ResolvedCall(site, external=dotted)
            return ResolvedCall(site)
        if module is not None:
            if not rest:
                for candidate in (f"{module}.{head}",):
                    target = self._match_project_callable(candidate)
                    if target is not None and target in self.functions:
                        return ResolvedCall(site, target=target)
            elif head in facts.classes and "." not in rest:
                target = self._lookup_method(module, head, rest)
                if target is not None and target in self.functions:
                    return ResolvedCall(site, target=target)
        return ResolvedCall(site)

    # -- reachability ----------------------------------------------------

    def entry_points(self, globs: Iterable[str]) -> List[str]:
        patterns = list(globs)
        return sorted(
            name
            for name in self.functions
            if any(fnmatchcase(name, pattern) for pattern in patterns)
        )

    def reachable_from(
        self, entries: Iterable[str]
    ) -> Dict[str, Optional[Tuple[str, CallSite]]]:
        """BFS over the call graph; maps each reachable function to the
        (caller, call-site) edge it was first reached through (entry
        points map to None). Breadth-first, so recorded chains are
        shortest chains."""
        parent: Dict[str, Optional[Tuple[str, CallSite]]] = {}
        queue: deque = deque()
        for entry in sorted(set(entries)):
            if entry in self.functions and entry not in parent:
                parent[entry] = None
                queue.append(entry)
        while queue:
            current = queue.popleft()
            for call in self.functions[current].calls:
                target = call.target
                if target is not None and target in self.functions and target not in parent:
                    parent[target] = (current, call.site)
                    queue.append(target)
        return parent

    def call_chain(
        self,
        parent: Dict[str, Optional[Tuple[str, CallSite]]],
        node: str,
    ) -> List[Tuple[str, CallSite]]:
        """Hops from an entry point to ``node``: [(caller, site), ...]."""
        chain: List[Tuple[str, CallSite]] = []
        current = node
        while True:
            edge = parent.get(current)
            if edge is None:
                break
            caller, site = edge
            chain.append((caller, site))
            current = caller
        chain.reverse()
        return chain


def build_graph(units: Iterable[ModuleUnit]) -> ProjectGraph:
    """Extract every unit's facts and join them into a ProjectGraph."""
    all_facts = [facts for facts in map(extract_facts, units) if facts is not None]
    return ProjectGraph(all_facts)
