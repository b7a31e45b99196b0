"""SL005/SL006: shard-protocol conformance and experiment registration.

``repro.exec`` runs experiments by the contract in
``repro.exec.shards``: a module opts into parallelism by defining
``shards``/``run_shard``/``merge`` whose signatures mirror ``run()``,
with ``run_shard`` importable by name in a worker process. The CLI
finds experiments through ``REGISTRY`` in ``repro.experiments.runner``.
Both contracts are duck-typed at runtime — a drifted signature shows up
as a crash deep inside a worker, and an unregistered figure module
simply never runs — so these rules check them at lint time.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Finding, ModuleUnit, ProjectContext, Rule, Severity, register_rule

_PROTOCOL = ("shards", "run_shard", "merge")
_FIG_TAB = re.compile(r"^(fig|tab)\d+")


def _module_level_defs(tree: ast.Module) -> Dict[str, ast.AST]:
    """name -> defining node, for module-level functions *and* assignments."""
    defs: Dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    defs[target.id] = node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defs[node.target.id] = node
    return defs


def _signature(func: ast.FunctionDef) -> Tuple[List[str], bool, bool]:
    """(named parameters, has *args, has **kwargs)."""
    args = func.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return names, args.vararg is not None, args.kwarg is not None


@register_rule
class ShardProtocol(Rule):
    """SL005: opted-in experiment modules must implement the full protocol."""

    id = "SL005"
    name = "shard-protocol"
    severity = Severity.ERROR
    description = "shards/run_shard/merge must be complete, conforming, picklable"

    def check(self, unit: ModuleUnit, project: ProjectContext) -> Iterator[Finding]:
        assert unit.tree is not None
        if not unit.in_package((project.config.experiments_package,)):
            return
        defs = _module_level_defs(unit.tree)
        present = [name for name in _PROTOCOL if name in defs]
        if not present:
            return

        missing = [name for name in _PROTOCOL if name not in defs]
        if missing:
            yield self.finding(
                unit.path,
                defs[present[0]],
                f"partial shard protocol: defines {', '.join(present)} but not "
                f"{', '.join(missing)} (see repro.exec.shards)",
            )
        for name in present:
            node = defs[name]
            if isinstance(node, ast.AsyncFunctionDef):
                yield self.finding(
                    unit.path, node, f"shard-protocol function {name!r} may not be async"
                )
            elif not isinstance(node, ast.FunctionDef):
                yield self.finding(
                    unit.path,
                    node,
                    f"shard-protocol entry {name!r} must be a module-level 'def' "
                    "(workers import it by name; lambdas and rebindings don't pickle)",
                )

        run = defs.get("run")
        if not isinstance(run, ast.FunctionDef):
            yield self.finding(
                unit.path,
                defs[present[0]],
                "module implements the shard protocol but has no module-level run()",
            )
            return
        run_params = set(_signature(run)[0])

        shards = defs.get("shards")
        if isinstance(shards, ast.FunctionDef):
            names, _, has_kwargs = _signature(shards)
            uncovered = run_params - set(names)
            if uncovered and not has_kwargs:
                yield self.finding(
                    unit.path,
                    shards,
                    "shards() cannot accept run()'s parameter(s) "
                    f"{', '.join(sorted(uncovered))} — mirror run()'s signature or take **kwargs",
                )
        merge = defs.get("merge")
        if isinstance(merge, ast.FunctionDef):
            names, _, has_kwargs = _signature(merge)
            if not names:
                yield self.finding(
                    unit.path,
                    merge,
                    "merge() must take the per-shard results as its first parameter",
                )
            else:
                uncovered = run_params - set(names[1:])
                if uncovered and not has_kwargs:
                    yield self.finding(
                        unit.path,
                        merge,
                        "merge() cannot accept run()'s parameter(s) "
                        f"{', '.join(sorted(uncovered))} — "
                        "mirror run()'s signature or take **kwargs",
                    )


@register_rule
class ExperimentRegistry(Rule):
    """SL006: every fig/tab module is registered exactly once, with metadata."""

    id = "SL006"
    name = "experiment-registry"
    severity = Severity.ERROR
    description = "experiment modules must appear exactly once in REGISTRY"
    scope = "project"

    _REQUIRED = ("module", "fast", "description")

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        config = project.config
        registry_unit = project.unit_for_module(config.registry_module)
        experiment_units = [
            u
            for u in project.units
            if u.in_package((config.experiments_package,)) and u.module is not None
        ]
        if registry_unit is None or registry_unit.tree is None:
            return  # registry not part of this lint run (e.g. single-file invocation)

        registry = self._find_registry(registry_unit.tree)
        if registry is None:
            yield self.finding(
                registry_unit.path,
                1,
                f"no module-level REGISTRY dict literal found in {config.registry_module}",
            )
            return

        seen_modules: Dict[str, str] = {}  # module path -> experiment id
        registered: Set[str] = set()
        for key_node, value_node in zip(registry.keys, registry.values):
            if not (isinstance(key_node, ast.Constant) and isinstance(key_node.value, str)):
                yield self.finding(
                    registry_unit.path, key_node or registry, "non-string REGISTRY key"
                )
                continue
            experiment = key_node.value
            if not isinstance(value_node, ast.Dict):
                yield self.finding(
                    registry_unit.path,
                    value_node,
                    f"REGISTRY[{experiment!r}] must be a dict literal with "
                    f"{', '.join(self._REQUIRED)}",
                )
                continue
            metadata = self._literal_keys(value_node)
            for required in self._REQUIRED:
                if required not in metadata:
                    yield self.finding(
                        registry_unit.path,
                        value_node,
                        f"REGISTRY[{experiment!r}] is missing required key {required!r}",
                    )
            module_path = metadata.get("module")
            if isinstance(module_path, str):
                registered.add(module_path)
                if module_path in seen_modules:
                    yield self.finding(
                        registry_unit.path,
                        value_node,
                        f"module {module_path!r} registered twice "
                        f"({seen_modules[module_path]!r} and {experiment!r})",
                    )
                seen_modules.setdefault(module_path, experiment)
                if experiment_units and not any(u.module == module_path for u in experiment_units):
                    yield self.finding(
                        registry_unit.path,
                        value_node,
                        f"REGISTRY[{experiment!r}] points at {module_path!r}, "
                        "which does not exist in the linted tree",
                    )
            description = metadata.get("description")
            if isinstance(description, str) and not description.strip():
                yield self.finding(
                    registry_unit.path,
                    value_node,
                    f"REGISTRY[{experiment!r}] has an empty description",
                )

        prefix = config.experiments_package + "."
        for unit in experiment_units:
            assert unit.module is not None
            short = unit.module[len(prefix):] if unit.module.startswith(prefix) else unit.module
            if _FIG_TAB.match(short) and unit.module not in registered:
                yield self.finding(
                    unit.path,
                    1,
                    f"experiment module {unit.module} is not registered in "
                    f"{config.registry_module} REGISTRY",
                )

    @staticmethod
    def _find_registry(tree: ast.Module) -> Optional[ast.Dict]:
        for node in tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "REGISTRY"
                    and isinstance(value, ast.Dict)
                ):
                    return value
        return None

    @staticmethod
    def _literal_keys(node: ast.Dict) -> Dict[str, object]:
        """String keys -> literal value (or a sentinel for non-literals)."""
        out: Dict[str, object] = {}
        for key, value in zip(node.keys, node.values):
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                if isinstance(value, ast.Constant):
                    out[key.value] = value.value
                else:
                    out[key.value] = value
        return out


#: Callables whose arguments cross the worker-process boundary: the
#: process pool's submit method plus the shard payload container.
#: Matched on the *resolved* target when resolution succeeds, and on
#: the raw trailing name otherwise (a ``pool.submit(...)`` receiver is
#: rarely resolvable statically).
_PAYLOAD_TARGETS = (
    "repro.exec.shards.Shard",
    "concurrent.futures.ProcessPoolExecutor.submit",
)
_PAYLOAD_RAW_SUFFIXES = ("submit", "Shard")


@register_rule
class ShardPayloadPicklable(Rule):
    """SL014: shard payloads must be import-addressable.

    Everything submitted to the shard process pool is pickled into a
    worker process, and pickle serialises functions and classes
    *by qualified name*: a lambda, a closure, or a class defined inside
    a function has no importable name, so the payload either crashes
    the worker (``AttributeError: <locals>``) or — worse, with
    ``dill``-style fallbacks — silently captures ambient state that
    differs between processes, breaking byte-identity. The per-file
    SL005 checks the protocol *functions*; this rule checks the
    *values*: at every ``Shard(...)`` construction and every
    ``*.submit(...)`` call it flags lambdas,
    references to function-local defs/classes, and — through the
    project symbol table — references that resolve to a module-level
    ``name = lambda ...`` in another module (importable, but still
    unpicklable by qualname).
    """

    id = "SL014"
    name = "shard-payload-picklable"
    severity = Severity.ERROR
    description = "no lambdas/closures/local classes across the submit boundary"
    scope = "project"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        graph = project.graph
        for qualname in sorted(graph.functions):
            node = graph.functions[qualname]
            facts = graph.modules[node.module]
            local = set(node.local_callables)
            for call in node.calls:
                if not self._is_payload_call(call):
                    continue
                boundary = call.site.callee
                for line in call.site.lambda_lines:
                    yield self.finding(
                        node.path,
                        line,
                        f"lambda crosses the {boundary}(...) boundary in {qualname} — "
                        "pass a module-level function (workers import it by name)",
                    )
                for ref in call.site.arg_refs:
                    message = self._bad_ref(ref, facts, local, graph)
                    if message is not None:
                        yield self.finding(
                            node.path,
                            call.site.line,
                            f"{message} crosses the {boundary}(...) boundary in "
                            f"{qualname} — pass a module-level function "
                            "(workers import it by name)",
                            col=call.site.col,
                        )

    @staticmethod
    def _is_payload_call(call) -> bool:
        if call.target is not None and call.target.startswith(_PAYLOAD_TARGETS):
            return True
        last = call.site.callee.rsplit(".", 1)[-1]
        return last in _PAYLOAD_RAW_SUFFIXES

    @staticmethod
    def _bad_ref(ref: str, facts, local: set, graph) -> Optional[str]:
        head, _, rest = ref.partition(".")
        if not rest and head in local:
            return f"function-local callable {head!r} (a closure or local class)"
        dotted: Optional[str] = None
        if not rest and head in facts.lambda_assigns:
            dotted = f"{facts.module}.{head}" if facts.module else None
            if dotted is None:
                return f"module-level lambda {head!r}"
        else:
            expanded = facts.aliases.get(head)
            if expanded is not None:
                dotted = f"{expanded}.{rest}" if rest else expanded
        if dotted is not None and graph.symbols.get(dotted, ("",))[0] == "lambda":
            return f"{dotted!r}, a module-level lambda (unpicklable by qualname)"
        return None
