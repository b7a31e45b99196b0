"""PHY hot-path rule: SL008 (no linear registry scans).

The medium's delivery and lookup paths run once per frame; their cost
is independent of fleet size because they read indexes instead of
the historical "scan every registered radio" loops (see DESIGN.md §6):
the spatial grid (``_grid`` / ``_mobile`` / ``_local_cache``, §6.2)
for broadcast fan-out and ``_by_address`` for unicast lookup. SL008
keeps those scans from creeping back: any iteration over the full
radio registry (``self._radios``) inside a ``Medium`` method is
O(#radios) per frame.

Registry maintenance (``register`` / ``unregister`` / ``_retune``),
the metrics snapshot (``_metrics_source``, sampled at snapshot
cadence, not per frame), and the ``radios_on_channel`` inspection
helper are exempt in-rule — an explicit exemption here, not a
baseline entry, so the policy is visible next to the rule.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ModuleUnit, ProjectContext, Rule, Severity, register_rule

#: Medium methods that may legitimately walk the whole registry.
_EXEMPT_METHODS = {"register", "unregister", "_retune", "_metrics_source", "radios_on_channel"}

#: Call wrappers that still iterate their first argument.
_ITER_WRAPPERS = {"list", "tuple", "sorted", "iter", "enumerate", "reversed", "len"}

#: Dict views over the registry iterate it just the same.
_DICT_VIEWS = {"keys", "values", "items"}


def _is_registry(node: ast.AST) -> bool:
    """True for ``self._radios`` and views/wrappers of it."""
    if (
        isinstance(node, ast.Attribute)
        and node.attr == "_radios"
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _DICT_VIEWS
            and _is_registry(func.value)
        ):
            return True
        if (
            isinstance(func, ast.Name)
            and func.id in _ITER_WRAPPERS
            and len(node.args) >= 1
            and _is_registry(node.args[0])
        ):
            return True
    return False


@register_rule
class PhyHotPathScan(Rule):
    """SL008: no O(#radios) scans in the medium's per-frame paths."""

    id = "SL008"
    name = "phy-hot-path-scan"
    severity = Severity.ERROR
    description = "linear radio-registry scans in Medium delivery/lookup methods"

    def check(self, unit: ModuleUnit, project: ProjectContext) -> Iterator[Finding]:
        assert unit.tree is not None
        for klass in ast.walk(unit.tree):
            if not isinstance(klass, ast.ClassDef) or klass.name != "Medium":
                continue
            for method in klass.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if method.name in _EXEMPT_METHODS:
                    continue
                yield from self._check_method(unit, method)

    def _check_method(self, unit: ModuleUnit, method: ast.AST) -> Iterator[Finding]:
        for node in ast.walk(method):
            sources = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                sources.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                sources.extend(generator.iter for generator in node.generators)
            for source in sources:
                if _is_registry(source):
                    yield self.finding(
                        unit.path,
                        source,
                        "O(#radios) scan over self._radios in a Medium "
                        "delivery/lookup method — use the spatial grid / "
                        "_by_address indexes (DESIGN.md §6)",
                    )

