"""simlint configuration: defaults plus the ``[tool.simlint]`` table.

Policy lives in configuration, not in scattered pragmas: which packages
count as *sim scope* (where wall-clock reads are banned), which harness
modules are allowed to read the wall clock anyway, where the trace
taxonomy and experiment registry live, and which plugin modules to
import for extra rules. The CLI loads this from the repository's
``pyproject.toml``; tests construct :class:`LintConfig` directly.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

#: Packages whose code runs *inside* simulated time. Wall-clock reads
#: here would couple results to the host machine.
DEFAULT_SIM_SCOPE: Tuple[str, ...] = (
    "repro.sim",
    "repro.phy",
    "repro.mac",
    "repro.net",
    "repro.core",
    "repro.model",
    "repro.world",
    "repro.drivers",
    "repro.experiments",
    "repro.scenario",
    "repro.usability",
    "repro.metrics",
)

#: Packages on the simulator hot path: every event dispatched runs code
#: here, so observability must cost nothing when disabled (SL009).
DEFAULT_HOTPATH_PACKAGES: Tuple[str, ...] = (
    "repro.sim",
    "repro.phy",
    "repro.mac",
    "repro.net",
)

#: Sim hot entry points (SL011): globs over fully qualified function
#: names. Every function transitively reachable from one of these runs
#: inside dispatched simulated time, so nondeterminism sources —
#: wall clocks, the global RNG, env reads — are banned along the whole
#: reachable subgraph, not just in the entry file.
DEFAULT_HOT_ENTRYPOINTS: Tuple[str, ...] = (
    "repro.sim.engine.Simulator.step",
    "repro.sim.engine.Simulator.run",
    "repro.phy.radio.Medium.broadcast",
    "repro.drivers.*.on_*",
)


@dataclass
class LintConfig:
    """Resolved simlint configuration for one run."""

    sim_scope: Tuple[str, ...] = DEFAULT_SIM_SCOPE
    #: Dotted-module globs exempt from SL002 (harness code that *measures*
    #: wall time rather than simulating: the CLI runner, worker pools).
    wallclock_allow: Tuple[str, ...] = ()
    #: Module holding the ``layer.event`` taxonomy constants (SL004).
    taxonomy_module: str = "repro.obs.trace"
    #: Package whose modules must follow the shard protocol (SL005) and
    #: be registered (SL006).
    experiments_package: str = "repro.experiments"
    #: Module defining the experiment ``REGISTRY`` dict (SL006).
    registry_module: str = "repro.experiments.runner"
    #: Package allowed to construct world primitives directly (SL007).
    scenario_package: str = "repro.scenario"
    #: Packages where trace/span emission must sit behind an
    #: ``is not None`` guard (SL009).
    hotpath_packages: Tuple[str, ...] = DEFAULT_HOTPATH_PACKAGES
    #: Architecture layers, lowest first (SL012). Empty disables the rule.
    layers: Tuple[str, ...] = ()
    #: Sanctioned cross-layer interfaces: ``"src-prefix -> dst-prefix"``.
    layer_allow: Tuple[str, ...] = ()
    #: Sim hot entry points for SL011 (globs over qualified names).
    hot_entrypoints: Tuple[str, ...] = DEFAULT_HOT_ENTRYPOINTS
    #: Default baseline path, relative to the config file's directory.
    baseline: str = "simlint-baseline.json"
    #: Plugin modules imported for their rule-registration side effect.
    plugins: Tuple[str, ...] = ()
    select: Tuple[str, ...] = ()
    ignore: Tuple[str, ...] = ()
    #: Directory the config was loaded from (anchors relative paths).
    root: Optional[Path] = None

    def wallclock_allowed(self, module: Optional[str]) -> bool:
        if module is None:
            return False
        return any(fnmatch.fnmatchcase(module, pattern) for pattern in self.wallclock_allow)

    def in_sim_scope(self, module: Optional[str]) -> bool:
        if module is None:
            return False
        return any(
            module == prefix or module.startswith(prefix + ".") for prefix in self.sim_scope
        )


def _tuple(raw: object, what: str) -> Tuple[str, ...]:
    if not isinstance(raw, (list, tuple)) or not all(isinstance(item, str) for item in raw):
        raise ValueError(f"[tool.simlint] {what} must be a list of strings")
    return tuple(raw)


def _string(raw: object, what: str) -> str:
    if not isinstance(raw, str):
        raise ValueError(f"[tool.simlint] {what} must be a string")
    return raw


#: TOML key -> (LintConfig attribute, coercion). The loader rejects any
#: key outside this table: a typo'd key would otherwise silently fall
#: back to the default and weaken the policy it meant to tighten.
_KEYS = {
    "sim-scope": ("sim_scope", _tuple),
    "wallclock-allow": ("wallclock_allow", _tuple),
    "taxonomy-module": ("taxonomy_module", _string),
    "experiments-package": ("experiments_package", _string),
    "registry-module": ("registry_module", _string),
    "scenario-package": ("scenario_package", _string),
    "hotpath-packages": ("hotpath_packages", _tuple),
    "layers": ("layers", _tuple),
    "layer-allow": ("layer_allow", _tuple),
    "hot-entrypoints": ("hot_entrypoints", _tuple),
    "baseline": ("baseline", _string),
    "plugins": ("plugins", _tuple),
    "select": ("select", _tuple),
    "ignore": ("ignore", _tuple),
}


def load_config(pyproject: Optional[Path]) -> LintConfig:
    """Build a :class:`LintConfig` from ``pyproject.toml`` (if present)."""
    config = LintConfig()
    if pyproject is None or not pyproject.is_file():
        return config
    try:
        import tomllib
    except ImportError:  # Python 3.10: stdlib tomllib landed in 3.11
        try:
            import tomli as tomllib  # type: ignore[no-redef]
        except ImportError:
            return config
    with open(pyproject, "rb") as handle:
        data = tomllib.load(handle)
    table = data.get("tool", {}).get("simlint", {})
    config.root = pyproject.parent
    unknown = sorted(key for key in table if key not in _KEYS)
    if unknown:
        raise ValueError(
            f"unknown [tool.simlint] key(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(_KEYS))})"
        )
    for key, value in table.items():
        attribute, coerce = _KEYS[key]
        setattr(config, attribute, coerce(value, key))
    return config


def find_pyproject(start: Path) -> Optional[Path]:
    """Walk up from ``start`` to the nearest ``pyproject.toml``."""
    current = start.resolve()
    for candidate in [current, *current.parents]:
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None
