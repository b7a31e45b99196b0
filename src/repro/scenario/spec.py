"""The declarative scenario schema: ``ScenarioSpec`` and its parts.

A scenario is everything needed to reconstruct a world and a workload:
propagation, mobility, AP deployment (generated along a route or an
explicit list), per-AP backhaul/DHCP profiles, the driver fleet, the
traffic mix, and failure injection. A spec is *data* — plain values
with a canonical dict form — so it can round-trip through TOML/JSON,
key the ``repro.exec`` result cache, and travel to worker processes.

Nothing here touches the simulator; :mod:`repro.scenario.build` turns
a spec into a wired world. The named presets live in
:mod:`repro.scenario.registry`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union


class SpecError(ValueError):
    """A scenario spec that cannot be interpreted."""


@dataclass(frozen=True)
class PropagationSpec:
    """Radio propagation knobs (see ``repro.phy.propagation``)."""

    range_m: float = 100.0
    base_loss: float = 0.10
    edge_start: float = 0.50


@dataclass(frozen=True)
class PhySpec:
    """PHY-layer wiring knobs (see ``repro.phy.radio`` / ``partition``).

    ``handoff_period_s`` is the partition poll period for mobile radios
    (only meaningful when the spec declares ``[[partitions]]``).
    """

    handoff_period_s: float = 1.0


@dataclass(frozen=True)
class PartitionSpec:
    """One geographic region served by its own medium (half-open bbox)."""

    name: str
    x_min: float
    y_min: float
    x_max: float
    y_max: float


@dataclass(frozen=True)
class MobilitySpec:
    """Client motion: a rectangular vehicular loop or a static point."""

    kind: str = "loop"  # "loop" | "static"
    speed: float = 10.0  # m/s, loop only
    route_width: float = 900.0
    route_height: float = 350.0
    x: float = 0.0  # static only
    y: float = 0.0


@dataclass(frozen=True)
class ApSpec:
    """One explicitly-placed access point (lab/indoor worlds)."""

    name: str
    channel: int
    backhaul_bps: float
    beta_min: float = 0.2
    beta_max: float = 1.0
    x: float = 10.0
    y: float = 0.0


@dataclass(frozen=True)
class DeploymentSpec:
    """Where APs come from: a generated roadside scatter or a list.

    ``kind="generated"`` mirrors ``repro.world.deployment``'s Poisson
    cluster process (requires loop mobility for the route);
    ``kind="explicit"`` places exactly ``aps``; ``kind="metro"`` tiles
    a ``blocks_x × blocks_y`` city-block grid (``block_m`` per side)
    with a Poisson ``aps_per_block`` APs scattered per block — the
    city-scale shape the partitioned medium exists for.
    """

    kind: str = "generated"  # "generated" | "explicit" | "metro"
    density_per_km: float = 6.0
    #: channel → probability; ``None`` keeps the Amherst default mix.
    channel_mix: Optional[Dict[int, float]] = None
    lateral_spread: float = 80.0
    cluster_size_mean: float = 3.5
    cluster_radius: float = 50.0
    backhaul_bps_min: float = 1.0e6
    backhaul_bps_max: float = 10.0e6
    beta_min_range: Tuple[float, float] = (0.15, 0.6)
    beta_max_range: Tuple[float, float] = (1.0, 4.0)
    open_fraction: float = 1.0
    aps: Tuple[ApSpec, ...] = ()
    # metro only (omitted from the canonical form at these defaults)
    blocks_x: int = 0
    blocks_y: int = 0
    block_m: float = 120.0
    aps_per_block: float = 2.0


#: Default value per DeploymentSpec field — ``to_dict`` drops the
#: metro-only keys at these values to keep pre-metro digests stable.
_DEPLOYMENT_DEFAULTS: Dict[str, Any] = {
    f.name: f.default for f in fields(DeploymentSpec) if f.default is not None
}


@dataclass(frozen=True)
class TrafficSpec:
    """Workload carried by each joined AP.

    ``bulk-tcp`` is the paper's workload (an infinite download per
    joined AP); ``none`` disables automatic flows (latency studies).
    """

    kind: str = "bulk-tcp"  # "bulk-tcp" | "none"


@dataclass(frozen=True)
class DriverSpec:
    """One kind of client in the fleet.

    ``config`` holds the driver's own knobs verbatim (e.g.
    ``SpiderConfig`` fields; a ``schedule`` table maps channel →
    fraction). ``count`` > 1 replicates the driver with indexed
    addresses — the contention experiments' population knob.
    """

    kind: str = "spider"  # "spider" | "stock" | "fatvap" | "multicard"
    address: str = ""
    count: int = 1
    cards: int = 2  # multicard only
    config: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class FailureSpec:
    """One injected fault.

    Kinds: ``ap-outage`` (the AP powers off at ``at`` seconds),
    ``dhcp-wedge`` (the AP's DHCP daemon stops answering at ``at``).
    """

    kind: str
    ap: str
    at: float = 0.0


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, serializable description of one simulated world."""

    name: str = "adhoc"
    seed: int = 1
    duration: float = 300.0
    wired_latency: float = 0.075
    propagation: PropagationSpec = field(default_factory=PropagationSpec)
    mobility: MobilitySpec = field(default_factory=MobilitySpec)
    deployment: DeploymentSpec = field(default_factory=DeploymentSpec)
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    phy: PhySpec = field(default_factory=PhySpec)
    partitions: Tuple[PartitionSpec, ...] = ()
    drivers: Tuple[DriverSpec, ...] = ()
    failures: Tuple[FailureSpec, ...] = ()

    # -- canonical dict form --------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form: tuples → lists, all dict keys → strings.

        String keys keep the dict TOML/JSON-representable (channel
        tables like ``schedule`` and ``channel_mix`` use integer keys
        internally); the readers convert back.

        Fields introduced after PR 5 are *omitted at their defaults*:
        the canonical form — and hence ``digest()``, the exec cache
        key, and every committed golden — is unchanged for any spec
        that does not use them.
        """
        data = _plain(asdict(self))
        if self.phy == PhySpec():
            del data["phy"]
        if not self.partitions:
            del data["partitions"]
        deployment = data["deployment"]
        for metro_field in ("blocks_x", "blocks_y", "block_m", "aps_per_block"):
            if deployment[metro_field] == _DEPLOYMENT_DEFAULTS[metro_field]:
                del deployment[metro_field]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        data = dict(data)
        spec = cls(
            propagation=_sub(PropagationSpec, data.pop("propagation", None)),
            mobility=_sub(MobilitySpec, data.pop("mobility", None)),
            deployment=_deployment(data.pop("deployment", None)),
            traffic=_sub(TrafficSpec, data.pop("traffic", None)),
            phy=_sub(PhySpec, data.pop("phy", None)),
            partitions=tuple(
                _sub(PartitionSpec, p, required=True) for p in _seq(data.pop("partitions", ()))
            ),
            drivers=tuple(
                _sub(DriverSpec, d, required=True) for d in _seq(data.pop("drivers", ()))
            ),
            failures=tuple(
                _sub(FailureSpec, f, required=True) for f in _seq(data.pop("failures", ()))
            ),
            **_scalars(cls, data),
        )
        return spec.validated()

    def with_overrides(self, **overrides: Any) -> "ScenarioSpec":
        """Top-level field overrides (``seed``, ``duration``, …)."""
        unknown = sorted(set(overrides) - {f.name for f in fields(self)})
        if unknown:
            raise SpecError(f"unknown scenario override(s): {', '.join(unknown)}")
        return replace(self, **overrides)

    def with_propagation(self, **overrides: Any) -> "ScenarioSpec":
        return replace(self, propagation=replace(self.propagation, **overrides))

    def with_mobility(self, **overrides: Any) -> "ScenarioSpec":
        return replace(self, mobility=replace(self.mobility, **overrides))

    def with_deployment(self, **overrides: Any) -> "ScenarioSpec":
        """Deployment-field overrides (the ablation sweeps' workhorse)."""
        return replace(self, deployment=replace(self.deployment, **overrides))

    def with_phy(self, **overrides: Any) -> "ScenarioSpec":
        """PHY-field overrides (e.g. ``handoff_period_s``)."""
        return replace(self, phy=replace(self.phy, **overrides))

    def validated(self) -> "ScenarioSpec":
        if self.mobility.kind not in ("loop", "static"):
            raise SpecError(f"unknown mobility kind {self.mobility.kind!r}")
        if self.deployment.kind not in ("generated", "explicit", "metro"):
            raise SpecError(f"unknown deployment kind {self.deployment.kind!r}")
        if self.deployment.kind == "generated" and self.mobility.kind != "loop":
            raise SpecError("a generated deployment needs loop mobility (it lines the route)")
        if self.deployment.kind == "explicit" and self.deployment.channel_mix is not None:
            raise SpecError("channel_mix only applies to generated and metro deployments")
        if self.deployment.kind in ("generated", "metro"):
            low, high = self.deployment.backhaul_bps_min, self.deployment.backhaul_bps_max
            if not low > 0:
                raise SpecError("backhaul_bps_min must be positive")
            if not low <= high:
                raise SpecError(
                    f"need backhaul_bps_min <= backhaul_bps_max (got {low}, {high})"
                )
        if self.deployment.kind == "metro":
            if self.deployment.blocks_x < 1 or self.deployment.blocks_y < 1:
                raise SpecError("a metro deployment needs blocks_x >= 1 and blocks_y >= 1")
            if self.deployment.block_m <= 0:
                raise SpecError("block_m must be positive")
            if self.deployment.aps_per_block <= 0:
                raise SpecError("aps_per_block must be positive")
        if self.phy.handoff_period_s <= 0:
            raise SpecError("handoff_period_s must be positive")
        region_names: set = set()
        for partition in self.partitions:
            if not partition.name:
                raise SpecError("partition names must be non-empty")
            if partition.name in region_names:
                raise SpecError(f"duplicate partition name {partition.name!r}")
            region_names.add(partition.name)
            if partition.x_max <= partition.x_min or partition.y_max <= partition.y_min:
                raise SpecError(
                    f"partition {partition.name!r} has an empty bbox "
                    "(need x_max > x_min and y_max > y_min)"
                )
        if self.traffic.kind not in ("bulk-tcp", "none"):
            raise SpecError(f"unknown traffic kind {self.traffic.kind!r}")
        for driver in self.drivers:
            if driver.kind not in ("spider", "stock", "fatvap", "multicard"):
                raise SpecError(f"unknown driver kind {driver.kind!r}")
            if driver.count < 1:
                raise SpecError(f"driver count must be >= 1 (got {driver.count})")
        for failure in self.failures:
            if failure.kind not in ("ap-outage", "dhcp-wedge"):
                raise SpecError(f"unknown failure kind {failure.kind!r}")
        if self.duration <= 0:
            raise SpecError("duration must be positive")
        seen: set = set()
        for ap in self.deployment.aps:
            if ap.name in seen:
                raise SpecError(f"duplicate AP name {ap.name!r}")
            seen.add(ap.name)
            if not ap.backhaul_bps > 0:
                raise SpecError(f"AP {ap.name!r}: backhaul_bps must be positive")
            if not 0 <= ap.beta_min <= ap.beta_max:
                raise SpecError(
                    f"AP {ap.name!r}: need 0 <= beta_min <= beta_max "
                    f"(got {ap.beta_min}, {ap.beta_max})"
                )
        return self

    # -- serialization ---------------------------------------------------

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def to_toml(self) -> str:
        return dumps_toml(self.to_dict())

    @classmethod
    def from_toml(cls, text: str) -> "ScenarioSpec":
        import tomllib

        try:
            return cls.from_dict(tomllib.loads(text))
        except tomllib.TOMLDecodeError as error:
            raise SpecError(f"invalid TOML: {error}") from error

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ScenarioSpec":
        """Read a spec file; the suffix picks the format."""
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as error:
            raise SpecError(f"cannot read spec {path}: {error}") from error
        if path.suffix == ".json":
            return cls.from_json(text)
        if path.suffix == ".toml":
            return cls.from_toml(text)
        raise SpecError(f"unknown spec format {path.suffix!r} (use .toml or .json)")

    def digest(self) -> str:
        """SHA-256 of the canonical serialization — the cache identity."""
        from repro.exec.cache import canonical_text

        return hashlib.sha256(canonical_text(self.to_dict()).encode()).hexdigest()


# -- from_dict helpers ------------------------------------------------------


def _plain(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _scalars(cls, data: Dict[str, Any]) -> Dict[str, Any]:
    """The remaining top-level scalar fields, with unknown-key errors."""
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise SpecError(
            f"unknown scenario field(s): {', '.join(unknown)} "
            f"(valid: {', '.join(sorted(allowed))})"
        )
    return data


def _sub(cls, data: Any, required: bool = False):
    if data is None:
        if required:
            raise SpecError(f"missing {cls.__name__} table")
        return cls()
    if isinstance(data, cls):
        return data
    if not isinstance(data, Mapping):
        raise SpecError(f"{cls.__name__} must be a table, got {type(data).__name__}")
    data = dict(data)
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise SpecError(
            f"unknown {cls.__name__} field(s): {', '.join(unknown)} "
            f"(valid: {', '.join(sorted(allowed))})"
        )
    try:
        return cls(**data)
    except TypeError as error:
        raise SpecError(f"bad {cls.__name__}: {error}") from error


def _seq(data: Any) -> Sequence:
    if isinstance(data, Sequence) and not isinstance(data, (str, bytes)):
        return data
    raise SpecError(f"expected an array of tables, got {type(data).__name__}")


def _deployment(data: Any) -> DeploymentSpec:
    if data is None:
        return DeploymentSpec()
    if isinstance(data, DeploymentSpec):
        return data
    if not isinstance(data, Mapping):
        raise SpecError(f"DeploymentSpec must be a table, got {type(data).__name__}")
    data = dict(data)
    aps = tuple(_sub(ApSpec, ap, required=True) for ap in _seq(data.pop("aps", ())))
    mix = data.pop("channel_mix", None)
    if mix is not None:
        if not isinstance(mix, Mapping):
            raise SpecError("channel_mix must be a table of channel -> probability")
        try:
            mix = {int(channel): float(weight) for channel, weight in mix.items()}
        except (TypeError, ValueError) as error:
            raise SpecError(f"bad channel_mix: {error}") from error
    for key in ("beta_min_range", "beta_max_range"):
        if key in data:
            value = data[key]
            if not (isinstance(value, Sequence) and len(value) == 2):
                raise SpecError(f"{key} must be a [low, high] pair")
            data[key] = (float(value[0]), float(value[1]))
    spec = _sub(DeploymentSpec, data)
    return replace(spec, channel_mix=mix, aps=aps)


# -- minimal TOML emission --------------------------------------------------
#
# The stdlib reads TOML (tomllib) but does not write it; specs only
# need scalars, arrays, tables, and arrays of tables, so a small
# emitter keeps the round-trip dependency-free.

_BARE_KEY = __import__("re").compile(r"^[A-Za-z0-9_-]+$")


def _toml_key(key: str) -> str:
    return key if _BARE_KEY.match(key) else json.dumps(key)


def _toml_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(item) for item in value) + "]"
    raise SpecError(f"cannot serialize {type(value).__name__} to TOML")


def dumps_toml(data: Mapping[str, Any], prefix: str = "") -> str:
    """Emit a nested dict as TOML (scalars, then tables, then [[arrays]])."""
    lines: List[str] = []
    tables: List[Tuple[str, Mapping]] = []
    table_arrays: List[Tuple[str, Sequence[Mapping]]] = []
    for key, value in data.items():
        if value is None:
            continue  # "unset" — the reader falls back to the default
        full = f"{prefix}{_toml_key(key)}"
        if isinstance(value, Mapping):
            tables.append((full, value))
        elif (
            isinstance(value, Sequence)
            and not isinstance(value, (str, bytes))
            and value
            and all(isinstance(item, Mapping) for item in value)
        ):
            table_arrays.append((full, value))
        else:
            lines.append(f"{_toml_key(key)} = {_toml_value(value)}")
    out = "\n".join(lines)
    for full, table in tables:
        body = dumps_toml(table, prefix=f"{full}.")
        if body.strip():
            out += f"\n\n[{full}]\n{body}"
    for full, items in table_arrays:
        for item in items:
            body = dumps_toml(item, prefix=f"{full}.")
            out += f"\n\n[[{full}]]\n{body}"
    return out.strip() + "\n" if prefix == "" else out.strip()
