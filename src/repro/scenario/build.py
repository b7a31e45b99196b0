"""Turn a :class:`~repro.scenario.spec.ScenarioSpec` into a wired world.

This is the single place in the codebase where a simulated world is
assembled: simulator, RNG streams, medium, mobility, AP deployment,
and — per AP, on its first client frame or router lookup — a DHCP
server, a backhaul shaper, and a router, plus a ``router_lookup`` that
lets drivers build TCP flows through whichever AP they join.
Experiments and the CLI both come through here, so a spec means the
same world everywhere.

Determinism contract (the identity harness in
``tests/test_scenario_identity.py`` pins this): construction order and
RNG stream names are load-bearing. APs are wired in deployment order
(``open_sites()`` for generated worlds, spec order for explicit ones);
each AP and its DHCP server share the ``ap:{name}`` stream; the
deployment generator draws from ``deployment``; Spider drivers share
the single ``spider`` stream and FatVAP drivers the ``fatvap`` stream.
Changing any of these reorders RNG draws and silently changes every
result.
"""

from __future__ import annotations

import gc
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import SpiderConfig
from repro.core.fatvap import FatVapConfig, FatVapDriver
from repro.core.spider import SpiderDriver
from repro.drivers.multicard import MultiCardDriver
from repro.drivers.stock import StockConfig, StockDriver
from repro.mac.ap import AccessPoint, ApConfig
from repro.net.backhaul import ApRouter, WiredBackhaul
from repro.net.dhcp import DhcpServer, DhcpServerConfig
from repro.net.tcp import TcpConfig
from repro.obs import trace as tr
from repro.obs.spans import SPAN_SCENARIO_BUILD, current_profiler
from repro.phy.partition import MediumPartitions, Region
from repro.phy.propagation import PropagationModel
from repro.phy.radio import Medium
from repro.scenario.results import RunResult, result_from_driver
from repro.scenario.spec import DriverSpec, PartitionSpec, ScenarioSpec, SpecError
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.world.deployment import (
    Deployment,
    DeploymentConfig,
    MetroConfig,
    generate_deployment,
    generate_metro_deployment,
)
from repro.world.geometry import Point
from repro.world.mobility import (
    LoopRouteMobility,
    MobilityModel,
    StaticMobility,
    rectangular_loop,
)


class BuildError(ValueError):
    """A spec that validates but cannot be wired into a world."""


class World:
    """A fully-connected simulated world: sim, medium, APs, routers.

    Construct via :func:`build`; direct construction is for the
    compatibility scenario classes in ``repro.experiments.common``.
    """

    def __init__(
        self,
        seed: int,
        propagation: PropagationModel,
        wired_latency: float = 0.075,
        name: str = "adhoc",
    ):
        self.name = name
        self.seed = seed
        self.sim = Simulator()
        self.streams = RandomStreams(seed)
        self.medium = Medium(self.sim, propagation, self.streams)
        self.wired_latency = wired_latency
        self.aps: Dict[str, AccessPoint] = {}
        #: The routers wired so far; ``router(name)`` wires the rest.
        self.routers: Dict[str, ApRouter] = {}
        #: ``(backhaul_bps, beta_min, beta_max, wired_latency)`` of each
        #: AP whose wired side is not built yet, popped when it is.
        self._unwired: Dict[str, Tuple[float, float, float, float]] = {}
        #: ``router`` bound once: every AP's ``on_first_client`` is this
        #: one object, not a callable of its own.
        self._wire_on_first_client = self.router
        #: Per-region mediums + edge handoff; ``None`` until the spec's
        #: ``[[partitions]]`` are enabled (legacy worlds stay on the
        #: single shared ``medium``).
        self.partitions: Optional[MediumPartitions] = None
        #: Loop worlds share one mobility model across drivers; static
        #: worlds hand each driver its own ``StaticMobility`` (matching
        #: the historical lab wiring exactly).
        self.mobility: Optional[MobilityModel] = None
        self.client_position: Optional[Point] = None
        self.deployment: Optional[Deployment] = None
        self.spec: Optional[ScenarioSpec] = None

    # -- wiring -----------------------------------------------------------

    def enable_partitions(
        self, partitions: Sequence[PartitionSpec], handoff_period_s: float = 1.0
    ) -> None:
        """Split the world into per-region mediums (before any AP wiring).

        Each declared region gets its own ``Medium`` drawing loss from
        its own ``phy:{region}`` RNG stream; the world's original
        ``medium`` serves everything outside every region. Regions are
        installed in spec order — the declaration-order-wins overlap
        rule of ``MediumPartitions.medium_for``.
        """
        if self.partitions is not None:
            raise BuildError("partitions already enabled")
        if self.aps:
            raise BuildError("enable partitions before wiring APs")
        self.partitions = MediumPartitions(self.sim, self.medium, handoff_period_s)
        for part in partitions:
            medium = Medium(
                self.sim,
                self.medium.propagation,
                self.streams,
                stream_name=f"phy:{part.name}",
            )
            self.partitions.add_region(
                Region(part.name, part.x_min, part.y_min, part.x_max, part.y_max), medium
            )

    def medium_for(self, position: Point) -> Medium:
        """The medium serving ``position`` (the shared one if unsplit)."""
        if self.partitions is not None:
            return self.partitions.medium_for(position)
        return self.medium

    def add_ap(
        self,
        name: str,
        channel: int,
        position: Point,
        backhaul_bps: float,
        beta_min: float,
        beta_max: float,
        wired_latency: Optional[float] = None,
        ap_config: Optional[ApConfig] = None,
    ) -> AccessPoint:
        """Add one AP: its radio now, its wired side on first use.

        The DHCP server, shaped backhaul and router are built by
        :meth:`router` — on the AP's first client frame, a driver's
        ``router_lookup``, or failure injection — from the parameters
        kept here. An AP that only ever hears beacons never pays for
        them.

        The AP and its DHCP server share the ``ap:{name}`` RNG stream —
        one stream per AP keeps per-AP behaviour independent of how
        many other APs exist. The stream is parked once the AP has
        drawn its beacon phase, so an AP no client joins holds a seed
        and a draw count rather than a generator state.
        """
        if name in self.aps:
            raise BuildError(f"duplicate AP name {name!r}")
        if not backhaul_bps > 0:
            raise BuildError(f"AP {name!r}: backhaul_bps must be positive")
        if wired_latency is None:
            wired_latency = self.wired_latency
        rng = self.streams.parked(f"ap:{name}")
        ap = AccessPoint(
            self.sim,
            self.medium_for(position),
            name,
            channel,
            position,
            config=ap_config,
            rng=rng,
        )
        ap.on_first_client = self._wire_on_first_client
        self._unwired[name] = (backhaul_bps, beta_min, beta_max, wired_latency)
        self.aps[name] = ap
        ap.start()
        rng.park()
        return ap

    def router(self, name: str) -> Optional[ApRouter]:
        """The router of AP ``name``, wiring its wired side on first use.

        The first call builds the AP's DHCP server (on the AP's own
        ``ap:{name}`` stream), backhaul and router; later calls return
        the same router. None of these constructors schedules an event
        or draws a number, so when this runs changes no result. ``None``
        for a name the world has no AP for.
        """
        router = self.routers.get(name)
        if router is not None:
            return router
        params = self._unwired.pop(name, None)
        if params is None:
            return None
        backhaul_bps, beta_min, beta_max, wired_latency = params
        dhcp = DhcpServer(
            self.sim,
            name,
            config=DhcpServerConfig(beta_min=beta_min, beta_max=beta_max),
            rng=self.streams.parked(f"ap:{name}"),
        )
        backhaul = WiredBackhaul(self.sim, backhaul_bps, latency_s=wired_latency)
        router = self.routers[name] = ApRouter(self.sim, self.aps[name], backhaul, dhcp)
        return router

    def add_lab_ap(
        self,
        name: str,
        channel: int,
        backhaul_bps: float,
        beta_min: float = 0.2,
        beta_max: float = 1.0,
        distance_m: float = 10.0,
        index: int = 0,
        ap_config: Optional[ApConfig] = None,
    ) -> AccessPoint:
        """Hand-placed indoor AP at ``(distance_m, index)`` metres."""
        position = Point(distance_m, float(index))
        return self.add_ap(
            name,
            channel,
            position,
            backhaul_bps,
            beta_min,
            beta_max,
            self.wired_latency,
            ap_config=ap_config,
        )

    def populate_loop(
        self,
        route_width: float,
        route_height: float,
        speed: float,
        deployment: DeploymentConfig,
        wired_latency: Optional[float] = None,
    ) -> None:
        """Vehicular wiring: loop mobility + generated roadside APs.

        Order is part of the determinism contract: the route and
        mobility first, then one ``deployment``-stream generation
        pass, then APs in ``open_sites()`` order.
        """
        if wired_latency is None:
            wired_latency = self.wired_latency
        route = rectangular_loop(route_width, route_height)
        self.mobility = LoopRouteMobility(route, speed)
        self.deployment = generate_deployment(
            route, deployment, self.streams.get(deployment.seed_label)
        )
        for site in self.deployment.open_sites():
            self.add_ap(
                site.name,
                site.channel,
                site.position,
                site.backhaul_bps,
                site.beta_min,
                site.beta_max,
                wired_latency,
            )

    def populate_metro(self, config: MetroConfig, wired_latency: Optional[float] = None) -> None:
        """City-scale wiring: the block-grid AP field, in site order.

        Mobility (if any) is laid over the grid by the caller first —
        same mobility-then-deployment order as ``populate_loop``. Each
        AP registers with the medium serving its position, so a
        partitioned world shards the fleet across regions here.
        """
        if wired_latency is None:
            wired_latency = self.wired_latency
        self.deployment = generate_metro_deployment(config, self.streams.get("deployment"))
        for site in self.deployment.open_sites():
            self.add_ap(
                site.name,
                site.channel,
                site.position,
                site.backhaul_bps,
                site.beta_min,
                site.beta_max,
                wired_latency,
            )

    def router_lookup(self) -> Callable[[str], Optional[ApRouter]]:
        return self.router

    def static_mobility(self) -> StaticMobility:
        position = self.client_position if self.client_position is not None else Point(0.0, 0.0)
        return StaticMobility(position)

    def _driver_mobility(self) -> MobilityModel:
        if self.mobility is not None:
            return self.mobility
        return self.static_mobility()

    def _driver_medium(self) -> Medium:
        """The medium serving the driver's start position.

        Unsplit worlds always answer the shared medium; partitioned
        worlds home the client where it begins — the handoff poll
        (``MediumPartitions``) re-homes it as it crosses edges.
        """
        if self.partitions is None:
            return self.medium
        return self.partitions.medium_for(self._driver_mobility().position(0.0))

    def _manage_driver(self, driver: Any) -> Any:
        """Enroll the driver's card(s) for partition-edge handoff."""
        if self.partitions is not None:
            cards = getattr(driver, "drivers", None)
            for radio in [card.radio for card in cards] if cards else [driver.radio]:
                self.partitions.manage(radio)
        return driver

    # -- driver factories -------------------------------------------------

    def make_spider(self, config: SpiderConfig, address: str = "spider") -> SpiderDriver:
        return self._manage_driver(
            SpiderDriver(
                self.sim,
                self._driver_medium(),
                self._driver_mobility(),
                address=address,
                config=config,
                router_lookup=self.router_lookup(),
                rng=self.streams.get("spider"),
            )
        )

    def make_stock(
        self, config: Optional[StockConfig] = None, address: str = "stock"
    ) -> StockDriver:
        return self._manage_driver(
            StockDriver(
                self.sim,
                self._driver_medium(),
                self._driver_mobility(),
                address,
                config=config or StockConfig(),
                router_lookup=self.router_lookup(),
            )
        )

    def make_fatvap(
        self, config: Optional[FatVapConfig] = None, address: str = "fatvap"
    ) -> FatVapDriver:
        return self._manage_driver(
            FatVapDriver(
                self.sim,
                self._driver_medium(),
                self._driver_mobility(),
                address,
                config=config or FatVapConfig(),
                router_lookup=self.router_lookup(),
                rng=self.streams.get("fatvap"),
            )
        )

    def make_multicard(self, cards: int = 2, address: str = "multicard") -> MultiCardDriver:
        return self._manage_driver(
            MultiCardDriver(
                self.sim,
                self._driver_medium(),
                self._driver_mobility(),
                address,
                cards=cards,
                router_lookup=self.router_lookup(),
            )
        )

    def make_driver(self, spec: DriverSpec, address: str):
        """Instantiate one driver from its spec entry."""
        if spec.kind == "spider":
            return self.make_spider(_spider_config(spec.config), address=address)
        if spec.kind == "stock":
            return self.make_stock(_stock_config(spec.config), address=address)
        if spec.kind == "fatvap":
            return self.make_fatvap(_fatvap_config(spec.config), address=address)
        if spec.kind == "multicard":
            if spec.config:
                raise SpecError("multicard drivers take no config table (only 'cards')")
            return self.make_multicard(cards=spec.cards, address=address)
        raise SpecError(f"unknown driver kind {spec.kind!r}")

    # -- execution --------------------------------------------------------

    def run(self, driver, duration: float) -> RunResult:
        """Drive one client for ``duration`` sim-seconds and extract."""
        trace = self.sim.trace
        if trace is not None:
            trace.emit(
                tr.SCENARIO_RUN,
                self.sim.now,
                scenario=self.name,
                driver=driver.address,
                duration=duration,
            )
        driver.start()
        self.sim.run(until=self.sim.now + duration)
        driver.stop()
        return result_from_driver(driver, duration)


# -- spec → world -----------------------------------------------------------


def build(spec: ScenarioSpec) -> World:
    """Assemble the world a spec describes. Pure function of the spec.

    With an ambient span profiler installed, construction is recorded
    as one ``scenario.build`` span (scenario, seed, AP count). The
    cyclic garbage collector is paused while the world is wired.
    """
    spans = current_profiler()
    if spans is not None:
        with spans.span(SPAN_SCENARIO_BUILD, scenario=spec.name, seed=spec.seed) as span:
            world = _build_paused(spec)
            span.add(aps=len(world.aps))
        return world
    return _build_paused(spec)


def _build_paused(spec: ScenarioSpec) -> World:
    """``_build`` with the cyclic garbage collector paused.

    Wiring a world allocates only long-lived objects and no garbage
    cycles, yet a large world (``metro-core``: ~347k tracked objects)
    trips several full collections on the way, each re-scanning the
    half-built world to free nothing. The collector is re-enabled only
    if it was enabled on entry, so callers that paused it themselves
    keep it paused.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _build(spec)
    finally:
        if was_enabled:
            gc.enable()


def _build(spec: ScenarioSpec) -> World:
    spec = spec.validated()
    propagation = PropagationModel(
        range_m=spec.propagation.range_m,
        base_loss=spec.propagation.base_loss,
        edge_start=spec.propagation.edge_start,
    )
    world = World(spec.seed, propagation, spec.wired_latency, name=spec.name)
    world.spec = spec
    if spec.partitions:
        world.enable_partitions(spec.partitions, spec.phy.handoff_period_s)

    if spec.mobility.kind == "static":
        world.client_position = Point(spec.mobility.x, spec.mobility.y)

    if spec.deployment.kind == "generated":
        # Spec validation guarantees loop mobility here; populate_loop
        # builds the route, the mobility, and the generated APs in the
        # historical (identity-pinned) order.
        world.populate_loop(
            spec.mobility.route_width,
            spec.mobility.route_height,
            spec.mobility.speed,
            _deployment_config(spec),
            spec.wired_latency,
        )
    elif spec.deployment.kind == "metro":
        if spec.mobility.kind == "loop":
            route = rectangular_loop(spec.mobility.route_width, spec.mobility.route_height)
            world.mobility = LoopRouteMobility(route, spec.mobility.speed)
        world.populate_metro(_metro_config(spec), spec.wired_latency)
    else:
        if spec.mobility.kind == "loop":
            route = rectangular_loop(spec.mobility.route_width, spec.mobility.route_height)
            world.mobility = LoopRouteMobility(route, spec.mobility.speed)
        for ap in spec.deployment.aps:
            world.add_ap(
                ap.name,
                ap.channel,
                Point(ap.x, ap.y),
                ap.backhaul_bps,
                ap.beta_min,
                ap.beta_max,
                spec.wired_latency,
            )

    for failure in spec.failures:
        if failure.ap not in world.aps:
            raise BuildError(
                f"failure targets unknown AP {failure.ap!r} "
                f"(world has: {', '.join(sorted(world.aps)) or 'none'})"
            )
        if failure.kind == "ap-outage":
            world.sim.schedule_at(failure.at, _ap_outage, world, failure.ap)
        else:  # dhcp-wedge, per spec validation
            world.sim.schedule_at(failure.at, _dhcp_wedge, world, failure.ap)

    trace = world.sim.trace
    if trace is not None:
        trace.emit(
            tr.SCENARIO_BUILD,
            world.sim.now,
            scenario=spec.name,
            seed=spec.seed,
            aps=len(world.aps),
            spec_digest=spec.digest(),
        )
    return world


def _deployment_config(spec: ScenarioSpec) -> DeploymentConfig:
    dep = spec.deployment
    kwargs: Dict[str, Any] = dict(
        density_per_km=dep.density_per_km,
        lateral_spread=dep.lateral_spread,
        cluster_size_mean=dep.cluster_size_mean,
        cluster_radius=dep.cluster_radius,
        backhaul_bps_min=dep.backhaul_bps_min,
        backhaul_bps_max=dep.backhaul_bps_max,
        beta_min_range=tuple(dep.beta_min_range),
        beta_max_range=tuple(dep.beta_max_range),
        open_fraction=dep.open_fraction,
    )
    if dep.channel_mix is not None:
        kwargs["channel_mix"] = dict(dep.channel_mix)
    return DeploymentConfig(**kwargs)


def _metro_config(spec: ScenarioSpec) -> MetroConfig:
    dep = spec.deployment
    kwargs: Dict[str, Any] = dict(
        blocks_x=dep.blocks_x,
        blocks_y=dep.blocks_y,
        block_m=dep.block_m,
        aps_per_block=dep.aps_per_block,
        backhaul_bps_min=dep.backhaul_bps_min,
        backhaul_bps_max=dep.backhaul_bps_max,
        beta_min_range=tuple(dep.beta_min_range),
        beta_max_range=tuple(dep.beta_max_range),
        open_fraction=dep.open_fraction,
    )
    if dep.channel_mix is not None:
        kwargs["channel_mix"] = dict(dep.channel_mix)
    return MetroConfig(**kwargs)


# -- failure injection ------------------------------------------------------


def _ap_outage(world: World, name: str) -> None:
    """Power the AP off: daemon stops, radio hears nothing ever again."""
    ap = world.aps[name]
    ap.stop()
    ap.radio.go_deaf(1e9)


def _dhcp_wedge(world: World, name: str) -> None:
    """The AP's DHCP daemon hangs: it receives but never answers."""
    world.router(name).dhcp_server.send = lambda client, message: None


# -- driver-config construction ---------------------------------------------


def _base_config(data: Dict[str, Any]) -> Dict[str, Any]:
    data = dict(data)
    tcp = data.get("tcp")
    if isinstance(tcp, dict):
        try:
            data["tcp"] = TcpConfig(**tcp)
        except TypeError as error:
            raise SpecError(f"bad tcp config: {error}") from error
    return data


def _spider_config(data: Dict[str, Any]) -> SpiderConfig:
    data = _base_config(data)
    schedule = data.get("schedule")
    if isinstance(schedule, dict):
        # TOML table keys are strings; the scheduler wants channel ints.
        try:
            data["schedule"] = {int(ch): float(share) for ch, share in schedule.items()}
        except (TypeError, ValueError) as error:
            raise SpecError(f"bad spider schedule: {error}") from error
    try:
        return SpiderConfig(**data)
    except (TypeError, ValueError) as error:
        raise SpecError(f"bad spider config: {error}") from error


def _stock_config(data: Dict[str, Any]) -> StockConfig:
    data = _base_config(data)
    if "scan_channels" in data:
        data["scan_channels"] = tuple(data["scan_channels"])
    try:
        return StockConfig(**data)
    except (TypeError, ValueError) as error:
        raise SpecError(f"bad stock config: {error}") from error


def _fatvap_config(data: Dict[str, Any]) -> FatVapConfig:
    data = _base_config(data)
    if "channels" in data:
        data["channels"] = tuple(data["channels"])
    try:
        return FatVapConfig(**data)
    except (TypeError, ValueError) as error:
        raise SpecError(f"bad fatvap config: {error}") from error


# -- whole-spec execution ---------------------------------------------------


def make_fleet(world: World, spec: ScenarioSpec) -> List[Any]:
    """Instantiate the spec's driver fleet, in spec order.

    A ``count`` > 1 entry becomes ``address0 .. addressN-1`` replicas;
    Spider replicas share the single ``spider`` RNG stream, exactly as
    the contention experiments always have.
    """
    drivers: List[Any] = []
    for entry in spec.drivers:
        base = entry.address or entry.kind
        for index in range(entry.count):
            address = f"{base}{index}" if entry.count > 1 else base
            config = _driver_spec_with_traffic(entry, spec)
            drivers.append(world.make_driver(config, address))
    return drivers


def _driver_spec_with_traffic(entry: DriverSpec, spec: ScenarioSpec) -> DriverSpec:
    if spec.traffic.kind != "none" or entry.kind == "multicard":
        return entry
    config = dict(entry.config)
    config.setdefault("auto_flow", False)
    return DriverSpec(
        kind=entry.kind,
        address=entry.address,
        count=entry.count,
        cards=entry.cards,
        config=config,
    )


def run_spec(spec: Union[ScenarioSpec, Dict[str, Any]]) -> Dict[str, RunResult]:
    """Build, run, and extract: address → :class:`RunResult`.

    The whole fleet starts at t=0 and the world advances once for
    ``spec.duration`` — drivers contend for the medium concurrently.
    """
    if isinstance(spec, dict):
        spec = ScenarioSpec.from_dict(spec)
    spec = spec.validated()
    if not spec.drivers:
        raise BuildError(f"scenario {spec.name!r} declares no drivers")
    world = build(spec)
    drivers = make_fleet(world, spec)
    trace = world.sim.trace
    if trace is not None:
        for driver in drivers:
            trace.emit(
                tr.SCENARIO_RUN,
                world.sim.now,
                scenario=spec.name,
                driver=driver.address,
                duration=spec.duration,
            )
    for driver in drivers:
        driver.start()
    world.sim.run(until=world.sim.now + spec.duration)
    for driver in drivers:
        driver.stop()
    return {driver.address: result_from_driver(driver, spec.duration) for driver in drivers}


def summarize_spec_run(results: Dict[str, RunResult]) -> Dict[str, Dict[str, float]]:
    return {address: result.summary() for address, result in results.items()}


def run_shard(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Picklable shard entry for ``repro.exec``: one spec, one process.

    Shard params are ``{"spec": <canonical spec dict>}`` — the cache
    key is therefore the canonical spec serialization plus code
    version, exactly as the tentpole demands.
    """
    resolved = ScenarioSpec.from_dict(spec)
    results = run_spec(resolved)
    return {
        "scenario": resolved.name,
        "seed": resolved.seed,
        "spec_digest": resolved.digest(),
        "drivers": summarize_spec_run(results),
    }
