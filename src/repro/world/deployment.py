"""AP deployment generation.

Generates the "organic Wi-Fi" environment the paper's cars drove
through: access points scattered near a route, each with a channel
drawn from the measured channel mix, a backhaul bandwidth, a DHCP
responsiveness profile, and an open/closed flag.

Measured channel mixes from the paper (Sec. 4.1):

- Amherst: 28% on ch 1, 33% on ch 6, 34% on ch 11 (5% elsewhere).
- Boston (from Cabernet): 83% on the three orthogonal channels,
  39% on ch 6.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.world.geometry import Point
from repro.world.mobility import WaypointMobility

# Channel → probability. Residual mass goes to the "other" channels,
# which we map onto channels 3 and 9 (overlapping, rarely used).
AMHERST_CHANNEL_MIX: Dict[int, float] = {1: 0.28, 6: 0.33, 11: 0.34, 3: 0.03, 9: 0.02}
BOSTON_CHANNEL_MIX: Dict[int, float] = {1: 0.24, 6: 0.39, 11: 0.20, 3: 0.09, 9: 0.08}


@dataclass(frozen=True, slots=True)
class ApSite:
    """One generated access point site."""

    name: str
    position: Point
    channel: int
    backhaul_bps: float
    beta_min: float  # fastest AP-side join response (s)
    beta_max: float  # slowest AP-side join response (s)
    open_access: bool = True


@dataclass
class DeploymentConfig:
    """Parameters of the generated environment.

    ``density_per_km`` is open APs per kilometre of route — the knob for
    the Sec. 4.4 AP-density experiments. ``lateral_spread`` scatters APs
    off the road (houses / storefronts), which produces the realistic
    variety of encounter durations the paper reports (median 8 s,
    mean 22 s at town speeds).
    """

    density_per_km: float = 6.0
    channel_mix: Dict[int, float] = field(default_factory=lambda: dict(AMHERST_CHANNEL_MIX))
    lateral_spread: float = 80.0
    #: Mean APs per cluster. Organic deployments cluster (storefront
    #: rows, apartment blocks): clusters are where a multi-AP client
    #: aggregates several backhauls at once.
    cluster_size_mean: float = 3.5
    cluster_radius: float = 50.0
    #: Fat residential/campus backhauls (the paper's Fig. 10c shows
    #: instantaneous rates up to ~1 MB/s): fast links make off-channel
    #: absences overflow AP power-save buffers, which is what strangles
    #: fractional-channel schedules.
    backhaul_bps_min: float = 1.0e6
    backhaul_bps_max: float = 10.0e6
    #: Per-AP join responsiveness β (see DhcpServerConfig): calibrated
    #: so the median assoc+DHCP join lands at ~1.3 s with reduced
    #: timers and ~2.5 s with stock timers (paper Fig. 6).
    beta_min_range: tuple = (0.15, 0.6)
    beta_max_range: tuple = (1.0, 4.0)
    open_fraction: float = 1.0
    seed_label: str = "deployment"


@dataclass
class Deployment:
    """A generated set of AP sites plus the route they line."""

    sites: List[ApSite]
    route_length: float

    def on_channel(self, channel: int) -> List[ApSite]:
        return [site for site in self.sites if site.channel == channel]

    def channels(self) -> List[int]:
        return sorted({site.channel for site in self.sites})

    def open_sites(self) -> List[ApSite]:
        return [site for site in self.sites if site.open_access]


def _draw_channel(rng: random.Random, mix: Dict[int, float]) -> int:
    channels = list(mix.keys())
    weights = [mix[ch] for ch in channels]
    return rng.choices(channels, weights=weights, k=1)[0]


def generate_deployment(
    route_waypoints: Sequence[Point],
    config: Optional[DeploymentConfig] = None,
    rng: Optional[random.Random] = None,
) -> Deployment:
    """Scatter APs near a route according to ``config``.

    A Poisson *cluster* process: cluster centres are drawn uniformly
    along the route arc length and displaced laterally; each cluster
    holds a geometric number of APs (mean ``cluster_size_mean``) within
    ``cluster_radius`` of the centre. The total AP count is
    ``density_per_km × route_km`` (rounded), jittered by the RNG.
    Clustering matters: it creates the dense spots where a multi-AP
    client aggregates several same-channel backhauls at once.
    """
    config = config or DeploymentConfig()
    rng = rng or random.Random(0)

    route = WaypointMobility(list(route_waypoints) + [route_waypoints[0]], speed=1.0)
    route_km = route.route_length / 1000.0
    expected = config.density_per_km * route_km
    count = max(1, int(round(rng.gauss(expected, expected ** 0.5))))

    sites: List[ApSite] = []
    remaining = count
    geometric_p = 1.0 / max(config.cluster_size_mean, 1.0)
    while remaining > 0:
        offset = rng.uniform(0.0, route.route_length)
        anchor = route._point_at_offset(offset)
        center = Point(
            anchor.x + rng.uniform(-config.lateral_spread, config.lateral_spread),
            anchor.y + rng.uniform(-config.lateral_spread, config.lateral_spread),
        )
        cluster_size = min(remaining, _geometric(rng, geometric_p))
        for _ in range(cluster_size):
            index = count - remaining
            remaining -= 1
            position = Point(
                center.x + rng.uniform(-config.cluster_radius, config.cluster_radius),
                center.y + rng.uniform(-config.cluster_radius, config.cluster_radius),
            )
            beta_min = rng.uniform(*config.beta_min_range)
            beta_max = max(beta_min + 0.1, rng.uniform(*config.beta_max_range))
            sites.append(
                ApSite(
                    name=f"ap{index}",
                    position=position,
                    channel=_draw_channel(rng, config.channel_mix),
                    backhaul_bps=rng.uniform(config.backhaul_bps_min, config.backhaul_bps_max),
                    beta_min=beta_min,
                    beta_max=beta_max,
                    open_access=rng.random() < config.open_fraction,
                )
            )
    return Deployment(sites=sites, route_length=route.route_length)


def _geometric(rng: random.Random, p: float) -> int:
    """Geometric draw on {1, 2, ...} with mean 1/p."""
    draws = 1
    while rng.random() >= p and draws < 8:
        draws += 1
    return draws


@dataclass
class MetroConfig:
    """Parameters of a city-block grid deployment.

    A metro core is tiled as ``blocks_x × blocks_y`` square blocks of
    ``block_m`` per side; each block holds a Poisson-distributed
    number of APs (mean ``aps_per_block``) scattered uniformly inside
    it. Channel/backhaul/DHCP knobs mean the same as in
    :class:`DeploymentConfig` — the per-AP profile machinery is
    shared, only the placement process differs.
    """

    blocks_x: int = 10
    blocks_y: int = 10
    block_m: float = 120.0
    aps_per_block: float = 2.0
    channel_mix: Dict[int, float] = field(default_factory=lambda: dict(AMHERST_CHANNEL_MIX))
    backhaul_bps_min: float = 1.0e6
    backhaul_bps_max: float = 10.0e6
    beta_min_range: tuple = (0.15, 0.6)
    beta_max_range: tuple = (1.0, 4.0)
    open_fraction: float = 1.0


def _poisson(rng: random.Random, mean: float) -> int:
    """Knuth's Poisson draw (mean is a handful, so the loop is short)."""
    limit = math.exp(-mean)
    count = 0
    product = rng.random()
    while product > limit:
        count += 1
        product *= rng.random()
    return count


def generate_metro_deployment(
    config: Optional[MetroConfig] = None,
    rng: Optional[random.Random] = None,
) -> Deployment:
    """Tile a city-block grid with Poisson-count APs per block.

    Blocks are visited row-major (y outer, x inner) and AP names are
    ``ap{index}`` in visit order, so the whole deployment — counts,
    positions, channels, profiles — is a pure function of the config
    and the RNG state, exactly like :func:`generate_deployment`.
    ``route_length`` reports the grid's east-west extent (there is no
    route; callers lay mobility over the grid separately).
    """
    config = config or MetroConfig()
    rng = rng or random.Random(0)

    block = config.block_m
    sites: List[ApSite] = []
    for block_y in range(config.blocks_y):
        for block_x in range(config.blocks_x):
            x0 = block_x * block
            y0 = block_y * block
            for _ in range(_poisson(rng, config.aps_per_block)):
                position = Point(x0 + rng.uniform(0.0, block), y0 + rng.uniform(0.0, block))
                beta_min = rng.uniform(*config.beta_min_range)
                beta_max = max(beta_min + 0.1, rng.uniform(*config.beta_max_range))
                sites.append(
                    ApSite(
                        name=f"ap{len(sites)}",
                        position=position,
                        channel=_draw_channel(rng, config.channel_mix),
                        backhaul_bps=rng.uniform(config.backhaul_bps_min, config.backhaul_bps_max),
                        beta_min=beta_min,
                        beta_max=beta_max,
                        open_access=rng.random() < config.open_fraction,
                    )
                )
    return Deployment(sites=sites, route_length=config.blocks_x * block)
