"""Unit tests for geometry, mobility, and deployment generation."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.world.deployment import (
    ApSite,
    DeploymentConfig,
    generate_deployment,
)
from repro.world.geometry import Point, distance, interpolate
from repro.world.mobility import (
    ConstantVelocityMobility,
    LoopRouteMobility,
    MobilityModel,
    StaticMobility,
    WaypointMobility,
    rectangular_loop,
)


class TestGeometry:
    def test_distance_is_euclidean(self):
        assert distance(Point(0, 0), Point(3, 4)) == 5.0

    def test_distance_symmetric(self):
        a, b = Point(1, 2), Point(-3, 7)
        assert distance(a, b) == distance(b, a)

    def test_point_addition_and_subtraction(self):
        assert Point(1, 2) + Point(3, 4) == Point(4, 6)
        assert Point(3, 4) - Point(1, 2) == Point(2, 2)

    def test_scaled(self):
        assert Point(2, -3).scaled(2.0) == Point(4, -6)

    def test_norm(self):
        assert Point(3, 4).norm() == 5.0

    def test_interpolate_endpoints_and_midpoint(self):
        a, b = Point(0, 0), Point(10, 20)
        assert interpolate(a, b, 0.0) == a
        assert interpolate(a, b, 1.0) == b
        assert interpolate(a, b, 0.5) == Point(5, 10)

    @given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
           st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
    def test_triangle_inequality(self, x1, y1, x2, y2):
        origin = Point(0, 0)
        a, b = Point(x1, y1), Point(x2, y2)
        assert distance(origin, b) <= distance(origin, a) + distance(a, b) + 1e-6


class TestSlots:
    """A city-scale world holds one of each per AP: none carries a ``__dict__``."""

    def test_fleet_objects_have_no_instance_dict(self):
        site = ApSite("ap0", Point(1.0, 2.0), 6, 1e6, 0.1, 1.0)
        for value in (Point(1.0, 2.0), site, StaticMobility(Point(0.0, 0.0))):
            assert not hasattr(value, "__dict__"), type(value).__name__

    def test_slotted_dataclasses_stay_frozen_and_picklable(self):
        site = ApSite("ap0", Point(1.0, 2.0), 6, 1e6, 0.1, 1.0, open_access=False)
        assert pickle.loads(pickle.dumps(site)) == site
        assert pickle.loads(pickle.dumps(site.position)) == Point(1.0, 2.0)
        assert hash(Point(1.0, 2.0)) == hash(pickle.loads(pickle.dumps(Point(1.0, 2.0))))
        with pytest.raises(AttributeError):
            site.position.x = 3.0


class TestMobility:
    def test_static_never_moves(self):
        model = StaticMobility(Point(5, 5))
        assert model.position(0.0) == model.position(100.0) == Point(5, 5)
        assert model.speed(3.0) == 0.0

    def test_constant_velocity_position(self):
        model = ConstantVelocityMobility(Point(0, 0), Point(10, 0))
        assert model.position(2.0) == Point(20, 0)
        assert model.speed(1.0) == 10.0

    def test_waypoint_progresses_along_segments(self):
        model = WaypointMobility([Point(0, 0), Point(100, 0), Point(100, 100)], speed=10.0)
        assert model.position(5.0) == Point(50, 0)
        mid = model.position(15.0)
        assert mid.x == pytest.approx(100.0)
        assert mid.y == pytest.approx(50.0)

    def test_waypoint_stops_at_route_end(self):
        model = WaypointMobility([Point(0, 0), Point(10, 0)], speed=1.0)
        assert model.position(1000.0) == Point(10, 0)
        assert model.speed(1000.0) == 0.0

    def test_waypoint_requires_two_points(self):
        with pytest.raises(ValueError):
            WaypointMobility([Point(0, 0)], speed=1.0)

    def test_waypoint_requires_positive_speed(self):
        with pytest.raises(ValueError):
            WaypointMobility([Point(0, 0), Point(1, 0)], speed=0.0)

    def test_loop_wraps_around(self):
        model = LoopRouteMobility(rectangular_loop(100, 100), speed=10.0)
        assert model.route_length == pytest.approx(400.0)
        start = model.position(0.0)
        after_lap = model.position(40.0)
        assert distance(start, after_lap) < 1e-6

    def test_loop_constant_speed(self):
        model = LoopRouteMobility(rectangular_loop(100, 50), speed=7.0)
        assert model.speed(123.0) == 7.0

    def test_loop_positions_stay_on_perimeter(self):
        model = LoopRouteMobility(rectangular_loop(100, 100), speed=10.0)
        for t in range(0, 100, 3):
            p = model.position(float(t))
            on_edge = (
                abs(p.x) < 1e-6 or abs(p.x - 100) < 1e-6
                or abs(p.y) < 1e-6 or abs(p.y - 100) < 1e-6
            )
            assert on_edge

    @given(st.floats(0, 1e4))
    @settings(max_examples=30)
    def test_numeric_speed_matches_configured(self, t):
        model = LoopRouteMobility(rectangular_loop(200, 100), speed=12.0)
        # Differentiated speed matches except exactly at corners.
        assert model.speed(t) == 12.0

    def test_numeric_speed_exact_at_time_zero(self):
        # Exercise the *base-class* numeric differentiation against a
        # known constant-velocity position function. At t < dt the
        # backward sample clamps to 0; dividing the clamped span by the
        # full 2*dt used to understate speed by up to 2x at t=0.
        class PositionOnly(MobilityModel):
            def __init__(self, inner):
                self._inner = inner

            def position(self, time):
                return self._inner.position(time)

        model = PositionOnly(ConstantVelocityMobility(Point(0, 0), Point(10, 0)))
        assert model.speed(0.0) == pytest.approx(10.0)
        assert model.speed(0.0005) == pytest.approx(10.0)  # inside the clamp window
        assert model.speed(5.0) == pytest.approx(10.0)


class TestDeployment:
    def test_count_scales_with_density(self):
        route = rectangular_loop(1000, 500)
        sparse = generate_deployment(route, DeploymentConfig(density_per_km=2),
                                     random.Random(1))
        dense = generate_deployment(route, DeploymentConfig(density_per_km=20),
                                    random.Random(1))
        assert len(dense.sites) > len(sparse.sites) * 3

    def test_channel_mix_roughly_respected(self):
        route = rectangular_loop(5000, 5000)
        config = DeploymentConfig(density_per_km=20)
        deployment = generate_deployment(route, config, random.Random(2))
        on_orthogonal = sum(
            1 for s in deployment.sites if s.channel in (1, 6, 11)
        )
        assert on_orthogonal / len(deployment.sites) > 0.85

    def test_sites_near_route(self):
        route = rectangular_loop(1000, 400)
        config = DeploymentConfig()
        deployment = generate_deployment(route, config, random.Random(3))
        bound = config.lateral_spread + config.cluster_radius + 1.0
        for site in deployment.sites:
            assert -bound <= site.position.x <= 1000 + bound
            assert -bound <= site.position.y <= 400 + bound

    def test_beta_ordering_per_site(self):
        route = rectangular_loop(1000, 400)
        deployment = generate_deployment(route, DeploymentConfig(), random.Random(4))
        for site in deployment.sites:
            assert site.beta_min < site.beta_max

    def test_backhaul_within_configured_range(self):
        route = rectangular_loop(1000, 400)
        config = DeploymentConfig(backhaul_bps_min=1e6, backhaul_bps_max=2e6)
        deployment = generate_deployment(route, config, random.Random(5))
        for site in deployment.sites:
            assert 1e6 <= site.backhaul_bps <= 2e6

    def test_open_fraction_zero_closes_everything(self):
        route = rectangular_loop(1000, 400)
        config = DeploymentConfig(open_fraction=0.0)
        deployment = generate_deployment(route, config, random.Random(6))
        assert deployment.open_sites() == []

    def test_deterministic_for_same_rng_seed(self):
        route = rectangular_loop(1000, 400)
        a = generate_deployment(route, DeploymentConfig(), random.Random(7))
        b = generate_deployment(route, DeploymentConfig(), random.Random(7))
        assert [s.position for s in a.sites] == [s.position for s in b.sites]

    def test_on_channel_filter(self):
        route = rectangular_loop(2000, 800)
        deployment = generate_deployment(route, DeploymentConfig(), random.Random(8))
        for channel in deployment.channels():
            for site in deployment.on_channel(channel):
                assert site.channel == channel

    def test_unique_names(self):
        route = rectangular_loop(2000, 800)
        deployment = generate_deployment(route, DeploymentConfig(), random.Random(9))
        names = [s.name for s in deployment.sites]
        assert len(names) == len(set(names))

    def test_clustering_produces_nearby_pairs(self):
        route = rectangular_loop(3000, 1000)
        config = DeploymentConfig(density_per_km=10, cluster_size_mean=4.0)
        deployment = generate_deployment(route, config, random.Random(10))
        near_pairs = 0
        sites = deployment.sites
        for i, a in enumerate(sites):
            for b in sites[i + 1:]:
                if distance(a.position, b.position) < 2 * config.cluster_radius:
                    near_pairs += 1
        assert near_pairs > len(sites) // 4
