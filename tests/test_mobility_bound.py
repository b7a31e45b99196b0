"""Every mobility model's ``max_speed`` bounds how far it can move.

The PHY's reach horizon (DESIGN.md §6.3) skips a receiver on the
strength of |p(t2) - p(t1)| <= max_speed * (t2 - t1); a model that
overstated its own speed limit would silently drop deliveries.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.world.geometry import Point
from repro.world.mobility import (
    ConstantVelocityMobility,
    LoopRouteMobility,
    MobilityModel,
    StaticMobility,
    WaypointMobility,
)
from repro.world.traces import TraceMobility, TracePoint

coords = st.floats(-2000.0, 2000.0, allow_nan=False)
points = st.builds(Point, coords, coords)
speeds = st.floats(0.5, 40.0)
times = st.floats(-50.0, 2000.0, allow_nan=False)


def _route(draw):
    route = draw(st.lists(points, min_size=2, max_size=6))
    if all(p == route[0] for p in route):
        route.append(Point(route[0].x + 1.0, route[0].y))
    return route


@st.composite
def models(draw):
    kind = draw(st.sampled_from(["static", "velocity", "waypoint", "loop", "trace"]))
    if kind == "static":
        return StaticMobility(draw(points))
    if kind == "velocity":
        velocity = Point(draw(st.floats(-40.0, 40.0)), draw(st.floats(-40.0, 40.0)))
        return ConstantVelocityMobility(draw(points), velocity)
    if kind == "waypoint":
        return WaypointMobility(_route(draw), draw(speeds))
    if kind == "loop":
        return LoopRouteMobility(_route(draw), draw(speeds))
    start = draw(st.floats(0.0, 100.0))
    gaps = draw(st.lists(st.floats(0.1, 60.0), min_size=1, max_size=6))
    samples = [TracePoint(start, draw(points))]
    for gap in gaps:
        samples.append(TracePoint(samples[-1].time + gap, draw(points)))
    return TraceMobility(samples)


def _assert_bounded(model: MobilityModel, t1: float, t2: float) -> None:
    t1, t2 = min(t1, t2), max(t1, t2)
    moved = (model.position(t2) - model.position(t1)).norm()
    assert model.max_speed is not None
    assert moved <= model.max_speed * (t2 - t1) + 1e-9


class TestMaxSpeedBound:
    @given(models(), times, times)
    @settings(max_examples=300, deadline=None)
    def test_displacement_within_speed_bound(self, model, t1, t2):
        _assert_bounded(model, t1, t2)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_loop_route_across_the_wrap(self, data):
        model = LoopRouteMobility(_route(data.draw), data.draw(speeds))
        lap = model.route_length / model.max_speed
        laps = data.draw(st.integers(1, 5))
        before = data.draw(st.floats(0.0, lap))
        after = data.draw(st.floats(0.0, lap))
        _assert_bounded(model, laps * lap - before, laps * lap + after)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_waypoint_past_the_route_end(self, data):
        model = WaypointMobility(_route(data.draw), data.draw(speeds))
        end = model.route_length / model.max_speed
        _assert_bounded(model, data.draw(st.floats(0.0, end)), end + data.draw(times) + 50.0)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_trace_outside_its_samples(self, data):
        model = data.draw(models().filter(lambda m: isinstance(m, TraceMobility)))
        first, last = model._times[0], model._times[-1]
        inside = data.draw(st.floats(first, last))
        _assert_bounded(model, first - data.draw(st.floats(0.0, 100.0)), inside)
        _assert_bounded(model, inside, last + data.draw(st.floats(0.0, 100.0)))
        _assert_bounded(model, first - 1.0, last + 1.0)

    def test_unknown_bound_is_none(self):
        class PositionOnly(MobilityModel):
            def position(self, time):
                return Point(time, 0.0)

        assert PositionOnly().max_speed is None
        assert StaticMobility(Point(1.0, 2.0)).max_speed == 0.0
