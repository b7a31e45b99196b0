"""Partitioned mediums: regions, routing, and edge handoff."""

import pytest

from repro.mac import frames
from repro.obs import trace as tr
from repro.obs.trace import TraceBus
from repro.phy.partition import MediumPartitions, Region
from repro.phy.propagation import PropagationModel
from repro.phy.radio import Medium, Radio
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.world.geometry import Point
from repro.world.mobility import StaticMobility, WaypointMobility


def _sim_with_mediums(n_regions=2, handoff_period_s=0.5):
    sim = Simulator()
    streams = RandomStreams(3)
    propagation = PropagationModel(range_m=100.0, base_loss=0.0, edge_start=0.99)
    default = Medium(sim, propagation, streams)
    parts = MediumPartitions(sim, default, handoff_period_s=handoff_period_s)
    mediums = []
    for index in range(n_regions):
        medium = Medium(sim, propagation, streams, stream_name=f"phy:region{index}")
        parts.add_region(
            Region(f"region{index}", 200.0 * index, 0.0, 200.0 * (index + 1), 200.0), medium
        )
        mediums.append(medium)
    return sim, parts, default, mediums


class TestRegion:
    def test_contains_is_half_open(self):
        region = Region("r", 0.0, 0.0, 100.0, 100.0)
        assert region.contains(Point(0.0, 0.0))
        assert region.contains(Point(99.999, 50.0))
        assert not region.contains(Point(100.0, 50.0))  # x_max excluded
        assert not region.contains(Point(50.0, 100.0))  # y_max excluded
        assert not region.contains(Point(-0.001, 50.0))


class TestMediumPartitions:
    def test_medium_for_declaration_order_and_default(self):
        sim, parts, default, (west, east) = _sim_with_mediums()
        assert parts.medium_for(Point(10.0, 10.0)) is west
        assert parts.medium_for(Point(210.0, 10.0)) is east
        assert parts.medium_for(Point(200.0, 10.0)) is east  # shared edge: east's half
        assert parts.medium_for(Point(999.0, 999.0)) is default
        assert parts.region_for(Point(999.0, 999.0)) is None
        assert parts.region_for(Point(10.0, 10.0)).name == "region0"

    def test_overlapping_regions_first_declared_wins(self):
        sim = Simulator()
        streams = RandomStreams(3)
        default = Medium(sim, PropagationModel(), streams)
        parts = MediumPartitions(sim, default)
        a = Medium(sim, PropagationModel(), streams, stream_name="phy:a")
        b = Medium(sim, PropagationModel(), streams, stream_name="phy:b")
        parts.add_region(Region("a", 0.0, 0.0, 100.0, 100.0), a)
        parts.add_region(Region("b", 0.0, 0.0, 200.0, 200.0), b)
        assert parts.medium_for(Point(50.0, 50.0)) is a
        assert parts.medium_for(Point(150.0, 150.0)) is b

    def test_duplicate_region_name_rejected(self):
        sim, parts, default, _ = _sim_with_mediums()
        with pytest.raises(ValueError, match="duplicate region"):
            parts.add_region(
                Region("region0", 500.0, 0.0, 600.0, 100.0),
                Medium(sim, PropagationModel(), RandomStreams(3), stream_name="phy:dup"),
            )

    def test_bad_handoff_period_rejected(self):
        sim = Simulator()
        default = Medium(sim, PropagationModel(), RandomStreams(1))
        with pytest.raises(ValueError, match="handoff_period_s"):
            MediumPartitions(sim, default, handoff_period_s=0.0)

    def test_mediums_lists_default_first_without_duplicates(self):
        sim, parts, default, (west, east) = _sim_with_mediums()
        assert parts.mediums == [default, west, east]

    def test_handoff_moves_radio_between_mediums(self):
        sim, parts, default, (west, east) = _sim_with_mediums()
        rover = Radio(
            west,
            WaypointMobility([Point(150.0, 50.0), Point(350.0, 50.0)], speed=100.0),
            1,
            name="rover",
            address="rover",
        )
        parts.manage(rover)
        sim.run(until=2.5)  # crosses x=200 at t=0.5; polled every 0.5 s
        assert rover.medium is east
        assert rover not in west._radios
        assert rover in east._radios
        assert parts.handoffs == 1

    def test_handoff_emits_trace_event(self):
        sim, parts, default, (west, east) = _sim_with_mediums()
        bus = TraceBus()
        bus.attach(sim)
        events = []
        bus.subscribe(events.append)
        rover = Radio(
            west,
            WaypointMobility([Point(150.0, 50.0), Point(350.0, 50.0)], speed=100.0),
            1,
            name="rover",
            address="rover",
        )
        parts.manage(rover)
        sim.run(until=1.5)
        handoffs = [e for e in events if e.kind == tr.PHY_PARTITION_HANDOFF]
        assert len(handoffs) == 1
        assert handoffs[0].fields["radio"] == "rover"
        assert handoffs[0].fields["from_region"] == "region0"
        assert handoffs[0].fields["to_region"] == "region1"

    def test_static_radio_is_never_handed_off(self):
        sim, parts, default, (west, east) = _sim_with_mediums()
        anchor = Radio(west, StaticMobility(Point(50.0, 50.0)), 1, name="a", address="a")
        parts.manage(anchor)
        sim.run(until=3.0)
        assert anchor.medium is west and parts.handoffs == 0

    def test_manage_is_idempotent_and_lazy(self):
        sim, parts, default, _ = _sim_with_mediums()
        assert sim.pending_events == 0  # no poll timer before any enrollment
        rover = Radio(default, StaticMobility(Point(900.0, 900.0)), 1, name="r", address="r")
        parts.manage(rover)
        parts.manage(rover)
        assert list(parts._managed) == [rover]

    def test_delivery_is_isolated_per_region(self):
        sim, parts, default, (west, east) = _sim_with_mediums()
        # Same channel, in radio range geometrically — but different
        # mediums, so no delivery crosses the partition boundary.
        tx = Radio(west, StaticMobility(Point(195.0, 50.0)), 1, name="tx", address="tx")
        rx = Radio(east, StaticMobility(Point(205.0, 50.0)), 1, name="rx", address="rx")
        got = []
        rx.on_receive = got.append
        tx.transmit(frames.beacon("tx"))
        sim.run()
        assert got == []


class TestWorldPartitionWiring:
    def test_metro_world_homes_aps_by_position(self):
        from repro.scenario.build import build
        from repro.scenario.registry import scenario

        world = build(scenario("metro-core-small"))
        assert world.partitions is not None
        for ap in world.aps.values():
            assert ap.radio.medium is world.partitions.medium_for(ap.radio.position())
        # Every region medium got some of the fleet; nothing fell
        # through to the default (the quadrants tile the whole grid).
        assert len(world.medium._radios) == 0
        region_counts = [len(m._radios) for m in world.partitions.mediums[1:]]
        assert all(count > 0 for count in region_counts)
        assert sum(region_counts) == len(world.aps)

    def test_driver_enrolled_and_homed_at_start(self):
        from repro.scenario.build import build, make_fleet
        from repro.scenario.registry import scenario

        spec = scenario("metro-core-small")
        world = build(spec)
        (driver,) = make_fleet(world, spec)
        assert driver.radio in world.partitions._managed
        assert driver.radio.medium is world.partitions.medium_for(driver.radio.position())

    def test_heap_depth_does_not_scale_with_the_fleet(self):
        """Per-AP timers wait in lanes: the heap holds lane heads, not APs.

        Each medium's channels hold at most two airtime lane heads
        (broadcast and unicast); beacons, ageing passes and the driver
        add a few more. A per-AP timer back on the heap would take it
        past the fleet size.
        """
        from repro.scenario.build import build, make_fleet
        from repro.scenario.registry import scenario

        spec = scenario("metro-core-small")
        world = build(spec)
        for driver in make_fleet(world, spec):
            driver.start()
        regions = world.partitions.mediums[1:]  # the default medium stays empty
        channels = {ap.channel for ap in world.aps.values()}
        bound = len(regions) * len(channels) * 2 + 8
        assert bound < len(world.aps)
        for until in (0.5, 1.0, 2.0, 5.0):
            world.sim.run(until=until)
            assert world.sim.heap_depth <= bound
            assert world.sim.pending_events > len(world.aps)

    def test_enable_partitions_after_aps_rejected(self):
        from repro.scenario.build import BuildError, build
        from repro.scenario.registry import scenario
        from repro.scenario.spec import PartitionSpec

        world = build(scenario("dense-downtown"))
        with pytest.raises(BuildError, match="before wiring"):
            world.enable_partitions([PartitionSpec("late", 0.0, 0.0, 1.0, 1.0)])

    def test_partition_spec_validation(self):
        from repro.scenario.spec import PartitionSpec, ScenarioSpec, SpecError

        with pytest.raises(SpecError, match="empty bbox"):
            ScenarioSpec(
                partitions=(PartitionSpec("bad", 0.0, 0.0, 0.0, 10.0),)
            ).validated()
        with pytest.raises(SpecError, match="duplicate partition"):
            ScenarioSpec(
                partitions=(
                    PartitionSpec("twin", 0.0, 0.0, 10.0, 10.0),
                    PartitionSpec("twin", 10.0, 0.0, 20.0, 10.0),
                )
            ).validated()
        with pytest.raises(SpecError, match="handoff_period_s"):
            ScenarioSpec().with_phy(handoff_period_s=-1.0).validated()
