"""The spatial fan-out index vs the reference scan (DESIGN.md §6.2).

Every test here runs the same radio population and transmission
sequence through two mediums — ``Medium`` (the grid) and
``OracleMedium`` (the historical full-channel scan, kept in
``tests/phy_oracle.py``) — seeded identically, and asserts the
outcomes are *byte-identical*: the same frames delivered to the same
radios in the same order, the same loss counters, and the same number
of RNG draws consumed (probed by comparing the next draw). That is the digest-identity argument at
unit scale; ``test_scenario_identity.py`` pins it at scenario scale.
"""

import pytest

from repro.mac import frames
from repro.phy.propagation import PropagationModel
from repro.phy.radio import Medium, Radio
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.world.geometry import Point
from repro.world.mobility import StaticMobility, WaypointMobility
from tests.phy_oracle import OracleMedium, oracle_mediums


def _medium(medium_class, range_m=100.0, loss=0.4, seed=7):
    sim = Simulator()
    medium = medium_class(
        sim,
        PropagationModel(range_m=range_m, base_loss=loss, edge_start=0.99),
        RandomStreams(seed),
    )
    return sim, medium


def _static(medium, x, y=0.0, channel=1, name="r"):
    return Radio(medium, StaticMobility(Point(x, y)), channel, name=name, address=name)


def _outcome(sim, medium, radios, sender, shots=6):
    """Fire ``shots`` beacons from ``sender``; the comparable outcome."""
    log = []
    for radio in radios:
        if radio is not sender:
            radio.on_receive = (
                lambda frame, name=radio.name: log.append((name, frame.src))
            )
    for _ in range(shots):
        sender.transmit(frames.beacon(sender.name))
        sim.run()
    counters = [(r.name, r.frames_received, r.frames_lost) for r in radios]
    return log, counters, medium._rng.random()  # probe: same #draws consumed


def _compare(place):
    """Build both mediums, run ``place``, and diff the outcomes."""
    results = []
    for medium_class in (Medium, OracleMedium):
        sim, medium = _medium(medium_class)
        radios, sender = place(sim, medium)
        results.append(_outcome(sim, medium, radios, sender))
    assert results[0] == results[1]
    return results[0]


class TestSpatialOracleIdentity:
    def test_radios_exactly_on_cell_boundaries(self):
        # Cell edge = range_m = 100: positions at exact multiples of
        # the cell size sit on grid lines, and one receiver sits at
        # exactly distance == range (which the oracle *does* roll RNG
        # for — in-range radios at the fringe draw loss).
        def place(sim, medium):
            sender = _static(medium, 100.0, 100.0, name="s")
            radios = [sender]
            for i, (x, y) in enumerate(
                [(0.0, 100.0), (100.0, 0.0), (200.0, 100.0), (100.0, 200.0),
                 (0.0, 0.0), (200.0, 200.0), (100.0, 100.0)]
            ):
                radios.append(_static(medium, x, y, name=f"r{i}"))
            return radios, sender

        log, counters, _ = _compare(place)
        delivered = {name for name, _ in log}
        received = {name for name, got, _ in counters if got}
        assert delivered == received and delivered  # some fringe survivors

    def test_horizon_larger_than_world_bbox(self):
        # range_m = 100 but every radio within a 40 m box: the whole
        # world degenerates into one grid cell (plus its empty
        # neighbours) and the gather must equal the full scan.
        def place(sim, medium):
            sender = _static(medium, 20.0, 20.0, name="s")
            radios = [sender] + [
                _static(medium, 5.0 * i, 40.0 - 5.0 * i, name=f"r{i}") for i in range(8)
            ]
            return radios, sender

        log, counters, _ = _compare(place)
        # Everything is in range, so every non-sender radio appears in
        # the counters with received+lost == shots.
        for name, got, lost in counters:
            if name != "s":
                assert got + lost == 6

    def test_mobile_radio_crossing_cells_mid_run(self):
        # The mobile radio walks 300 m (3 cells) during the shots; the
        # grid never tracks it — it lives in the always-visited mobile
        # set — so it must see exactly the frames the oracle delivers
        # as it drifts out of range.
        def place(sim, medium):
            sender = _static(medium, 0.0, 0.0, name="s")
            rover = Radio(
                medium,
                WaypointMobility([Point(10.0, 0.0), Point(310.0, 0.0)], speed=50.0),
                1,
                name="rover",
                address="rover",
            )
            anchors = [_static(medium, 30.0 * i, 10.0, name=f"a{i}") for i in range(5)]
            return [sender, rover] + anchors, sender

        def shots_over_time(medium_class):
            sim, medium = _medium(medium_class)
            radios, sender = (lambda: place(sim, medium))()
            log = []
            for radio in radios:
                if radio is not sender:
                    radio.on_receive = (
                        lambda frame, name=radio.name: log.append((sim.now, name))
                    )
            for _ in range(8):
                sender.transmit(frames.beacon("s"))
                sim.run()
                sim.schedule(1.0, lambda: None)  # advance: the rover moves
                sim.run()
            return log, [(r.name, r.frames_received, r.frames_lost) for r in radios], (
                medium._rng.random()
            )

        assert shots_over_time(Medium) == shots_over_time(OracleMedium)

    def test_churn_retune_unregister_reregister(self):
        # Index maintenance under churn: retunes move grid entries
        # between channels, unregister/re-register re-pins — delivery
        # stays identical to the oracle throughout.
        def run(medium_class):
            sim, medium = _medium(medium_class)
            sender = _static(medium, 0.0, name="s")
            near = _static(medium, 50.0, name="near")
            far = _static(medium, 250.0, name="far")
            roam = _static(medium, 80.0, channel=6, name="roam")
            log = []
            for radio in (near, far, roam):
                radio.on_receive = lambda frame, name=radio.name: log.append(name)
            sender.transmit(frames.beacon("s"))
            sim.run()
            roam.set_channel(1)  # joins the sender's channel
            sender.transmit(frames.beacon("s"))
            sim.run()
            medium.unregister(near)
            sender.transmit(frames.beacon("s"))
            sim.run()
            medium.register(near)  # re-queues last, re-pins
            sender.transmit(frames.beacon("s"))
            sim.run()
            return log, [(r.frames_received, r.frames_lost) for r in (near, far, roam)], (
                medium._rng.random()
            )

        assert run(Medium) == run(OracleMedium)


class TestStalePinRegression:
    """Satellite: unregister → relocate → re-register must re-pin.

    A static radio's position is pinned at registration; if the pin
    survived re-registration, the fan-out snapshot (and the spatial
    grid cell) would keep serving the *old* position.
    """

    def test_relocated_radio_is_seen_at_new_position(self):
        for medium_class in (Medium, OracleMedium):
            sim, medium = _medium(medium_class, loss=0.0)
            sender = _static(medium, 0.0, name="s")
            mover = _static(medium, 50.0, name="m")
            got = []
            mover.on_receive = got.append
            sender.transmit(frames.beacon("s"))
            sim.run()
            assert len(got) == 1, medium_class.__name__
            # Out of range after relocation: a stale pin would deliver.
            medium.unregister(mover)
            mover.mobility = StaticMobility(Point(500.0, 0.0))
            medium.register(mover)
            sender.transmit(frames.beacon("s"))
            sim.run()
            assert len(got) == 1, f"stale near-pin served ({medium_class.__name__})"
            # And back in range: a stale far-pin would *not* deliver.
            medium.unregister(mover)
            mover.mobility = StaticMobility(Point(10.0, 0.0))
            medium.register(mover)
            sender.transmit(frames.beacon("s"))
            sim.run()
            assert len(got) == 2, f"stale far-pin served ({medium_class.__name__})"

    def test_relocated_radio_changes_grid_cell(self):
        sim, medium = _medium(Medium, loss=0.0)
        mover = _static(medium, 50.0, name="m")
        assert mover._grid_cell == (0, 0)
        medium.unregister(mover)
        mover.mobility = StaticMobility(Point(250.0, 120.0))
        medium.register(mover)
        assert mover._grid_cell == (2, 1)
        # The old cell's bucket is gone entirely (no phantom entry).
        assert (0, 0) not in medium._grid.get(1, {})

    def test_mobility_swap_to_mobile_leaves_grid(self):
        sim, medium = _medium(Medium, loss=0.0)
        mover = _static(medium, 50.0, name="m")
        medium.unregister(mover)
        mover.mobility = WaypointMobility([Point(0.0, 0.0), Point(100.0, 0.0)], speed=10.0)
        medium.register(mover)
        assert not mover._static
        assert mover in medium._mobile.get(1, {})
        assert all(mover not in bucket for bucket in medium._grid.get(1, {}).values())


class TestScenarioOracleIdentity:
    """Scenario-scale proof: grid and reference scan yield identical results."""

    @pytest.mark.parametrize("name", ["metro-core-small", "dense-downtown"])
    def test_run_results_match_oracle(self, name):
        from repro.scenario.build import build, run_spec, summarize_spec_run
        from repro.scenario.registry import scenario

        spec = scenario(name, duration=20.0)
        indexed = summarize_spec_run(run_spec(spec))
        with oracle_mediums():
            world = build(spec)
            oracle = summarize_spec_run(run_spec(spec))
        mediums = world.partitions.mediums if world.partitions else [world.medium]
        assert all(type(medium) is OracleMedium for medium in mediums)
        assert indexed == oracle
