"""The PHY delivery path vs the reference scan (DESIGN.md §6.3).

Two layers of proof that the one delivery path — spatial grid, static
pair table, scalar per-entry loop for mobile senders — changes
*nothing observable* relative to the full-channel scan in
``tests/phy_oracle.py``:

- **Loss math has one home.** The broadcast loop's inlined flat-floor
  branch and the unicast ARQ path both owe their loss to
  ``propagation.combined_loss``; the agreement tests pin them
  bit-for-bit across the flat floor, the fringe roll-off, and
  interference extras.
- **Generated-world identity.** ~25 worlds sweeping radio count,
  mobile fraction, channel mix, and interference run the same seeded
  traffic (with mid-run retunes and deafness) through ``Medium`` and
  ``OracleMedium``; counters, delivery logs, drop traces, RSSI, and the
  number of RNG draws consumed must be byte-identical — asserted via
  SHA-256 digests of the canonical outcome.
"""

import hashlib
import json
import math
import random

import pytest

from repro.mac import frames
from repro.phy.propagation import PropagationModel, combined_loss
from repro.phy.radio import Medium, Radio
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.world.geometry import Point
from repro.world.mobility import ConstantVelocityMobility, StaticMobility
from tests.phy_oracle import OracleMedium


# -- loss math: one formula, two call sites -----------------------------------


LOSS_MODELS = [
    PropagationModel(),
    PropagationModel(range_m=120.0, base_loss=0.15, edge_start=0.7),
    PropagationModel(range_m=50.0, base_loss=0.0, edge_start=0.99),
    PropagationModel(range_m=200.0, base_loss=0.4, edge_start=1.0),  # zero-width fringe
]


def _sweep_distances(model):
    """Distances hitting every branch, including exact boundaries."""
    eps = 1e-9
    return [
        0.0,
        model.fringe_start_m / 2,
        model.fringe_start_m - eps,
        model.fringe_start_m,
        model.fringe_start_m + eps,
        (model.fringe_start_m + model.range_m) / 2,
        model.range_m - eps,
        model.range_m,
        model.range_m + eps,
        model.range_m * 2,
    ]


class TestLossAgreement:
    @pytest.mark.parametrize("model", LOSS_MODELS, ids=lambda m: f"r{m.range_m:g}")
    def test_scalar_broadcast_inline_matches_combined_loss(self, model):
        # The broadcast loop inlines the flat-floor branch; the inlined
        # expression must equal the shared helper on every branch.
        for extra in (0.0, 0.3, 1.5):
            for dist in _sweep_distances(model):
                if dist > model.range_m:
                    continue  # the loop skips out-of-range radios entirely
                base = (
                    model.base_loss
                    if dist <= model.fringe_start_m
                    else model.loss_probability(dist)
                )
                loss = base + extra
                inline = loss if loss < 1.0 else 1.0
                assert inline == combined_loss(model, dist, extra)

    def test_unicast_path_uses_combined_loss(self):
        # A static pair's unicast loss sums a cached path loss with the
        # per-frame interference. Pin it to ``combined_loss`` exactly: a
        # draw equal to it must deliver, the next float below must not.
        for model in LOSS_MODELS:
            for extra in (0.0, 0.3, 1.5):
                for dist in _sweep_distances(model):
                    if dist > model.range_m:
                        continue  # out of range: ARQ failure, no draw
                    loss = combined_loss(model, dist, extra)
                    assert _unicast_outcome(model, dist, extra, loss)
                    if loss > 0.0:
                        below = math.nextafter(loss, 0.0)
                        assert not _unicast_outcome(model, dist, extra, below)


def _unicast_outcome(model, dist, extra, draw):
    """Whether one unicast frame over a static ``dist`` m link is delivered.

    Interference is pinned to ``extra`` and the loss draw to ``draw``.
    """
    sim = Simulator()
    medium = Medium(sim, model, RandomStreams(5), max_arq_attempts=1)
    medium.interference_loss = lambda channel: extra
    medium._rng = type("FixedDraw", (), {"random": staticmethod(lambda: draw)})()
    sender = Radio(medium, StaticMobility(Point(0.0, 0.0)), 1, name="a")
    target = Radio(medium, StaticMobility(Point(dist, 0.0)), 1, name="b")
    sender.transmit(frames.data_frame("a", "b", None, 100))
    sim.run()
    return target.frames_received == 1


# -- generated-world identity -------------------------------------------------


_LAYOUTS = {
    "single": (1,),
    "orthogonal": (1, 6, 11),
    "overlap": (1, 3, 6),
}


def _world_params():
    params = []
    for n_static in (8, 30, 64):
        for mobile_frac in (0.0, 0.25):
            for layout in sorted(_LAYOUTS):
                params.append((n_static, mobile_frac, layout, 0.25))
    # Interference ablation on the overlapping mix (the only layout
    # where adjacent-channel loss changes anything).
    for n_static in (30, 64):
        params.append((n_static, 0.25, "overlap", 0.0))
    # Mobile-heavy mixes: the two-pointer static/mobile merge under load.
    for layout in ("orthogonal", "overlap"):
        params.append((30, 0.5, layout, 0.25))
    # Big worlds: mobile senders whose 3×3 snapshots hold dozens of
    # statics, so the per-entry loop (not just the pair table) carries
    # much of the run.
    for mobile_frac in (0.1, 0.5):
        params.append((130, mobile_frac, "single", 0.25))
    params.append((100, 0.25, "overlap", 0.25))
    return params


WORLDS = _world_params()


def _world_id(params):
    # "grid" names the path under test; the reference is the scan.
    n, frac, layout, adj = params
    return f"n{n}-m{int(frac * 100)}-{layout}-grid-adj{int(adj * 100)}"


def _populate(medium, n_static, mobile_frac, channels, seed):
    rng = random.Random(seed)
    radios = []
    for i in range(n_static):
        position = Point(rng.uniform(0.0, 340.0), rng.uniform(0.0, 340.0))
        radios.append(
            Radio(medium, StaticMobility(position), channels[i % len(channels)],
                  name=f"s{i}", address=f"s{i}")
        )
    for j in range(int(n_static * mobile_frac)):
        origin = Point(rng.uniform(0.0, 340.0), rng.uniform(0.0, 340.0))
        velocity = Point(rng.uniform(-25.0, 25.0), rng.uniform(-25.0, 25.0))
        radios.append(
            Radio(medium, ConstantVelocityMobility(origin, velocity),
                  channels[j % len(channels)], name=f"m{j}", address=f"m{j}")
        )
    return radios


def _schedule_traffic(sim, radios, channels, seed):
    """Seeded beacons, retunes, and deafness across the run window."""
    rng = random.Random(seed + 1)
    for radio in radios:
        shots = rng.randrange(2, 5)
        for _ in range(shots):
            sim.schedule(rng.uniform(0.0, 4.0), radio.transmit,
                         frames.beacon(radio.name))
    churners = [r for r in radios if rng.random() < 0.3]
    for radio in churners:
        target = channels[rng.randrange(len(channels))]
        sim.schedule(rng.uniform(0.5, 3.0), radio.set_channel, target)
    for radio in radios:
        if rng.random() < 0.15:
            sim.schedule(rng.uniform(0.0, 3.5), radio.go_deaf,
                         rng.uniform(0.05, 0.6))


def _run_world(medium_class, n_static, mobile_frac, layout, adjacent_loss, seed=17):
    channels = _LAYOUTS[layout]
    sim = Simulator()
    from repro.obs.trace import TraceBus, TraceRecorder

    bus = TraceBus()
    recorder = TraceRecorder(bus)
    bus.attach(sim)
    medium = medium_class(
        sim,
        PropagationModel(range_m=120.0, base_loss=0.15, edge_start=0.7),
        RandomStreams(seed),
        adjacent_channel_loss=adjacent_loss,
    )
    radios = _populate(medium, n_static, mobile_frac, channels, seed)
    log = []
    for radio in radios:
        radio.on_receive = (
            lambda frame, name=radio.name: log.append((sim.now, name, frame.src))
        )
    _schedule_traffic(sim, radios, channels, seed)
    sim.run()
    counters = [
        (r.name, r.channel, r.frames_sent, r.frames_received, r.frames_lost,
         r.last_rssi, r.tx_airtime, r.rx_airtime, r.deaf_time)
        for r in radios
    ]
    trace_log = [
        (e.sim_t, e.kind, tuple(sorted(e.fields.items()))) for e in recorder.events
    ]
    return {
        "log": log,
        "counters": counters,
        "trace": trace_log,
        "rng_probe": medium._rng.random(),  # same #draws consumed
    }


def _digest(outcome):
    text = json.dumps(
        {
            "log": outcome["log"],
            "counters": outcome["counters"],
            "trace": outcome["trace"],
            "rng_probe": outcome["rng_probe"],
        },
        sort_keys=True,
    )
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("params", WORLDS, ids=_world_id)
def test_generated_world_kernel_identity(params):
    oracle = _run_world(OracleMedium, *params)
    medium = _run_world(Medium, *params)
    assert oracle["counters"] == medium["counters"]
    assert oracle["log"] == medium["log"]
    assert oracle["trace"] == medium["trace"]
    assert oracle["rng_probe"] == medium["rng_probe"]
    assert _digest(oracle) == _digest(medium)
    # The worlds must actually do something, or identity proves nothing.
    assert any(got for _, _, _, got, *_ in oracle["counters"])


class TestKernelEngagement:
    """The static pair table: engagement, churn, re-registration."""

    def test_static_pair_cache_engages(self):
        sim = Simulator()
        medium = Medium(sim, PropagationModel(), RandomStreams(3))
        radios = _populate(medium, 30, 0.2, (1,), seed=3)
        sender = radios[0]
        for _ in range(3):
            sender.transmit(frames.beacon(sender.name))
            sim.run()
        statics = medium._pair_tables[1][sender]
        assert statics
        # A static sender never reads the 3×3 snapshot.
        assert 1 not in medium._local_cache
        # Geometry matches a fresh derivation, entry for entry.
        model = medium.propagation
        for reg_seq, radio, base, rssi in statics:
            dist = math.hypot(
                sender._position_value.x - radio._position_value.x,
                sender._position_value.y - radio._position_value.y,
            )
            assert dist <= model.range_m
            expected = (
                model.base_loss
                if dist <= model.fringe_start_m
                else model.loss_probability(dist)
            )
            assert base == expected
            assert rssi == medium.rssi_at(dist)
            assert radio.reg_seq == reg_seq

    def test_mobile_churn_refreshes_only_mobile_half(self):
        sim = Simulator()
        medium = Medium(sim, PropagationModel(), RandomStreams(3))
        radios = _populate(medium, 30, 0.3, (1, 6), seed=9)
        senders = [r for r in radios if r._static and r.channel == 1][:2]
        sender = senders[0]
        sender.transmit(frames.beacon(sender.name))
        sim.run()
        table_before = medium._pair_tables[1]
        statics_before = table_before[sender]
        mover = next(r for r in radios if not r._static and r.channel == 6)
        mover.set_channel(1)
        for each in senders:
            each.transmit(frames.beacon(each.name))
        sim.run()
        # Static half survived the mobile churn by identity; the mobile
        # half now includes the retuned radio, in one list every static
        # sender on the channel shares.
        assert medium._pair_tables[1] is table_before
        assert medium._pair_tables[1][sender] is statics_before
        assert any(radio is mover for _, radio in medium._mobile_lists[1])
        builds = []
        build = medium._mobile_pairs
        medium._mobile_pairs = lambda channel: builds.append(channel) or build(channel)
        mover.set_channel(6)
        for each in senders:
            each.transmit(frames.beacon(each.name))
        sim.run()
        assert builds == [1]
        assert all(radio is not mover for _, radio in medium._mobile_lists[1])

    def test_static_membership_change_rebuilds(self):
        sim = Simulator()
        medium = Medium(sim, PropagationModel(), RandomStreams(3))
        radios = _populate(medium, 30, 0.0, (1,), seed=5)
        sender = radios[0]
        sender.transmit(frames.beacon(sender.name))
        sim.run()
        table_before = medium._pair_tables[1]
        joiner = Radio(
            medium,
            StaticMobility(Point(sender._position_value.x + 5.0,
                                 sender._position_value.y)),
            1, name="joiner", address="joiner",
        )
        sender.transmit(frames.beacon(sender.name))
        sim.run()
        table_joined = medium._pair_tables[1]
        assert table_joined is not table_before
        assert any(radio is joiner for _, radio, _, _ in table_joined[sender])
        # Leaving rebuilds it too.
        medium.unregister(joiner)
        sender.transmit(frames.beacon(sender.name))
        sim.run()
        assert medium._pair_tables[1] is not table_joined
        assert joiner not in medium._pair_tables[1]
        assert all(radio is not joiner for _, radio, _, _ in medium._pair_tables[1][sender])

    def test_reregistration_never_serves_stale_geometry(self):
        # A neighbour unregisters and re-registers far away under a new
        # mobility: the pair table must re-derive, and the sender's own
        # re-registration (partition handoff) drops its row.
        def outcome(medium_class):
            sim = Simulator()
            medium = medium_class(sim, PropagationModel(), RandomStreams(11))
            sender = Radio(medium, StaticMobility(Point(0.0, 0.0)), 1,
                           name="s", address="s")
            neigh = Radio(medium, StaticMobility(Point(30.0, 0.0)), 1,
                          name="n", address="n")
            log = []
            neigh.on_receive = lambda frame: log.append(("near", sim.now))
            sender.transmit(frames.beacon("s"))
            sim.run()
            medium.unregister(neigh)
            neigh.mobility = StaticMobility(Point(5000.0, 0.0))
            medium.register(neigh)
            sender.transmit(frames.beacon("s"))
            sim.run()
            return log, neigh.frames_received, neigh.frames_lost, medium._rng.random()

        assert outcome(Medium) == outcome(OracleMedium)

    def test_handoff_clears_pair_state(self):
        sim = Simulator()
        medium_a = Medium(sim, PropagationModel(), RandomStreams(1))
        medium_b = Medium(sim, PropagationModel(), RandomStreams(2), stream_name="phy-b")
        sender = Radio(medium_a, StaticMobility(Point(0.0, 0.0)), 1, name="s")
        neighbour = Radio(medium_a, StaticMobility(Point(10.0, 0.0)), 1, name="a")
        sender.transmit(frames.beacon("s"))
        sim.run()
        assert sender in medium_a._pair_tables[1]
        medium_a.unregister(sender)
        sender.medium = medium_b
        medium_b.register(sender)
        assert 1 not in medium_a._pair_tables
        assert 1 not in medium_b._pair_tables
        neighbour.transmit(frames.beacon("a"))
        sender.transmit(frames.beacon("s"))
        sim.run()
        assert sender not in medium_a._pair_tables[1]
        assert medium_a._pair_tables[1][neighbour] == []
        assert medium_b._pair_tables[1] == {sender: []}

    def test_metro_small_warmup_fills_each_table_once(self):
        # Through metro-core-small's warm-up no static sender reads a
        # 3×3 snapshot, and each (medium, channel) table is filled at
        # most once per static membership epoch: once, since its APs
        # never move.
        from repro.scenario.build import build, make_fleet
        from repro.scenario.registry import scenario

        spec = scenario("metro-core-small", duration=10.0)
        world = build(spec)
        drivers = make_fleet(world, spec)
        epochs = {}
        fills = []
        static_snapshots = []
        senders = []
        invalidate = Medium._invalidate
        fill = Medium._fill_pairs
        local_entries = Medium._local_entries
        deliver = Medium._deliver_broadcast

        def counting_invalidate(self, channel, static_member):
            if static_member:
                key = (self, channel)
                epochs[key] = epochs.get(key, 0) + 1
            invalidate(self, channel, static_member)

        def counting_fill(self, channel):
            fills.append((self, channel, epochs.get((self, channel), 0)))
            return fill(self, channel)

        def watched_local_entries(self, channel, x, y):
            if senders[-1]._static:
                static_snapshots.append((senders[-1].name, channel))
            return local_entries(self, channel, x, y)

        def watched_deliver(self, sender, *args):
            senders.append(sender)
            try:
                deliver(self, sender, *args)
            finally:
                senders.pop()

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Medium, "_invalidate", counting_invalidate)
            patch.setattr(Medium, "_fill_pairs", counting_fill)
            patch.setattr(Medium, "_local_entries", watched_local_entries)
            patch.setattr(Medium, "_deliver_broadcast", watched_deliver)
            for driver in drivers:
                driver.start()
            world.sim.run(until=5.0)
        assert static_snapshots == []
        assert fills and len(set(fills)) == len(fills)
        mediums = world.partitions.mediums
        assert {(medium, channel) for medium, channel, _ in fills} == {
            (medium, channel) for medium in mediums for channel in medium._pair_tables
        }


def _busy_mid_fanout(medium_class, mobile_sender, mobile_receiver):
    """The first receiver's handler makes an overlapping channel busy.

    Interference is read once per completion, before any handler runs,
    so the later receivers' loss must not see the helper's frame.
    """
    sim = Simulator()
    medium = medium_class(
        sim, PropagationModel(base_loss=0.3, edge_start=0.99), RandomStreams(8),
        adjacent_channel_loss=0.25,
    )
    origin = Point(0.0, 0.0)
    if mobile_sender:
        mobility = ConstantVelocityMobility(origin, Point(0.0, 0.0))
    else:
        mobility = StaticMobility(origin)
    sender = Radio(medium, mobility, 1, name="s", address="s")
    first = Radio(medium, StaticMobility(Point(10.0, 0.0)), 1, name="a", address="a")
    # Far from everyone, on channel 3 (overlaps 1).
    helper = Radio(medium, StaticMobility(Point(5000.0, 0.0)), 3, name="h", address="h")
    first.on_receive = lambda frame: helper.transmit(frames.beacon("h"))
    later = [Radio(medium, StaticMobility(Point(20.0, 0.0)), 1, name="b", address="b")]
    if mobile_receiver:
        later.append(Radio(medium, ConstantVelocityMobility(Point(30.0, 0.0), Point(0.0, 0.1)),
                           1, name="m", address="m"))
    for k in range(300):
        sim.schedule_at(0.01 * k, sender.transmit, frames.beacon("s"))
    sim.run()
    return ([(r.frames_received, r.frames_lost) for r in [first] + later],
            helper.frames_sent, medium._rng.random())


@pytest.mark.parametrize(
    "mobile_sender, mobile_receiver",
    [(False, False), (False, True), (True, False)],
    ids=["static-pairs", "static-merge", "mobile-sender"],
)
def test_interference_is_read_before_any_handler(mobile_sender, mobile_receiver):
    oracle = _busy_mid_fanout(OracleMedium, mobile_sender, mobile_receiver)
    assert _busy_mid_fanout(Medium, mobile_sender, mobile_receiver) == oracle
    assert oracle[1] > 0  # the helper did transmit mid-fan-out
