"""Tests for the observability stack: trace bus, metrics, provenance.

Covers the zero-overhead-when-disabled contract, deterministic
subscriber ordering, JSONL round-trips, registry snapshots, and an
end-to-end fig6 run whose DHCP trace must tell a causally ordered
send → timeout → bind story.
"""

import gc
import json
import tracemalloc

import pytest

from repro.experiments import fig6_dhcp
from repro.metrics.collector import JoinTimeline
from repro.obs import (
    MetricsRegistry,
    TraceBus,
    TraceEvent,
    TraceRecorder,
    build_manifest,
    observe,
    profile_call,
    read_jsonl,
    write_jsonl,
)
from repro.obs import trace as tr
from repro.sim.engine import Simulator


class TestDisabledByDefault:
    def test_simulator_has_no_observability(self):
        sim = Simulator()
        assert sim.trace is None
        assert sim.metrics is None

    def test_disabled_run_emits_nothing(self):
        bus = TraceBus()
        recorder = TraceRecorder(bus)
        sim = Simulator()  # bus deliberately NOT attached
        for i in range(50):
            sim.schedule(i * 0.01, lambda: None)
        sim.run()
        assert recorder.events == []
        assert bus.events_emitted == 0

    def test_disabled_path_allocates_nothing_in_obs(self):
        """Perf sanity: with tracing off, the obs modules must not
        allocate a single object per event — the guard is an attribute
        load plus a None check, nothing more."""
        from repro.net.dhcp import DhcpClient

        sim = Simulator()
        client = DhcpClient(sim, "cli", "ap", transmit=lambda msg: True)

        tracemalloc.start()
        try:
            client.start()
            sim.run(until=30.0)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        obs_allocs = [
            stat
            for stat in snapshot.statistics("filename")
            if "/obs/" in (stat.traceback[0].filename or "")
        ]
        assert obs_allocs == []


class TestTraceBus:
    def test_emit_requires_attach_for_simulators_only(self):
        # The bus itself can be used standalone (unit tests, tools).
        bus = TraceBus()
        recorder = TraceRecorder(bus)
        bus.emit(tr.DHCP_SEND, 1.0, client="c", server="s")
        assert recorder.kinds() == [tr.DHCP_SEND]

    def test_subscribers_run_in_subscription_order(self):
        bus = TraceBus()
        order = []
        bus.subscribe(lambda e: order.append("first"))
        bus.subscribe(lambda e: order.append("second"))
        bus.subscribe(lambda e: order.append("third"))
        bus.emit(tr.SCHED_SLOT, 0.0, channel=1)
        bus.emit(tr.SCHED_SLOT, 0.1, channel=6)
        assert order == ["first", "second", "third"] * 2

    def test_unsubscribe(self):
        bus = TraceBus()
        hits = []
        handler = bus.subscribe(lambda e: hits.append(e.kind))
        bus.emit(tr.SCHED_SLOT, 0.0)
        bus.unsubscribe(handler)
        bus.emit(tr.SCHED_SLOT, 0.1)
        assert hits == [tr.SCHED_SLOT]

    def test_attach_sets_simulator_trace(self):
        bus = TraceBus()
        sim = Simulator()
        bus.attach(sim)
        assert sim.trace is bus

    def test_global_time_monotone_across_run_segments(self):
        """A new simulator restarts its clock at 0; the bus must keep
        the exported time axis non-decreasing anyway."""
        bus = TraceBus()
        recorder = TraceRecorder(bus)
        bus.attach(Simulator())
        bus.emit(tr.SCHED_SLOT, 5.0, channel=1)
        bus.attach(Simulator())  # second seed: local clock back to 0
        bus.emit(tr.SCHED_SLOT, 1.0, channel=1)
        bus.emit(tr.SCHED_SLOT, 2.0, channel=6)
        ts = [event.t for event in recorder.events]
        assert ts == sorted(ts)
        # attach() marks each segment boundary explicitly.
        segments = [event for event in recorder.events if event.kind == tr.RUN_SEGMENT]
        assert [event.fields["segment"] for event in segments] == [0, 1]
        slots = [event for event in recorder.events if event.kind == tr.SCHED_SLOT]
        assert slots[1].t >= 5.0
        assert slots[1].sim_t == 1.0
        assert slots[0].run == 0
        assert slots[1].run == 1

    def test_recorder_kind_filters(self):
        bus = TraceBus()
        dhcp_only = TraceRecorder(bus, kinds=["dhcp."])
        binds_only = TraceRecorder(bus, kinds=[tr.DHCP_BIND])
        bus.emit(tr.DHCP_SEND, 0.0)
        bus.emit(tr.DHCP_BIND, 0.1)
        bus.emit(tr.SCHED_SLOT, 0.2)
        assert dhcp_only.kinds() == [tr.DHCP_SEND, tr.DHCP_BIND]
        assert binds_only.kinds() == [tr.DHCP_BIND]


class TestJsonlRoundTrip:
    def test_round_trip_preserves_events(self, tmp_path):
        events = [
            TraceEvent(0.5, tr.DHCP_SEND, 0, 0.5, {"client": "c", "xid": 7, "attempt": 1}),
            TraceEvent(1.5, tr.DHCP_BIND, 0, 1.5, {"ip": "10.0.0.9", "took": 1.0}),
            TraceEvent(2.0, tr.SCHED_SWITCH, 1, 0.25, {"from_channel": 1, "to_channel": 6}),
        ]
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(events, str(path)) == 3
        assert read_jsonl(str(path)) == events

    def test_jsonl_lines_are_flat_objects(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl([TraceEvent(0.0, tr.PHY_FRAME_DROP, 0, 0.0, {"reason": "loss"})], str(path))
        payload = json.loads(path.read_text().strip())
        assert payload == {
            "t": 0.0, "kind": "phy.frame_drop", "run": 0, "sim_t": 0.0, "reason": "loss",
        }


class TestMetricsRegistry:
    def test_counter_gauge_histogram_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("tcp.rtos_total").inc()
        registry.counter("tcp.rtos_total").inc(2)
        registry.gauge("queue.depth").set(7)
        hist = registry.histogram("sched.switch_latency_s")
        hist.observe(0.004)
        hist.observe(0.006)
        snap = registry.snapshot()
        assert snap["tcp.rtos_total"] == 3
        assert snap["queue.depth"] == 7
        assert snap["sched.switch_latency_s.count"] == 2
        assert snap["sched.switch_latency_s.mean"] == pytest.approx(0.005)
        assert snap["sched.switch_latency_s.min"] == pytest.approx(0.004)
        assert snap["sched.switch_latency_s.max"] == pytest.approx(0.006)

    def test_sources_sum_on_name_collision(self):
        """Multi-seed loops register one source per simulator; the
        snapshot must aggregate them."""
        registry = MetricsRegistry()
        registry.add_source(lambda: {"phy.frames_sent": 10})
        registry.add_source(lambda: {"phy.frames_sent": 5, "phy.frames_dropped": 1})
        snap = registry.snapshot()
        assert snap["phy.frames_sent"] == 15
        assert snap["phy.frames_dropped"] == 1

    def test_simulator_registers_source_when_installed(self):
        registry = MetricsRegistry()
        with observe(metrics=registry):
            sim = Simulator()
        assert sim.metrics is registry
        sim.schedule(0.1, lambda: None)
        sim.schedule(0.2, lambda: None)
        sim.run()
        snap = registry.snapshot()
        assert snap["sim.events_executed"] == 2
        assert snap["sim.pending_events"] == 0

    def test_format_snapshot_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b.count").inc()
        registry.counter("a.count").inc()
        text = registry.format_snapshot()
        assert text.index("a.count") < text.index("b.count")


class TestObserveContext:
    def test_defaults_installed_only_inside_block(self):
        bus = TraceBus()
        with observe(trace=bus):
            inside = Simulator()
        outside = Simulator()
        assert inside.trace is bus
        assert outside.trace is None

    def test_defaults_cleared_on_exception(self):
        bus = TraceBus()
        with pytest.raises(RuntimeError):
            with observe(trace=bus):
                raise RuntimeError("boom")
        assert Simulator().trace is None


class TestProvenance:
    def test_manifest_fields_and_summary(self):
        manifest = build_manifest(
            "fig6",
            parameters={"duration": 60.0},
            fast=True,
            started_at=0.0,
            wall_seconds=2.0,
            events_executed=100000,
            trace_events=42,
        )
        assert manifest.experiment == "fig6"
        assert manifest.events_per_second == pytest.approx(50000.0)
        assert manifest.python
        summary = manifest.summary()
        assert "fig6" in summary and "events=100000" in summary

    def test_manifest_writes_json(self, tmp_path):
        manifest = build_manifest("tab2", wall_seconds=1.0, events_executed=10)
        path = tmp_path / "manifest.json"
        manifest.write(str(path))
        data = json.loads(path.read_text())
        assert data["experiment"] == "tab2"
        assert data["events_executed"] == 10

    def test_profile_call_returns_result_and_stats(self):
        result, text = profile_call(sum, [1, 2, 3])
        assert result == 6
        assert "cumulative" in text
        assert text.startswith("gc: ")

    def test_profile_call_counts_a_forced_collection(self):
        _, text = profile_call(gc.collect)
        gen2 = int(text.split()[1].split("/")[2])
        assert gen2 >= 1
        assert "s paused" in text.splitlines()[0]


@pytest.mark.slow
class TestEndToEndTracing:
    def test_fig6_trace_tells_a_causal_dhcp_story(self):
        bus = TraceBus()
        recorder = TraceRecorder(bus)
        timeline = JoinTimeline()
        bus.subscribe(timeline.on_event)
        with observe(trace=bus):
            result = fig6_dhcp.run(
                cases=((0.5, 0.1, "50% - 100ms"),), seeds=(1,), duration=90.0
            )
        assert result["series"][0]["join_times"]  # the run did join APs

        # The export covers association, DHCP, and scheduler layers.
        kinds = set(recorder.kinds())
        assert tr.ASSOC_START in kinds and tr.ASSOC_OK in kinds
        assert tr.DHCP_SEND in kinds and tr.DHCP_BIND in kinds
        assert tr.SCHED_SLOT in kinds and tr.SCHED_SWITCH in kinds

        # Global timestamps are monotonically non-decreasing.
        ts = [event.t for event in recorder.events]
        assert all(b >= a for a, b in zip(ts, ts[1:]))

        # Per exchange (client, server, xid): the first event is a
        # transmission attempt (sent, or blocked off-channel), timeouts
        # follow attempts, and a bind — when reached — terminates the
        # exchange.
        exchanges = {}
        for event in recorder.events:
            if event.kind in (tr.DHCP_SEND, tr.DHCP_BLOCKED, tr.DHCP_TIMEOUT, tr.DHCP_BIND):
                key = (event.fields.get("client"), event.fields.get("server"),
                       event.fields.get("xid"))
                exchanges.setdefault(key, []).append(event)
        assert exchanges
        saw_full_story = False
        for events in exchanges.values():
            kinds_seq = [e.kind for e in events]
            assert kinds_seq[0] in (tr.DHCP_SEND, tr.DHCP_BLOCKED)
            if tr.DHCP_BIND in kinds_seq:
                assert kinds_seq[-1] == tr.DHCP_BIND
                assert kinds_seq.count(tr.DHCP_BIND) == 1
                if tr.DHCP_TIMEOUT in kinds_seq:
                    saw_full_story = True
                    bind = events[-1]
                    timeout = next(e for e in events if e.kind == tr.DHCP_TIMEOUT)
                    assert events[0].t <= timeout.t <= bind.t
        # With half the time off-channel at least one exchange must
        # have retried before binding.
        assert saw_full_story

        # The trace-driven timeline agrees with the in-band JoinLog on
        # how many primary-channel joins completed (the experiment only
        # reports channel-6 joins; the trace sees every channel).
        primary_successes = sum(
            1 for r in timeline.records if r.succeeded and r.channel == 6
        )
        assert primary_successes == len(result["series"][0]["join_times"])
