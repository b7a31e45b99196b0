"""Unit tests for the discrete-event engine."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import (
    Interrupted,
    SimulationError,
    Simulator,
    Timeout,
)


class TestScheduling:
    def test_callbacks_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, log.append, "b")
        sim.schedule(1.0, log.append, "a")
        sim.schedule(3.0, log.append, "c")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_break_in_schedule_order(self):
        sim = Simulator()
        log = []
        for tag in ("first", "second", "third"):
            sim.schedule(1.0, log.append, tag)
        sim.run()
        assert log == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_cancelled_handle_does_not_fire(self):
        sim = Simulator()
        log = []
        handle = sim.schedule_cancellable(1.0, log.append, "x")
        handle.cancel()
        sim.run()
        assert log == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule_cancellable(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, log.append, "inner"))
        sim.run()
        assert log == ["inner"]
        assert sim.now == 2.0

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "early")
        sim.schedule(10.0, log.append, "late")
        sim.run(until=5.0)
        assert log == ["early"]
        assert sim.now == 5.0

    def test_run_until_advances_clock_with_no_events(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_run_can_resume_after_until(self):
        sim = Simulator()
        log = []
        sim.schedule(10.0, log.append, "late")
        sim.run(until=5.0)
        sim.run()
        assert log == ["late"]

    def test_stop_halts_run(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, log.append, "never-before-stop")
        sim.run()
        assert log == []
        sim.run()
        assert log == ["never-before-stop"]

    def test_pending_events_counts_live_only(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        handle = sim.schedule_cancellable(2.0, lambda: None)
        handle.cancel()
        assert sim.pending_events == 1

    def test_zero_delay_runs_at_current_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [1.0]


class TestEvents:
    def test_succeed_wakes_callback(self):
        sim = Simulator()
        event = sim.event()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        sim.schedule(1.0, event.succeed, 42)
        sim.run()
        assert seen == [42]

    def test_double_trigger_raises(self):
        sim = Simulator()
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_callback_after_trigger_still_runs(self):
        sim = Simulator()
        event = sim.event()
        event.succeed("v")
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == ["v"]

    def test_failed_event_reports_not_ok(self):
        sim = Simulator()
        event = sim.event()
        event.fail(RuntimeError("boom"))
        assert event.triggered and not event.ok
        assert isinstance(event.error, RuntimeError)


class TestProcesses:
    def test_process_timeout_sequencing(self):
        sim = Simulator()
        trace = []

        def proc():
            trace.append(("start", sim.now))
            yield sim.timeout(1.5)
            trace.append(("after", sim.now))

        sim.process(proc())
        sim.run()
        assert trace == [("start", 0.0), ("after", 1.5)]

    def test_process_waits_on_event(self):
        sim = Simulator()
        event = sim.event()
        got = []

        def proc():
            value = yield event
            got.append(value)

        sim.process(proc())
        sim.schedule(2.0, event.succeed, "payload")
        sim.run()
        assert got == ["payload"]

    def test_process_return_value_propagates_to_parent(self):
        sim = Simulator()
        results = []

        def child():
            yield sim.timeout(1.0)
            return "child-result"

        def parent():
            value = yield sim.process(child())
            results.append((value, sim.now))

        sim.process(parent())
        sim.run()
        assert results == [("child-result", 1.0)]

    def test_waiting_on_finished_process_resumes_immediately(self):
        sim = Simulator()
        done_child = []

        def child():
            return "early"
            yield  # pragma: no cover

        def parent():
            proc = sim.process(child())
            yield sim.timeout(5.0)  # child finishes long before
            value = yield proc
            done_child.append(value)

        sim.process(parent())
        sim.run()
        assert done_child == ["early"]

    def test_interrupt_raises_inside_process(self):
        sim = Simulator()
        outcome = []

        def proc():
            try:
                yield sim.timeout(10.0)
            except Interrupted:
                outcome.append(("interrupted", sim.now))

        process = sim.process(proc())
        sim.schedule(2.0, process.interrupt)
        sim.run()
        assert outcome == [("interrupted", 2.0)]

    def test_failed_event_raises_in_waiting_process(self):
        sim = Simulator()
        event = sim.event()
        caught = []

        def proc():
            try:
                yield event
            except RuntimeError as error:
                caught.append(str(error))

        sim.process(proc())
        sim.schedule(1.0, event.fail, RuntimeError("bad"))
        sim.run()
        assert caught == ["bad"]

    def test_yielding_garbage_raises(self):
        sim = Simulator()

        def proc():
            yield "not a yieldable"

        sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Timeout(-1.0)

    def test_two_processes_interleave(self):
        sim = Simulator()
        trace = []

        def ticker(name, interval):
            for _ in range(3):
                yield sim.timeout(interval)
                trace.append((name, sim.now))

        sim.process(ticker("a", 1.0))
        sim.process(ticker("b", 1.5))
        sim.run()
        # At t=3.0 both fire; b's resume was scheduled earlier (t=1.5)
        # so its heap entry has the lower sequence number.
        assert trace == [
            ("a", 1.0), ("b", 1.5), ("a", 2.0), ("b", 3.0), ("a", 3.0), ("b", 4.5),
        ]


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build():
            sim = Simulator()
            trace = []
            for i in range(20):
                sim.schedule(i * 0.1, trace.append, i)
            sim.run()
            return trace

        assert build() == build()


class TestPendingEventsBookkeeping:
    """The O(1) live-entry counter must survive every cancel/fire path."""

    def test_double_cancel_decrements_once(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        handle = sim.schedule_cancellable(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending_events == 1

    def test_cancel_after_fire_does_not_go_negative(self):
        sim = Simulator()
        handle = sim.schedule_cancellable(1.0, lambda: None)
        sim.run()
        handle.cancel()
        assert sim.pending_events == 0

    def test_counter_tracks_mixed_workload(self):
        sim = Simulator()
        handles = [sim.schedule_cancellable(1.0 + i, lambda: None) for i in range(10)]
        for handle in handles[::2]:
            handle.cancel()
        assert sim.pending_events == 5
        sim.run(until=3.5)  # live handles sit at t=2,4,6,8,10; only t=2 fires
        assert sim.pending_events == 4
        sim.run()
        assert sim.pending_events == 0

    def test_events_executed_counts_fired_callbacks(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(0.1 * (i + 1), lambda: None)
        cancelled = sim.schedule_cancellable(0.05, lambda: None)
        cancelled.cancel()
        sim.run()
        assert sim.events_executed == 5


class TestReschedule:
    @staticmethod
    def _moved():
        sim = Simulator()
        log = []
        handle = sim.schedule_cancellable(1.0, log.append, "moved")
        sim.schedule(2.0, log.append, "plain")
        assert sim.reschedule(handle, 3.0) is handle
        assert (handle.time, sim.pending_events) == (3.0, 2)
        return sim, log

    def test_step_follows_the_new_key(self):
        sim, log = self._moved()
        assert sim.step() and log == ["plain"] and sim.now == 2.0
        assert sim.step() and log == ["plain", "moved"] and sim.now == 3.0
        assert not sim.step()
        assert sim.events_executed == 2

    def test_next_pending_time_follows_the_new_key(self):
        sim, log = self._moved()
        assert sim._next_pending_time() == 2.0  # the stale t=1 entry moved
        sim.run(until=2.5)
        assert sim._next_pending_time() == 3.0
        assert log == ["plain"] and sim.pending_events == 1

    def test_run_until_leaves_a_stale_entry_past_the_limit_in_place(self):
        # The loop stops at the first live entry past ``until``, stale or
        # not; the tombstone behind it stays, as it would behind any
        # live entry.
        sim = Simulator()
        handle = sim.schedule_cancellable(2.0, lambda: None)
        sim.schedule_cancellable(2.5, lambda: None).cancel()
        sim.reschedule(handle, 3.0)
        sim.run(until=1.0)
        assert sim._metrics_source()["sim.heap_depth"] == 2
        assert sim.pending_events == 1

    def test_earlier_fired_or_cancelled_handles_get_a_new_one(self):
        sim = Simulator()
        log = []
        handle = sim.schedule_cancellable(2.0, log.append, "a")
        earlier = sim.reschedule(handle, 1.0)
        assert earlier is not handle and handle.cancelled
        sim.run()
        assert log == ["a"] and sim.now == 1.0
        again = sim.reschedule(earlier, 1.0)  # already fired
        assert again is not earlier
        again.cancel()
        revived = sim.reschedule(again, 0.5)  # cancelled
        sim.run()
        assert log == ["a", "a"] and sim.now == 1.5 and revived.cancelled

    def test_reschedule_rejects_the_past(self):
        sim = Simulator()
        handle = sim.schedule_cancellable(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.reschedule(handle, -0.1)


def _run_script(ops, parents, laned):
    """Run one event script; chained ops form one FIFO of the same callback.

    ``ops[i] = (delay, chained)``; op ``i`` is issued at t=0 when
    ``parents[i] == -1``, else when event ``parents[i]`` fires. Chained
    ops form one FIFO whose times never decrease. With ``laned`` the
    FIFO is a :class:`~repro.sim.engine.Lane`, so only its head is on
    the heap; without, every op is a plain ``schedule`` call.
    """
    sim = Simulator()
    log = []
    children = {}
    for op, parent in enumerate(parents):
        children.setdefault(parent, []).append(op)
    fifo = {"tail": 0.0}

    def fire(op):
        log.append((sim.now, op))
        issue(children.get(op, ()))

    lane = sim.lane("fifo", fire)

    def issue(batch):
        for op in batch:
            delay, chained = ops[op]
            if not chained:
                sim.schedule(delay, fire, op)
                continue
            end = max(fifo["tail"], sim.now) + delay
            fifo["tail"] = end
            if laned:
                lane.push(end - sim.now, op)
            else:
                sim.schedule(end - sim.now, fire, op)

    issue(children.get(-1, ()))
    sim.run()
    assert len(lane) == 0
    return log, sim.events_executed


class TestLaneKeys:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_lane_fifo_pops_like_plain_schedule(self, data):
        ops = data.draw(st.lists(
            st.tuples(st.sampled_from([0.0, 0.5, 1.0, 1.5]), st.booleans()),
            min_size=1, max_size=40,
        ))
        parents = [data.draw(st.integers(-1, op - 1)) for op in range(len(ops))]
        assert _run_script(ops, parents, laned=True) == _run_script(
            ops, parents, laned=False
        )

    def test_lane_key_orders_against_later_schedules(self):
        sim = Simulator()
        log = []
        lane = sim.lane("log", log.append)
        lane.push(1.0, "head")
        lane.push(1.0, "queued first")  # waits off the heap, key taken now
        sim.schedule(1.0, log.append, "scheduled after the push")
        assert sim.heap_depth == 2 and sim.pending_events == 3
        sim.run()
        assert log == ["head", "queued first", "scheduled after the push"]

    def test_lane_push_rejects_a_decreasing_key_and_the_past(self):
        sim = Simulator()
        lane = sim.lane("noop", lambda _: None)
        lane.push(2.0, "head")
        lane.push(2.0, "tie")  # equal times are fine: seq still grows
        with pytest.raises(SimulationError):
            lane.push(1.5, "earlier than the tail")
        sim.schedule(3.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            lane.push(-0.5, "in the past")
        assert sim.pending_events == 0

    def test_lane_checks_its_arity_and_key(self):
        sim = Simulator()
        lane = sim.lane("pair", lambda a, b: None, 2)
        with pytest.raises(SimulationError):
            lane.push(1.0, "only one")
        assert len(lane) == 0 and sim.heap_depth == 0
        assert sim.lane("pair", lane.callback, 2) is lane
        with pytest.raises(SimulationError):
            sim.lane("pair", lane.callback, 3)
        with pytest.raises(SimulationError):
            sim.lane("pair", print, 2)
        with pytest.raises(SimulationError):
            sim.lane("wide", print, 5)


def _interleaved(ops, laned, drive):
    """Run a random interleaving of every way to schedule; return what fired.

    ``ops[i] = (parent, kind, arg, delay)``: op ``i`` is issued at t=0
    when ``parent == -1``, else the first time op ``parent`` fires.
    Kinds: ``plain`` (``schedule``), ``handle`` (``schedule_cancellable``),
    ``rearm`` / ``cancel`` (``reschedule`` / ``cancel`` the handle of op
    ``arg``, if it was issued) and ``lane`` (a push onto lane ``arg``,
    ``delay`` after that lane's previous push or now, whichever is
    later, so its keys never decrease). Times are multiples of 0.5, so
    they tie exactly across lanes and against plain events. Without
    ``laned`` every lane push is a plain ``schedule`` call instead.
    ``drive(sim)`` runs the simulator and returns its own observations.
    """
    sim = Simulator()
    log = []
    children = {}
    for op, (parent, *_rest) in enumerate(ops):
        children.setdefault(parent, []).append(op)
    handles = {}
    tails = {}
    done = set()

    def fire(op):
        log.append((sim.now, op))
        if op not in done:
            done.add(op)
            issue(children.get(op, ()))

    lanes = {k: sim.lane(k, fire) for k in range(3)}

    def issue(batch):
        for op in batch:
            _parent, kind, arg, delay = ops[op]
            if kind == "plain":
                sim.schedule(delay, fire, op)
            elif kind == "handle":
                handles[op] = sim.schedule_cancellable(delay, fire, op)
            elif kind == "rearm":
                if arg in handles:
                    handles[arg] = sim.reschedule(handles[arg], delay)
            elif kind == "cancel":
                if arg in handles:
                    handles[arg].cancel()
            else:
                end = max(tails.get(arg, 0.0), sim.now) + delay
                tails[arg] = end
                if laned:
                    lanes[arg].push(end - sim.now, op)
                else:
                    sim.schedule(end - sim.now, fire, op)

    issue(children.get(-1, ()))
    seen = drive(sim)
    assert all(len(lane) == 0 for lane in lanes.values())
    assert sim.pending_events == 0 and sim.heap_depth == 0
    return log, sim.now, sim.events_executed, seen


def _drive_run(sim):
    sim.run()
    return None


def _drive_step(sim):
    steps = 0
    while sim.step():
        steps += 1
    return steps


def _sliced(slices):
    def drive(sim):
        seen = []
        for until in slices:
            sim.run(until=until)
            seen.append((sim.now, sim.pending_events, sim.events_executed))
        sim.run()
        return seen

    return drive


_INTERLEAVED_OP = st.tuples(
    st.sampled_from(["plain", "handle", "rearm", "cancel", "lane", "lane", "lane"]),
    st.integers(0, 2),
    st.sampled_from([0.0, 0.5, 1.0]),
)


class TestLaneInterleavings:
    """Lanes fire exactly as plain ``schedule`` calls would, however mixed."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_lanes_fire_like_plain_schedule(self, data):
        body = data.draw(st.lists(_INTERLEAVED_OP, min_size=1, max_size=40))
        ops = []
        for i, (kind, arg, delay) in enumerate(body):
            parent = data.draw(st.integers(-1, i - 1))
            if kind in ("rearm", "cancel"):
                arg = data.draw(st.integers(0, i)) if i else 0
            ops.append((parent, kind, arg, delay))
        slices = sorted(data.draw(st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.5]), max_size=4)))
        reference = _interleaved(ops, laned=False, drive=_drive_run)
        assert _interleaved(ops, laned=True, drive=_drive_run) == reference
        log, now, executed, _ = reference
        assert _interleaved(ops, laned=True, drive=_drive_step) == (
            log, now, executed, executed)
        sliced = _interleaved(ops, laned=True, drive=_sliced(slices))
        assert sliced == _interleaved(ops, laned=False, drive=_sliced(slices))
        assert sliced[:3] == (log, max([now] + slices), executed)

    def test_pending_counts_lane_entries_and_heap_depth_does_not(self):
        sim = Simulator()
        log = []
        beacons = sim.lane("beacons", log.append)
        for name in "abcd":
            beacons.push(0.5, name)
        sim.schedule(0.5, log.append, "plain")
        assert len(beacons) == 4
        assert sim.pending_events == 5 and sim.heap_depth == 2
        sim.run(until=0.5)
        assert log == ["a", "b", "c", "d", "plain"]
        assert len(beacons) == 0 and sim.pending_events == 0 and sim.heap_depth == 0


def _gapped(ops, laned, drive):
    """Push lane events whose sequence gaps straddle CPython's small-int cache.

    ``ops[i] = (parent, lane, gap, delay)``: op ``i`` is issued at t=0
    when ``parent == -1``, else when op ``parent``'s lane event fires.
    Issuing it schedules ``gap`` plain events and then one event on
    lane ``lane``, all at ``delay`` after that lane's previous push or
    now, whichever is later: they tie exactly, and each plain call
    draws a sequence number between the lane's two pushes. Without
    ``laned`` the lane event is a plain ``schedule`` call too.
    """
    sim = Simulator()
    log = []
    children = {}
    for op, (parent, *_rest) in enumerate(ops):
        children.setdefault(parent, []).append(op)
    tails = {}

    def fire(tag):
        log.append((sim.now, tag))
        if tag[0] == "lane":
            issue(children.get(tag[1], ()))

    lanes = {k: sim.lane(k, fire) for k in range(2)}

    def issue(batch):
        for op in batch:
            _parent, k, gap, delay = ops[op]
            end = max(tails.get(k, 0.0), sim.now) + delay
            tails[k] = end
            for j in range(gap):
                sim.schedule(end - sim.now, fire, ("plain", op, j))
            if laned:
                lanes[k].push(end - sim.now, ("lane", op))
            else:
                sim.schedule(end - sim.now, fire, ("lane", op))

    issue(children.get(-1, ()))
    drive(sim)
    assert sim.pending_events == 0 and sim.heap_depth == 0
    return log, sim.now, sim.events_executed


class TestLaneSequenceGaps:
    """A waiting lane event keeps its ``seq`` as the gap from its predecessor's."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_gapped_pushes_fire_like_plain_schedule(self, data):
        body = data.draw(st.lists(
            st.tuples(
                st.integers(0, 1),
                st.sampled_from([0, 1, 255, 256, 257, 600]),
                st.sampled_from([0.0, 0.5]),
            ),
            min_size=1, max_size=12,
        ))
        ops = [(data.draw(st.integers(-1, i - 1)), *op) for i, op in enumerate(body)]
        reference = _gapped(ops, laned=False, drive=_drive_run)
        assert _gapped(ops, laned=True, drive=_drive_run) == reference
        assert _gapped(ops, laned=True, drive=_drive_step) == reference

    def test_a_gap_past_the_small_int_cache_rebuilds_the_key(self):
        sim = Simulator()
        log = []
        lane = sim.lane("log", log.append)
        sim.schedule(0.5, log.append, "first")
        lane.push(1.0, "head")  # seq 1
        for i in range(300):
            sim.schedule(1.0, log.append, i)
        lane.push(1.0, "second")  # seq 302
        sim.schedule(1.0, log.append, "last")
        assert list(lane._queue) == ["head", 1.0, 301, "second"]
        sim.step()
        sim.step()
        # The second push now heads the lane under its own key.
        assert (1.0, 302, lane, None) in sim._heap
        sim.run()
        assert log == ["first", "head", *range(300), "second", "last"]

    def test_a_queued_one_argument_event_costs_under_64_bytes(self):
        """Its time, its gap (a cached small int) and its argument slot."""
        sim = Simulator()
        lanes = [sim.lane(k, lambda arg: None) for k in range(2)]
        for lane in lanes:
            lane.push(1.0, None)  # the heads
        count = 20_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(count):
                # Alternating lanes: every gap is 2.
                lanes[i % 2].push(1.0 + i * 1e-3, None)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sum(len(lane) for lane in lanes) == count + 2
        assert grown / count < 64


def _lane_routes(kinds, times):
    """Map each ``lane`` entry to a lane whose keys it keeps non-decreasing.

    Entry ``i`` goes to the first lane whose last time is not later
    than ``times[i]``, or to a new lane.
    """
    tails = []
    routes = {}
    for i, (kind, time) in enumerate(zip(kinds, times)):
        if kind == "lane":
            lane = next((k for k, tail in enumerate(tails) if tail <= time), len(tails))
            if lane == len(tails):
                tails.append(time)
            tails[lane] = time
            routes[i] = lane
    return routes


def _mixed_script(kinds, times, new_times, cancels, until):
    """Schedule one entry per ``kinds[i]`` at ``times[i]`` and run to ``until``.

    Kinds: ``plain`` (``schedule``), ``handle`` (``schedule_cancellable``),
    ``rearm`` (``schedule_cancellable``, then moved to ``new_times[i]``
    with ``reschedule`` once every entry is pushed) and ``lane`` (pushed
    onto the first lane whose last time is not later, a new lane if none
    is). Handles are cancelled before the run when ``cancels[i]``,
    re-armed ones after their re-arm. Each entry takes one sequence
    number, so entry ``i`` has heap key ``(times[i], i)``; the ``k``-th
    re-arm draws sequence ``n + k``.
    """
    sim = Simulator()
    fired = []
    handles = {}
    lanes = _lane_routes(kinds, times)
    for i, (kind, time) in enumerate(zip(kinds, times)):
        if kind == "plain":
            sim.schedule(time, fired.append, i)
        elif kind in ("handle", "rearm"):
            handles[i] = sim.schedule_cancellable(time, fired.append, i)
        else:
            sim.lane(lanes[i], fired.append).push(time, i)
    for i, handle in handles.items():
        if kinds[i] == "rearm":
            handles[i] = sim.reschedule(handle, new_times[i])
    for i, handle in handles.items():
        if cancels[i]:
            handle.cancel()
    sim.run(until=until)
    return sim, fired, handles


def _expected(kinds, times, new_times, cancels, until):
    """The engine's contract, from the keys alone.

    Live entries fire in ``(time, seq)`` order up to ``until``, a
    re-armed one at ``(new_times[i], seq drawn at its re-arm)``. The run
    stops at the first live entry past it, after sweeping the
    tombstones ahead of that entry; with no such entry the heap drains.

    The heap depth after the stop counts physical entries: a lane has
    its earliest unfired entry on the heap, the rest wait off it. A re-arm to
    an earlier time leaves a tombstone at the old key; a later one
    keeps a single entry, which moves to the new key only when it
    reaches the top of the heap — that is, when its old time is within
    ``until`` (a cancelled one stays a tombstone at the old key).
    """
    n = len(kinds)
    limit = float("inf") if until is None else until
    rearms = [i for i in range(n) if kinds[i] == "rearm"]
    key = {i: (times[i], i) for i in range(n)}
    key.update({i: (new_times[i], n + k) for k, i in enumerate(rearms)})
    cancellable = {"handle", "rearm"}
    live = sorted(key[i] for i in range(n) if not (kinds[i] in cancellable and cancels[i]))
    entry = {key[i]: i for i in range(n)}
    fired = [entry[k] for k in live if k[0] <= limit]
    beyond = [k for k in live if k[0] > limit]
    physical = []  # (key, is_live)
    lanes = _lane_routes(kinds, times)
    pushed = {}  # lane → keys pushed on it, in push order
    for i, lane in lanes.items():
        pushed.setdefault(lane, []).append(key[i])
    for i in range(n):
        dead = kinds[i] in cancellable and cancels[i]
        if kinds[i] == "lane":
            continue
        if kinds[i] != "rearm":
            physical.append((key[i], not dead))
        elif new_times[i] < times[i]:
            physical += [((times[i], i), False), (key[i], not dead)]
        elif dead or times[i] > limit:
            physical.append(((times[i], i), not dead))
        else:
            physical.append((key[i], True))
    for keys in pushed.values():
        heads = [k for k in keys if k[0] > limit]
        if heads:
            physical.append((heads[0], True))
    stop = min((k for k, alive in physical if alive and k[0] > limit), default=None)
    depth = len([k for k, _ in physical if k >= stop]) if stop is not None else 0
    return fired, len(beyond), depth, max((key[i][0] for i in fired), default=0.0)


class TestMixedEntries:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_plain_cancellable_and_lane_entries(self, data):
        n = data.draw(st.integers(0, 30))
        kinds = data.draw(st.lists(
            st.sampled_from(["plain", "handle", "rearm", "lane"]), min_size=n, max_size=n))
        times = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=n, max_size=n))
        new_times = data.draw(
            st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 3.5]), min_size=n, max_size=n))
        cancels = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        until = data.draw(st.sampled_from([None, 0.0, 0.5, 1.0, 2.5, 3.0]))
        sim, fired, handles = _mixed_script(kinds, times, new_times, cancels, until)
        order, pending, depth, last = _expected(kinds, times, new_times, cancels, until)
        assert fired == order
        assert sim.events_executed == len(order)
        assert sim.pending_events == pending
        assert sim._metrics_source() == {
            "sim.events_executed": len(order),
            "sim.pending_events": pending,
            "sim.heap_depth": depth,
        }
        limit = float("inf") if until is None else until
        assert sim.now == (last if until is None else until)
        # A late cancel of a fired or already-cancelled handle is a no-op;
        # cancelling a pending one takes it out of the count.
        for handle in handles.values():
            handle.cancel()
        rest = [i for i in range(n) if kinds[i] in ("plain", "lane") and times[i] > limit]
        assert sim.pending_events == len(rest)
        sim.run()
        assert fired == order + sorted(rest, key=lambda i: (times[i], i))
        assert sim.pending_events == 0 and sim._metrics_source()["sim.heap_depth"] == 0
