"""Unit tests for restartable timers."""

from repro.sim.engine import Simulator
from repro.sim.timers import Timer


def test_timer_fires_after_delay():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(2.0)
    sim.run()
    assert fired == [2.0]


def test_timer_passes_bound_args():
    sim = Simulator()
    got = []
    timer = Timer(sim, got.append, "payload")
    timer.start(1.0)
    sim.run()
    assert got == ["payload"]


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    timer = Timer(sim, fired.append, 1)
    timer.start(1.0)
    timer.cancel()
    sim.run()
    assert fired == []


def test_restart_resets_deadline():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    sim.schedule(0.5, timer.start, 2.0)  # re-arm at t=0.5 → fires at 2.5
    sim.run()
    assert fired == [2.5]


def test_timer_reusable_after_firing():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    sim.schedule(1.5, timer.start, 1.0)
    sim.run()
    assert fired == [1.0, 2.5]


def test_armed_reflects_state():
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    assert not timer.armed
    timer.start(1.0)
    assert timer.armed
    timer.cancel()
    assert not timer.armed


def test_deadline_reports_absolute_time():
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    timer.start(3.0)
    assert timer.deadline == 3.0
    timer.cancel()
    assert timer.deadline is None


def test_cancel_idle_timer_is_safe():
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    timer.cancel()  # never armed
    assert not timer.armed


def _heap_depth(sim):
    return sim._metrics_source()["sim.heap_depth"]


def test_forward_rearms_keep_one_heap_entry():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    for step in range(1000):
        timer.start(1.0 + step * 0.001)
        assert _heap_depth(sim) == 1
    assert sim.pending_events == 1
    sim.run()
    assert fired == [1.999]
    assert sim.events_executed == 1
    assert _heap_depth(sim) == 0


def test_forward_rearm_fires_behind_events_scheduled_before_it():
    # The re-armed timer takes a sequence number at re-arm time, so an
    # event scheduled earlier at the same instant fires first.
    sim = Simulator()
    log = []
    timer = Timer(sim, log.append, "timer")
    timer.start(1.0)
    sim.schedule(2.0, log.append, "scheduled")
    timer.start(2.0)
    sim.schedule(2.0, log.append, "scheduled after")
    sim.run()
    assert log == ["scheduled", "timer", "scheduled after"]


def test_earlier_rearm_fires_early_and_leaves_one_tombstone():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(5.0)
    timer.start(2.0)
    assert timer.deadline == 2.0
    assert _heap_depth(sim) == 2
    assert sim.pending_events == 1
    sim.run()
    assert fired == [2.0]
    assert sim.events_executed == 1
    assert _heap_depth(sim) == 0 and sim.pending_events == 0


def test_rearm_across_run_until_boundary():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(1.0)
    sim.schedule(0.5, timer.start, 2.0)  # at t=0.5: deadline 2.5
    sim.run(until=1.5)  # the stale t=1.0 entry surfaces and moves, unfired
    assert fired == []
    assert sim.now == 1.5
    assert timer.armed and timer.deadline == 2.5
    assert sim.pending_events == 1 and _heap_depth(sim) == 1
    assert sim.events_executed == 1  # the re-arm callback only
    timer.start(1.5)  # at t=1.5: deadline 3.0, still one entry
    assert _heap_depth(sim) == 1
    sim.run(until=2.9)
    assert fired == []
    sim.run()
    assert fired == [3.0]


def test_deadline_and_cancel_after_rearm():
    sim = Simulator()
    fired = []
    timer = Timer(sim, fired.append, "x")
    timer.start(1.0)
    timer.start(4.0)
    assert timer.armed and timer.deadline == 4.0
    timer.cancel()
    assert not timer.armed and timer.deadline is None
    assert sim.pending_events == 0 and _heap_depth(sim) == 1  # one tombstone
    sim.run(until=1.0)
    assert fired == [] and sim.events_executed == 0
    assert _heap_depth(sim) == 0
    timer.start(1.0)  # reusable after a cancelled re-arm
    assert timer.deadline == 2.0
    sim.run()
    assert fired == ["x"]
