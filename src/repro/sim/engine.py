"""Core discrete-event simulation engine.

The engine is a heap of ``(time, sequence, callback, args)`` entries.
Sequence numbers break ties so that runs are fully deterministic for a
given seed. An entry is one of three kinds:

- a plain event, ``(time, seq, callback, args)`` (:meth:`Simulator.schedule`);
- a cancellable event, ``(time, seq, handle, None)``
  (:meth:`Simulator.schedule_cancellable`, used by
  :class:`~repro.sim.timers.Timer`), which fires through its
  :class:`EventHandle`; :meth:`Simulator.reschedule` can move one to a
  later key without touching the heap;
- the head of a FIFO :class:`Lane`, ``(time, seq, lane, None)``
  (:meth:`Simulator.lane`). A lane holds events whose keys never
  decrease, so only its earliest one needs to be on the heap; the rest
  wait in the lane, stored flat, until their predecessor fires.

On top of the raw callback API sits a small generator-based process layer
(in the style of SimPy): a process is a generator that yields
:class:`Timeout`, :class:`Event`, or another :class:`Process`, and is
resumed when the yielded condition fires.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Any, Callable, Deque, Dict, Generator, Hashable, List, Optional, Tuple


class SimulationError(Exception):
    """Raised for misuse of the simulation engine."""


#: Ambient observability defaults: newly constructed simulators adopt
#: these as their ``trace`` / ``metrics`` / ``spans`` handles.
#: Installed by :func:`repro.obs.report.observe` around experiment runs
#: so the CLI can observe simulators that experiments construct
#: internally.
_default_trace: Optional[Any] = None
_default_metrics: Optional[Any] = None
_default_spans: Optional[Any] = None


def set_default_observability(
    trace: Optional[Any] = None,
    metrics: Optional[Any] = None,
    spans: Optional[Any] = None,
) -> None:
    """Set (or, with no arguments, clear) the ambient trace/metrics/spans."""
    global _default_trace, _default_metrics, _default_spans
    _default_trace = trace
    _default_metrics = metrics
    _default_spans = spans


class EventHandle:
    """A cancellable reference to a scheduled callback.

    Returned by :meth:`Simulator.schedule_cancellable`. Cancelling a
    handle is O(1): the heap entry is tombstoned and skipped when
    popped. ``cancelled`` means "will not / did not run via this handle
    any more": the engine also sets it when the callback fires, which
    makes a late :meth:`cancel` a no-op and keeps the simulator's O(1)
    tombstone count honest without any hot-path bookkeeping.

    The heap entry is ``(time, seq, handle, None)``: the ``None`` in the
    args slot tells the run loop to fire through the handle. ``seq`` is
    unique, so heap sifting only ever compares floats and ints at C
    speed and never reaches the handle.

    ``time`` and ``seq`` are the handle's *current* key. After
    :meth:`Simulator.reschedule` moves it later, the heap entry still
    carries the old key; the engine re-pushes it under the handle's key
    when it surfaces (an entry whose ``seq`` differs from its handle's
    is stale).
    """

    __slots__ = ("time", "seq", "cancelled", "_callback", "_args", "_sim")

    #: Not a lane: the run loop tells the two ``args is None`` entry
    #: kinds apart by this attribute (a :class:`Lane` has its queue).
    _queue = None

    def __init__(
        self,
        sim: "Simulator",
        time: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        seq: int = 0,
    ):
        self.time = time
        self.seq = seq
        self.cancelled = False
        self._callback = callback
        self._args = args
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running. Safe to call repeatedly."""
        if not self.cancelled:
            self.cancelled = True
            self._sim._cancelled_pending += 1


#: ``_TAKE[n](queue.popleft)`` pops one queued event's ``n`` arguments
#: as a tuple; one argument is popped inline instead. Spelled out per
#: arity: a loop or comprehension costs several times as much.
_TAKE: Dict[int, Callable[[Callable[[], Any]], Tuple[Any, ...]]] = {
    2: lambda pop: (pop(), pop()),
    3: lambda pop: (pop(), pop(), pop()),
    4: lambda pop: (pop(), pop(), pop(), pop()),
}


class Lane:
    """A FIFO of events with one callback, whose keys never decrease.

    Made by :meth:`Simulator.lane`. :meth:`push` gives an event the
    key ``(time, seq)`` that :meth:`Simulator.schedule` would, and
    refuses a key below the previous push's, so the lane's earliest
    event, its *head*, precedes all the others. Only the head is on
    the heap, as ``(time, seq, lane, None)``; when it fires, the run
    loop puts the next key in its place. Each waiting event has a
    smaller-keyed predecessor present, so the heap's minimum is the
    minimum over everything scheduled and every event pops where a
    plain ``schedule`` call would have put it.

    Waiting events are stored flat in one deque (``time``, the sequence
    gap and the ``arity`` arguments; the head's arguments alone), so a
    deep lane allocates no per-event container for the collector to
    track. The gap is the event's ``seq`` minus that of the event
    pushed before it, which is its predecessor in the lane: when the
    event becomes the head, its ``seq`` is the old head's plus the
    gap. A gap of 256 or less is one of CPython's cached small ints,
    so a waiting event allocates no ``int`` for its key. A lane cannot
    cancel: a callback that may be moot checks its own state when it
    fires.
    """

    __slots__ = (
        "callback", "arity", "_queue", "_take", "_last", "_last_seq", "_sim", "_heap", "_next_seq",
    )

    def __init__(self, sim: "Simulator", callback: Callable[..., Any], arity: int):
        if arity != 1 and arity not in _TAKE:
            raise SimulationError(f"lane arity must be 1 to {max(_TAKE)}, got {arity}")
        self.callback = callback
        self.arity = arity
        self._queue: Deque[Any] = deque()
        self._take = _TAKE.get(arity)
        #: The time of the latest push: the next one must not be earlier.
        self._last = -math.inf
        #: The sequence number of the latest push: the next one's gap
        #: is taken from it.
        self._last_seq = 0
        self._sim = sim
        self._heap = sim._heap
        self._next_seq = sim._sequence.__next__

    def push(self, delay: float, arg: Any, *more: Any) -> None:
        """Run ``callback(arg, *more)`` after ``delay``, behind every earlier push.

        The first argument is spelled out: a one-argument push then
        collects no tuple for ``more`` (the empty one is shared).
        """
        time = self._sim.now + delay
        if len(more) != self.arity - 1:
            raise SimulationError(f"lane takes {self.arity} argument(s), got {len(more) + 1}")
        queue = self._queue
        if queue:
            # The head is pending, so ``_last >= now``: this bound
            # also keeps the event out of the past.
            if time < self._last:
                raise SimulationError(f"lane keys must not decrease ({time} < {self._last})")
            seq = self._next_seq()
            queue.append(time)
            queue.append(seq - self._last_seq)
        else:
            if delay < 0:
                raise SimulationError(f"cannot schedule in the past (delay={delay})")
            seq = self._next_seq()
            heapq.heappush(self._heap, (time, seq, self, None))
        self._last = time
        self._last_seq = seq
        queue.append(arg)
        if more:
            queue.extend(more)

    def __len__(self) -> int:
        """Events pushed and not yet fired, the head included."""
        size = len(self._queue)
        return (size - self.arity) // (self.arity + 2) + 1 if size else 0

    def _advance(self, seq: int) -> Tuple[Any, ...]:
        """Pop the head's arguments and put the next key on the heap.

        The head, keyed ``seq``, must be at the top of the heap. The
        run loop inlines this; :meth:`Simulator.step` calls it.
        """
        queue = self._queue
        take = queue.popleft
        args = (take(),) if self._take is None else self._take(take)
        if queue:
            heapq.heapreplace(self._heap, (take(), seq + take(), self, None))
        else:
            heapq.heappop(self._heap)
        return args


class Event:
    """A one-shot waitable condition.

    Processes yield an ``Event`` to suspend until someone calls
    :meth:`succeed` (or :meth:`fail`). Multiple processes may wait on the
    same event; all are resumed in registration order. Callbacks may also
    be attached directly via :meth:`add_callback`.
    """

    __slots__ = ("sim", "triggered", "value", "_error", "_callbacks")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self._error: Optional[BaseException] = None
        self._callbacks: List[Callable[["Event"], None]] = []

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self.triggered and self._error is None

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event triggers.

        If the event already triggered, the callback runs on the next
        engine step (never synchronously), preserving causal ordering.
        """
        if self.triggered:
            self.sim.schedule(0.0, callback, self)
        else:
            self._callbacks.append(callback)

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, waking all waiters."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        for callback in self._callbacks:
            self.sim.schedule(0.0, callback, self)
        self._callbacks.clear()
        return self

    def fail(self, error: BaseException) -> "Event":
        """Trigger the event as a failure; waiting processes re-raise."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self._error = error
        for callback in self._callbacks:
            self.sim.schedule(0.0, callback, self)
        self._callbacks.clear()
        return self

    @property
    def error(self) -> Optional[BaseException]:
        return self._error


class Timeout:
    """Yielded by a process to sleep for ``delay`` simulated seconds."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = delay
        self.value = value


class Process:
    """A running generator-based process.

    A ``Process`` is itself waitable: yielding a process from another
    process suspends the parent until the child returns. The child's
    return value becomes the value sent to the parent.
    """

    __slots__ = ("sim", "generator", "done", "value", "_error", "_waiters", "_interrupted")

    def __init__(self, sim: "Simulator", generator: Generator):
        self.sim = sim
        self.generator = generator
        self.done = False
        self.value: Any = None
        self._error: Optional[BaseException] = None
        self._waiters: List["Process"] = []
        self._interrupted: Optional[BaseException] = None
        sim.schedule(0.0, self._step, None, None)

    def interrupt(self, reason: str = "interrupted") -> None:
        """Throw :class:`Interrupted` into the process at its next resume."""
        if self.done:
            return
        self._interrupted = Interrupted(reason)
        self.sim.schedule(0.0, self._step, None, None)

    def _finish(self, value: Any, error: Optional[BaseException]) -> None:
        self.done = True
        self.value = value
        self._error = error
        for waiter in self._waiters:
            if error is None:
                self.sim.schedule(0.0, waiter._step, value, None)
            else:
                self.sim.schedule(0.0, waiter._step, None, error)
        self._waiters.clear()

    def _step(self, send_value: Any, throw_error: Optional[BaseException]) -> None:
        if self.done:
            return
        try:
            if self._interrupted is not None:
                error, self._interrupted = self._interrupted, None
                yielded = self.generator.throw(error)
            elif throw_error is not None:
                yielded = self.generator.throw(throw_error)
            else:
                yielded = self.generator.send(send_value)
        except StopIteration as stop:
            self._finish(getattr(stop, "value", None), None)
            return
        except Interrupted as error:
            self._finish(None, error)
            return

        if isinstance(yielded, Timeout):
            self.sim.schedule(yielded.delay, self._step, yielded.value, None)
        elif isinstance(yielded, Event):
            yielded.add_callback(self._on_event)
        elif isinstance(yielded, Process):
            if yielded.done:
                self.sim.schedule(0.0, self._step, yielded.value, yielded._error)
            else:
                yielded._waiters.append(self)
        else:
            raise SimulationError(
                f"process yielded unsupported value: {yielded!r} "
                "(expected Timeout, Event, or Process)"
            )

    def _on_event(self, event: Event) -> None:
        if event.ok:
            self._step(event.value, None)
        else:
            self._step(None, event.error)


class Interrupted(Exception):
    """Raised inside a process that was interrupted."""


class Simulator:
    """The discrete-event loop.

    >>> sim = Simulator()
    >>> log = []
    >>> sim.schedule(1.0, log.append, "a")
    >>> sim.schedule(0.5, log.append, "b")
    >>> sim.run()
    >>> log
    ['b', 'a']
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        #: ``(time, seq, callback, args)`` entries, or ``(time, seq,
        #: handle, None)`` for cancellable ones and ``(time, seq, lane,
        #: None)`` for lane heads.
        self._heap: List[Tuple[float, int, Any, Any]] = []
        self._sequence = itertools.count()
        #: Every lane made by :meth:`lane`, by its key.
        self._lanes: Dict[Hashable, Lane] = {}
        self._stopped = False
        #: Cancelled entries still sitting in the heap as tombstones.
        #: ``pending_events`` is ``len(heap) - this`` — maintained on
        #: the rare paths (cancel, tombstone pop) so the per-event
        #: schedule/fire path pays nothing for it.
        self._cancelled_pending = 0
        #: Total callbacks fired; feeds the metrics registry's
        #: events-executed / events-per-second accounting.
        self.events_executed = 0
        #: Optional observability handles (see ``repro.obs``). ``None``
        #: unless a bus/registry/profiler is attached explicitly or
        #: ambiently; instrumentation points throughout the stack guard
        #: on that.
        self.trace: Optional[Any] = _default_trace
        self.metrics: Optional[Any] = _default_metrics
        self.spans: Optional[Any] = _default_spans
        if self.trace is not None:
            self.trace.attach(self)
        if self.metrics is not None:
            self.metrics.add_source(self._metrics_source)

    def _metrics_source(self) -> dict:
        return {
            "sim.events_executed": self.events_executed,
            "sim.pending_events": self.pending_events,
            "sim.heap_depth": self.heap_depth,
        }

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds.

        The event cannot be cancelled; use :meth:`schedule_cancellable`
        for one that may be.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        heapq.heappush(self._heap, (self.now + delay, next(self._sequence), callback, args))

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute simulated time ``time``."""
        self.schedule(time - self.now, callback, *args)

    def schedule_cancellable(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Like :meth:`schedule`, but return a handle that can cancel it."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        seq = next(self._sequence)
        handle = EventHandle(self, time, callback, args, seq)
        heapq.heappush(self._heap, (time, seq, handle, None))
        return handle

    def reschedule(self, handle: EventHandle, delay: float) -> EventHandle:
        """Move a cancellable event to ``now + delay``; return its handle.

        The event fires at exactly the key a cancel followed by a fresh
        :meth:`schedule_cancellable` would give it: the new time, and a
        sequence number drawn now. When that time is not earlier than
        the handle's, the handle keeps its one heap entry and just takes
        the new key; the stale entry is pushed again under it when it
        reaches the top of the heap, before anything ordered after its
        old key (hence anything between the two keys) can pop. That
        re-push is not an event. An earlier time, or a handle that
        already fired or was cancelled, cancels and schedules afresh.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        if time >= handle.time and not handle.cancelled:
            handle.time = time
            handle.seq = next(self._sequence)
            return handle
        handle.cancel()
        return self.schedule_cancellable(delay, handle._callback, *handle._args)

    def lane(self, key: Hashable, callback: Callable[..., Any], arity: int = 1) -> Lane:
        """The :class:`Lane` registered under ``key``, made on first use.

        Callers that share a monotone key source share a lane by
        naming it with the same key, e.g. every AP whose beacons re-arm
        a constant ``beacon_interval`` later. Asking again for ``key``
        with another callback or arity raises.
        """
        lane = self._lanes.get(key)
        if lane is None:
            lane = self._lanes[key] = Lane(self, callback, arity)
        elif lane.callback != callback or lane.arity != arity:
            raise SimulationError(f"lane {key!r} exists with another callback or arity")
        return lane

    def event(self) -> Event:
        """Create a fresh (untriggered) :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` for use inside a process."""
        return Timeout(delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a generator as a process; it begins on the next step."""
        return Process(self, generator)

    # -- execution -------------------------------------------------------

    def stop(self) -> None:
        """Stop the run loop after the current callback returns."""
        self._stopped = True

    def step(self) -> bool:
        """Execute the single next event. Returns False if none remain.

        The single-step entry point for tests and campaign drivers; the
        run loop does not call it — ``_run_loop`` inlines the same body.
        """
        heap = self._heap
        while heap:
            time, seq, callback, args = heap[0]
            if args is None:
                if callback._queue is not None:
                    args = callback._advance(seq)
                    callback = callback.callback
                elif callback.cancelled:
                    heapq.heappop(heap)
                    self._cancelled_pending -= 1
                    continue
                elif seq != callback.seq:
                    # Rescheduled later: re-push under the current key.
                    heapq.heapreplace(heap, (callback.time, callback.seq, callback, None))
                    continue
                else:
                    heapq.heappop(heap)
                    # Mark consumed: a later cancel() must be a no-op.
                    callback.cancelled = True
                    args = callback._args
                    callback = callback._callback
            else:
                heapq.heappop(heap)
            if time < self.now:
                raise SimulationError("event heap corrupted: time went backwards")
            self.now = time
            self.events_executed += 1
            callback(*args)
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains, ``stop()`` is called, or ``until``.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` even if the last event fires earlier. The unbounded
        loop skips the per-event deadline peek entirely.

        With a span profiler installed, the whole run is wrapped in one
        ``sim.run`` span carrying the events executed and the final
        simulated clock; the guard keeps the disabled path span-free.
        """
        spans = self.spans
        if spans is not None:
            before = self.events_executed
            with spans.span("sim.run") as span:
                self._run_loop(until)
                span.add(events=self.events_executed - before, sim_t=self.now)
            return
        self._run_loop(until)

    def _run_loop(self, until: Optional[float]) -> None:
        """The inlined hot loop: one peek and one pop per event.

        The peek sweeps tombstones and checks the deadline before the
        pop, so an entry past ``until`` stays on the heap, and
        tombstones at its head are gone — ``pending_events`` and
        ``heap_depth`` read the same whichever way the loop stopped. A
        plain entry fires straight from its tuple. A lane head (``args``
        is ``None``, the callback slot holds a :class:`Lane`) fires the
        lane's callback with the arguments popped off the lane's queue,
        after the next queued key (its ``seq`` rebuilt from the head's
        and the stored gap) has taken its heap slot in one
        ``heapreplace`` (``Lane._advance``, inlined). A cancellable
        entry fires through its handle, which is marked consumed first,
        unless its key is stale (``reschedule``): then it goes back on
        the heap under the handle's key, uncounted. The clock is written
        only when time advances.
        ``events_executed`` advances per callback (a metrics snapshot
        taken inside a callback sees the exact count), and ``stop()``
        takes effect after the current callback returns.
        """
        self._stopped = False
        heap = self._heap
        pop = heapq.heappop
        replace = heapq.heapreplace
        limit = math.inf if until is None else until
        now = self.now
        while heap:
            time, seq, callback, args = heap[0]
            if args is None:
                queue = callback._queue
                if queue is None:
                    if callback.cancelled:
                        pop(heap)
                        self._cancelled_pending -= 1
                        continue
                    if time > limit:
                        break
                    if seq != callback.seq:
                        replace(heap, (callback.time, callback.seq, callback, None))
                        continue
                    pop(heap)
                    callback.cancelled = True
                    args = callback._args
                    callback = callback._callback
                else:
                    if time > limit:
                        break
                    if time != now:
                        if time < now:
                            raise SimulationError("event heap corrupted: time went backwards")
                        self.now = now = time
                    self.events_executed += 1
                    take = queue.popleft
                    spread = callback._take
                    args = take() if spread is None else spread(take)
                    if queue:
                        replace(heap, (take(), seq + take(), callback, None))
                    else:
                        pop(heap)
                    if spread is None:
                        # A direct call: unlike ``f(*args)``, Python
                        # runs it without re-entering the interpreter.
                        callback.callback(args)
                    else:
                        callback.callback(*args)
                    if self._stopped:
                        break
                    continue
            else:
                if time > limit:
                    break
                pop(heap)
            if time != now:
                if time < now:
                    raise SimulationError("event heap corrupted: time went backwards")
                self.now = now = time
            self.events_executed += 1
            callback(*args)
            if self._stopped:
                break
        if until is not None and until > self.now:
            self.now = until

    def _next_pending_time(self) -> Optional[float]:
        heap = self._heap
        while heap:
            time, seq, callback, args = heap[0]
            if args is None and callback._queue is None:
                if callback.cancelled:
                    heapq.heappop(heap)
                    self._cancelled_pending -= 1
                    continue
                if seq != callback.seq:
                    heapq.heapreplace(heap, (callback.time, callback.seq, callback, None))
                    continue
            return time
        return None

    @property
    def heap_depth(self) -> int:
        """Entries physically on the heap: tombstones and lane heads included."""
        return len(self._heap)

    @property
    def pending_events(self) -> int:
        """Number of scheduled events that have not fired or been cancelled.

        The heap length minus the tombstone count (maintained on cancel
        and tombstone-pop only, so the hot schedule/fire path pays
        nothing for it), plus every lane's events waiting behind its
        head — the PHY's share of those is ``phy.air_backlog``. One
        step per lane: the metrics registry samples this on every
        snapshot, and a world has a few dozen lanes.
        """
        waiting = sum(len(lane) - 1 for lane in self._lanes.values() if lane._queue)
        return len(self._heap) - self._cancelled_pending + waiting
