"""Typed, timestamped event tracing for the simulation stack.

The paper's findings are *timing* interactions — DHCP response times
dominating switch latency, TCP RTOs firing during off-channel absence,
PSM buffering across schedule slots — so diagnosing a run means seeing
the event timeline, not just end-of-run aggregates. The
:class:`TraceBus` is that timeline: instrumentation points throughout
the stack emit :class:`TraceEvent` records, and subscribers (recorders,
live filters, the CLI's JSONL exporter) consume them.

Tracing is **disabled by default and free when disabled**: the
:class:`~repro.sim.engine.Simulator` owns an optional ``trace``
attribute (``None`` unless a bus is attached), and every
instrumentation point is guarded by

    trace = self.sim.trace
    if trace is not None:
        trace.emit(KIND, self.sim.now, ...)

so the disabled cost is one attribute load and a ``None`` check — no
event objects, no field dicts, no subscriber calls.

A bus survives across simulators (an experiment typically runs one
simulator per seed or per configuration): :meth:`TraceBus.attach`
starts a new *run segment* and offsets subsequent timestamps so the
global clock ``TraceEvent.t`` is monotonically non-decreasing over the
whole export, while ``TraceEvent.sim_t`` keeps the owning simulator's
local clock.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.sim.engine import Simulator

# -- event taxonomy ---------------------------------------------------------
#
# Kinds are dot-separated ``layer.event`` strings. Emitters use these
# constants; subscribers may match on exact kinds or on the ``layer.``
# prefix.

# phy: the radio and the shared medium
PHY_CHANNEL_SET = "phy.channel_set"  # radio, channel
PHY_FRAME_DROP = "phy.frame_drop"  # channel, dst, reason ("loss"/"arq-exhausted"/"unreachable")
PHY_PARTITION_HANDOFF = "phy.partition_handoff"  # radio, from_region, to_region

# sched: Spider's channel scheduler
SCHED_SLOT = "sched.slot"  # channel, dwell
SCHED_SWITCH = "sched.switch"  # from_channel, to_channel, latency, connected
PSM_ENTER = "psm.enter"  # client announces sleep to an AP (ap)
PSM_EXIT = "psm.exit"  # client wakes an AP (ap)

# assoc: the client-side link-layer state machine
ASSOC_START = "assoc.start"  # client, ap, channel
ASSOC_TX = "assoc.tx"  # client, ap, stage, attempt
ASSOC_STATE = "assoc.state"  # client, ap, state
ASSOC_OK = "assoc.ok"  # client, ap, took
ASSOC_FAIL = "assoc.fail"  # client, ap

# ap: the responder side
AP_PROBE_RESP = "ap.probe_resp"  # ap, client
AP_ASSOC_GRANT = "ap.assoc_grant"  # ap, client
AP_PSM_SLEEP = "ap.psm_sleep"  # ap, client (PM bit observed set)
AP_PSM_WAKE = "ap.psm_wake"  # ap, client (PM cleared; buffers flush)
AP_PSM_DROP = "ap.psm_drop"  # ap, client (power-save buffer overflow)

# dhcp: client exchange + server responses
DHCP_SEND = "dhcp.send"  # client, server, type, xid, attempt
DHCP_BLOCKED = "dhcp.blocked"  # client, server, type, xid (off-channel)
DHCP_TIMEOUT = "dhcp.timeout"  # client, server, state, xid
DHCP_BIND = "dhcp.bind"  # client, server, ip, took, xid, cached
DHCP_FAIL = "dhcp.fail"  # client, server, xid, attempts
DHCP_SERVER_TX = "dhcp.server_tx"  # server, client, type

# tcp: sender-side congestion events
TCP_RTO = "tcp.rto"  # flow, rto, cwnd, ssthresh, timeouts
TCP_FAST_RETRANSMIT = "tcp.fast_retransmit"  # flow, cwnd, ssthresh
TCP_SPURIOUS_RECOVERY = "tcp.spurious_recovery"  # flow, cwnd
TCP_CWND = "tcp.cwnd"  # flow, cwnd (emitted on >= 1-segment moves)

# scenario: declarative world construction and execution (repro.scenario)
SCENARIO_BUILD = "scenario.build"  # scenario, seed, aps, spec_digest
SCENARIO_RUN = "scenario.run"  # scenario, driver, duration

# run: bus-level bookkeeping (emitted by the bus itself, not a layer)
RUN_SEGMENT = "run.segment"  # segment, offset — a new simulator adopted the bus

# driver: join lifecycle and AP selection policy
DRIVER_JOIN = "driver.join"  # client, ap, channel
DRIVER_SELECT = "driver.select"  # client, ap, policy, candidates
DRIVER_CONNECTED = "driver.connected"  # client, ap, join_time
DRIVER_FAILED = "driver.failed"  # client, ap, stage
DRIVER_LOST = "driver.lost"  # client, ap
SCAN_START = "scan.start"  # client


class TraceEvent:
    """One emitted event: global time, kind, run segment, fields."""

    __slots__ = ("t", "kind", "run", "sim_t", "fields")

    def __init__(self, t: float, kind: str, run: int, sim_t: float, fields: Dict):
        self.t = t
        self.kind = kind
        self.run = run
        self.sim_t = sim_t
        self.fields = fields

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceEvent(t={self.t:.6f}, kind={self.kind!r}, fields={self.fields!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (
            self.t == other.t
            and self.kind == other.kind
            and self.run == other.run
            and self.sim_t == other.sim_t
            and self.fields == other.fields
        )

    def to_dict(self) -> Dict:
        return {"t": self.t, "kind": self.kind, "run": self.run, "sim_t": self.sim_t, **self.fields}

    @classmethod
    def from_dict(cls, data: Dict) -> "TraceEvent":
        data = dict(data)
        t = data.pop("t")
        kind = data.pop("kind")
        run = data.pop("run")
        sim_t = data.pop("sim_t")
        return cls(t, kind, run, sim_t, data)


class TraceBus:
    """Dispatches :class:`TraceEvent` records to subscribers in order.

    Subscriber dispatch order is the subscription order, making
    multi-consumer runs fully deterministic.
    """

    def __init__(self) -> None:
        self._subscribers: List[Callable[[TraceEvent], None]] = []
        self._run = -1
        self._offset = 0.0
        self._last_t = 0.0
        self.events_emitted = 0

    # -- wiring ----------------------------------------------------------

    def attach(self, sim: "Simulator") -> "TraceBus":
        """Adopt ``sim`` as the current clock source.

        Starts a new run segment: the new simulator's clock restarts at
        zero, so the bus offsets its timestamps to keep the global
        ``t`` axis non-decreasing across segments. The boundary is
        announced with an explicit :data:`RUN_SEGMENT` event so
        exporters never have to infer segment starts from timestamp
        offsets.
        """
        self._run += 1
        self._offset = self._last_t
        sim.trace = self
        self.emit(RUN_SEGMENT, 0.0, segment=self._run, offset=self._offset)
        return self

    def subscribe(self, subscriber: Callable[[TraceEvent], None]) -> Callable[[TraceEvent], None]:
        """Register ``subscriber(event)``; returns it for chaining."""
        self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Callable[[TraceEvent], None]) -> None:
        if subscriber in self._subscribers:
            self._subscribers.remove(subscriber)

    # -- emission --------------------------------------------------------

    def emit(self, kind: str, sim_t: float, **fields) -> None:
        """Emit one event at local simulator time ``sim_t``."""
        t = self._offset + sim_t
        if t < self._last_t:
            t = self._last_t  # defensive: never step the global axis back
        self._last_t = t
        self.events_emitted += 1
        event = TraceEvent(t, kind, self._run, sim_t, fields)
        for subscriber in self._subscribers:
            subscriber(event)


class TraceRecorder:
    """A subscriber that buffers events, optionally filtered by kind.

    ``kinds`` may name exact kinds (``"dhcp.send"``) or layer prefixes
    (``"dhcp."``). With no filter, every event is kept.
    """

    def __init__(self, bus: Optional[TraceBus] = None, kinds: Optional[Sequence[str]] = None):
        self.events: List[TraceEvent] = []
        self._exact = {k for k in (kinds or ()) if not k.endswith(".")}
        self._prefixes = tuple(k for k in (kinds or ()) if k.endswith("."))
        if bus is not None:
            bus.subscribe(self)

    def __call__(self, event: TraceEvent) -> None:
        if self._exact or self._prefixes:
            if event.kind not in self._exact and not event.kind.startswith(self._prefixes):
                return
        self.events.append(event)

    def kinds(self) -> List[str]:
        return [event.kind for event in self.events]

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [event for event in self.events if event.kind == kind]


# -- JSONL export / import ---------------------------------------------------


def write_jsonl(events: Iterable[TraceEvent], path: str) -> int:
    """Write events one-JSON-object-per-line; returns the count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event.to_dict(), default=str))
            handle.write("\n")
            count += 1
    return count


def read_jsonl(path: str) -> List[TraceEvent]:
    """Load a trace written by :func:`write_jsonl`."""
    events: List[TraceEvent] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(TraceEvent.from_dict(json.loads(line)))
    return events
