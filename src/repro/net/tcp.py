"""Packet-level TCP (Reno-style) model.

Figures 7 and 8 of the paper hinge on the interaction between channel
schedules and TCP's retransmission timeout: an off-channel absence
longer than the RTO collapses the window to one segment and re-enters
slow start. Reproducing that requires a real packet-level loop — cwnd,
ssthresh, RTT estimation (RFC 6298 form), exponential RTO backoff, and
fast retransmit on triple duplicate ACKs — which is what this module
implements. The sender lives on the wired side; the receiver is the
mobile client.

The paper's environment has ~200 ms effective RTTs ("400 ms ... equal
to two typical RTTs") and joins of 2–3 s corresponding to "10–15 TCP
timeouts", i.e. an RTO floor around 200 ms; ``TcpConfig.min_rto``
defaults accordingly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Set

from repro.obs import trace as tr
from repro.sim.engine import Simulator
from repro.sim.timers import Timer

TCP_HEADER_BYTES = 40

_flow_ids = itertools.count(1)


def next_flow_id() -> int:
    return next(_flow_ids)


class TcpSegment(NamedTuple):
    """A TCP segment (payload of a data frame or backhaul packet).

    ``ts`` is the sender's transmit timestamp; ``ts_echo`` on an ACK
    echoes the timestamp of the segment that triggered it (the TCP
    timestamps option, RFC 7323) — used for Eifel-style spurious-RTO
    detection.

    Immutable. A ``NamedTuple`` rather than a frozen dataclass: one is
    built per segment and per ACK, and a frozen dataclass's ``__init__``
    sets every field through ``object.__setattr__``, about three times
    the cost of a tuple's construction.
    """

    flow_id: int
    seq: int  # first payload byte carried (data) / unused (ack)
    length: int  # payload bytes (0 for a pure ack)
    is_ack: bool = False
    ack: int = 0  # cumulative: next byte expected
    ts: float = 0.0
    ts_echo: float = -1.0

    @property
    def size_bytes(self) -> int:
        return TCP_HEADER_BYTES + self.length

    @property
    def end(self) -> int:
        return self.seq + self.length


@dataclass
class TcpConfig:
    """Congestion-control and timer parameters."""

    mss: int = 1400
    init_cwnd_segments: float = 2.0
    init_ssthresh_segments: float = 64.0
    max_cwnd_segments: float = 128.0
    min_rto: float = 0.2
    max_rto: float = 60.0
    initial_rto: float = 1.0
    dupack_threshold: int = 3


class TcpSender:
    """Bulk-data sender: an infinite backlog pushed through Reno.

    ``send`` is injected and carries a segment toward the client;
    ACKs come back via :meth:`on_ack`.
    """

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        send: Callable[[TcpSegment], None],
        config: Optional[TcpConfig] = None,
    ):
        self.sim = sim
        self.flow_id = flow_id
        self.config = config or TcpConfig()
        self._send = send
        self.snd_una = 0
        self.snd_nxt = 0
        self.cwnd = self.config.init_cwnd_segments
        self.ssthresh = self.config.init_ssthresh_segments
        self.srtt: Optional[float] = None
        self.rttvar: float = 0.0
        self.rto = self.config.initial_rto
        self.dupacks = 0
        self.running = False
        self.timeouts = 0
        self.fast_retransmits = 0
        self.spurious_recoveries = 0
        self.segments_sent = 0
        self._pre_rto_cwnd: Optional[float] = None
        self._pre_rto_ssthresh: Optional[float] = None
        self._rto_fired_at: Optional[float] = None
        self._retransmitted: Set[int] = set()
        self._timed_seq: Optional[int] = None
        self._timed_at: float = 0.0
        self._last_traced_cwnd = self.cwnd
        self._rto_timer = Timer(sim, self._on_rto)

    def _trace_cwnd(self, trace) -> None:
        """Emit ``tcp.cwnd`` when the window moved >= 1 segment.

        Per-ACK emission would dominate a trace; segment-granularity
        keeps slow-start doublings and loss collapses visible while
        bounding volume.
        """
        if abs(self.cwnd - self._last_traced_cwnd) >= 1.0:
            self._last_traced_cwnd = self.cwnd
            trace.emit(
                tr.TCP_CWND, self.sim.now, flow=self.flow_id, cwnd=self.cwnd,
                ssthresh=self.ssthresh,
            )

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        self.running = True
        self._pump()

    def stop(self) -> None:
        self.running = False
        self._rto_timer.cancel()

    @property
    def in_flight(self) -> int:
        return self.snd_nxt - self.snd_una

    # -- transmit path ---------------------------------------------------

    def _window_bytes(self) -> int:
        return int(self.cwnd * self.config.mss)

    def _pump(self) -> None:
        """Fill the congestion window with new segments."""
        if not self.running:
            return
        while self.in_flight + self.config.mss <= self._window_bytes():
            self._transmit(self.snd_nxt, self.config.mss)
            self.snd_nxt += self.config.mss
        if self.in_flight > 0 and not self._rto_timer.armed:
            self._rto_timer.start(self.rto)

    def _transmit(self, seq: int, length: int) -> None:
        segment = TcpSegment(self.flow_id, seq, length, ts=self.sim.now)
        self.segments_sent += 1
        if self._timed_seq is None and seq not in self._retransmitted:
            self._timed_seq = seq + length
            self._timed_at = self.sim.now
        self._send(segment)

    # -- acks --------------------------------------------------------------

    def on_ack(self, segment: TcpSegment) -> None:
        if not segment.is_ack or not self.running:
            return
        if segment.ack > self.snd_una:
            self._on_new_ack(segment.ack, segment.ts_echo)
        elif segment.ack == self.snd_una and self.in_flight > 0:
            self._on_dupack()

    def _on_new_ack(self, ack: int, ts_echo: float = -1.0) -> None:
        if ts_echo >= 0.0:
            # Timestamp option present (the normal case): sample every
            # ACK, as Linux does. Off-channel absences then inflate
            # srtt/rttvar enough to keep RTO above the absence length,
            # which is exactly the real-stack behaviour Figs. 7/8 rest on.
            self._apply_rtt_sample(self.sim.now - ts_echo)
            self._timed_seq = None
        else:
            self._maybe_sample_rtt(ack)
        advanced = ack - self.snd_una
        if self._pre_rto_cwnd is not None:
            # Eifel spurious-timeout detection (RFC 3522, as real TCP
            # stacks do with the timestamps option): if the ACK echoes
            # a timestamp older than the RTO firing, it acknowledges
            # the *original* transmission — the timeout was spurious
            # (e.g. an off-channel absence, not loss). Restore the
            # pre-timeout window instead of slow-starting from 1.
            fired_at = self._rto_fired_at if self._rto_fired_at is not None else 0.0
            if 0.0 <= ts_echo < fired_at:
                self.cwnd = self._pre_rto_cwnd
                self.ssthresh = self._pre_rto_ssthresh or self.ssthresh
                self.spurious_recoveries += 1
                trace = self.sim.trace
                if trace is not None:
                    trace.emit(
                        tr.TCP_SPURIOUS_RECOVERY, self.sim.now, flow=self.flow_id,
                        cwnd=self.cwnd,
                    )
            self._pre_rto_cwnd = None
            self._pre_rto_ssthresh = None
            self._rto_fired_at = None
        acked_segments = max(1, advanced // self.config.mss)
        self.snd_una = ack
        self.dupacks = 0
        if self._retransmitted:
            self._retransmitted = {seq for seq in self._retransmitted if seq >= ack}
        for _ in range(acked_segments):
            if self.cwnd < self.ssthresh:
                self.cwnd += 1.0  # slow start
            else:
                self.cwnd += 1.0 / self.cwnd  # congestion avoidance
        self.cwnd = min(self.cwnd, self.config.max_cwnd_segments)
        trace = self.sim.trace
        if trace is not None:
            self._trace_cwnd(trace)
        if self.in_flight <= 0:
            self._rto_timer.cancel()
        else:
            self._rto_timer.start(self.rto)
        self._pump()

    def _maybe_sample_rtt(self, ack: int) -> None:
        if self._timed_seq is None or ack < self._timed_seq:
            return
        sample = self.sim.now - self._timed_at
        self._timed_seq = None
        self._apply_rtt_sample(sample)

    def _apply_rtt_sample(self, sample: float) -> None:
        if sample < 0:
            return
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = self.srtt + max(4.0 * self.rttvar, 0.010)
        self.rto = min(max(self.rto, self.config.min_rto), self.config.max_rto)

    def _on_dupack(self) -> None:
        self.dupacks += 1
        if self.dupacks != self.config.dupack_threshold:
            return
        # Fast retransmit / simplified fast recovery.
        self.fast_retransmits += 1
        flight_segments = max(self.in_flight / self.config.mss, 2.0)
        self.ssthresh = max(flight_segments / 2.0, 2.0)
        self.cwnd = self.ssthresh
        trace = self.sim.trace
        if trace is not None:
            trace.emit(
                tr.TCP_FAST_RETRANSMIT, self.sim.now, flow=self.flow_id,
                cwnd=self.cwnd, ssthresh=self.ssthresh,
            )
            self._trace_cwnd(trace)
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter("tcp.fast_retransmits_total").inc()
        self._retransmit_head()

    def _on_rto(self) -> None:
        if not self.running or self.in_flight <= 0:
            return
        self.timeouts += 1
        if self._pre_rto_cwnd is None:
            self._pre_rto_cwnd = self.cwnd
            self._pre_rto_ssthresh = self.ssthresh
            self._rto_fired_at = self.sim.now
        flight_segments = max(self.in_flight / self.config.mss, 2.0)
        self.ssthresh = max(flight_segments / 2.0, 2.0)
        self.cwnd = 1.0
        self.rto = min(self.rto * 2.0, self.config.max_rto)
        self.dupacks = 0
        self._timed_seq = None  # Karn: no samples from retransmissions
        trace = self.sim.trace
        if trace is not None:
            trace.emit(
                tr.TCP_RTO, self.sim.now, flow=self.flow_id, rto=self.rto,
                cwnd=self.cwnd, ssthresh=self.ssthresh, timeouts=self.timeouts,
            )
            self._trace_cwnd(trace)
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter("tcp.rtos_total").inc()
        self._retransmit_head()
        self._rto_timer.start(self.rto)

    def _retransmit_head(self) -> None:
        self._retransmitted.add(self.snd_una)
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter("tcp.retransmissions_total").inc()
        segment = TcpSegment(self.flow_id, self.snd_una, self.config.mss, ts=self.sim.now)
        self.segments_sent += 1
        self._send(segment)


class TcpReceiver:
    """Client-side receiver: cumulative ACKs, out-of-order buffering."""

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        send_ack: Callable[[TcpSegment], None],
        on_deliver: Optional[Callable[[int], None]] = None,
    ):
        self.sim = sim
        self.flow_id = flow_id
        self._send_ack = send_ack
        self.on_deliver = on_deliver
        self.rcv_nxt = 0
        self.bytes_delivered = 0
        self._out_of_order: Dict[int, int] = {}  # seq -> length

    def on_segment(self, segment: TcpSegment) -> None:
        if segment.is_ack or segment.flow_id != self.flow_id:
            return
        if segment.seq == self.rcv_nxt:
            self._accept(segment.length)
            self._drain_buffered()
        elif segment.seq > self.rcv_nxt:
            self._out_of_order[segment.seq] = segment.length
        self._send_ack(
            TcpSegment(
                self.flow_id, 0, 0, is_ack=True, ack=self.rcv_nxt, ts_echo=segment.ts
            )
        )

    def _accept(self, length: int) -> None:
        self.rcv_nxt += length
        self.bytes_delivered += length
        if self.on_deliver is not None:
            self.on_deliver(length)

    def _drain_buffered(self) -> None:
        while self.rcv_nxt in self._out_of_order:
            length = self._out_of_order.pop(self.rcv_nxt)
            self._accept(length)
