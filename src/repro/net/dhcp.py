"""DHCP client and server.

The paper's key observation is that the DHCP exchange — not the channel
switch — dominates the cost of joining an AP from a moving vehicle:
the response time is controlled by the AP, cannot be PSM-buffered
before an address exists, and stock clients use long timers (a 3 s
attempt window, 60 s idle backoff on failure, ~1 s per-message
retransmit). All three timers are first-class configuration here, as is
the server-side response delay ``β ~ U[βmin, βmax]`` from the
analytical model.

The exchange is the standard four messages: DISCOVER → OFFER →
REQUEST → ACK. Messages ride as data-frame payloads through the AP.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.obs import trace as tr
from repro.sim.engine import Simulator
from repro.sim.timers import Timer

#: On-the-wire size of a DHCP message (bytes, typical BOOTP frame).
DHCP_MESSAGE_BYTES = 300

_xid_counter = itertools.count(1)


class DhcpMessageType(enum.Enum):
    DISCOVER = "discover"
    OFFER = "offer"
    REQUEST = "request"
    ACK = "ack"
    NAK = "nak"


@dataclass(frozen=True)
class DhcpMessage:
    """One DHCP message (payload of a data frame)."""

    type: DhcpMessageType
    xid: int
    client: str
    server: str
    ip: Optional[str] = None

    @property
    def size_bytes(self) -> int:
        return DHCP_MESSAGE_BYTES


@dataclass
class Lease:
    """A bound DHCP lease."""

    ip: str
    server: str
    obtained_at: float
    duration: float = 3600.0

    def expired(self, now: float) -> bool:
        return now > self.obtained_at + self.duration


@dataclass
class DhcpServerConfig:
    """AP-side responsiveness: per-message processing delay bounds.

    The analytical model's β bounds the *whole* request→response time;
    the server splits it over its two responses (OFFER and ACK), so
    each message is delayed by U[βmin/2, βmax/2].
    """

    beta_min: float = 0.5
    beta_max: float = 5.0
    pool_size: int = 250


class DhcpServer:
    """The DHCP daemon behind one AP.

    ``send`` is injected by the AP router: ``send(client, message)``.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: Optional[DhcpServerConfig] = None,
        rng=None,
        send: Optional[Callable[[str, DhcpMessage], None]] = None,
    ):
        self.sim = sim
        self.name = name
        self.config = config or DhcpServerConfig()
        self._rng = rng
        self.send = send
        self._leases: Dict[str, str] = {}  # client -> ip
        self._next_host = itertools.count(2)
        self.offers_made = 0
        self.acks_sent = 0

    def _response_delay(self) -> float:
        low = self.config.beta_min / 2.0
        high = self.config.beta_max / 2.0
        if self._rng is None:
            return (low + high) / 2.0
        return self._rng.uniform(low, high)

    def _allocate(self, client: str) -> Optional[str]:
        ip = self._leases.get(client)
        if ip is not None:
            return ip
        if len(self._leases) >= self.config.pool_size:
            return None
        # Not hash(): str hashing is salted per process, so the subnet
        # (and every traced lease) would change from run to run.
        digest = hashlib.sha256(self.name.encode()).digest()
        ip = f"10.0.{int.from_bytes(digest[:8], 'big') % 255}.{next(self._next_host)}"
        self._leases[client] = ip
        return ip

    def handle(self, client: str, message: DhcpMessage) -> None:
        """Process one uplink DHCP message from ``client``."""
        if message.type == DhcpMessageType.DISCOVER:
            ip = self._allocate(client)
            if ip is None:
                return  # pool exhausted: silence, client times out
            self.offers_made += 1
            reply = DhcpMessage(DhcpMessageType.OFFER, message.xid, client, self.name, ip)
        elif message.type == DhcpMessageType.REQUEST:
            ip = self._leases.get(client)
            if ip is None or (message.ip is not None and message.ip != ip):
                reply = DhcpMessage(DhcpMessageType.NAK, message.xid, client, self.name)
            else:
                self.acks_sent += 1
                reply = DhcpMessage(DhcpMessageType.ACK, message.xid, client, self.name, ip)
        else:
            return
        self.sim.schedule(self._response_delay(), self._send_reply, client, reply)

    def _send_reply(self, client: str, reply: DhcpMessage) -> None:
        trace = self.sim.trace
        if trace is not None:
            trace.emit(
                tr.DHCP_SERVER_TX, self.sim.now, server=self.name, client=client,
                type=reply.type.value,
            )
        if self.send is not None:
            self.send(client, reply)


class DhcpClientState(enum.Enum):
    INIT = "init"
    SELECTING = "selecting"  # DISCOVER sent, awaiting OFFER
    REQUESTING = "requesting"  # REQUEST sent, awaiting ACK
    BOUND = "bound"
    FAILED = "failed"
    IDLE_BACKOFF = "idle-backoff"


@dataclass
class DhcpClientConfig:
    """Client-side timers (the paper's knobs).

    - ``retry_timeout``: per-message retransmit timer ("dhcp timeout";
      1 s stock, 100–600 ms in the reduced-timeout experiments).
    - ``attempt_window``: total time to try for a lease (stock 3 s).
    - ``idle_backoff``: sleep after a failed attempt (stock 60 s).
    - ``restart_immediately``: Spider's policy — a mobile client cannot
      afford the stock idle backoff, so a failed window restarts at
      once (each failure still counts toward the failure-rate tables).
    """

    retry_timeout: float = 1.0
    attempt_window: float = 3.0
    idle_backoff: float = 60.0
    restart_immediately: bool = False


class DhcpClient:
    """One interface's DHCP client.

    ``transmit`` is injected by the owning driver and is expected to
    queue-or-send the message toward the AP; it returns True if the
    message could be handed to the radio *now* (i.e. the card was on
    the AP's channel), which is how off-channel time stretches the
    exchange.
    """

    def __init__(
        self,
        sim: Simulator,
        client_name: str,
        server_name: str,
        config: Optional[DhcpClientConfig] = None,
        transmit: Optional[Callable[[DhcpMessage], bool]] = None,
        on_bound: Optional[Callable[["DhcpClient", Lease], None]] = None,
        on_failed: Optional[Callable[["DhcpClient"], None]] = None,
    ):
        self.sim = sim
        self.client_name = client_name
        self.server_name = server_name
        self.config = config or DhcpClientConfig()
        self.transmit = transmit
        self.on_bound = on_bound
        self.on_failed = on_failed
        self.state = DhcpClientState.INIT
        self.lease: Optional[Lease] = None
        self.xid = next(_xid_counter)
        self.started_at: Optional[float] = None
        self.bound_at: Optional[float] = None
        self.attempts = 0
        #: Cumulative message-level accounting (Table 3's metric):
        #: transmissions actually handed to the radio, and how many of
        #: them went unanswered within the retry timer.
        self.total_transmissions = 0
        self.message_timeouts = 0
        self._awaiting_reply = False
        self._last_tx_at: Optional[float] = None
        self._offered_ip: Optional[str] = None
        self._retry_timer = Timer(sim, self._on_retry_timeout)
        self._window_timer = Timer(sim, self._on_window_expired)

    @property
    def bound(self) -> bool:
        return self.state == DhcpClientState.BOUND

    @property
    def acquisition_time(self) -> Optional[float]:
        if self.bound_at is None or self.started_at is None:
            return None
        return self.bound_at - self.started_at

    # -- control -------------------------------------------------------

    def start(self) -> None:
        """Kick off (or restart) lease acquisition."""
        if self.state in (DhcpClientState.BOUND,):
            return
        self.state = DhcpClientState.SELECTING
        self.started_at = self.sim.now
        self.xid = next(_xid_counter)
        self._offered_ip = None
        self.attempts = 0
        self._window_timer.start(self.config.attempt_window)
        self._send_current()

    def bind_cached(self, lease: Lease) -> None:
        """Adopt a cached lease without an exchange (Spider optimisation)."""
        self.lease = lease
        self.state = DhcpClientState.BOUND
        self.started_at = self.sim.now
        self.bound_at = self.sim.now
        self._cancel_timers()
        trace = self.sim.trace
        if trace is not None:
            trace.emit(
                tr.DHCP_BIND, self.sim.now, client=self.client_name,
                server=self.server_name, ip=lease.ip, took=0.0, xid=self.xid, cached=True,
            )
        if self.on_bound is not None:
            self.on_bound(self, lease)

    def nudge(self) -> None:
        """Resend the pending message right now (if any).

        Spider calls this at dwell start: the card just arrived on the
        AP's channel, so waiting out the rest of the retry timer would
        waste scarce on-channel time.
        """
        if self.state in (DhcpClientState.SELECTING, DhcpClientState.REQUESTING):
            self._send_current()

    def abort(self) -> None:
        """Stop without reporting (driver abandoned the AP)."""
        self._cancel_timers()
        if self.state != DhcpClientState.BOUND:
            self.state = DhcpClientState.INIT

    def _cancel_timers(self) -> None:
        self._retry_timer.cancel()
        self._window_timer.cancel()

    # -- sending -------------------------------------------------------

    def _current_message(self) -> Optional[DhcpMessage]:
        if self.state == DhcpClientState.SELECTING:
            return DhcpMessage(
                DhcpMessageType.DISCOVER, self.xid, self.client_name, self.server_name
            )
        if self.state == DhcpClientState.REQUESTING:
            return DhcpMessage(
                DhcpMessageType.REQUEST,
                self.xid,
                self.client_name,
                self.server_name,
                self._offered_ip,
            )
        return None

    def _send_current(self) -> None:
        message = self._current_message()
        if message is None:
            return
        if self.transmit is not None:
            sent_now = self.transmit(message)
            trace = self.sim.trace
            if trace is not None:
                trace.emit(
                    tr.DHCP_SEND if sent_now else tr.DHCP_BLOCKED,
                    self.sim.now,
                    client=self.client_name,
                    server=self.server_name,
                    type=message.type.value,
                    xid=self.xid,
                    attempt=self.attempts + 1 if sent_now else self.attempts,
                )
            if sent_now:
                # Retransmitting over an *overdue* outstanding request
                # means that request officially timed out (Table 3's
                # metric). A nudge arriving before the timer expires is
                # not a timeout — the reply may legitimately be in
                # flight.
                overdue = (
                    self._awaiting_reply
                    and self._last_tx_at is not None
                    and self.sim.now - self._last_tx_at
                    >= self.config.retry_timeout * 0.999
                )
                if overdue:
                    self.message_timeouts += 1
                self.attempts += 1
                self.total_transmissions += 1
                # The "outstanding since" clock only restarts when the
                # previous request was answered or declared timed out —
                # an early nudge must not keep resetting it.
                if not self._awaiting_reply or overdue:
                    self._last_tx_at = self.sim.now
                self._awaiting_reply = True
        self._retry_timer.start(self.config.retry_timeout)

    def _on_retry_timeout(self) -> None:
        if self.state in (DhcpClientState.SELECTING, DhcpClientState.REQUESTING):
            trace = self.sim.trace
            if trace is not None:
                trace.emit(
                    tr.DHCP_TIMEOUT, self.sim.now, client=self.client_name,
                    server=self.server_name, state=self.state.value, xid=self.xid,
                )
            self._send_current()

    def _on_window_expired(self) -> None:
        if self.state in (DhcpClientState.SELECTING, DhcpClientState.REQUESTING):
            self._fail()

    def _fail(self) -> None:
        self._cancel_timers()
        trace = self.sim.trace
        if trace is not None:
            trace.emit(
                tr.DHCP_FAIL, self.sim.now, client=self.client_name,
                server=self.server_name, xid=self.xid, attempts=self.attempts,
            )
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter("dhcp.failures_total").inc()
        self.state = DhcpClientState.FAILED
        if self.on_failed is not None:
            self.on_failed(self)
        if self.state != DhcpClientState.FAILED:
            return  # the failure handler tore us down or restarted us
        if self.config.restart_immediately:
            self.state = DhcpClientState.INIT
            self.start()
            return
        # Stock behaviour: go idle, then try again from scratch.
        self.state = DhcpClientState.IDLE_BACKOFF
        self.sim.schedule(self.config.idle_backoff, self._retry_after_backoff)

    def _retry_after_backoff(self) -> None:
        if self.state == DhcpClientState.IDLE_BACKOFF:
            self.state = DhcpClientState.INIT
            self.start()

    # -- receiving -------------------------------------------------------

    def handle(self, message: DhcpMessage) -> None:
        """Feed a downlink DHCP message (driver dispatches by server)."""
        if message.client != self.client_name or message.xid != self.xid:
            return
        if message.type == DhcpMessageType.OFFER and self.state == DhcpClientState.SELECTING:
            self._awaiting_reply = False
            self._offered_ip = message.ip
            self.state = DhcpClientState.REQUESTING
            self._send_current()
        elif message.type == DhcpMessageType.ACK and self.state == DhcpClientState.REQUESTING:
            self._awaiting_reply = False
            self._cancel_timers()
            self.state = DhcpClientState.BOUND
            self.bound_at = self.sim.now
            self.lease = Lease(
                ip=message.ip or "0.0.0.0",
                server=self.server_name,
                obtained_at=self.sim.now,
            )
            trace = self.sim.trace
            if trace is not None:
                took = self.sim.now - self.started_at if self.started_at is not None else 0.0
                trace.emit(
                    tr.DHCP_BIND, self.sim.now, client=self.client_name,
                    server=self.server_name, ip=self.lease.ip, took=took,
                    xid=self.xid, cached=False,
                )
            if self.on_bound is not None:
                self.on_bound(self, self.lease)
        elif message.type == DhcpMessageType.NAK:
            self._fail()
