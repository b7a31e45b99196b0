"""Access point MAC entity.

One :class:`AccessPoint` owns a static radio on a fixed channel and
implements the responder side of the join machinery plus the PSM
buffering that virtualized Wi-Fi clients exploit:

- periodic beacons;
- probe / authentication / association responses, each after a
  processing delay drawn from the AP's responsiveness profile;
- per-client power-save buffers: a client that sends a null-data frame
  with the PM bit set has its downlink traffic buffered until it sends
  a PS-Poll or clears the bit (this is the "falsely claiming to enter
  power-save mode" mechanism of Sec. 2);
- uplink forwarding: payloads of data frames addressed to the AP are
  handed to ``on_uplink`` (wired side: DHCP server, backhaul router).
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Deque, Dict, Optional, Set, Union, cast

from repro.mac import frames
from repro.mac.frames import Frame, FrameType
from repro.obs import trace as tr
from repro.phy.radio import Medium, Radio
from repro.sim.engine import Simulator
from repro.sim.randomness import ParkedStream
from repro.world.geometry import Point
from repro.world.mobility import StaticMobility


@dataclass
class ApConfig:
    """Responsiveness profile of one AP.

    ``beta_min``/``beta_max`` bound the AP-side processing delay of the
    join steps, matching the analytical model's uniform join-response
    distribution. The total is split across the handshake steps:
    association is fast (a firmware path), DHCP dominates (a userspace
    daemon on a consumer router), per the paper's measurements.
    """

    beacon_interval: float = 0.100
    probe_delay: float = 0.005
    auth_delay: float = 0.002
    assoc_delay_min: float = 0.010
    assoc_delay_max: float = 0.080
    #: Consumer APs buffer only a few dozen frames per PS client; a
    #: client away longer than buffer/backhaul-rate seconds loses the
    #: excess — the mechanism that strangles long off-channel absences.
    psm_buffer_frames: int = 50
    client_timeout: float = 60.0


#: Read-only stand-ins for the per-client containers of an AP that no
#: client has spoken to yet. Every such AP shares them; the first
#: client frame swaps in its own (``_admit_clients``). Reads see an
#: empty container, and a write before the swap raises instead of
#: leaking into every other AP.
_NO_CLIENTS = cast(Set[str], frozenset())
_NO_ENTRIES = cast(Dict[Any, Any], MappingProxyType({}))

_BEACON = FrameType.BEACON


class AccessPoint:
    """An 802.11 AP with PSM buffering and pluggable uplink."""

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        name: str,
        channel: int,
        position: Point,
        config: Optional[ApConfig] = None,
        rng: Optional[Union[random.Random, ParkedStream]] = None,
    ):
        self.sim = sim
        self.name = name
        self.channel = channel
        self.config = config or ApConfig()
        if rng is None:
            # Fallback seed must not use hash(): str hashing is salted per
            # process, so worker-pool runs would disagree with inline runs.
            rng = random.Random(int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big"))
        self._rng = rng
        self.radio = Radio(medium, StaticMobility(position), channel, name=name, address=name)
        self.radio.on_receive = self._on_frame
        self.radio.on_unicast_failure = self._on_tx_failure
        # Per-client state: shared empty stand-ins until a client frame
        # arrives. A city-scale world has thousands of APs that only
        # ever hear each other's beacons.
        self.authenticated: Set[str] = _NO_CLIENTS
        self.associated: Set[str] = _NO_CLIENTS
        self._psm_mode: Set[str] = _NO_CLIENTS
        self._psm_buffers: Dict[str, Deque[Frame]] = _NO_ENTRIES
        self._retry_buffers: Dict[str, Deque[Frame]] = _NO_ENTRIES
        self._parked: Set[str] = _NO_CLIENTS
        self._last_heard: Dict[str, float] = _NO_ENTRIES
        self.on_uplink: Optional[Callable[[str, object], None]] = None
        self.on_associated: Optional[Callable[[str], None]] = None
        self.psm_drops = 0
        self._beaconing = False
        #: Beacons are immutable after construction and nothing in the
        #: stack keeps per-frame state for them (``Frame.seq`` only
        #: feeds ``__repr__``), so one frame object serves every tick
        #: instead of re-allocating ~10 frames/s per AP.
        self._beacon_frame = frames.beacon(self.name, payload={"channel": self.channel})
        metrics = sim.metrics
        if metrics is not None:
            metrics.add_source(lambda: {"ap.psm_drops": self.psm_drops})

    def _admit_clients(self) -> None:
        """Give this AP its own per-client containers (first client frame)."""
        self.authenticated = set()
        self.associated = set()
        self._psm_mode = set()
        self._psm_buffers = {}
        # Frames whose transmission failed (client raced us leaving the
        # channel). They predate anything in the PSM buffer, so they are
        # flushed first to preserve TCP ordering.
        self._retry_buffers = {}
        # Clients with at least one frame parked in either buffer: the
        # per-frame wake check in ``_on_frame`` is one set lookup
        # instead of two dict probes.
        self._parked = set()
        self._last_heard = {}

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Begin beaconing and client ageing."""
        if self._beaconing:
            return
        self._beaconing = True
        # Desynchronise beacons across APs sharing a channel.
        initial = self._rng.uniform(0, self.config.beacon_interval)
        self.sim.schedule(initial, self._beacon_tick)
        self.sim.schedule(self.config.client_timeout, self._age_clients)

    def _beacon_tick(self) -> None:
        if not self._beaconing:
            return
        self.radio.transmit(self._beacon_frame)
        self.sim.schedule(self.config.beacon_interval, self._beacon_tick)

    def stop(self) -> None:
        self._beaconing = False

    def _age_clients(self) -> None:
        horizon = self.sim.now - self.config.client_timeout
        for client in sorted(self.associated):
            if self._last_heard.get(client, 0.0) < horizon:
                self._drop_client(client)
        self.sim.schedule(self.config.client_timeout / 2, self._age_clients)

    def _drop_client(self, client: str) -> None:
        self.associated.discard(client)
        self.authenticated.discard(client)
        self._psm_mode.discard(client)
        self._psm_buffers.pop(client, None)
        self._retry_buffers.pop(client, None)
        self._parked.discard(client)

    # -- frame handling ---------------------------------------------------

    def _on_tx_failure(self, frame: Frame) -> None:
        """TX-status "failed" for a client that announced power-save.

        A frame already in flight when the PSM null was processed races
        the client's departure; real APs re-queue it into the power-save
        buffer rather than dropping it. Clients that vanished *without*
        announcing PSM get no such service — their frames are simply
        lost after the retry limit, which is exactly what the fake-PSM
        trick exists to avoid.
        """
        if frame.type != FrameType.DATA or frame.src != self.name:
            return
        if not frame.bufferable:
            return  # join traffic: a missed response is simply lost
        client = frame.dst
        if client not in self.associated or client not in self._psm_mode:
            return
        buffer = self._retry_buffers.setdefault(client, deque())
        if len(buffer) >= self.config.psm_buffer_frames:
            self.psm_drops += 1
            trace = self.sim.trace
            if trace is not None:
                trace.emit(tr.AP_PSM_DROP, self.sim.now, ap=self.name, client=client)
            return
        buffer.append(frame)
        self._parked.add(client)

    #: frame type → unbound handler, hoisted to the class: ``_on_frame``
    #: runs once per frame the AP hears (every beacon on the channel at
    #: metro density), and rebuilding a seven-entry dict there cost
    #: seven enum hashes per frame before the lookup even started.
    _FRAME_HANDLERS: Dict[FrameType, Callable[["AccessPoint", Frame], None]] = {}

    def _on_frame(self, frame: Frame) -> None:
        # Beacons come only from other APs and have no handler. AP names
        # never enter ``associated``, so ``_age_clients`` would never
        # read a ``_last_heard`` entry for one.
        if frame.type is _BEACON:
            return
        if frame.dst != self.name and frame.dst != frames.BROADCAST:
            return
        if self._last_heard is _NO_ENTRIES:
            self._admit_clients()
        self._last_heard[frame.src] = self.sim.now
        # Hearing from a client not in PSM means it is awake: release
        # anything parked by PSM or TX-failure requeueing.
        if frame.src in self._parked and frame.src not in self._psm_mode:
            self._flush_psm(frame.src)
        handler = self._FRAME_HANDLERS.get(frame.type)
        if handler is not None:
            handler(self, frame)

    def _on_probe(self, frame: Frame) -> None:
        trace = self.sim.trace
        if trace is not None:
            trace.emit(tr.AP_PROBE_RESP, self.sim.now, ap=self.name, client=frame.src)
        response = frames.mgmt_frame(
            FrameType.PROBE_RESPONSE, self.name, frame.src, payload={"channel": self.channel}
        )
        self.sim.schedule(self.config.probe_delay, self.radio.transmit, response)

    def _on_auth(self, frame: Frame) -> None:
        self.authenticated.add(frame.src)
        response = frames.mgmt_frame(FrameType.AUTH_RESPONSE, self.name, frame.src)
        self.sim.schedule(self.config.auth_delay, self.radio.transmit, response)

    def _on_assoc(self, frame: Frame) -> None:
        if frame.src not in self.authenticated:
            return  # out-of-order association attempt; client must re-auth
        delay = self._rng.uniform(self.config.assoc_delay_min, self.config.assoc_delay_max)
        self.sim.schedule(delay, self._complete_assoc, frame.src)

    def _complete_assoc(self, client: str) -> None:
        self.associated.add(client)
        self._psm_buffers.setdefault(client, deque())
        trace = self.sim.trace
        if trace is not None:
            trace.emit(tr.AP_ASSOC_GRANT, self.sim.now, ap=self.name, client=client)
        self.radio.transmit(frames.mgmt_frame(FrameType.ASSOC_RESPONSE, self.name, client))
        if self.on_associated is not None:
            self.on_associated(client)

    def _on_deauth(self, frame: Frame) -> None:
        self._drop_client(frame.src)

    def _on_null(self, frame: Frame) -> None:
        if frame.src not in self.associated:
            return
        trace = self.sim.trace
        if frame.pm:
            if trace is not None and frame.src not in self._psm_mode:
                trace.emit(tr.AP_PSM_SLEEP, self.sim.now, ap=self.name, client=frame.src)
            self._psm_mode.add(frame.src)
        else:
            if trace is not None and frame.src in self._psm_mode:
                trace.emit(
                    tr.AP_PSM_WAKE, self.sim.now, ap=self.name, client=frame.src,
                    buffered=self.psm_backlog(frame.src),
                )
            self._psm_mode.discard(frame.src)
            self._flush_psm(frame.src)

    def _on_ps_poll(self, frame: Frame) -> None:
        if frame.src in self.associated:
            self._flush_psm(frame.src)

    def _on_data(self, frame: Frame) -> None:
        if frame.pm:
            self._psm_mode.add(frame.src)
        if self.on_uplink is not None and frame.payload is not None:
            self.on_uplink(frame.src, frame.payload)

    # -- downlink ----------------------------------------------------------

    def client_in_psm(self, client: str) -> bool:
        return client in self._psm_mode

    def psm_backlog(self, client: str) -> int:
        return len(self._psm_buffers.get(client, ()))

    def send_unbuffered(self, client: str, payload: object, payload_bytes: int) -> None:
        """Transmit immediately, bypassing PSM buffering.

        Used for join traffic (DHCP responses): the exchange is driven
        by the AP's own daemon and does not honour power-save state —
        a response sent while the client is off-channel is lost. This
        is the paper's core observation about why fractional channel
        schedules break joins.
        """
        frame = frames.data_frame(self.name, client, payload, payload_bytes)
        frame.bufferable = False
        # DHCP replies go out like broadcasts on real APs (the client
        # has no confirmed address yet): no link-layer ARQ either.
        frame.needs_ack = False
        self.radio.transmit(frame)

    def send_to_client(self, client: str, payload: object, payload_bytes: int) -> None:
        """Send (or PSM-buffer) a downlink payload to an associated client."""
        frame = frames.data_frame(self.name, client, payload, payload_bytes)
        if client in self._psm_mode or self._retry_buffers.get(client):
            # Asleep — or awake with failed frames awaiting re-delivery,
            # in which case overtaking them would reorder the stream.
            buffer = self._psm_buffers.setdefault(client, deque())
            if len(buffer) >= self.config.psm_buffer_frames:
                self.psm_drops += 1
                trace = self.sim.trace
                if trace is not None:
                    trace.emit(tr.AP_PSM_DROP, self.sim.now, ap=self.name, client=client)
                return
            buffer.append(frame)
            self._parked.add(client)
            return
        self.radio.transmit(frame)

    def _flush_psm(self, client: str) -> None:
        self._parked.discard(client)
        retry = self._retry_buffers.get(client)
        if retry:
            while retry:
                self.radio.transmit(retry.popleft())
        buffer = self._psm_buffers.get(client)
        if buffer:
            while buffer:
                self.radio.transmit(buffer.popleft())


#: Populated after the class body so the unbound methods exist; kept
#: off the instance so every AP shares one dict (and one set of enum
#: hashes, computed once at import).
AccessPoint._FRAME_HANDLERS = {
    FrameType.PROBE_REQUEST: AccessPoint._on_probe,
    FrameType.AUTH_REQUEST: AccessPoint._on_auth,
    FrameType.ASSOC_REQUEST: AccessPoint._on_assoc,
    FrameType.NULL_DATA: AccessPoint._on_null,
    FrameType.PS_POLL: AccessPoint._on_ps_poll,
    FrameType.DATA: AccessPoint._on_data,
    FrameType.DEAUTH: AccessPoint._on_deauth,
}
