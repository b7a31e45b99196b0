"""AP-side routing glue: wired backhaul + payload demux.

``ApRouter`` is the network stack of one AP: it demultiplexes uplink
payloads (DHCP messages to the local daemon, TCP ACKs across the
backhaul to the content server) and carries downlink traffic from the
wired side through the backhaul shaper onto the air (or into a PSM
buffer, which the AP decides).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.mac.ap import AccessPoint
from repro.net.dhcp import DhcpMessage, DhcpServer
from repro.net.shaper import TokenBucketShaper
from repro.net.tcp import TcpSegment
from repro.sim.engine import Simulator


class WiredBackhaul:
    """One AP's wired path: a shaper plus fixed propagation latency."""

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        latency_s: float = 0.025,
        queue_limit_bytes: int = 100_000,
    ):
        self.sim = sim
        self.latency_s = latency_s
        self.shaper = TokenBucketShaper(sim, rate_bps, queue_limit_bytes)

    def down(self, size_bytes: int, deliver: Callable[..., Any], *args: Any) -> None:
        """Wired → AP: latency, then serialisation through the shaper.

        ``deliver(*args)`` runs when the packet leaves the shaper.
        """
        self.sim.schedule(self.latency_s, self.shaper.enqueue, size_bytes, deliver, *args)

    def up(self, deliver: Callable[..., Any], *args: Any) -> None:
        """AP → wired: ACK-sized traffic, latency only; then ``deliver(*args)``."""
        self.sim.schedule(self.latency_s, deliver, *args)


class ApRouter:
    """Demux/forwarding for one AP."""

    def __init__(
        self,
        sim: Simulator,
        ap: AccessPoint,
        backhaul: WiredBackhaul,
        dhcp_server: Optional[DhcpServer] = None,
    ):
        self.sim = sim
        self.ap = ap
        self.backhaul = backhaul
        self.dhcp_server = dhcp_server
        if dhcp_server is not None:
            dhcp_server.send = self._send_dhcp_reply
        ap.on_uplink = self._on_uplink
        self._ack_sinks: Dict[int, Callable[[TcpSegment], None]] = {}

    def register_flow(self, flow_id: int, ack_sink: Callable[[TcpSegment], None]) -> None:
        """Register the wired-side sender's ACK entry point."""
        self._ack_sinks[flow_id] = ack_sink

    def unregister_flow(self, flow_id: int) -> None:
        self._ack_sinks.pop(flow_id, None)

    # -- uplink (client → wired) ------------------------------------------

    def _on_uplink(self, client: str, payload: object) -> None:
        if isinstance(payload, DhcpMessage):
            if self.dhcp_server is not None:
                self.dhcp_server.handle(client, payload)
        elif isinstance(payload, TcpSegment):
            sink = self._ack_sinks.get(payload.flow_id)
            if sink is not None:
                self.backhaul.up(sink, payload)

    # -- downlink (wired → client) -------------------------------------------

    def _send_dhcp_reply(self, client: str, message: DhcpMessage) -> None:
        # Join traffic bypasses PSM buffering (the paper's premise): a
        # reply sent while the client is on another channel is lost.
        self.ap.send_unbuffered(client, message, message.size_bytes)

    def send_down(self, client: str, segment: TcpSegment) -> None:
        """Carry a server segment across the backhaul onto the air."""
        size_bytes = segment.size_bytes
        self.backhaul.down(size_bytes, self.ap.send_to_client, client, segment, size_bytes)
