"""Unit tests for the DHCP client and server."""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.net.dhcp import (
    DhcpClient,
    DhcpClientConfig,
    DhcpClientState,
    DhcpMessage,
    DhcpMessageType,
    DhcpServer,
    DhcpServerConfig,
    Lease,
)
from repro.sim.engine import Simulator


class Loopback:
    """Wires a client and server together with configurable delivery."""

    def __init__(self, sim, server_config=None, client_config=None):
        self.sim = sim
        self.client_reachable = True
        self.server_reachable = True
        self.server = DhcpServer(
            sim, "ap", config=server_config or DhcpServerConfig(beta_min=0.1, beta_max=0.1),
            send=self._to_client,
        )
        self.bound = []
        self.failed = []
        self.client = DhcpClient(
            sim, "cli", "ap",
            config=client_config or DhcpClientConfig(retry_timeout=0.2, attempt_window=3.0),
            transmit=self._to_server,
            on_bound=lambda c, lease: self.bound.append(lease),
            on_failed=lambda c: self.failed.append(self.sim.now),
        )

    def _to_server(self, message):
        if not self.server_reachable:
            return False
        self.sim.schedule(0.01, self.server.handle, "cli", message)
        return True

    def _to_client(self, client, message):
        if self.client_reachable:
            self.sim.schedule(0.01, self.client.handle, message)


def test_full_exchange_binds():
    sim = Simulator()
    loop = Loopback(sim)
    loop.client.start()
    sim.run(until=5.0)
    assert loop.client.bound
    assert len(loop.bound) == 1
    assert loop.bound[0].ip.startswith("10.0.")


#: Binds one lease through ``Loopback`` and prints its address.
_LEASE_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from test_dhcp import Loopback
from repro.sim.engine import Simulator
sim = Simulator()
loop = Loopback(sim)
loop.client.start()
sim.run(until=5.0)
print(loop.bound[0].ip)
"""


def test_lease_ip_independent_of_hash_seed():
    """The subnet octet must not come from ``hash()``, which is salted
    per process: two interpreters with different ``PYTHONHASHSEED``
    values must hand out the same address."""
    src = str(Path(repro.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    ips = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _LEASE_SCRIPT, tests],
            env=env, capture_output=True, text=True, check=True,
        )
        ips.add(out.stdout.strip())
    assert len(ips) == 1 and ips.pop().startswith("10.0.")


def test_acquisition_time_positive():
    sim = Simulator()
    loop = Loopback(sim)
    loop.client.start()
    sim.run(until=5.0)
    assert loop.client.acquisition_time > 0.0


def test_same_client_gets_same_ip_on_rebind():
    sim = Simulator()
    loop = Loopback(sim)
    loop.client.start()
    sim.run(until=5.0)
    first_ip = loop.bound[0].ip
    loop.client.state = DhcpClientState.INIT
    loop.client.start()
    sim.run(until=10.0)
    assert loop.bound[1].ip == first_ip


def test_window_expiry_fails():
    sim = Simulator()
    loop = Loopback(sim)
    loop.server_reachable = False
    loop.client.start()
    sim.run(until=5.0)
    assert loop.failed
    assert not loop.client.bound


def test_idle_backoff_then_retry():
    sim = Simulator()
    loop = Loopback(
        sim,
        client_config=DhcpClientConfig(
            retry_timeout=0.2, attempt_window=1.0, idle_backoff=10.0
        ),
    )
    loop.server_reachable = False
    loop.client.start()
    sim.run(until=2.0)
    assert loop.client.state == DhcpClientState.IDLE_BACKOFF
    loop.server_reachable = True
    sim.run(until=20.0)
    assert loop.client.bound


def test_restart_immediately_skips_backoff():
    sim = Simulator()
    loop = Loopback(
        sim,
        client_config=DhcpClientConfig(
            retry_timeout=0.2, attempt_window=1.0, idle_backoff=60.0,
            restart_immediately=True,
        ),
    )
    loop.server_reachable = False
    loop.client.start()
    sim.run(until=1.5)
    loop.server_reachable = True
    sim.run(until=4.0)  # well under the 60 s backoff
    assert loop.client.bound
    assert loop.failed  # the first window still counted as a failure


def test_retries_counted_only_when_sent():
    sim = Simulator()
    loop = Loopback(sim)
    loop.server_reachable = False

    original = loop._to_server

    def refuse(message):
        return False  # off-channel: not handed to the radio

    loop.client.transmit = refuse
    loop.client.start()
    sim.run(until=1.0)
    assert loop.client.attempts == 0


def test_lost_offer_recovered_by_retry():
    sim = Simulator()
    loop = Loopback(sim)
    drops = {"n": 2}

    original = loop._to_client

    def lossy(client, message):
        if drops["n"] > 0:
            drops["n"] -= 1
            return
        original(client, message)

    loop.server.send = lossy
    loop.client.start()
    sim.run(until=5.0)
    assert loop.client.bound


def test_stale_xid_ignored():
    sim = Simulator()
    loop = Loopback(sim)
    loop.client.start()
    stale = DhcpMessage(DhcpMessageType.OFFER, xid=-1, client="cli", server="ap", ip="10.9.9.9")
    loop.client.handle(stale)
    assert loop.client.state == DhcpClientState.SELECTING


def test_nak_fails_exchange():
    sim = Simulator()
    loop = Loopback(sim)
    loop.client.start()
    sim.run(until=0.05)
    nak = DhcpMessage(DhcpMessageType.NAK, loop.client.xid, "cli", "ap")
    loop.client.handle(nak)
    assert loop.failed


def test_bind_cached_skips_exchange():
    sim = Simulator()
    loop = Loopback(sim)
    lease = Lease(ip="10.0.0.7", server="ap", obtained_at=0.0)
    loop.client.bind_cached(lease)
    assert loop.client.bound
    assert loop.bound == [lease]
    assert loop.client.attempts == 0


def test_lease_expiry():
    lease = Lease(ip="10.0.0.7", server="ap", obtained_at=0.0, duration=100.0)
    assert not lease.expired(50.0)
    assert lease.expired(101.0)


def test_abort_cancels_timers():
    sim = Simulator()
    loop = Loopback(sim)
    loop.server_reachable = False
    loop.client.start()
    loop.client.abort()
    sim.run(until=10.0)
    assert not loop.failed  # window timer cancelled


def test_nudge_resends_now():
    sim = Simulator()
    sent = []
    client = DhcpClient(
        sim, "cli", "ap",
        config=DhcpClientConfig(retry_timeout=10.0),
        transmit=lambda m: sent.append(m) or True,
    )
    client.start()
    client.nudge()
    assert len(sent) == 2  # initial + nudged, no timer wait


def test_nudge_noop_when_bound():
    sim = Simulator()
    sent = []
    client = DhcpClient(
        sim, "cli", "ap", transmit=lambda m: sent.append(m) or True
    )
    client.bind_cached(Lease(ip="1.2.3.4", server="ap", obtained_at=0.0))
    client.nudge()
    assert sent == []


def test_server_pool_exhaustion_silences_offers():
    sim = Simulator()
    server = DhcpServer(
        sim, "ap", config=DhcpServerConfig(beta_min=0.0, beta_max=0.0, pool_size=1),
        send=lambda c, m: None,
    )
    server.handle("a", DhcpMessage(DhcpMessageType.DISCOVER, 1, "a", "ap"))
    sim.run()
    assert server.offers_made == 1
    server.handle("b", DhcpMessage(DhcpMessageType.DISCOVER, 2, "b", "ap"))
    sim.run()
    assert server.offers_made == 1  # pool exhausted: silence


def test_server_response_delay_in_beta_range():
    sim = Simulator()
    import random

    server = DhcpServer(
        sim, "ap",
        config=DhcpServerConfig(beta_min=1.0, beta_max=2.0),
        rng=random.Random(1),
    )
    arrivals = []
    server.send = lambda c, m: arrivals.append(sim.now)
    server.handle("cli", DhcpMessage(DhcpMessageType.DISCOVER, 1, "cli", "ap"))
    sim.run()
    assert arrivals and 0.5 <= arrivals[0] <= 1.0  # β/2 per message


def test_message_timeout_counted_on_overdue_retransmit():
    sim = Simulator()
    loop = Loopback(sim)
    loop.server_reachable = False  # requests vanish

    def silent_send(message):
        return True  # handed to the radio, never answered

    loop.client.transmit = silent_send
    loop.client.start()
    sim.run(until=1.0)  # several 0.2 s retry timers fire
    assert loop.client.total_transmissions >= 4
    assert loop.client.message_timeouts >= 3


def test_answered_requests_not_counted_as_timeouts():
    sim = Simulator()
    loop = Loopback(sim)
    loop.client.start()
    sim.run(until=5.0)
    assert loop.client.bound
    assert loop.client.message_timeouts == 0


def test_early_nudge_not_a_timeout():
    sim = Simulator()
    sent = []
    from repro.net.dhcp import DhcpClient, DhcpClientConfig

    client = DhcpClient(
        sim, "cli", "ap",
        config=DhcpClientConfig(retry_timeout=1.0),
        transmit=lambda m: sent.append(m) or True,
    )
    client.start()
    client.nudge()  # immediately: reply may still be in flight
    assert client.total_transmissions == 2
    assert client.message_timeouts == 0


def test_request_for_wrong_ip_naked():
    sim = Simulator()
    replies = []
    server = DhcpServer(
        sim, "ap", config=DhcpServerConfig(beta_min=0.0, beta_max=0.0),
        send=lambda c, m: replies.append(m),
    )
    server.handle("cli", DhcpMessage(DhcpMessageType.DISCOVER, 1, "cli", "ap"))
    sim.run()
    server.handle("cli", DhcpMessage(DhcpMessageType.REQUEST, 1, "cli", "ap", ip="10.254.0.9"))
    sim.run()
    assert replies[-1].type == DhcpMessageType.NAK
