"""Failure-injection tests: the stack degrades gracefully, not wrongly."""

from repro.core.config import SpiderConfig
from repro.experiments.common import LabScenario
from repro.mac.ap import ApConfig
from repro.net.dhcp import DhcpServerConfig
from repro.phy.propagation import PropagationModel
from repro.world.geometry import Point

REDUCED = dict(link_timeout=0.1, dhcp_retry_timeout=0.2)


def test_ap_dying_mid_connection_is_reaped_and_flow_stops():
    lab = LabScenario(seed=71)
    lab.add_lab_ap("a", 1, 2e6)
    spider = lab.make_spider(SpiderConfig.single_channel_multi_ap(1, **REDUCED))
    spider.start()
    lab.sim.run(until=10.0)
    assert spider.connected_interfaces()
    flow = spider.interfaces["a"].flow

    lab.aps["a"].stop()
    lab.aps["a"].radio.go_deaf(1e9)  # power cut
    lab.sim.run(until=25.0)
    assert "a" not in spider.interfaces
    assert not flow.sender.running


def test_dhcp_server_silent_never_connects_but_does_not_crash():
    lab = LabScenario(seed=72)
    ap = lab.add_lab_ap("a", 1, 2e6)
    lab.router("a").dhcp_server.send = lambda c, m: None  # daemon wedged
    spider = lab.make_spider(SpiderConfig.single_channel_multi_ap(1, **REDUCED))
    spider.start()
    lab.sim.run(until=30.0)
    assert not spider.connected_interfaces()
    assert spider.recorder.total_bytes == 0
    # The association itself still completed; only DHCP is stuck.
    assert "spider" in ap.associated


def test_dhcp_pool_exhaustion_blocks_new_clients():
    lab = LabScenario(seed=73)
    lab.add_lab_ap("a", 1, 2e6)
    lab.router("a").dhcp_server.config = DhcpServerConfig(
        beta_min=0.1, beta_max=0.2, pool_size=0
    )
    spider = lab.make_spider(SpiderConfig.single_channel_multi_ap(1, **REDUCED))
    spider.start()
    lab.sim.run(until=20.0)
    assert not spider.connected_interfaces()


def test_tiny_psm_buffer_degrades_but_survives():
    lab = LabScenario(seed=74)
    lab.add_ap(
        "a", 1, Point(10.0, 0.0), 4e6, 0.2, 1.0,
        lab.wired_latency, ap_config=ApConfig(psm_buffer_frames=2),
    )
    spider = lab.make_spider(
        SpiderConfig(schedule={1: 0.5, 11: 0.5}, period=0.4, **REDUCED)
    )
    result = lab.run(spider, 30.0)
    assert lab.aps["a"].psm_drops > 0  # losses really happened
    assert result.throughput_kbytes_per_s > 0  # TCP recovered anyway


def test_extreme_loss_environment_no_crash():
    lab = LabScenario(
        seed=75,
        propagation=PropagationModel(range_m=50.0, base_loss=0.6, edge_start=0.9),
    )
    lab.add_lab_ap("a", 1, 2e6)
    spider = lab.make_spider(SpiderConfig.single_channel_multi_ap(1, **REDUCED))
    result = lab.run(spider, 30.0)
    assert result.duration == 30.0  # ran to completion


def test_backhaul_congestion_drops_recovered_by_tcp():
    lab = LabScenario(seed=76)
    lab.add_lab_ap("a", 1, 1e6)
    lab.router("a").backhaul.shaper.queue_limit_bytes = 8_000  # ~5 segments
    spider = lab.make_spider(SpiderConfig.single_channel_multi_ap(1, **REDUCED))
    result = lab.run(spider, 30.0)
    assert lab.router("a").backhaul.shaper.dropped > 0
    # TCP still makes sustained progress despite the shallow buffer
    # (125 KB/s is the shaped ceiling; the sawtooth lands well below).
    assert result.throughput_kbytes_per_s > 25.0


def test_driver_stop_is_idempotent():
    lab = LabScenario(seed=77)
    lab.add_lab_ap("a", 1, 2e6)
    spider = lab.make_spider(SpiderConfig.single_channel_multi_ap(1, **REDUCED))
    spider.start()
    lab.sim.run(until=5.0)
    spider.stop()
    spider.stop()
    assert spider.interfaces == {}


def test_no_aps_at_all():
    lab = LabScenario(seed=78)
    spider = lab.make_spider(SpiderConfig.multi_channel_multi_ap(period=0.6, **REDUCED))
    result = lab.run(spider, 20.0)
    assert result.throughput_kbytes_per_s == 0.0
    assert result.join_attempts == 0
