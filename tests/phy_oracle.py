"""The reference PHY delivery: a full-channel scan in registration order.

``OracleMedium`` is a ``Medium`` whose broadcast fan-out is the
historical loop the production path must reproduce byte for byte:
visit every registered radio in registration order, keep the ones
tuned to the frame's channel, and draw one loss uniform for each
receiver in range. No spatial grid, no snapshot cache, no pair table,
no reach horizon, and the interference loss is computed up front for
every completion. Its unicast path (auto-rate pick and ARQ delivery)
is likewise the uncached one: the destination is looked up by address,
and the geometry and ``combined_loss`` are computed, on every frame —
no link cache. Everything else (the airtime FIFO, the interference
formula) is inherited unchanged, so a difference between an
``OracleMedium`` run and a ``Medium`` run is a difference in delivery
alone.

The identity tests (``test_phy_kernel.py``, ``test_phy_spatial.py``,
``test_phy_horizon.py``, ``test_phy_unicast.py``, ``test_phy_pairs.py``)
run the same seeded world through both and compare every delivery,
loss counter, trace event and the number of RNG draws consumed.
``oracle_mediums`` swaps the class into scenario builds so whole
registry presets can be compared the same way.

``reference_pairs`` is the per-sender builder of a static sender's
fan-out row that ``Medium._fill_pairs`` replaced: it computes each
static pair from the sender's end alone, over the sender's 3×3
snapshot. ``test_phy_pairs.py`` compares every row of the channel
table with it.
"""

from __future__ import annotations

import contextlib
import importlib
import math
from typing import Any, Iterator, List, Optional, Tuple

from repro.obs import trace as tr
from repro.phy.channels import DEFAULT_DATA_RATE_BPS, RATE_LADDER
from repro.phy.propagation import combined_loss
from repro.phy.radio import Medium, Radio
from repro.world.geometry import distance


class OracleMedium(Medium):
    """A ``Medium`` whose broadcast delivery is the full-channel scan."""

    def _deliver_broadcast(
        self, sender: Radio, frame: Any, channel: int, airtime: Optional[float] = None
    ) -> None:
        now = self.sim.now
        extra_loss = self.interference_loss(channel)
        frame_air = self.airtime(frame) if airtime is None else airtime
        trace = self.sim.trace
        # Membership is fixed when the completion fires: radios that
        # join the channel from inside a receive handler wait for the
        # next frame. Channel and deafness are re-checked per visit.
        members = [radio for radio in self._radios if radio.channel == channel]
        for radio in members:
            if radio is sender or radio.channel != channel or now < radio.deaf_until:
                continue
            dist = distance(sender.position(), radio.position())
            if not self.propagation.in_range(dist):
                continue
            if self._rng.random() < combined_loss(self.propagation, dist, extra_loss):
                radio.frames_lost += 1
                if trace is not None:
                    trace.emit(
                        tr.PHY_FRAME_DROP, now, channel=channel,
                        dst=radio.address, reason="loss",
                    )
                continue
            radio._deliver(frame, self.rssi_at(dist), frame_air)

    def suggest_rate(self, sender: Radio, dst_address: str) -> float:
        target = self._first_with_address(dst_address, sender)
        if target is None:
            return DEFAULT_DATA_RATE_BPS
        fraction = distance(sender.position(), target.position()) / self.propagation.range_m
        for threshold, rate in RATE_LADDER:
            if fraction <= threshold:
                return rate
        return RATE_LADDER[-1][1]

    def _deliver_unicast(self, sender: Radio, frame: Any, channel: int, attempt: int) -> None:
        target = self._first_with_address(frame.dst, sender)
        if target is None or target.channel != channel or target.deaf:
            self._report_tx_failure(sender, frame)
            return
        dist = distance(sender.position(), target.position())
        if not self.propagation.in_range(dist):
            self._report_tx_failure(sender, frame)
            return
        if self._rng.random() < combined_loss(
            self.propagation, dist, self.interference_loss(channel)
        ):
            target.frames_lost += 1
            trace = self.sim.trace
            if trace is not None:
                trace.emit(
                    tr.PHY_FRAME_DROP, self.sim.now, channel=channel,
                    dst=target.address, reason="loss", attempt=attempt,
                )
            if attempt < self.max_arq_attempts and sender.channel == channel and not sender.deaf:
                airtime = self.airtime(frame)
                busy_until = self._channel_busy_until.get(channel, 0.0)
                self._channel_busy_until[channel] = max(busy_until, self.sim.now + airtime)
                self.sim.schedule(
                    airtime, self._deliver_unicast, sender, frame, channel, attempt + 1
                )
            else:
                self._report_tx_failure(sender, frame)
            return
        target._deliver(frame, self.rssi_at(dist))


def reference_pairs(medium: Medium, sender: Radio) -> List[Tuple[int, Radio, float, float]]:
    """``sender``'s static pair row, computed from the sender's end only.

    One ``(reg_seq, radio, base_loss, rssi)`` tuple per other static
    radio on the sender's channel within range, in registration order,
    with the floats the per-entry loop of ``Medium._deliver_broadcast``
    computes per frame.
    """
    position = sender.position()
    sender_x = position.x
    sender_y = position.y
    propagation = medium.propagation
    range_m = propagation.range_m
    statics: List[Tuple[int, Radio, float, float]] = []
    for radio, x, y in medium._local_entries(sender.channel, sender_x, sender_y):
        if x is None or radio is sender:
            continue
        dx = sender_x - x
        if dx > range_m or -dx > range_m:
            continue
        dist = math.hypot(dx, sender_y - y)
        if dist > range_m:
            continue
        base = (
            propagation.base_loss
            if dist <= propagation.fringe_start_m
            else propagation.loss_probability(dist)
        )
        statics.append((radio.reg_seq, radio, base, medium.rssi_at(dist)))
    return statics


@contextlib.contextmanager
def oracle_mediums() -> Iterator[None]:
    """Build every scenario medium (partition regions too) as an oracle."""
    # ``repro.scenario`` re-exports the ``build`` function under the
    # submodule's name, so fetch the module itself.
    build_module = importlib.import_module("repro.scenario.build")
    original = build_module.Medium
    build_module.Medium = OracleMedium
    try:
        yield
    finally:
        build_module.Medium = original
