"""The reference PHY delivery: a full-channel scan in registration order.

``OracleMedium`` is a ``Medium`` whose broadcast fan-out is the
historical loop the production path must reproduce byte for byte:
visit every registered radio in registration order, keep the ones
tuned to the frame's channel, and draw one loss uniform for each
receiver in range. No spatial grid, no snapshot cache, no pair cache,
no reach horizon, and the interference loss is computed up front for
every completion. Everything else (the airtime FIFO, unicast ARQ, the
interference formula) is inherited unchanged, so a difference between
an ``OracleMedium`` run and a ``Medium`` run is a difference in
broadcast delivery alone.

The identity tests (``test_phy_kernel.py``, ``test_phy_spatial.py``)
run the same seeded world through both and compare every delivery,
loss counter, trace event and the number of RNG draws consumed.
``oracle_mediums`` swaps the class into scenario builds so whole
registry presets can be compared the same way.
"""

from __future__ import annotations

import contextlib
import importlib
from typing import Any, Iterator, Optional

from repro.obs import trace as tr
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
