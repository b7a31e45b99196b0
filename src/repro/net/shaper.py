"""Token-bucket backhaul shaper.

Each AP's wired uplink is slower than the 11 Mbps air — the premise
that makes multi-AP aggregation pay off ("backhaul bandwidth is
typically smaller than the wireless bandwidth", Sec. 2). In the lab
micro-benchmark (Fig. 9) the authors used a traffic shaper to sweep the
backhaul rate; this is that shaper.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.engine import Simulator


class TokenBucketShaper:
    """A FIFO rate limiter with a bounded queue (tail drop).

    ``enqueue(size_bytes, deliver, *args)`` schedules ``deliver(*args)``
    after the packet has been serialised at ``rate_bps`` behind everything
    already queued. Packets arriving to a full queue are dropped —
    which is how backhaul congestion turns into TCP loss.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        queue_limit_bytes: int = 100_000,
    ):
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.rate_bps = rate_bps
        self.queue_limit_bytes = queue_limit_bytes
        self._queued_bytes = 0
        self._busy_until = 0.0
        self.delivered = 0
        self.dropped = 0

    @property
    def backlog_bytes(self) -> int:
        return self._queued_bytes

    def service_time(self, size_bytes: int) -> float:
        return size_bytes * 8.0 / self.rate_bps

    def enqueue(self, size_bytes: int, deliver: Callable[..., Any], *args: Any) -> bool:
        """Queue a packet; returns False if tail-dropped."""
        if self._queued_bytes + size_bytes > self.queue_limit_bytes:
            self.dropped += 1
            return False
        self._queued_bytes += size_bytes
        start = max(self.sim.now, self._busy_until)
        finish = start + self.service_time(size_bytes)
        self._busy_until = finish
        self.sim.schedule(finish - self.sim.now, self._dequeue, size_bytes, deliver, *args)
        return True

    def _dequeue(self, size_bytes: int, deliver: Callable[..., Any], *args: Any) -> None:
        self._queued_bytes -= size_bytes
        self.delivered += 1
        deliver(*args)
