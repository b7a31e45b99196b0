"""Restartable one-shot timers.

Protocol state machines (association, DHCP, TCP retransmission) are
dominated by "arm a timeout, maybe cancel it, maybe re-arm it" logic.
:class:`Timer` packages that pattern so the protocol code stays readable.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import EventHandle, Simulator


class Timer:
    """A one-shot timer that can be started, restarted, and cancelled.

    The callback fires once per :meth:`start`; restarting an armed timer
    replaces the previous arming. The timer object is reusable.
    """

    def __init__(self, sim: Simulator, callback: Callable[..., Any], *args: Any):
        self._sim = sim
        self._callback = callback
        self._args = args
        self._handle: Optional[EventHandle] = None

    @property
    def armed(self) -> bool:
        """True while a firing is pending."""
        return self._handle is not None and not self._handle.cancelled

    @property
    def deadline(self) -> Optional[float]:
        """Absolute simulated time of the pending firing, or None."""
        if self.armed:
            assert self._handle is not None
            return self._handle.time
        return None

    def start(self, delay: float) -> None:
        """Arm (or re-arm) the timer to fire after ``delay`` seconds.

        Re-arming an armed timer goes through ``Simulator.reschedule``:
        a later deadline moves the pending event in place (the common
        case — a TCP sender pushes its RTO out on every new ACK), an
        earlier one replaces it.
        """
        handle = self._handle
        if handle is None:
            self._handle = self._sim.schedule_cancellable(delay, self._fire)
        else:
            self._handle = self._sim.reschedule(handle, delay)

    def cancel(self) -> None:
        """Disarm the timer if armed. Safe to call when idle."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        self._callback(*self._args)
