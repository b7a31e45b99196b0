"""Mobility models.

A mobility model maps simulated time to a position. Models are pure
functions of time (no engine callbacks), which keeps position queries
cheap and makes the radio layer's range checks exact at any instant.

The vehicular experiments use :class:`LoopRouteMobility` — a node
repeatedly following the same closed route, as the paper's cars did
("the node repeatedly following the same route", Sec. 4.1).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.world.geometry import Point, interpolate


class MobilityModel:
    """Interface: position as a function of time."""

    #: Subclasses may declare slots; those that do not get a ``__dict__``.
    __slots__ = ()

    #: An upper bound on speed (m/s) over all time: |p(t2) - p(t1)| <=
    #: max_speed * |t2 - t1|. ``None`` means unknown; the PHY never
    #: skips a receiver whose model does not state a bound (DESIGN.md
    #: §6.3).
    max_speed: Optional[float] = None

    def position(self, time: float) -> Point:
        raise NotImplementedError

    def speed(self, time: float) -> float:
        """Instantaneous speed (m/s). Default: numeric differentiation.

        The sample interval is clamped at t=0 (positions before the
        start of time are undefined), so the divisor must be the
        *actual* interval: dividing the clamped span by ``2 * dt``
        would understate speed near t=0 by up to 2×.
        """
        dt = 1e-3
        start = max(0.0, time - dt)
        end = time + dt
        a = self.position(start)
        b = self.position(end)
        return (b - a).norm() / (end - start)


class StaticMobility(MobilityModel):
    """A node that never moves (indoor / laboratory experiments)."""

    __slots__ = ("_point",)

    max_speed = 0.0

    def __init__(self, point: Point):
        self._point = point

    def position(self, time: float) -> Point:
        return self._point

    def speed(self, time: float) -> float:
        return 0.0


class ConstantVelocityMobility(MobilityModel):
    """Straight-line motion from an origin at constant velocity.

    Used by the analytical-model corroboration: a node driving past an
    AP at a fixed speed.
    """

    def __init__(self, origin: Point, velocity: Point):
        self._origin = origin
        self._velocity = velocity
        self.max_speed = velocity.norm()

    def position(self, time: float) -> Point:
        return self._origin + self._velocity.scaled(time)

    def speed(self, time: float) -> float:
        return self._velocity.norm()


class WaypointMobility(MobilityModel):
    """Piecewise-linear motion through waypoints at a constant speed."""

    def __init__(self, waypoints: Sequence[Point], speed: float):
        if len(waypoints) < 2:
            raise ValueError("need at least two waypoints")
        if speed <= 0:
            raise ValueError("speed must be positive")
        self._waypoints = list(waypoints)
        self._speed = speed
        self.max_speed = speed
        self._cumulative = self._cumulative_lengths(self._waypoints)

    @staticmethod
    def _cumulative_lengths(points: List[Point]) -> List[float]:
        lengths = [0.0]
        for a, b in zip(points, points[1:]):
            lengths.append(lengths[-1] + (b - a).norm())
        return lengths

    @property
    def route_length(self) -> float:
        return self._cumulative[-1]

    def _point_at_offset(self, offset: float) -> Point:
        offset = min(max(offset, 0.0), self.route_length)
        for i in range(1, len(self._cumulative)):
            if offset <= self._cumulative[i]:
                segment = self._cumulative[i] - self._cumulative[i - 1]
                if segment == 0:
                    return self._waypoints[i]
                fraction = (offset - self._cumulative[i - 1]) / segment
                return interpolate(self._waypoints[i - 1], self._waypoints[i], fraction)
        return self._waypoints[-1]

    def position(self, time: float) -> Point:
        return self._point_at_offset(self._speed * time)

    def speed(self, time: float) -> float:
        if self._speed * time >= self.route_length:
            return 0.0
        return self._speed


class LoopRouteMobility(WaypointMobility):
    """Waypoint motion around a closed route, repeated indefinitely.

    The route is closed automatically (last waypoint connects back to
    the first). This models the paper's vehicular runs, where each
    30–60 minute experiment repeatedly drove the same downtown loop.
    """

    def __init__(self, waypoints: Sequence[Point], speed: float):
        closed = list(waypoints)
        if closed[0] != closed[-1]:
            closed.append(closed[0])
        super().__init__(closed, speed)

    def position(self, time: float) -> Point:
        offset = math.fmod(self._speed * time, self.route_length)
        return self._point_at_offset(offset)

    def speed(self, time: float) -> float:
        return self._speed


def rectangular_loop(width: float, height: float) -> List[Point]:
    """Waypoints of a rectangular downtown block loop anchored at origin."""
    return [
        Point(0.0, 0.0),
        Point(width, 0.0),
        Point(width, height),
        Point(0.0, height),
    ]
