"""Trace-driven and speed-varying mobility.

The paper's cars did not move at a constant speed — they stopped at
lights and slowed for turns. This module adds:

- :class:`TraceMobility` — replay a recorded (time, x, y) trace with
  linear interpolation (e.g. parsed from a GPS log);
- :func:`load_trace_csv` / :func:`save_trace_csv` — a tiny CSV codec
  for such traces;
- :func:`synthesize_urban_trace` — generate a realistic stop-and-go
  drive along a route: cruise segments at varying speed separated by
  stops (traffic lights) with simple accel/decel ramps.
"""

from __future__ import annotations

import csv
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Sequence

from repro.world.geometry import Point, interpolate
from repro.world.mobility import MobilityModel, WaypointMobility


@dataclass(frozen=True)
class TracePoint:
    """One sample of a mobility trace."""

    time: float
    position: Point


class TraceMobility(MobilityModel):
    """Replay a sampled trace, interpolating between samples.

    Before the first sample the node sits at the first position; after
    the last it stays at the last (parked).
    """

    def __init__(self, points: Sequence[TracePoint]):
        if len(points) < 2:
            raise ValueError("a trace needs at least two samples")
        ordered = sorted(points, key=lambda p: p.time)
        for a, b in zip(ordered, ordered[1:]):
            if b.time <= a.time:
                raise ValueError("trace timestamps must be strictly increasing")
        self._points = ordered
        self._times = [p.time for p in ordered]
        self.max_speed = max(
            (b.position - a.position).norm() / (b.time - a.time)
            for a, b in zip(ordered, ordered[1:])
        )

    @property
    def duration(self) -> float:
        return self._times[-1] - self._times[0]

    def position(self, time: float) -> Point:
        if time <= self._times[0]:
            return self._points[0].position
        if time >= self._times[-1]:
            return self._points[-1].position
        index = bisect_right(self._times, time) - 1
        a, b = self._points[index], self._points[index + 1]
        fraction = (time - a.time) / (b.time - a.time)
        return interpolate(a.position, b.position, fraction)


def save_trace_csv(path: str, points: Sequence[TracePoint]) -> None:
    """Write a trace as ``time,x,y`` rows."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", "x", "y"])
        for point in points:
            writer.writerow([point.time, point.position.x, point.position.y])


def load_trace_csv(path: str) -> TraceMobility:
    """Read a ``time,x,y`` CSV into a :class:`TraceMobility`."""
    points: List[TracePoint] = []
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            points.append(
                TracePoint(float(row["time"]), Point(float(row["x"]), float(row["y"])))
            )
    return TraceMobility(points)


def synthesize_urban_trace(
    route_waypoints: Sequence[Point],
    cruise_speed: float = 12.0,
    speed_jitter: float = 3.0,
    stop_every_m: float = 350.0,
    stop_duration_mean: float = 15.0,
    sample_interval: float = 1.0,
    laps: int = 1,
    seed: int = 0,
) -> List[TracePoint]:
    """Generate a stop-and-go drive along a closed route.

    The vehicle cruises at ``cruise_speed ± jitter`` between stops
    spaced roughly ``stop_every_m`` apart (traffic lights), waiting an
    exponential ``stop_duration_mean`` at each. Positions are sampled
    every ``sample_interval`` seconds of simulated driving.
    """
    rng = random.Random(seed)
    closed = list(route_waypoints)
    if closed[0] != closed[-1]:
        closed.append(closed[0])
    route = WaypointMobility(closed, speed=1.0)  # used for arc-length lookup
    total_length = route.route_length * laps

    points: List[TracePoint] = []
    time = 0.0
    offset = 0.0
    next_stop = rng.uniform(0.5, 1.5) * stop_every_m
    current_speed = max(1.0, rng.gauss(cruise_speed, speed_jitter))
    while offset < total_length:
        points.append(TracePoint(time, route._point_at_offset(offset % route.route_length)))
        if offset >= next_stop:
            # Dwell at the light, sampling the stationary position.
            wait = rng.expovariate(1.0 / stop_duration_mean)
            samples = max(1, int(wait / sample_interval))
            for _ in range(samples):
                time += sample_interval
                points.append(
                    TracePoint(time, route._point_at_offset(offset % route.route_length))
                )
            next_stop = offset + rng.uniform(0.5, 1.5) * stop_every_m
            current_speed = max(1.0, rng.gauss(cruise_speed, speed_jitter))
        time += sample_interval
        offset += current_speed * sample_interval
    points.append(TracePoint(time, route._point_at_offset(offset % route.route_length)))
    return points
