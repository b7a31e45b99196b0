"""2-D geometry primitives used by mobility and propagation."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Point:
    """A point in metres on the simulation plane."""

    x: float
    y: float

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def scaled(self, factor: float) -> "Point":
        return Point(self.x * factor, self.y * factor)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


def distance(a: Point, b: Point) -> float:
    """Euclidean distance in metres."""
    return math.hypot(a.x - b.x, a.y - b.y)


def interpolate(a: Point, b: Point, fraction: float) -> Point:
    """Point ``fraction`` of the way from ``a`` to ``b`` (0 → a, 1 → b)."""
    return Point(a.x + (b.x - a.x) * fraction, a.y + (b.y - a.y) * fraction)
