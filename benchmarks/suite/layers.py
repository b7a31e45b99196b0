"""Per-layer attribution of one profiled repetition.

A layer is a ``repro.<package>``. cProfile reports self time per
function; this module folds it into layers:

- a function inside ``repro/<layer>/`` is charged to that layer, and
  one inside any other ``repro`` package (``obs``, ``exec``, ...) to
  ``other``;
- a function outside ``repro`` (C builtins such as ``heapq``, stdlib
  ``random``, numpy, the harness) is charged to the nearest ``repro``
  callers, split by the self time pstats records on each caller edge,
  so ``heappush`` under the engine counts as ``sim`` and ``random()``
  under the medium as ``phy``. Time that reaches no ``repro`` caller
  is ``other``.

Every second of self time lands in exactly one bucket, so the shares
sum to 1. ``calls_in`` counts calls whose caller resolves to another
layer than the callee: the traffic across each layer boundary.

Stats tables are pstats' ``{(file, line, name): (cc, nc, tt, ct,
callers)}`` with ``callers`` mapping a caller to ``(nc, cc, tt, ct)``.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Mapping, Optional, Set, Tuple

LAYERS = (
    "sim",
    "phy",
    "mac",
    "net",
    "drivers",
    "core",
    "world",
    "scenario",
    "metrics",
    "experiments",
)
OTHER = "other"
BUCKETS = LAYERS + (OTHER,)

Func = Tuple[str, int, str]
Stats = Mapping[Func, Tuple[Any, ...]]

#: Work counts read off profiler call counts: metric → the functions
#: (file under ``repro/``, function name) whose calls it sums. Only
#: public functions are named, so reshaping private helpers leaves the
#: counts alone; renaming one of these zeroes its count.
CALL_COUNTS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "sim.schedule_calls": (("sim/engine.py", "schedule"),),
    "phy.transmits": (("phy/radio.py", "transmit"),),
    "mac.send_to_client_calls": (("mac/ap.py", "send_to_client"),),
    "mac.assoc_frames": (("mac/association.py", "handle_frame"),),
    "net.dhcp_msgs": (("net/dhcp.py", "handle"),),
    "net.tcp_acks": (("net/tcp.py", "on_ack"),),
    "net.tcp_segments": (("net/tcp.py", "on_segment"),),
    "net.shaper_enqueues": (("net/shaper.py", "enqueue"),),
    "world.position_calls": (("world/mobility.py", "position"), ("world/traces.py", "position")),
}

#: Work counts read off the metrics-registry snapshot: metric → name.
SNAPSHOT_COUNTS = {
    "sim.events": "sim.events_executed",
    "phy.frames_sent": "phy.frames_sent",
    "phy.frames_dropped": "phy.frames_dropped",
    "mac.psm_drops": "ap.psm_drops",
    "net.dhcp_failures": "dhcp.failures_total",
    "net.tcp_retransmissions": "tcp.retransmissions_total",
    "net.tcp_rtos": "tcp.rtos_total",
    "drivers.join_attempts": "driver.join_attempts",
    "drivers.join_successes": "driver.join_successes",
    "core.switches": "sched.switches_total",
}


def layer_resolver(root: str) -> Callable[[str], Optional[str]]:
    """Map a code file to its layer, given the ``repro`` package dir.

    Returns ``None`` for files outside the package.
    """
    prefix = os.path.join(root, "")

    def layer_of(filename: str) -> Optional[str]:
        if not filename.startswith(prefix):
            return None
        package = filename[len(prefix) :].split(os.sep, 1)[0]
        return package if package in LAYERS else OTHER

    return layer_of


class _Folder:
    """Resolves each function to a distribution over buckets."""

    def __init__(self, stats: Stats, layer_of: Callable[[str], Optional[str]]):
        self.stats = stats
        self.layer_of = layer_of
        self._memo: Dict[Func, Dict[str, float]] = {}

    def distribution(self, func: Func, active: Set[Func]) -> Dict[str, float]:
        """Bucket → fraction of ``func``'s self time.

        Empty when every caller path loops back into ``active`` (a
        recursion outside ``repro``); such partial answers are not
        memoized, since another entry point may resolve them.
        """
        layer = self.layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        cached = self._memo.get(func)
        if cached is not None:
            return cached
        entry = self.stats.get(func)
        callers = entry[4] if entry is not None else {}
        # Split by the callee's self time on each edge; when the callee
        # spent none (a pure pass-through), split by call count.
        weights = {caller: edge[2] for caller, edge in callers.items() if caller != func}
        if not any(weight > 0 for weight in weights.values()):
            weights = {caller: edge[0] for caller, edge in callers.items() if caller != func}
        active.add(func)
        folded: Dict[str, float] = {}
        total = 0.0
        partial = False
        for caller, weight in weights.items():
            if weight <= 0:
                continue
            parts = {} if caller in active else self.distribution(caller, active)
            if not parts:
                partial = True
                continue
            total += weight
            for bucket, part in parts.items():
                folded[bucket] = folded.get(bucket, 0.0) + weight * part
        active.discard(func)
        if total:
            result = {bucket: value / total for bucket, value in folded.items()}
        else:
            result = {} if partial else {OTHER: 1.0}
        if not partial:
            self._memo[func] = result
        return result

    def resolve(self, func: Func) -> Dict[str, float]:
        return self.distribution(func, set()) or {OTHER: 1.0}

    def home(self, func: Func) -> str:
        """The bucket that receives most of a function's time."""
        dist = self.resolve(func)
        return max(sorted(dist), key=dist.__getitem__)


def fold(stats: Stats, layer_of: Callable[[str], Optional[str]]) -> Dict[str, Dict[str, float]]:
    """Self seconds, share and inbound calls per bucket."""
    folder = _Folder(stats, layer_of)
    self_s = {bucket: 0.0 for bucket in BUCKETS}
    calls_in = {bucket: 0 for bucket in BUCKETS}
    for func, entry in stats.items():
        for bucket, part in folder.resolve(func).items():
            self_s[bucket] += entry[2] * part
        callee = layer_of(func[0])
        if callee is None:
            continue
        for caller, edge in entry[4].items():
            if folder.home(caller) != callee:
                calls_in[callee] += edge[0]
    total = sum(self_s.values())
    share = {bucket: (value / total if total else 0.0) for bucket, value in self_s.items()}
    return {"self_s": self_s, "share": share, "calls_in": calls_in}


def call_counts(stats: Stats, root: str) -> Dict[str, int]:
    """The :data:`CALL_COUNTS` work counts of one profile."""
    ncalls: Dict[Tuple[str, str], int] = {}
    prefix = os.path.join(root, "")
    for (filename, _line, name), entry in stats.items():
        if filename.startswith(prefix):
            relative = filename[len(prefix) :].replace(os.sep, "/")
            ncalls[(relative, name)] = ncalls.get((relative, name), 0) + entry[1]
    return {
        metric: sum(ncalls.get(target, 0) for target in targets)
        for metric, targets in CALL_COUNTS.items()
    }


def snapshot_counts(snapshot: Mapping[str, float]) -> Dict[str, float]:
    """The :data:`SNAPSHOT_COUNTS` work counts plus derived ratios."""
    counts = {metric: snapshot.get(name, 0.0) for metric, name in SNAPSHOT_COUNTS.items()}
    counts["phy.airtime_s"] = sum(
        value for name, value in snapshot.items() if name.startswith("phy.airtime_s.")
    )
    counts["phy.drop_ratio"] = _ratio(counts["phy.frames_dropped"], counts["phy.frames_sent"])
    counts["drivers.join_success_ratio"] = _ratio(
        counts["drivers.join_successes"], counts["drivers.join_attempts"]
    )
    counts["core.switch_latency_mean_s"] = snapshot.get("sched.switch_latency_s.mean", 0.0)
    return counts


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def format_table(folded: Mapping[str, Mapping[str, float]]) -> str:
    """The layer table, largest share first, with the share total."""
    lines = [f"  {'layer':<12s} {'self_s':>9s} {'share':>7s} {'calls_in':>10s}"]
    for bucket in sorted(BUCKETS, key=lambda b: -folded["share"][b]):
        lines.append(
            f"  {bucket:<12s} {folded['self_s'][bucket]:9.3f} "
            f"{folded['share'][bucket]:7.1%} {folded['calls_in'][bucket]:10d}"
        )
    lines.append(f"  {'total':<12s} {sum(folded['self_s'].values()):9.3f} "
                 f"{sum(folded['share'].values()):7.1%}")
    return "\n".join(lines)
