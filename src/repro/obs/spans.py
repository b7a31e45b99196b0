"""Hierarchical wall-time spans: the run's time structure, end to end.

The trace bus (:mod:`repro.obs.trace`) answers "what happened inside
the simulation, in sim time". Spans answer the complementary question:
"where did the *wall clock* go" — scenario build vs. sim run vs. shard
queue wait vs. cache lookup — as a tree whose shape mirrors the
harness call structure. Each :class:`Span` carries its wall-clock
start/end (seconds since the profiler's epoch), free-form fields
(sim-event counts, shard keys, cache outcomes), and its children.

Spans follow the same **zero-overhead-when-disabled** discipline as
the trace bus: nothing is installed by default, and instrumentation
points in hot packages guard on the handle::

    spans = self.spans          # or spans = current_profiler()
    if spans is not None:
        with spans.span(SPAN_SIM_RUN) as span:
            ...
            span.add(events=...)

so the disabled cost is an attribute load (or one function call at
harness level) and a ``None`` check. simlint rule SL009 pins that
pattern in ``repro.sim``/``phy``/``mac``/``net``.

Span *names* are dot-separated ``layer.step`` strings, declared here
as constants so exporters can group lanes without guessing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

# -- span taxonomy -----------------------------------------------------------
#
# Like the trace-event taxonomy, span names are declared once. They
# describe *harness* structure (wall time), never simulated time.

SPAN_SIM_RUN = "sim.run"  # one simulator segment (events, sim_t)
SPAN_SCENARIO_BUILD = "scenario.build"  # spec -> wired world (scenario, seed, aps)
SPAN_SCENARIO_RUN = "scenario.run"  # declared fleet execution (scenario, drivers)
SPAN_EXPERIMENT = "exec.experiment"  # one experiment through the exec engine
SPAN_EXEC_SHARDS = "exec.shards"  # one execute_shards call (experiment, shards)
SPAN_EXEC_CACHE = "exec.cache"  # the cache scan phase (hits, pending)
SPAN_EXEC_SHARD = "exec.shard"  # one shard outcome (key, source, attempts)


class Span:
    """One timed region: name, start/end, fields, children."""

    __slots__ = ("name", "t0", "t1", "fields", "children")

    def __init__(self, name: str, t0: float, fields: Optional[Dict[str, Any]] = None):
        self.name = name
        self.t0 = t0
        self.t1: Optional[float] = None
        self.fields: Dict[str, Any] = fields if fields is not None else {}
        self.children: List["Span"] = []

    @property
    def open(self) -> bool:
        return self.t1 is None

    @property
    def wall(self) -> float:
        """Wall seconds; 0.0 while the span is still open."""
        return 0.0 if self.t1 is None else self.t1 - self.t0

    def add(self, **fields: Any) -> None:
        """Attach (or overwrite) result fields on the span."""
        self.fields.update(fields)

    def to_dict(self, with_children: bool = True) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "t0": round(self.t0, 6),
            "t1": None if self.t1 is None else round(self.t1, 6),
            "wall": round(self.wall, 6),
            "fields": dict(self.fields),
        }
        if with_children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.open else f"{self.wall:.4f}s"
        return f"Span({self.name!r}, {state}, fields={self.fields!r})"


class SpanProfiler:
    """Records a tree of wall-time spans.

    The clock is injectable so tests can drive deterministic
    timestamps; the default is :func:`time.perf_counter`, re-based to
    the profiler's construction instant so exported ``t0``/``t1`` are
    small human-readable offsets.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._epoch = clock()
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self._error_stack: List[Span] = []
        self._error_exc: Optional[BaseException] = None
        self.spans_recorded = 0

    # -- recording -------------------------------------------------------

    def now(self) -> float:
        """Seconds since the profiler's epoch (the span time axis)."""
        return self._clock() - self._epoch

    @contextmanager
    def span(self, name: str, **fields: Any) -> Iterator[Span]:
        """Open a child of the innermost open span (or a new root)."""
        span = Span(name, self.now(), dict(fields))
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent is not None else self.roots).append(span)
        self._stack.append(span)
        self.spans_recorded += 1
        try:
            yield span
        except BaseException as exc:
            # The innermost span sees the exception first and captures
            # the full stack; outer spans skip the same exception.
            if exc is not self._error_exc:
                self._error_exc = exc
                self._error_stack = list(self._stack)
            span.add(error=type(exc).__name__)
            raise
        finally:
            self._stack.pop()
            span.t1 = self.now()

    def record(self, name: str, t0: float, t1: Optional[float] = None, **fields: Any) -> Span:
        """Append an already-measured span (e.g. a pooled shard whose
        wall time was observed from submit to completion)."""
        span = Span(name, t0, dict(fields))
        span.t1 = self.now() if t1 is None else t1
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent is not None else self.roots).append(span)
        self.spans_recorded += 1
        return span

    # -- inspection ------------------------------------------------------

    def open_stack(self) -> List[Span]:
        """Innermost-last list of spans still open (crash forensics)."""
        return list(self._stack)

    def crash_stack(self) -> List[Span]:
        """Where the harness was when the most recent exception unwound
        through :meth:`span` contexts — those spans are closed by the
        time a post-mortem runs, so the stack is captured on the way
        out. Falls back to :meth:`open_stack` when nothing unwound."""
        return list(self._error_stack) if self._error_stack else self.open_stack()

    def iter_spans(self) -> Iterator[Span]:
        """Depth-first walk over every recorded span."""
        pending = list(reversed(self.roots))
        while pending:
            span = pending.pop()
            yield span
            pending.extend(reversed(span.children))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "spans",
            "spans_recorded": self.spans_recorded,
            "spans": [root.to_dict() for root in self.roots],
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, default=str)
            handle.write("\n")

    def format_tree(self, min_wall: float = 0.0) -> str:
        """An indented text rendering, pruning spans under ``min_wall``."""
        lines: List[str] = []

        def render(span: Span, depth: int) -> None:
            if not span.open and span.wall < min_wall:
                return
            state = "(open)" if span.open else f"{span.wall * 1000:.1f}ms"
            fields = " ".join(f"{key}={value}" for key, value in span.fields.items())
            lines.append(f"{'  ' * depth}{span.name:24s} {state:>10s}  {fields}".rstrip())
            for child in span.children:
                render(child, depth + 1)

        for root in self.roots:
            render(root, 0)
        return "\n".join(lines)


# -- ambient profiler --------------------------------------------------------
#
# Harness layers (exec workers, the campaign loop, scenario build)
# cannot be handed a profiler through every call chain, so — exactly
# like the engine's ambient trace/metrics defaults — one module-level
# handle is installed for the duration of an observed run.

_current: Optional[SpanProfiler] = None


def install_profiler(profiler: Optional[SpanProfiler]) -> None:
    """Install (or, with ``None``, clear) the ambient profiler."""
    global _current
    _current = profiler


def current_profiler() -> Optional[SpanProfiler]:
    """The ambient profiler, or ``None`` when spans are disabled."""
    return _current
