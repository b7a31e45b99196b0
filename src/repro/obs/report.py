"""Run provenance, profiling, and the ambient observability context.

Experiments construct their simulators internally (one per seed or per
configuration), so the CLI cannot hand a trace bus to each one. The
:func:`observe` context installs a bus and/or registry as the *default
observability* for every :class:`~repro.sim.engine.Simulator` created
inside the ``with`` block; the engine attaches them at construction
time. Outside the block, nothing is installed and the stack runs at
full speed.

:class:`RunManifest` captures what a result *is*: the experiment id,
its parameters, the code version (git SHA), interpreter, wall-clock
cost, and simulation-event throughput — enough to tell two exports
apart six months later and to compare perf PRs honestly.
"""

from __future__ import annotations

import cProfile
import functools
import gc
import io
import json
import platform
import pstats
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.obs import flight as flight_mod
from repro.obs import spans as spans_mod
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanProfiler
from repro.obs.trace import TraceBus
from repro.sim import engine


@contextmanager
def observe(
    trace: Optional[TraceBus] = None,
    metrics: Optional[MetricsRegistry] = None,
    spans: Optional[SpanProfiler] = None,
    flight: Optional[FlightRecorder] = None,
):
    """Install default observability for simulators built in the block.

    ``spans`` additionally becomes the ambient
    :func:`~repro.obs.spans.current_profiler` so harness layers (exec
    workers, the campaign loop, scenario build) pick it up; ``flight``
    becomes the ambient :func:`~repro.obs.flight.current_recorder` that
    crash paths consult when dumping a post-mortem. Subscribing the
    recorder to a bus stays the caller's job (``FlightRecorder(bus)``).
    """
    engine.set_default_observability(trace=trace, metrics=metrics, spans=spans)
    spans_mod.install_profiler(spans)
    flight_mod.install_recorder(flight)
    try:
        yield
    finally:
        engine.set_default_observability()
        spans_mod.install_profiler(None)
        flight_mod.install_recorder(None)


@functools.lru_cache(maxsize=None)
def git_sha(short: bool = True) -> Optional[str]:
    """The repo's current commit, or None outside a git checkout.

    Cached per process: manifests, cache keys, and per-shard telemetry
    all ask for the SHA, and it cannot change mid-run — one subprocess
    is enough.
    """
    root = Path(__file__).resolve().parents[3]
    args = ["git", "rev-parse", "--short" if short else "--verify", "HEAD"]
    try:
        proc = subprocess.run(
            args, cwd=root, capture_output=True, text=True, timeout=5.0, check=False
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


@functools.lru_cache(maxsize=None)
def git_dirty() -> bool:
    """True when the working tree has uncommitted changes.

    The exec cache folds this into its code-version key so a dirty-tree
    rerun can never collide with (or poison) results recorded for the
    clean commit. Cached per process for the same reason as
    :func:`git_sha`. Outside a git checkout, the tree counts as clean —
    there is no SHA to collide with either.
    """
    root = Path(__file__).resolve().parents[3]
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=5.0,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return False
    return proc.returncode == 0 and bool(proc.stdout.strip())


@dataclass
class RunManifest:
    """Provenance of one experiment run."""

    experiment: str
    parameters: Dict = field(default_factory=dict)
    fast: bool = False
    started_at: str = ""
    wall_seconds: float = 0.0
    git_sha: Optional[str] = None
    python: str = ""
    platform: str = ""
    events_executed: int = 0
    events_per_second: float = 0.0
    trace_events: int = 0
    #: Parallel-execution provenance (see ``repro.exec``): how many
    #: workers ran the experiment, how many shards it split into, and
    #: how many of those were served from the result cache.
    jobs: int = 1
    shards_total: int = 0
    shards_cached: int = 0
    #: Optional execution telemetry (per-shard sources, retries, worker
    #: vs. queue seconds) aggregated by ``repro.exec.campaign``.
    telemetry: Optional[Dict] = None

    def to_dict(self) -> Dict:
        return asdict(self)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, default=str)
            handle.write("\n")

    def summary(self) -> str:
        sha = self.git_sha or "unknown"
        rate = (
            f"{self.events_per_second / 1e3:.0f}k events/s"
            if self.events_per_second >= 1e3
            else f"{self.events_per_second:.0f} events/s"
        )
        return (
            f"run: {self.experiment} wall={self.wall_seconds:.2f}s "
            f"events={self.events_executed} ({rate}) git={sha}"
        )


def build_manifest(
    experiment: str,
    parameters: Optional[Dict] = None,
    fast: bool = False,
    started_at: float = 0.0,
    wall_seconds: float = 0.0,
    events_executed: int = 0,
    trace_events: int = 0,
    jobs: int = 1,
    shards_total: int = 0,
    shards_cached: int = 0,
    telemetry: Optional[Dict] = None,
) -> RunManifest:
    """Assemble a :class:`RunManifest` from a completed run."""
    return RunManifest(
        experiment=experiment,
        parameters=dict(parameters or {}),
        fast=fast,
        started_at=time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime(started_at)),
        wall_seconds=wall_seconds,
        git_sha=git_sha(),
        python=platform.python_version(),
        platform=platform.platform(),
        events_executed=int(events_executed),
        events_per_second=events_executed / wall_seconds if wall_seconds > 0 else 0.0,
        trace_events=trace_events,
        jobs=jobs,
        shards_total=shards_total,
        shards_cached=shards_cached,
        telemetry=dict(telemetry) if telemetry else None,
    )


def build_campaign_manifest(
    runs: Sequence[RunManifest],
    started_at: float = 0.0,
    wall_seconds: float = 0.0,
    jobs: int = 1,
    shards_total: int = 0,
    shards_cached: int = 0,
    cache_stats: Optional[Dict] = None,
    telemetry: Optional[Dict] = None,
) -> Dict:
    """Aggregate per-experiment manifests into one campaign manifest.

    The campaign manifest is the provenance record of a whole-evaluation
    regeneration: environment once, totals once, and the individual run
    manifests nested under ``experiments``. ``telemetry`` carries the
    campaign-level execution counters (pool/inline/cached shards,
    retries, worker vs. queue seconds) when the exec engine ran.
    """
    return {
        "kind": "campaign",
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime(started_at)),
        "wall_seconds": wall_seconds,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "jobs": jobs,
        "shards_total": shards_total,
        "shards_cached": shards_cached,
        "cache_stats": dict(cache_stats) if cache_stats else None,
        "telemetry": dict(telemetry) if telemetry else None,
        "experiments": [run.to_dict() for run in runs],
    }


def write_campaign_manifest(manifest: Dict, path: str) -> None:
    """Write an aggregated campaign manifest as pretty JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, default=str)
        handle.write("\n")


class GcPauses:
    """A ``gc.callbacks`` hook counting collections and their pause time.

    cProfile charges a cyclic-GC pause to whichever allocation happened
    to trigger it, so collections hide inside innocent-looking
    constructors; this tally makes them a line of their own.
    """

    def __init__(self) -> None:
        #: Collections finished, indexed by generation (0, 1, 2).
        self.collections = [0, 0, 0]
        #: Total wall seconds spent inside collections.
        self.pause_s = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._started
            self.collections[info["generation"]] += 1

    def summary(self) -> str:
        gen0, gen1, gen2 = self.collections
        return (
            f"gc: {gen0}/{gen1}/{gen2} collections (gen0/gen1/gen2), "
            f"{self.pause_s:.3f}s paused"
        )


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB.

    ``ru_maxrss`` is in KiB on Linux and in bytes on macOS; the
    benchmark suite's ``peak_rss_mb`` is the same KiB / 1024 reading.
    """
    import resource  # POSIX-only; imported where it is used

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def profile_call(fn, *args, top: int = 20, **kwargs):
    """Run ``fn`` under cProfile; returns ``(result, summary_text)``.

    The summary opens with the call's garbage-collector tally
    (:class:`GcPauses`, installed for this call only), then the
    process's peak RSS after the call (:func:`peak_rss_mb`), then the
    cProfile table.
    """
    profiler = cProfile.Profile()
    pauses = GcPauses()
    gc.callbacks.append(pauses)
    try:
        result = profiler.runcall(fn, *args, **kwargs)
    finally:
        gc.callbacks.remove(pauses)
    stream = io.StringIO()
    stream.write(pauses.summary() + "\n")
    stream.write(f"mem: peak RSS {peak_rss_mb():.1f} MB\n")
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    return result, stream.getvalue()
