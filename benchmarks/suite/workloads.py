"""The benchmark's workloads, and the child process that runs one repetition.

Usage (normally spawned by ``run.py``, one child per repetition)::

    PYTHONPATH=src python benchmarks/suite/workloads.py WORKLOAD SEED [--traced DIR]

The child times a fixed pure-Python host-speed probe, runs the
workload once under an ambient :class:`~repro.obs.spans.SpanProfiler`,
and prints one JSON record as its last line of output: the digest of
the workload's result, the phase times read from the span tree, the
simulated-event count and the peak RSS. With ``--traced`` it also runs
under cProfile and an ambient metrics registry, and writes
``layers.json`` and ``spans.json`` into ``DIR``.

Workloads (see README.md for why each was chosen):

- ``vehicular-tab2`` — the paper's Table 2 at ``--fast``: a mobile
  client joining roadside APs on the Amherst/Boston loop;
- ``lab-tcp-fig9`` — the Fig. 9 static-lab micro-benchmark at
  ``--fast``: TCP through shaped backhauls, no mobility;
- ``dense-downtown`` — the registry preset for 900 sim-s, stepped as
  build → warm-up (first 90 sim-s) → steady;
- ``metro-core`` — the 10,960-AP registry preset for 1 sim-s, stepped
  as build → warm-up (0.5 sim-s of cold cache fill) → steady.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import pstats
import resource
import sys
import time
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional

import layers
import repro
from repro.experiments.runner import run_experiment
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SPAN_SCENARIO_BUILD, SPAN_SIM_RUN, Span, SpanProfiler, install_profiler
from repro.scenario import build, result_from_driver, scenario
from repro.scenario.build import make_fleet
from repro.sim.engine import set_default_observability

#: Harness spans, recorded around the calls into the program.
SPAN_REP = "bench.rep"
SPAN_FLEET = "bench.fleet"
SPAN_WARMUP = "bench.warmup"
SPAN_STEADY = "bench.steady"

#: Iterations of the host-speed probe: 0.16–0.27 s on a 2-core Xeon
#: cloud VM under Python 3.11, depending on its neighbours' load.
PROBE_ITERATIONS = 2_000_000


def _experiment(name: str) -> Callable[[int, SpanProfiler], Any]:
    def run(seed: int, spans: SpanProfiler) -> Any:
        return run_experiment(name, fast=True, seed=seed)

    return run


def _phased_scenario(
    name: str, duration: float, warmup: float
) -> Callable[[int, SpanProfiler], Any]:
    """Build, warm up, then step a preset; returns ``run_shard``'s output.

    Stepping in two ``sim.run`` calls must reproduce the one-shot run:
    ``expected.json`` records the one-shot digest.
    """

    def run(seed: int, spans: SpanProfiler) -> Any:
        spec = scenario(name, duration=duration, seed=seed)
        world = build(spec)
        with spans.span(SPAN_FLEET):
            drivers = make_fleet(world, spec)
        with spans.span(SPAN_WARMUP):
            for driver in drivers:
                driver.start()
            world.sim.run(until=warmup)
        with spans.span(SPAN_STEADY):
            world.sim.run(until=duration)
            for driver in drivers:
                driver.stop()
            summaries = {
                driver.address: result_from_driver(driver, duration).summary()
                for driver in drivers
            }
        return {
            "scenario": spec.name,
            "seed": spec.seed,
            "spec_digest": spec.digest(),
            "drivers": summaries,
        }

    return run


#: name → (run(seed, spans) → result, declared simulated seconds).
WORKLOADS: Dict[str, Any] = {
    # 6 configurations × 240 sim-s.
    "vehicular-tab2": (_experiment("tab2"), 6 * 240.0),
    # 5 configurations × 3 backhaul rates × 20 sim-s.
    "lab-tcp-fig9": (_experiment("fig9"), 5 * 3 * 20.0),
    "dense-downtown": (_phased_scenario("dense-downtown", 900.0, 90.0), 900.0),
    "metro-core": (_phased_scenario("metro-core", 1.0, 0.5), 1.0),
}


# -- output digest -------------------------------------------------------------


def canonical_json(value: Any) -> str:
    """Key-sorted compact JSON; tuples become lists and dataclasses
    ``{TypeName: fields}``, so equal results give equal text."""
    return json.dumps(_plain(value), sort_keys=True, separators=(",", ":"))


def _plain(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_plain(item) for item in value)
    if is_dataclass(value) and not isinstance(value, type):
        return {type(value).__name__: _plain(asdict(value))}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def digest(value: Any) -> str:
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


# -- one repetition -----------------------------------------------------------


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: how fast the host is now."""
    start = time.perf_counter()
    acc = 0
    for index in range(PROBE_ITERATIONS):
        acc = (acc * 31 + index) % 1_000_003
    return time.perf_counter() - start


def phase_times(root: Span) -> Dict[str, float]:
    """Set-up and stepping times, and work counts, from one span tree.

    Set-up is every ``scenario.build`` plus fleet creation; stepping is
    every ``sim.run``, split by the harness phase it ran under.
    """
    out = {
        "setup_s": 0.0,
        "step_s": 0.0,
        "warmup_s": 0.0,
        "steady_s": 0.0,
        "events": 0,
        "builds": 0,
        "aps": 0,
    }

    def walk(span: Span, phase: str) -> None:
        if span.name in (SPAN_SCENARIO_BUILD, SPAN_FLEET):
            out["setup_s"] += span.wall
        if span.name == SPAN_SCENARIO_BUILD:
            out["builds"] += 1
            out["aps"] += span.fields.get("aps", 0)
        if span.name in (SPAN_WARMUP, SPAN_STEADY):
            phase = span.name
        if span.name == SPAN_SIM_RUN:
            out["step_s"] += span.wall
            out["events"] += span.fields.get("events", 0)
            # Unphased workloads count all stepping as steady state.
            out["warmup_s" if phase == SPAN_WARMUP else "steady_s"] += span.wall
            return
        for child in span.children:
            walk(child, phase)

    walk(root, SPAN_STEADY)
    return out


def traced_fields(
    stats: layers.Stats, root: str, snapshot: Dict[str, float], phases: Dict[str, float]
) -> Dict[str, Any]:
    """The per-layer part of a profiled repetition's record."""
    return {
        "layers": layers.fold(stats, layers.layer_resolver(root)),
        "counts": {
            **layers.call_counts(stats, root),
            **layers.snapshot_counts(snapshot),
            "scenario.builds": phases["builds"],
            "scenario.aps": phases["aps"],
        },
    }


def run_repetition(name: str, seed: int, traced_dir: Optional[Path] = None) -> Dict[str, Any]:
    """Run one repetition in this process and return its record.

    The host probe runs just before and just after the workload; the
    record carries their mean.
    """
    run, sim_seconds = WORKLOADS[name]
    probe_before = host_probe()
    spans = SpanProfiler()
    registry = MetricsRegistry() if traced_dir is not None else None
    profile = cProfile.Profile() if traced_dir is not None else None
    gc.collect()
    install_profiler(spans)
    set_default_observability(metrics=registry, spans=spans)
    try:
        with spans.span(SPAN_REP, workload=name, seed=seed) as rep:
            if profile is not None:
                profile.enable()
            try:
                result = run(seed, spans)
            finally:
                if profile is not None:
                    profile.disable()
    finally:
        install_profiler(None)
        set_default_observability()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe_after = host_probe()
    phases = phase_times(rep)
    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "traced": traced_dir is not None,
        "digest": digest(result),
        "wall_s": rep.wall,
        "sim_rate": sim_seconds / phases["step_s"],
        "peak_rss_mb": peak_rss_mb,
        "probe_s": (probe_before + probe_after) / 2.0,
        **phases,
    }
    if traced_dir is not None and profile is not None and registry is not None:
        stats = pstats.Stats(profile).stats
        root = os.path.dirname(repro.__file__)
        record.update(traced_fields(stats, root, registry.snapshot(), phases))
        traced_dir.mkdir(parents=True, exist_ok=True)
        layer_file = {"workload": name, "seed": seed, **record["layers"]}
        layer_file["counts"] = record["counts"]
        (traced_dir / "layers.json").write_text(
            json.dumps(layer_file, indent=2) + "\n", encoding="utf-8"
        )
        spans.write(str(traced_dir / "spans.json"))
    return record


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark repetition.")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--traced", type=Path, default=None, metavar="DIR")
    args = parser.parse_args(argv)
    record = run_repetition(args.workload, args.seed, args.traced)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
