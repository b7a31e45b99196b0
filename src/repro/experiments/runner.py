"""Experiment registry and CLI.

``spider-repro list`` shows every reproducible artifact;
``spider-repro run fig2 tab2 …`` regenerates them (``all`` for the
full evaluation). ``--fast`` shrinks durations/samples for smoke runs.

Parallel execution & caching (see ``repro.exec`` and
``docs: Parallel execution``):

- ``--jobs N`` fans an experiment's independent shards (per-seed runs,
  per-configuration rows) out over N worker processes; output is
  byte-identical to the sequential run;
- ``--cache-dir PATH`` (default ``.spider-cache`` once any exec flag is
  used) caches shard results keyed on experiment + parameters + seed +
  git SHA, so warm reruns skip simulation; ``--no-cache`` disables it;
- ``spider-repro campaign [ids|all]`` regenerates the whole evaluation
  through one shared worker pool and cache, with per-shard progress and
  an aggregated manifest (``--manifest PATH``).

Observability flags (see ``docs: Observability``):

- ``--trace [PATH]`` records every structured trace event of the run
  and exports them as JSONL (default path ``<name>-trace.jsonl``);
- ``--metrics`` prints the metrics-registry snapshot after each run;
- ``--profile`` wraps the run in cProfile and prints the top of the
  cumulative-time table;
- ``--spans [PATH]`` records the hierarchical wall-time span tree
  (scenario build, sim run, per-shard execution) as JSON (default
  ``<name>-spans.json``) and prints it as an indented tree;
- ``--flight [PATH]`` arms the crash flight recorder: if the run
  raises, a post-mortem JSON (last trace events per layer, open span
  stack, error) is written (default ``<name>-crash.json``).

Any of these also prints a one-line run manifest (parameters, git SHA,
wall-clock, simulated-event throughput). Trace/metrics/flight need the
simulators in-process, so they force shards inline (``--jobs`` is
ignored with a note); ``--spans`` composes with worker pools — the
per-shard spans are recorded on the orchestrator side.

Artifact post-processing lives in delegated sub-CLIs:
``spider-repro trace export RUN-trace.jsonl --chrome`` converts traces
and span trees to Perfetto-compatible JSON, and ``spider-repro perf``
renders the benchmark trend/regression report over ``BENCH_*.json``.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import os
import sys
import time
from typing import Dict, Optional

#: experiment id → (module path, fast-mode kwargs, description)
REGISTRY: Dict[str, Dict] = {
    "fig2": {
        "module": "repro.experiments.fig2_join_model",
        "fast": {"runs": 20, "trials_per_run": 50},
        "description": "join model vs simulation (P(join) vs fraction)",
    },
    "fig3": {
        "module": "repro.experiments.fig3_beta_sensitivity",
        "fast": {},
        "description": "P(join) vs beta_max for several fractions",
    },
    "fig4": {
        "module": "repro.experiments.fig4_dividing_speed",
        "fast": {"grid_step": 0.05},
        "description": "optimal per-channel bandwidth vs speed; dividing speed",
    },
    "fig5": {
        "module": "repro.experiments.fig5_association",
        "fast": {"seeds": (1,), "duration": 120.0},
        "description": "association-time CDF vs channel schedule",
    },
    "fig6": {
        "module": "repro.experiments.fig6_dhcp",
        "fast": {"seeds": (1,), "duration": 120.0},
        "description": "assoc+DHCP join-time CDF vs schedule and timers",
    },
    "fig7": {
        "module": "repro.experiments.fig7_tcp_fraction",
        "fast": {"duration": 30.0},
        "description": "TCP throughput vs % time on primary channel",
    },
    "fig8": {
        "module": "repro.experiments.fig8_tcp_dwell",
        "fast": {"duration": 30.0},
        "description": "TCP throughput vs absolute per-channel dwell",
    },
    "tab1": {
        "module": "repro.experiments.tab1_switch_latency",
        "fast": {"duration": 10.0},
        "description": "channel-switch latency vs #connected interfaces",
    },
    "fig9": {
        "module": "repro.experiments.fig9_micro",
        "fast": {"duration": 20.0, "backhauls": (1e6, 3e6, 5e6)},
        "description": "throughput micro-benchmark vs backhaul bandwidth",
    },
    "tab2": {
        "module": "repro.experiments.tab2_throughput_connectivity",
        "fast": {"duration": 240.0},
        "description": "avg throughput & connectivity per configuration",
    },
    "fig10": {
        "module": "repro.experiments.fig10_cdfs",
        "fast": {"duration": 240.0},
        "description": "connection/disruption/instantaneous-bw CDFs",
    },
    "tab3": {
        "module": "repro.experiments.tab3_dhcp_failures",
        "fast": {"seeds": (1,), "duration": 150.0},
        "description": "DHCP failure probabilities vs timeout configs",
    },
    "fig11": {
        "module": "repro.experiments.fig11_join_timeout",
        "fast": {"seeds": (1,), "duration": 120.0},
        "description": "join-time CDF vs DHCP timeout",
    },
    "fig12": {
        "module": "repro.experiments.fig12_join_policies",
        "fast": {"seeds": (1,), "duration": 120.0},
        "description": "join-delay CDF per scheduling policy",
    },
    "tab4": {
        "module": "repro.experiments.tab4_channels",
        "fast": {"duration": 240.0},
        "description": "throughput/connectivity vs number of channels",
    },
    "fig13": {
        "module": "repro.experiments.fig13_usability",
        "fast": {"duration": 240.0},
        "description": "connection lengths: mesh users vs Spider",
    },
    "fig14": {
        "module": "repro.experiments.fig14_usability",
        "fast": {"duration": 240.0},
        "description": "disruption lengths: mesh users vs Spider",
    },
    "ablations": {
        "module": "repro.experiments.ablations",
        "fast": {"duration": 180.0},
        "description": "design-choice ablations (selection, cache, PSM, slicing)",
    },
    "model-gap": {
        "module": "repro.experiments.model_vs_system",
        "fast": {"trials": 15},
        "description": "extension: quantify how optimistic Eq. 7 is vs the full stack",
    },
    "contention": {
        "module": "repro.experiments.contention",
        "fast": {"populations": (1, 2, 4), "duration": 25.0},
        "description": "extension: N concurrent Spider clients sharing APs",
    },
}


def _validate_overrides(name: str, module, overrides: Dict) -> None:
    """Reject overrides the experiment's ``run()`` cannot accept.

    Without this, a typo'd parameter surfaces as a bare TypeError from
    deep inside the experiment module; here it fails fast and names the
    experiment and the valid parameters.
    """
    if not overrides:
        return
    parameters = inspect.signature(module.run).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
        return  # run(**kwargs) accepts anything; nothing to check
    allowed = {
        pname
        for pname, p in parameters.items()
        if p.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    }
    unknown = sorted(set(overrides) - allowed)
    if unknown:
        raise TypeError(
            f"experiment {name!r} does not accept override(s): {', '.join(unknown)}. "
            f"Valid parameters: {', '.join(sorted(allowed)) or '(none)'}"
        )


def run_experiment(name: str, fast: bool = False, **overrides):
    """Run one experiment by id; returns its result dict."""
    entry = REGISTRY.get(name)
    if entry is None:
        raise KeyError(f"unknown experiment: {name!r} (try 'list')")
    module = importlib.import_module(entry["module"])
    _validate_overrides(name, module, overrides)
    kwargs = dict(entry["fast"]) if fast else {}
    kwargs.update(overrides)
    return module.run(**kwargs)


def print_experiment(name: str, result) -> None:
    entry = REGISTRY[name]
    module = importlib.import_module(entry["module"])
    module.print_report(result)


#: Default on-disk location of the shard-result cache once any exec
#: flag (--jobs/--cache-dir/--no-cache) engages ``repro.exec``.
DEFAULT_CACHE_DIR = ".spider-cache"


def _exec_requested(args) -> bool:
    return args.jobs is not None or args.cache_dir is not None or args.no_cache


def _make_cache(args):
    if args.no_cache:
        return None
    from repro.exec import ResultCache

    return ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)


def _flag_path(value: Optional[str], default: str) -> str:
    """Resolve an optional-argument flag value (``auto`` → default)."""
    return value if value not in (None, "auto", "") else default


def _run_observed(name: str, args) -> None:
    """Run one experiment with the requested observability attached."""
    from repro.obs.flight import FlightRecorder, dump_postmortem
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.report import build_manifest, observe, profile_call
    from repro.obs.spans import SPAN_EXPERIMENT, SpanProfiler
    from repro.obs.trace import TraceBus, TraceRecorder, write_jsonl

    observed = (
        args.trace is not None
        or args.metrics
        or args.profile
        or args.spans is not None
        or args.flight is not None
    )
    #: These observers consume events in this process, so shards must
    #: stay inline; --spans alone composes with pools (per-shard spans
    #: are recorded orchestrator-side).
    inline_only = (
        args.trace is not None or args.metrics or args.profile or args.flight is not None
    )
    exec_mode = _exec_requested(args)
    execution = None
    profiler: Optional[SpanProfiler] = SpanProfiler() if args.spans is not None else None

    def compute():
        """The experiment run, through repro.exec when requested."""
        nonlocal execution
        if not exec_mode:
            if profiler is not None:
                with profiler.span(SPAN_EXPERIMENT, experiment=name, fast=args.fast):
                    return run_experiment(name, fast=args.fast)
            return run_experiment(name, fast=args.fast)
        from repro.exec import execute_experiment

        jobs = args.jobs or 1
        if inline_only and jobs > 1:
            # Trace buses, metrics registries, and flight recorders live
            # in this process; worker processes would simulate where
            # they can't be seen.
            print(
                "note: --trace/--metrics/--profile/--flight run shards in-process;"
                " ignoring --jobs"
            )
            jobs = 1
        execution = execute_experiment(name, fast=args.fast, jobs=jobs, cache=_make_cache(args))
        return execution.result

    if not observed:
        result = compute()
        print_experiment(name, result)
        if execution is not None:
            print(execution.summary_line())
        return

    bus: Optional[TraceBus] = None
    recorder: Optional[TraceRecorder] = None
    if args.trace is not None:
        bus = TraceBus()
        recorder = TraceRecorder(bus)
    flight: Optional[FlightRecorder] = None
    if args.flight is not None:
        bus = bus or TraceBus()  # the recorder needs a bus even without --trace
        flight = FlightRecorder(bus)
    registry = MetricsRegistry()

    started = time.time()
    try:
        with observe(trace=bus, metrics=registry, spans=profiler, flight=flight):
            if args.profile:
                result, profile_text = profile_call(compute)
            else:
                result, profile_text = compute(), None
    except Exception as exc:
        if flight is not None:
            crash_path = _flag_path(args.flight, f"{name}-crash.json")
            dump_postmortem(
                crash_path,
                exc,
                recorder=flight,
                profiler=profiler,
                context={"experiment": name, "fast": args.fast},
            )
            print(f"flight recorder: post-mortem -> {crash_path}", file=sys.stderr)
        raise
    wall = time.time() - started

    print_experiment(name, result)
    if execution is not None:
        print(execution.summary_line())
    snapshot = registry.snapshot()
    if args.metrics:
        print()
        print(registry.format_snapshot())
    if profile_text is not None:
        print()
        print(profile_text.rstrip())
    if recorder is not None:
        path = _flag_path(args.trace, f"{name}-trace.jsonl")
        count = write_jsonl(recorder.events, path)
        print(f"trace: {count} events -> {path}")
    if profiler is not None:
        spans_path = _flag_path(args.spans, f"{name}-spans.json")
        profiler.write(spans_path)
        print(f"spans: {profiler.spans_recorded} -> {spans_path}")
        tree = profiler.format_tree()
        if tree:
            print(tree)

    entry = REGISTRY[name]
    manifest = build_manifest(
        experiment=name,
        parameters=dict(entry["fast"]) if args.fast else {},
        fast=args.fast,
        started_at=started,
        wall_seconds=wall,
        events_executed=int(snapshot.get("sim.events_executed", 0)),
        trace_events=bus.events_emitted if bus is not None else 0,
        jobs=execution.jobs if execution is not None else 1,
        shards_total=execution.shards_total if execution is not None else 0,
        shards_cached=execution.cache_hits if execution is not None else 0,
        telemetry=execution.telemetry() if execution is not None else None,
    )
    print(manifest.summary())
    if recorder is not None:
        manifest_path = (
            _flag_path(args.trace, f"{name}-trace.jsonl").rsplit(".", 1)[0] + "-manifest.json"
        )
        manifest.write(manifest_path)
        print(f"manifest -> {manifest_path}")


def _run_campaign(names, args) -> int:
    """``spider-repro campaign``: the whole evaluation, fanned out.

    Prints per-shard progress with campaign-wide ``[done/total]``
    counters and an ETA, and writes the aggregated manifest including
    per-experiment shard telemetry. ``--spans`` additionally records
    the campaign's wall-time span tree (one ``shard:<key>`` lane per
    executed shard); ``--flight`` arms a crash post-mortem dump.

    ``--jobs N`` sizes the local process pool; ``--journal`` records
    the campaign durably; ``--resume JOURNAL`` re-runs a killed
    campaign against the same cache, so completed shards are skipped
    and the merged output is byte-identical to an uninterrupted run.
    """
    from repro.exec import campaign_manifest, run_campaign
    from repro.exec.campaign import CampaignAborted
    from repro.exec.journal import CampaignJournal, JournalError, load_journal
    from repro.obs.flight import FlightRecorder, dump_postmortem
    from repro.obs.report import observe, write_campaign_manifest
    from repro.obs.spans import SpanProfiler
    from repro.obs.trace import TraceBus

    resume_state = None
    journal_path = args.journal
    if args.resume:
        if args.no_cache:
            print("error: --resume replays the result cache; drop --no-cache", file=sys.stderr)
            return 2
        try:
            resume_state = load_journal(args.resume)
        except JournalError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        journal_path = args.resume  # keep appending to the same history
        # The journal's recorded arguments are the defaults; anything
        # given explicitly on this command line wins over the record.
        if not args.experiments and resume_state.names:
            names = [name for name in resume_state.names if name in REGISTRY]
        args.fast = args.fast or resume_state.fast
        if args.cache_dir is None and resume_state.cache_dir:
            args.cache_dir = resume_state.cache_dir
        print(resume_state.summary_line())

    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    cache = _make_cache(args)
    journal = None
    if journal_path:
        journal = CampaignJournal(journal_path)
        if resume_state is not None:
            journal.resume(resume_state.completed_shards, resume_state.planned_shards)
        else:
            from repro.exec.cache import default_code_version

            journal.begin(
                names,
                args.fast,
                (args.cache_dir or DEFAULT_CACHE_DIR) if cache is not None else None,
                default_code_version(),
            )
    profiler = SpanProfiler() if args.spans is not None else None
    flight = FlightRecorder(TraceBus()) if args.flight is not None else None
    started = time.time()
    try:
        with observe(spans=profiler, flight=flight):
            campaign = run_campaign(
                names,
                fast=args.fast,
                jobs=jobs,
                cache=cache,
                progress=print,
                on_experiment=lambda execution: (
                    print_experiment(execution.name, execution.result),
                    print(),
                ),
                journal=journal,
                die_after=args.die_after,
            )
    except CampaignAborted as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        if journal is not None:
            print(
                f"resume with: spider-repro campaign --resume {journal.path}", file=sys.stderr
            )
        return 3
    except Exception as exc:
        if flight is not None:
            crash_path = _flag_path(args.flight, "campaign-crash.json")
            dump_postmortem(
                crash_path,
                exc,
                recorder=flight,
                profiler=profiler,
                context={"campaign": list(names), "fast": args.fast, "jobs": jobs},
            )
            print(f"flight recorder: post-mortem -> {crash_path}", file=sys.stderr)
        raise
    finally:
        if journal is not None:
            journal.close()
    manifest = campaign_manifest(campaign, fast=args.fast, started_at=started, spans=profiler)
    manifest_path = args.manifest or "campaign-manifest.json"
    write_campaign_manifest(manifest, manifest_path)
    if profiler is not None:
        spans_path = _flag_path(args.spans, "campaign-spans.json")
        profiler.write(spans_path)
        print(f"spans: {profiler.spans_recorded} -> {spans_path}")
    print(campaign.summary_line())
    print(f"manifest -> {manifest_path}")
    return 0


def _run_digest(names, args) -> int:
    """``spider-repro digest``: result digests for identity checking.

    The digest is the SHA-256 of the canonical serialization of the
    experiment's result dict — the same canonical form the exec cache
    keys on — so "digest unchanged" means "byte-identical results".
    """
    import hashlib
    import json

    from repro.exec.cache import canonical_text

    golden = None
    if args.check:
        with open(args.check, encoding="utf-8") as handle:
            golden = json.load(handle)
        if bool(golden.get("fast", False)) != args.fast:
            print(
                f"error: goldens in {args.check} were recorded with "
                f"fast={golden.get('fast')}; rerun with matching --fast",
                file=sys.stderr,
            )
            return 2
        if not names:
            names = [n for n in golden["digests"] if n in REGISTRY]

    digests: Dict[str, str] = {}
    drift = []
    for name in names:
        result = run_experiment(name, fast=args.fast)
        digest = hashlib.sha256(canonical_text(result).encode()).hexdigest()
        digests[name] = digest
        if golden is not None:
            want = golden["digests"].get(name)
            status = "ok" if digest == want else ("missing" if want is None else "DRIFT")
            if digest != want:
                drift.append(name)
            print(f"  {name:12s} {digest}  {status}")
        else:
            print(f"  {name:12s} {digest}")

    if args.update:
        with open(args.update, "w", encoding="utf-8") as handle:
            json.dump({"fast": args.fast, "digests": digests}, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"goldens -> {args.update}")
    if drift:
        print(f"digest drift in: {', '.join(drift)}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["lint"]:
        # simlint has its own flag set (--format/--baseline/--select/...);
        # delegate before the experiment parser can reject them.
        from repro.analysis.cli import main as lint_main

        return lint_main(argv[1:])
    if argv[:1] == ["scenario"]:
        # Same pattern: the scenario CLI owns its subcommands/flags.
        from repro.scenario.cli import main as scenario_main

        return scenario_main(argv[1:])
    if argv[:1] == ["trace"]:
        # Trace/span artifact post-processing (Perfetto export).
        from repro.obs.cli import trace_main

        return trace_main(argv[1:])
    if argv[:1] == ["perf"]:
        # Benchmark trend/regression report over BENCH_*.json files.
        from repro.obs.cli import perf_main

        return perf_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="spider-repro",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "command",
        choices=["list", "run", "campaign", "digest", "lint", "scenario", "trace", "perf"],
        help="what to do",
    )
    parser.add_argument("experiments", nargs="*", help="experiment ids (or 'all')")
    parser.add_argument("--fast", action="store_true", help="shrunk smoke-run parameters")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for shard execution (campaign default: all cores)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help=f"shard-result cache location (default {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the shard-result cache"
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="campaign: append an execution journal (enables --resume)",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="JOURNAL",
        help="campaign: resume from a journal, skipping cached shards",
    )
    parser.add_argument(
        "--die-after",
        type=int,
        default=None,
        metavar="N",
        help="campaign: abort after N shard outcomes (fault injection for --resume tests)",
    )
    parser.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="campaign: aggregated manifest path (default campaign-manifest.json)",
    )
    parser.add_argument(
        "--check",
        default=None,
        metavar="GOLDENS",
        help="digest: compare against a committed goldens JSON (exit 1 on drift)",
    )
    parser.add_argument(
        "--update",
        default=None,
        metavar="GOLDENS",
        help="digest: (re)write the goldens JSON from this run",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="auto",
        default=None,
        metavar="PATH",
        help="record trace events and export JSONL (default <name>-trace.jsonl)",
    )
    parser.add_argument(
        "--metrics", action="store_true", help="print the metrics snapshot after each run"
    )
    parser.add_argument(
        "--profile", action="store_true", help="profile the run and print hotspots"
    )
    parser.add_argument(
        "--spans",
        nargs="?",
        const="auto",
        default=None,
        metavar="PATH",
        help="record the wall-time span tree as JSON (default <name>-spans.json)",
    )
    parser.add_argument(
        "--flight",
        nargs="?",
        const="auto",
        default=None,
        metavar="PATH",
        help="arm the crash flight recorder (post-mortem default <name>-crash.json)",
    )
    args = parser.parse_args(argv)

    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.die_after is not None and args.die_after < 1:
        parser.error("--die-after must be >= 1")
    if args.command != "campaign" and (args.resume or args.journal or args.die_after):
        parser.error("--resume/--journal/--die-after apply to the campaign command")

    if args.command == "list":
        for name, entry in REGISTRY.items():
            print(f"  {name:10s} {entry['description']}")
        return 0

    names = list(args.experiments)
    if not names:
        if args.command == "campaign":
            names = ["all"]
        elif args.command == "digest" and args.check:
            pass  # digest derives its ids from the goldens file
        else:
            parser.error("run requires experiment ids (or 'all')")
    if names == ["all"]:
        names = list(REGISTRY)
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")

    if args.command == "digest":
        return _run_digest(names, args)
    if args.command == "campaign":
        return _run_campaign(names, args)

    for name in names:
        _run_observed(name, args)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
