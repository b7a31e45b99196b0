"""``spider-repro scenario``: run declarative workloads from the shell.

Subcommands:

- ``list`` — the registry, one line per named scenario;
- ``show NAME|SPEC.toml`` — print the fully-resolved spec as TOML
  (what ``run`` would execute, after overrides);
- ``run NAME|SPEC.toml`` — build the world, run the declared fleet,
  print per-driver summaries; ``--profile`` runs it in-process under
  cProfile (no exec layer, no cache) and then prints the call's
  garbage-collector tally and hotspots;
- ``sweep NAME|SPEC.toml --seeds 1,2,3`` — the same spec across seeds.

``run`` and ``sweep`` execute through ``repro.exec``: ``--jobs N``
fans seeds out over worker processes and ``--cache-dir`` enables the
content-addressed result cache, keyed on the canonical serialization
of each resolved spec — two textually different spec files describing
the same scenario share cache entries.

Output discipline: every line whose content can vary between
otherwise-identical runs (wall-clock, cache hit counts) is prefixed
``exec:`` so identity checks can filter it (CI diffs sequential vs
``--jobs 2`` output modulo ``^exec:`` lines).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from repro.scenario import registry
from repro.scenario.spec import ScenarioSpec, SpecError

#: CLI exit codes (mirrors repro.analysis.cli).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def resolve_spec(ref: str, overrides: Dict[str, Any]) -> ScenarioSpec:
    """A spec from a registry name or a ``.toml``/``.json`` file path."""
    if ref.endswith((".toml", ".json")):
        spec = ScenarioSpec.load(ref)
        if overrides:
            spec = spec.with_overrides(**overrides).validated()
        return spec
    return registry.scenario(ref, **overrides)


def _overrides(args) -> Dict[str, Any]:
    overrides: Dict[str, Any] = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.duration is not None:
        overrides["duration"] = args.duration
    return overrides


def _print_result(result: Dict[str, Any]) -> None:
    print(f"scenario {result['scenario']} seed={result['seed']}")
    print(f"  spec {result['spec_digest'][:12]}")
    for address, summary in result["drivers"].items():
        fields = " ".join(f"{key}={value}" for key, value in summary.items())
        print(f"  {address:12s} {fields}")


def _execute(specs: List[ScenarioSpec], args) -> List[Dict[str, Any]]:
    """Run resolved specs through the exec layer; results in spec order."""
    from repro.exec.cache import ResultCache
    from repro.exec.shards import Shard
    from repro.exec.workers import ExecPolicy, execute_shards

    cache: Optional[ResultCache] = None
    if args.cache_dir and not args.no_cache:
        cache = ResultCache(args.cache_dir)
    shards = [
        Shard(key=f"spec={spec.digest()[:12]}", params={"spec": spec.to_dict()})
        for spec in specs
    ]
    outcomes = execute_shards(
        "repro.scenario.build",
        "run_shard",
        shards,
        policy=ExecPolicy(jobs=args.jobs),
        cache=cache,
        experiment="scenario",
    )
    wall = sum(outcome.wall_seconds for outcome in outcomes)
    cached = sum(1 for outcome in outcomes if outcome.source == "cache")
    print(f"exec: jobs={args.jobs} shards={len(outcomes)} cached={cached}/{len(outcomes)}")
    print(f"exec: wall={wall:.2f}s")
    return [outcome.result for outcome in outcomes]


def _cmd_list(args) -> int:
    for name in registry.names():
        spec = registry.scenario(name)
        doc = (registry._REGISTRY[name].__doc__ or "").strip().splitlines()
        blurb = doc[0] if doc else ""
        print(f"  {name:18s} aps={spec.deployment.kind:9s} {blurb}")
    return EXIT_OK


def _cmd_show(args) -> int:
    spec = resolve_spec(args.spec, _overrides(args))
    sys.stdout.write(spec.to_toml())
    return EXIT_OK


def _cmd_run(args) -> int:
    spec = resolve_spec(args.spec, _overrides(args))
    if not spec.drivers:
        print(
            f"error: scenario {spec.name!r} declares no drivers — add a "
            f"[[drivers]] table to the spec",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.profile:
        return _run_profiled(spec, args)
    results = _execute([spec], args)
    _print_result(results[0])
    return EXIT_OK


def _run_profiled(spec: ScenarioSpec, args) -> int:
    """``run --profile``: the shard in this process, under cProfile."""
    from repro.obs.report import profile_call
    from repro.scenario.build import run_shard

    if args.jobs > 1 or args.cache_dir:
        print("note: --profile runs the spec in-process; ignoring --jobs/--cache-dir")
    result, profile_text = profile_call(run_shard, spec.to_dict())
    _print_result(result)
    print()
    print(profile_text.rstrip())
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        seeds = [int(part) for part in args.seeds.split(",") if part.strip()]
    except ValueError:
        print(f"error: bad --seeds {args.seeds!r} (want e.g. 1,2,3)", file=sys.stderr)
        return EXIT_USAGE
    if not seeds:
        print("error: --seeds is empty", file=sys.stderr)
        return EXIT_USAGE
    base = resolve_spec(args.spec, _overrides(args))
    if not base.drivers:
        print(f"error: scenario {base.name!r} declares no drivers", file=sys.stderr)
        return EXIT_USAGE
    specs = [base.with_overrides(seed=seed) for seed in seeds]
    results = _execute(specs, args)
    for result in results:
        _print_result(result)
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="spider-repro scenario",
        description="Run declarative scenario specs (registry names or TOML/JSON files).",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sub.add_parser("list", help="list registered scenarios")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("spec", help="registry name or path to a .toml/.json spec")
        p.add_argument("--seed", type=int, default=None, help="override the spec's seed")
        p.add_argument(
            "--duration", type=float, default=None, help="override the spec's duration (s)"
        )

    add_common(sub.add_parser("show", help="print the resolved spec as TOML"))

    def add_exec(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs", type=int, default=1, metavar="N", help="worker processes (default 1)"
        )
        p.add_argument(
            "--cache-dir", default=None, metavar="PATH", help="shard-result cache location"
        )
        p.add_argument("--no-cache", action="store_true", help="disable the result cache")

    run_parser = sub.add_parser("run", help="build and run one scenario")
    add_common(run_parser)
    add_exec(run_parser)
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help="run in-process and print the GC tally and cProfile hotspots",
    )

    sweep_parser = sub.add_parser("sweep", help="run one scenario across seeds")
    add_common(sweep_parser)
    add_exec(sweep_parser)
    sweep_parser.add_argument(
        "--seeds", default="1,2,3", metavar="S1,S2,...", help="comma-separated seed list"
    )

    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        parser.error("--jobs must be >= 1")

    try:
        if args.subcommand == "list":
            return _cmd_list(args)
        if args.subcommand == "show":
            return _cmd_show(args)
        if args.subcommand == "run":
            return _cmd_run(args)
        return _cmd_sweep(args)
    except (SpecError, registry.UnknownScenarioError) as error:
        message = error.args[0] if error.args else str(error)
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
