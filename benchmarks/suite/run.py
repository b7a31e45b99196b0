"""The benchmark of record: four paper workloads, end to end and by layer.

Usage::

    python benchmarks/suite/run.py [--workload NAME ...] [--seed S]
                                   [--reps N | --seconds T] [--trace 0|1]
                                   [--out FILE]
    python benchmarks/suite/run.py compare PARENT.json CHANGE.json

Each repetition runs in a fresh child interpreter (``workloads.py``),
one child at a time, with the workloads' repetitions interleaved
round-robin (w1r1, w2r1, ..., w1r2, ...) so slow drift of the host
spreads over every workload alike. ``--reps`` fixes the number of
rounds (default 7); ``--seconds`` instead starts rounds while another
fits in the time budget, keeping room for the traced repetition.
Every repetition's result digest is checked against ``expected.json``
at the recorded seed, and at any other seed all repetitions of a
workload must agree; a repetition that raises or drifts counts as
failed.

Output: a table of every metric (unit, median, quartiles, min/max,
``n``), a results JSON (``--out``), and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` its metrics are the end-to-end metrics declared in
``BENCHMARK.json``; with ``--trace 1`` one more, profiled repetition
per workload gives the per-layer metrics, and ``layers.json`` plus a
span tree ``spans.json`` (render it with ``spider-repro trace export
--spans FILE --chrome``) are written per workload next to the results.

``compare`` prints one row per (workload, end-to-end metric) with both
sides' medians and quartiles and a verdict, and exits 1 if any metric
regressed beyond its ``BENCHMARK.json`` bound. Where the two sides'
simulated-event counts differ, it gates calibrated stepping time in
place of ``us_per_event``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected.json"
DEFAULT_OUT = HERE / "out" / "results.json"
DEFAULT_REPS = 7
#: A repetition that takes longer than this has hung (the slowest, a
#: profiled vehicular-tab2, takes about 25 s). With ``--seconds 25`` a
#: hang in a timed and in the traced repetition still ends the run
#: within 180 s.
CHILD_TIMEOUT_S = 60.0
#: A profiled repetition costs about this many untraced ones.
TRACE_COST = 4.0

#: Calibrated times read as on a host that runs the probe in exactly
#: this long (see README.md, "Why calibrated per-event time").
PROBE_REFERENCE_S = 0.2

Child = Callable[[str, int, Optional[Path]], Dict[str, Any]]


def calibrated(record: Mapping[str, Any], seconds: float) -> float:
    """``seconds`` as they would read on the reference host."""
    return seconds * PROBE_REFERENCE_S / record["probe_s"]


def timed_metrics(record: Mapping[str, Any]) -> Dict[str, float]:
    """The metrics one untraced repetition gives."""
    return {
        "us_per_event": calibrated(record, record["step_s"]) / record["events"] * 1e6,
        "setup_s": calibrated(record, record["setup_s"]),
        "peak_rss_mb": record["peak_rss_mb"],
        "run.wall_s": record["wall_s"],
        "run.sim_rate": record["sim_rate"],
        "phase.setup_s": record["setup_s"],
        "phase.step_s": record["step_s"],
        "phase.warmup_s": record["warmup_s"],
        "phase.steady_s": record["steady_s"],
        "host.probe_s": record["probe_s"],
    }


# -- statistics ---------------------------------------------------------------


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles (``statistics.quantiles``), min/max and n."""
    ordered = sorted(values)
    median = statistics.median(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": ordered[0],
        "max": ordered[-1],
        "n": len(ordered),
    }


def described(values: Sequence[float]) -> Dict[str, Any]:
    """:func:`summarize` plus the values themselves, as the results JSON holds them."""
    return {**summarize(values), "values": list(values)}


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float) -> str:
    """``improved``, ``regressed``, ``unchanged`` or ``unresolved``.

    Regressed: the change's median is worse than the parent's by more
    than ``bound``, a share of the parent's median, however noisy
    either side is. Otherwise, where the spread of either side
    (quartile distance over median) exceeds the bound, the result is
    unresolved unless every change run beats every parent run.
    Improved: the change wins at least nine tenths of the run pairs
    and its median beats the parent's by more than the parent's
    quartile distance.
    """
    sign = 1.0 if better == "lower" else -1.0
    old, new = summarize(parent), summarize(change)
    old_iqr = old["q3"] - old["q1"]
    worse_by = sign * (new["median"] - old["median"]) / abs(old["median"])
    if worse_by > bound:
        return "regressed"
    spread = max(old_iqr / abs(old["median"]), (new["q3"] - new["q1"]) / abs(new["median"]))
    all_better = max(sign * value for value in change) < min(sign * value for value in parent)
    if spread > bound and not all_better:
        return "unresolved"
    pairs = list(zip(parent, change))
    wins = sum(1 for old_value, new_value in pairs if sign * (new_value - old_value) < 0)
    if wins >= 0.9 * len(pairs) and sign * (old["median"] - new["median"]) > old_iqr:
        return "improved"
    return "unchanged"


# -- declarations -------------------------------------------------------------


def declared() -> Dict[str, Dict[str, Dict[str, Any]]]:
    """``BENCHMARK.json``'s metrics: ``{"end_to_end"|"per_layer": {name: decl}}``."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {kind: {m["name"]: m for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def load_expected() -> Dict[str, Dict[str, Any]]:
    """Workload → ``{"seed", "digest"}``; its order is the run order."""
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


# -- running ------------------------------------------------------------------


def run_child(name: str, seed: int, traced_dir: Optional[Path]) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; raises RuntimeError on failure."""
    command = [sys.executable, str(HERE / "workloads.py"), name, str(seed)]
    if traced_dir is not None:
        command += ["--traced", str(traced_dir)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as error:
        raise RuntimeError(f"timed out after {CHILD_TIMEOUT_S:.0f} s") from error
    if done.returncode != 0:
        tail = " | ".join(done.stderr.strip().splitlines()[-3:])
        raise RuntimeError(f"exit {done.returncode}: {tail}")
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as error:
        raise RuntimeError(f"no result record: {error}") from error


def run_all(
    names: Sequence[str],
    seeds: Mapping[str, int],
    reps: Optional[int],
    seconds: Optional[float],
    traced_root: Optional[Path],
    child: Child = run_child,
) -> Dict[str, Dict[str, Any]]:
    """Run every repetition; per workload, its records and errors."""
    runs: Dict[str, Dict[str, Any]] = {name: {"records": [], "errors": []} for name in names}

    def attempt(name: str, traced_dir: Optional[Path]) -> None:
        try:
            runs[name]["records"].append(child(name, seeds[name], traced_dir))
        except RuntimeError as error:
            runs[name]["errors"].append(str(error))
            print(f"{name}: repetition failed: {error}", file=sys.stderr)

    start = time.perf_counter()
    rounds = 0
    while True:
        for name in names:
            attempt(name, None)
        rounds += 1
        if reps is not None and rounds >= reps:
            break
        if seconds is not None:
            elapsed = time.perf_counter() - start
            per_round = elapsed / rounds
            reserve = TRACE_COST * per_round if traced_root is not None else 0.0
            if elapsed + per_round + reserve > seconds:
                break
    if traced_root is not None:
        for name in names:
            attempt(name, traced_root / name)
    return runs


def check(runs: Dict[str, Dict[str, Any]], expected: Mapping[str, Mapping[str, Any]]) -> None:
    """Mark drifted records with a ``drift`` reason.

    A record drifts if its digest differs from ``expected.json`` at the
    recorded seed, if its digest or simulated-event count differs from
    most repetitions', or if its layer shares do not sum to 1 ± 0.01.
    """
    for name, run in runs.items():
        records = run["records"]
        if not records:
            continue
        keys = [(record["digest"], record["events"]) for record in records]
        reference = Counter(keys).most_common(1)[0][0]
        pinned = expected[name]
        for record, key in zip(records, keys):
            if record["seed"] == pinned["seed"] and record["digest"] != pinned["digest"]:
                record["drift"] = (
                    f"digest {record['digest'][:12]} != expected {pinned['digest'][:12]}"
                )
            elif key != reference:
                record["drift"] = "result differs from the other repetitions"
            elif "layers" in record and abs(sum(record["layers"]["share"].values()) - 1) > 0.01:
                record["drift"] = "layer shares do not sum to 1"


def timed_records(run: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """The untraced records that did not drift."""
    return [record for record in run["records"] if not record["traced"] and "drift" not in record]


def workload_metrics(run: Mapping[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Every metric of one workload, summarized over its good records."""
    timed = timed_records(run)
    traced = [record for record in run["records"] if record["traced"] and "drift" not in record]
    if not timed:
        return {}
    per_record = [timed_metrics(record) for record in timed]
    metrics = {name: described([row[name] for row in per_record]) for name in per_record[0]}
    if traced:
        record = traced[-1]
        scalars = {
            f"{bucket}.{kind}": value
            for kind, table in record["layers"].items()
            for bucket, value in table.items()
        }
        scalars.update(record["counts"])
        scalars["trace.overhead_ratio"] = record["wall_s"] / metrics["run.wall_s"]["median"]
        for name, value in scalars.items():
            metrics[name] = described([value])
    return metrics


def tally(run: Mapping[str, Any]) -> Dict[str, Any]:
    attempted = len(run["records"]) + len(run["errors"])
    failed = len(run["errors"]) + sum(1 for record in run["records"] if "drift" in record)
    return {"attempted": attempted, "failed": failed, "failure_rate": failed / attempted}


# -- reporting ----------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_report(
    results: Mapping[str, Any], decls: Mapping[str, Mapping[str, Mapping[str, Any]]]
) -> None:
    units = {name: decl["unit"] for kind in decls.values() for name, decl in kind.items()}
    for name, workload in results["workloads"].items():
        print(
            f"\n{name} (seed {workload['seed']}): attempted {workload['attempted']}, "
            f"failed {workload['failed']}, failure_rate {workload['failure_rate']:.3g}"
        )
        for record in workload["records"]:
            if "drift" in record:
                print(f"  drift: {record['drift']}")
        print(
            f"  {'metric':<30s} {'unit':<9s} {'median':>11s} {'q1':>11s} {'q3':>11s}"
            f" {'min':>11s} {'max':>11s} {'n':>3s}"
        )
        for metric, summary in workload["metrics"].items():
            cells = " ".join(
                f"{_fmt(summary[key]):>11s}" for key in ("median", "q1", "q3", "min", "max")
            )
            print(f"  {metric:<30s} {units.get(metric, '?'):<9s} {cells} {summary['n']:>3d}")
        traced = [r for r in workload["records"] if r["traced"] and "drift" not in r]
        if traced:
            print(f"  layer self time (profiled repetition, seed {workload['seed']}):")
            print(layers.format_table(traced[-1]["layers"]))
        overhead = workload["metrics"].get("trace.overhead_ratio")
        if overhead is not None:
            ratio = overhead["median"]
            print(f"  tracing overhead: {ratio:.2f}x the untraced median wall time")


def final_line(
    results: Mapping[str, Any], decls: Mapping[str, Mapping[str, Mapping[str, Any]]], trace: bool
) -> Dict[str, Any]:
    """The last output line: this mode's declared metrics, medians only."""
    wanted = decls["per_layer" if trace else "end_to_end"]
    workloads = results["workloads"]
    metrics = {}
    for name, workload in workloads.items():
        prefix = "" if len(workloads) == 1 else f"{name}."
        for metric, decl in wanted.items():
            if metric in workload["metrics"]:
                value = workload["metrics"][metric]["median"]
                metrics[prefix + metric] = {"value": value, "unit": decl["unit"]}
    failed = sum(w["failed"] for w in workloads.values())
    return {
        "correct": failed == 0,
        "attempted": sum(w["attempted"] for w in workloads.values()),
        "failed": failed,
        "metrics": metrics,
    }


# -- compare ------------------------------------------------------------------


def _events(workload: Mapping[str, Any]) -> Optional[int]:
    """The workload's simulated-event count; every good record agrees on it."""
    timed = timed_records(workload)
    return timed[0]["events"] if timed else None


def compare(parent: Mapping[str, Any], change: Mapping[str, Any], decls: Mapping[str, Any]) -> int:
    """Print the verdict table; 1 if anything regressed beyond its bound.

    Both sides must have run each workload at the same seed, so their
    event counts can differ only if the change altered the work done.
    ``us_per_event`` cannot see that (extra events at the same cost
    per event read as unchanged), so where the counts differ the row
    gates the calibrated stepping time ``step_s`` in its place.
    """
    regressed = 0
    print(
        f"{'workload':<16s} {'metric':<14s} {'parent median [q1, q3]':>34s}"
        f" {'change median [q1, q3]':>34s}  verdict"
    )
    for name, old in parent["workloads"].items():
        new = change["workloads"].get(name)
        if new is None or new["seed"] != old["seed"]:
            print(f"{name:<16s} (missing from the change, or run at another seed)")
            regressed += 1
            continue
        events = (_events(old), _events(new))
        if events[0] != events[1]:
            print(f"{name:<16s} {'sim.events':<14s} {events[0]!s:>34s} {events[1]!s:>34s}  changed")
        for metric, decl in decls["end_to_end"].items():
            if metric not in old["metrics"] or metric not in new["metrics"]:
                print(f"{name:<16s} {metric:<14s} (not measured on both sides)")
                regressed += 1
                continue
            before, after = old["metrics"][metric], new["metrics"][metric]
            if metric == "us_per_event" and events[0] != events[1]:
                metric = "step_s"
                before, after = (
                    described([calibrated(r, r["step_s"]) for r in timed_records(side)])
                    for side in (old, new)
                )
            result = verdict(before["values"], after["values"], decl["better"], decl["bound"])
            regressed += result == "regressed"
            cells = [
                f"{_fmt(s['median'])} [{_fmt(s['q1'])}, {_fmt(s['q3'])}]" for s in (before, after)
            ]
            print(f"{name:<16s} {metric:<14s} {cells[0]:>34s} {cells[1]:>34s}  {result}")
        worse = new["failure_rate"] > old["failure_rate"]
        regressed += worse
        print(
            f"{name:<16s} {'failure_rate':<14s} {_fmt(old['failure_rate']):>34s}"
            f" {_fmt(new['failure_rate']):>34s}  {'regressed' if worse else 'unchanged'}"
        )
    return 1 if regressed else 0


# -- entry --------------------------------------------------------------------


def _parse(argv: Sequence[str], workloads: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run the benchmark of record.")
    parser.add_argument("--workload", nargs="+", choices=workloads, default=list(workloads))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: each workload's seed in expected.json)")
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--reps", type=int, default=None, help=f"rounds (default {DEFAULT_REPS})")
    budget.add_argument("--seconds", type=float, default=None, help="time budget instead of --reps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add one profiled repetition per workload and report layers")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="results JSON path")
    args = parser.parse_args(argv)
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.reps is None and args.seconds is None:
        args.reps = DEFAULT_REPS
    return args


def main(argv: Optional[Sequence[str]] = None, child: Child = run_child) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent", type=Path)
        parser.add_argument("change", type=Path)
        paths = parser.parse_args(argv[1:])
        parent, change = (
            json.loads(path.read_text(encoding="utf-8")) for path in (paths.parent, paths.change)
        )
        return compare(parent, change, declared())
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    expected = load_expected()
    args = _parse(argv, list(expected))
    decls = declared()
    seeds = {
        name: expected[name]["seed"] if args.seed is None else args.seed for name in args.workload
    }
    traced_root = args.out.parent if args.trace else None
    runs = run_all(args.workload, seeds, args.reps, args.seconds, traced_root, child)
    check(runs, expected)
    results = {
        "trace": bool(args.trace),
        "workloads": {
            name: {
                "seed": seeds[name],
                **tally(run),
                "errors": run["errors"],
                "metrics": workload_metrics(run),
                "records": run["records"],
            }
            for name, run in runs.items()
        },
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print_report(results, decls)
    print(f"\nresults -> {args.out}")
    line = final_line(results, decls, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
