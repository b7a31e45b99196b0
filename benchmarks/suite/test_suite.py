"""Tests of the benchmark harness itself: statistics, layer fold, gates.

No test here runs a workload; the child process is replaced by a stub
that returns synthetic records, so the suite stays fast.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import layers
import pytest
import run
import workloads

from repro.obs.spans import SPAN_SCENARIO_BUILD, SPAN_SIM_RUN, SpanProfiler

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = "/x/repro"


def _func(path, name, line=1):
    return (path, line, name)


HARNESS = _func("/bench/workloads.py", "run_repetition")
ENGINE = _func(f"{PACKAGE}/sim/engine.py", "run")
BROADCAST = _func(f"{PACKAGE}/phy/radio.py", "broadcast")
TRANSMIT = _func(f"{PACKAGE}/phy/radio.py", "transmit", line=200)
SPAN = _func(f"{PACKAGE}/obs/spans.py", "span")
HEAPPUSH = _func("~", "<built-in method _heapq.heappush>", line=0)
RANDOM = _func("/usr/lib/python3.11/random.py", "random")
RANDOM_C = _func("~", "<method 'random' of '_random.Random' objects>", line=0)
LOOP_A = _func("/usr/lib/python3.11/json/encoder.py", "a")
LOOP_B = _func("/usr/lib/python3.11/json/encoder.py", "b")


def _edge(nc, tt):
    return (nc, nc, tt, tt)


#: pstats-shaped: func -> (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)}).
STATS = {
    HARNESS: (1, 1, 0.5, 6.0, {}),
    ENGINE: (1, 1, 1.0, 5.0, {HARNESS: _edge(1, 1.0)}),
    BROADCAST: (5, 5, 2.0, 3.0, {ENGINE: _edge(5, 2.0)}),
    TRANSMIT: (3, 3, 0.0, 0.0, {ENGINE: _edge(3, 0.0)}),
    SPAN: (1, 1, 0.1, 0.1, {HARNESS: _edge(1, 0.1)}),
    # heappush: 0.6 s under the engine, 0.3 s under the medium.
    HEAPPUSH: (15, 15, 0.9, 0.9, {ENGINE: _edge(10, 0.6), BROADCAST: _edge(5, 0.3)}),
    # stdlib random → C random, two frames away from the medium.
    RANDOM: (4, 4, 0.4, 0.6, {BROADCAST: _edge(4, 0.4)}),
    RANDOM_C: (4, 4, 0.2, 0.2, {RANDOM: _edge(4, 0.2)}),
    # Mutual recursion outside repro, entered from the medium.
    LOOP_A: (3, 3, 0.3, 0.4, {BROADCAST: _edge(1, 0.1), LOOP_B: _edge(2, 0.2)}),
    LOOP_B: (2, 2, 0.1, 0.3, {LOOP_A: _edge(2, 0.1)}),
}


# -- statistics ---------------------------------------------------------------


def test_summarize_uses_statistics_quartiles():
    summary = run.summarize([7, 1, 6, 2, 5, 3, 4])
    assert summary == {"median": 4, "q1": 2, "q3": 6, "min": 1, "max": 7, "n": 7}
    assert run.summarize([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "min": 2.5,
                                    "max": 2.5, "n": 1}


STEADY = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.02]


@pytest.mark.parametrize(
    "change, better, expected",
    [
        (STEADY, "lower", "unchanged"),
        ([v * 1.2 for v in STEADY], "lower", "regressed"),
        ([v * 0.8 for v in STEADY], "lower", "improved"),
        ([v * 1.05 for v in STEADY], "lower", "unchanged"),
        ([v * 0.8 for v in STEADY], "higher", "regressed"),
        ([v * 1.2 for v in STEADY], "higher", "improved"),
    ],
)
def test_verdict(change, better, expected):
    assert run.verdict(STEADY, change, better, 0.1) == expected


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0]
    assert run.verdict(noisy, [v * 1.02 for v in noisy], "lower", 0.1) == "unresolved"
    # ...unless every change run beats every parent run.
    assert run.verdict(noisy, [1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.0], "lower", 0.1) == "improved"
    # A median worse by more than the bound regresses however noisy the runs.
    assert run.verdict(noisy, [v * 2 for v in noisy], "lower", 0.1) == "regressed"


def test_verdict_needs_nine_tenths_of_pairs():
    parent = [10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0]
    change = [8.0] * 8 + [10.5, 10.5]  # wins 8 of 10 pairs
    assert run.verdict(parent, change, "lower", 0.1) == "unchanged"


# -- layer fold ---------------------------------------------------------------


def test_fold_charges_foreign_frames_to_nearest_repro_caller():
    folded = layers.fold(STATS, layers.layer_resolver(PACKAGE))
    self_s = folded["self_s"]
    assert self_s["sim"] == pytest.approx(1.0 + 0.6)
    assert self_s["phy"] == pytest.approx(2.0 + 0.3 + 0.4 + 0.2 + 0.3 + 0.1)
    assert self_s["other"] == pytest.approx(0.5 + 0.1)  # harness root + repro.obs
    assert sum(self_s.values()) == pytest.approx(sum(entry[2] for entry in STATS.values()))
    assert sum(folded["share"].values()) == pytest.approx(1.0)
    assert set(folded["self_s"]) == set(layers.BUCKETS)


def test_fold_counts_calls_across_layer_boundaries():
    calls_in = layers.fold(STATS, layers.layer_resolver(PACKAGE))["calls_in"]
    assert calls_in["sim"] == 1  # harness → engine
    assert calls_in["phy"] == 5 + 3  # engine → broadcast, engine → transmit
    assert calls_in["other"] == 0  # harness (other) → obs (other)


def test_call_counts_match_file_and_name():
    counts = layers.call_counts(STATS, PACKAGE)
    assert counts["phy.transmits"] == 3
    assert counts["sim.schedule_calls"] == 0


def test_layer_resolver_ignores_paths_outside_the_package():
    layer_of = layers.layer_resolver("/work/repro/src/repro")
    assert layer_of("/work/repro/src/repro/mac/ap.py") == "mac"
    assert layer_of("/work/repro/src/repro/obs/trace.py") == "other"
    assert layer_of("/work/repro/benchmarks/suite/run.py") is None


# -- workloads ----------------------------------------------------------------


def test_expected_covers_every_workload_and_matches_the_goldens():
    expected = run.load_expected()
    assert list(expected) == list(workloads.WORKLOADS)
    goldens = json.loads((ROOT / "tests" / "goldens" / "experiment-digests.json").read_text())
    assert goldens["fast"] is True
    assert expected["vehicular-tab2"]["digest"] == goldens["digests"]["tab2"]
    assert expected["lab-tcp-fig9"]["digest"] == goldens["digests"]["fig9"]


def test_phase_times_split_by_harness_phase():
    clock = iter(range(100))
    spans = SpanProfiler(clock=lambda: float(next(clock)))
    with spans.span(workloads.SPAN_REP) as rep:
        with spans.span(SPAN_SCENARIO_BUILD) as build:
            build.add(aps=3)
        with spans.span(workloads.SPAN_FLEET):
            pass
        with spans.span(workloads.SPAN_WARMUP):
            with spans.span(SPAN_SIM_RUN) as sim_run:
                sim_run.add(events=5)
        with spans.span(workloads.SPAN_STEADY):
            with spans.span(SPAN_SIM_RUN) as sim_run:
                sim_run.add(events=7)
    phases = workloads.phase_times(rep)
    assert phases == {"setup_s": 2.0, "step_s": 2.0, "warmup_s": 1.0, "steady_s": 1.0,
                      "events": 12, "builds": 1, "aps": 3}


# -- the harness gates --------------------------------------------------------


def _stub_child(digest, step_s=1.0, events=100):
    """A child that returns a synthetic record without simulating."""

    def child(name, seed, traced_dir):
        phases = {"setup_s": 0.1, "step_s": step_s, "warmup_s": 0.2, "steady_s": step_s - 0.2,
                  "events": events, "builds": 1, "aps": 4}
        record = {"workload": name, "seed": seed, "traced": traced_dir is not None,
                  "digest": digest, "wall_s": 1.2, "sim_rate": 2.0, "peak_rss_mb": 50.0,
                  "probe_s": 0.2, **phases}
        if traced_dir is not None:
            record.update(workloads.traced_fields(STATS, PACKAGE, {}, phases))
        return record

    return child


def _main(tmp_path, digest, *flags, out_name="results.json", **fields):
    out = tmp_path / out_name
    argv = ["--workload", "metro-core", "--reps", "3", "--out", str(out), *flags]
    return run.main(argv, child=_stub_child(digest, **fields)), json.loads(out.read_text())


def test_wrong_digest_fails_every_repetition(tmp_path, capsys):
    code, results = _main(tmp_path, "0" * 64)
    assert code == 1
    assert results["workloads"]["metro-core"]["failure_rate"] == 1.0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == line["attempted"] == 3


def test_raising_repetition_counts_as_failed(tmp_path, capsys):
    digest = run.load_expected()["metro-core"]["digest"]
    good = _stub_child(digest)
    calls = []

    def flaky(name, seed, traced_dir):
        calls.append(name)
        if len(calls) == 2:
            raise RuntimeError("exit 1: boom")
        return good(name, seed, traced_dir)

    out = tmp_path / "results.json"
    argv = ["--workload", "metro-core", "--reps", "3", "--out", str(out)]
    assert run.main(argv, child=flaky) == 1
    workload = json.loads(out.read_text())["workloads"]["metro-core"]
    assert (workload["attempted"], workload["failed"]) == (3, 1)
    assert workload["metrics"]["us_per_event"]["n"] == 2
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False and set(line["metrics"]) == set(run.declared()["end_to_end"])


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_emitted_metrics_are_exactly_the_declared_ones(tmp_path, capsys, trace, kind):
    digest = run.load_expected()["metro-core"]["digest"]
    code, _ = _main(tmp_path, digest, "--trace", trace)
    assert code == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    declared = run.declared()[kind]
    assert set(line["metrics"]) == set(declared)
    assert all(line["metrics"][name]["unit"] == declared[name]["unit"] for name in declared)


@pytest.mark.parametrize(
    "step_s, events, row, expected",
    [
        (1.0, 100, "us_per_event", "unchanged"),
        (1.5, 100, "us_per_event", "regressed"),
        # More events at a lower cost per event: slower end to end.
        (1.5, 200, "step_s", "regressed"),
        # Fewer events at the same cost per event: faster end to end.
        (0.5, 50, "step_s", "improved"),
    ],
)
def test_compare_gates_stepping_time_when_event_counts_differ(
    tmp_path, capsys, step_s, events, row, expected
):
    digest = run.load_expected()["metro-core"]["digest"]
    _main(tmp_path, digest, out_name="parent.json")
    _main(tmp_path, digest, out_name="change.json", step_s=step_s, events=events)
    capsys.readouterr()
    code = run.main(["compare", str(tmp_path / "parent.json"), str(tmp_path / "change.json")])
    assert code == (1 if expected == "regressed" else 0)
    lines = capsys.readouterr().out.splitlines()[1:]
    verdicts = {line.split()[1]: line.split()[-1] for line in lines}
    assert verdicts[row] == expected
    assert ("us_per_event" in verdicts) == (row == "us_per_event")
    assert verdicts.get("sim.events") == (None if events == 100 else "changed")
    assert verdicts["failure_rate"] == "unchanged"


def test_benchmark_declaration_is_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/suite"]
    assert [w["name"] for w in spec["workloads"]] == list(run.load_expected())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_refuses_to_run_without_the_program(tmp_path):
    suite = tmp_path / "benchmarks" / "suite"
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(Path(__file__).parent, suite, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, str(suite / "run.py"), "--reps", "1"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert done.returncode == 2
    assert '"correct"' not in done.stdout
