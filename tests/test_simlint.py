"""simlint: trigger/non-trigger fixtures per rule, suppressions,
baseline round-trips, and the CLI contract (exit codes, formats)."""

import json
import textwrap

import pytest

from repro.analysis.baseline import Baseline
from repro.analysis.config import DEFAULT_SIM_SCOPE, LintConfig, find_pyproject, load_config
from repro.analysis.core import RULES, ModuleUnit, resolve_rule_ids
from repro.analysis.engine import active_rules, lint_units, module_name_for


def unit(source, path="mod.py", module=None):
    return ModuleUnit.from_source(path, textwrap.dedent(source), module=module)


def lint(*units, config=None, baseline=None, select=(), ignore=()):
    config = config or LintConfig()
    return lint_units(list(units), config, baseline=baseline, select=select, ignore=ignore)


def rules_hit(run):
    return sorted({f.rule for f in run.findings})


class TestNoGlobalRng:
    def test_module_level_calls_flagged(self):
        run = lint(unit("""
            import random
            random.seed(1)
            x = random.random()
        """), select=["SL001"])
        assert len(run.findings) == 2
        assert rules_hit(run) == ["SL001"]

    def test_aliased_import_flagged(self):
        run = lint(unit("""
            import random as rnd
            rnd.shuffle([1, 2])
        """), select=["SL001"])
        assert len(run.findings) == 1

    def test_from_import_of_function_flagged(self):
        run = lint(unit("from random import choice\n"), select=["SL001"])
        assert len(run.findings) == 1

    def test_seeded_instance_ok(self):
        run = lint(unit("""
            import random
            rng = random.Random(7)
            y = rng.random()
        """), select=["SL001"])
        assert run.findings == []

    def test_importing_the_class_ok(self):
        run = lint(unit("from random import Random, SystemRandom\n"), select=["SL001"])
        assert run.findings == []


class TestNoWallclockInSim:
    def test_time_time_in_sim_scope_flagged(self):
        run = lint(
            unit("import time\nt = time.time()\n", module="repro.sim.clock"),
            select=["SL002"],
        )
        assert len(run.findings) == 1
        assert "sim.now" in run.findings[0].message

    def test_from_import_alias_resolved(self):
        run = lint(
            unit("from time import perf_counter as pc\npc()\n", module="repro.mac.ap2"),
            select=["SL002"],
        )
        assert len(run.findings) == 1

    def test_datetime_now_flagged(self):
        run = lint(
            unit("import datetime\nd = datetime.datetime.now()\n", module="repro.net.x"),
            select=["SL002"],
        )
        assert len(run.findings) == 1

    def test_outside_sim_scope_ok(self):
        run = lint(
            unit("import time\nt = time.time()\n", module="repro.exec.workers2"),
            select=["SL002"],
        )
        assert run.findings == []

    def test_config_allowlist_exempts_harness_module(self):
        config = LintConfig(wallclock_allow=("repro.experiments.runner",))
        run = lint(
            unit("import time\nt = time.time()\n", module="repro.experiments.runner"),
            config=config,
            select=["SL002"],
        )
        assert run.findings == []

    def test_sleep_is_not_a_clock_read(self):
        run = lint(
            unit("import time\ntime.sleep(0)\n", module="repro.sim.clock"),
            select=["SL002"],
        )
        assert run.findings == []


class TestUnorderedIteration:
    def test_for_over_set_flagged_as_warning(self):
        run = lint(unit("""
            s = {1, 2, 3}
            for x in s:
                print(x)
        """), select=["SL003"])
        assert len(run.findings) == 1
        assert run.findings[0].severity == "warning"

    def test_comprehension_over_set_call_flagged(self):
        run = lint(unit("out = [v for v in set([3, 1])]\n"), select=["SL003"])
        assert len(run.findings) == 1

    def test_self_attribute_tracked_across_methods(self):
        run = lint(unit("""
            class Pool:
                def __init__(self):
                    self.members = set()

                def drain(self):
                    for m in self.members:
                        print(m)
        """), select=["SL003"])
        assert len(run.findings) == 1

    def test_sorted_iteration_ok(self):
        run = lint(unit("""
            s = {1, 2, 3}
            for x in sorted(s):
                print(x)
        """), select=["SL003"])
        assert run.findings == []

    def test_set_to_set_comprehension_exempt(self):
        run = lint(unit("""
            s = {1, 2, 3}
            t = {x + 1 for x in s}
        """), select=["SL003"])
        assert run.findings == []


TAXONOMY_SRC = """
DHCP_SEND = "dhcp.send"
DHCP_BLOCKED = "dhcp.blocked"
"""


def taxonomy_unit():
    return unit(TAXONOMY_SRC, path="obs/trace.py", module="repro.obs.trace")


class TestTraceTaxonomy:
    def emit(self, body):
        return unit(
            "from repro.obs import trace as tr\n"
            "def f(trace, now):\n"
            f"    trace.emit({body}, now)\n",
            path="net/dhcp2.py",
            module="repro.net.dhcp2",
        )

    def test_registered_constant_ok(self):
        run = lint(taxonomy_unit(), self.emit("tr.DHCP_SEND"), select=["SL004"])
        assert run.findings == []

    def test_conditional_between_constants_ok(self):
        run = lint(
            taxonomy_unit(),
            self.emit("tr.DHCP_SEND if now else tr.DHCP_BLOCKED"),
            select=["SL004"],
        )
        assert run.findings == []

    def test_string_literal_flagged_even_when_registered(self):
        run = lint(taxonomy_unit(), self.emit('"dhcp.send"'), select=["SL004"])
        assert len(run.findings) == 1
        assert "constant instead" in run.findings[0].message

    def test_unregistered_literal_flagged(self):
        run = lint(taxonomy_unit(), self.emit('"dhcp.sendd"'), select=["SL004"])
        assert len(run.findings) == 1
        assert "not registered" in run.findings[0].message

    def test_unknown_constant_flagged(self):
        run = lint(taxonomy_unit(), self.emit("tr.DHCP_TYPO"), select=["SL004"])
        assert len(run.findings) == 1

    def test_unresolvable_expression_flagged(self):
        run = lint(taxonomy_unit(), self.emit("now"), select=["SL004"])
        assert len(run.findings) == 1


def experiment(source, name="fig99_demo"):
    return unit(source, path=f"experiments/{name}.py", module=f"repro.experiments.{name}")


class TestShardProtocol:
    FULL = """
        def run(seeds=4, runs=2):
            return [seeds]

        def shards(seeds=4, runs=2):
            return []

        def run_shard(**params):
            return params

        def merge(results, seeds=4, runs=2):
            return results
    """

    def test_conforming_module_ok(self):
        run = lint(experiment(self.FULL), select=["SL005"])
        assert run.findings == []

    def test_partial_protocol_flagged(self):
        run = lint(experiment("""
            def run(seeds=4):
                return []

            def shards(seeds=4):
                return []
        """), select=["SL005"])
        assert len(run.findings) == 1
        assert "run_shard" in run.findings[0].message and "merge" in run.findings[0].message

    def test_protocol_without_run_flagged(self):
        run = lint(experiment("""
            def shards(**kw):
                return []

            def run_shard(**params):
                return params

            def merge(results, **kw):
                return results
        """), select=["SL005"])
        assert len(run.findings) == 1
        assert "no module-level run()" in run.findings[0].message

    def test_signature_drift_flagged(self):
        run = lint(experiment("""
            def run(seeds=4, runs=2):
                return []

            def shards(seeds=4):
                return []

            def run_shard(**params):
                return params

            def merge(results, seeds=4, runs=2):
                return results
        """), select=["SL005"])
        assert len(run.findings) == 1
        assert "runs" in run.findings[0].message

    def test_merge_without_results_param_flagged(self):
        run = lint(experiment("""
            def run(seeds=4):
                return []

            def shards(**kw):
                return []

            def run_shard(**params):
                return params

            def merge():
                return None
        """), select=["SL005"])
        assert any("first parameter" in f.message for f in run.findings)

    def test_rebound_entry_point_flagged(self):
        run = lint(experiment("""
            def run(seeds=4):
                return []

            def shards(**kw):
                return []

            run_shard = lambda **params: params  # noqa: E731

            def merge(results, **kw):
                return results
        """), select=["SL005"])
        assert any("pickle" in f.message for f in run.findings)

    def test_outside_experiments_package_ignored(self):
        run = lint(
            unit(self.FULL, path="exec/x.py", module="repro.exec.x"),
            select=["SL005"],
        )
        assert run.findings == []


def registry_unit(body):
    return unit(body, path="experiments/runner.py", module="repro.experiments.runner")


class TestExperimentRegistry:
    def test_consistent_registry_ok(self):
        run = lint(
            registry_unit("""
                REGISTRY = {
                    "fig99": {
                        "module": "repro.experiments.fig99_demo",
                        "fast": True,
                        "description": "demo",
                    },
                }
            """),
            experiment("def run():\n    return []\n"),
            select=["SL006"],
        )
        assert run.findings == []

    def test_missing_metadata_key_flagged(self):
        run = lint(
            registry_unit("""
                REGISTRY = {
                    "fig99": {"module": "repro.experiments.fig99_demo", "fast": True},
                }
            """),
            experiment("def run():\n    return []\n"),
            select=["SL006"],
        )
        assert any("description" in f.message for f in run.findings)

    def test_duplicate_module_flagged(self):
        run = lint(
            registry_unit("""
                REGISTRY = {
                    "a": {"module": "repro.experiments.fig99_demo",
                          "fast": True, "description": "x"},
                    "b": {"module": "repro.experiments.fig99_demo",
                          "fast": False, "description": "y"},
                }
            """),
            experiment("def run():\n    return []\n"),
            select=["SL006"],
        )
        assert any("registered twice" in f.message for f in run.findings)

    def test_registered_but_missing_module_flagged(self):
        run = lint(
            registry_unit("""
                REGISTRY = {
                    "ghost": {"module": "repro.experiments.fig98_ghost",
                              "fast": True, "description": "x"},
                }
            """),
            experiment("def run():\n    return []\n"),
            select=["SL006"],
        )
        assert any("does not exist" in f.message for f in run.findings)

    def test_unregistered_fig_module_flagged(self):
        run = lint(
            registry_unit("REGISTRY = {}\n"),
            experiment("def run():\n    return []\n"),
            select=["SL006"],
        )
        assert len(run.findings) == 1
        assert "not registered" in run.findings[0].message


class TestWorldBuildViaScenario:
    def test_direct_medium_in_experiment_flagged(self):
        run = lint(experiment("""
            from repro.phy.radio import Medium

            def run():
                return Medium(None, None, None)
        """), select=["SL007"])
        assert len(run.findings) == 1
        assert "repro.scenario" in run.findings[0].message

    def test_package_reexport_flagged(self):
        run = lint(experiment("""
            from repro.mac import AccessPoint

            def run():
                return AccessPoint(None, None, None, None)
        """), select=["SL007"])
        assert len(run.findings) == 1
        assert "AccessPoint" in run.findings[0].message

    def test_aliased_generate_deployment_flagged(self):
        run = lint(experiment("""
            from repro.world.deployment import generate_deployment as gen

            def run(route, config, rng):
                return gen(route, config, rng)
        """), select=["SL007"])
        assert len(run.findings) == 1
        assert "generate_deployment" in run.findings[0].message

    def test_scenario_package_exempt(self):
        run = lint(
            unit(
                "from repro.phy.radio import Medium\n"
                "def build_world(sim, prop, streams):\n"
                "    return Medium(sim, prop, streams)\n",
                path="scenario/build2.py",
                module="repro.scenario.build2",
            ),
            select=["SL007"],
        )
        assert run.findings == []

    def test_outside_sim_scope_ignored(self):
        run = lint(
            unit(
                "from repro.phy.radio import Medium\nm = Medium(None, None, None)\n",
                path="exec/x.py",
                module="repro.exec.x",
            ),
            select=["SL007"],
        )
        assert run.findings == []

    def test_scenario_built_world_ok(self):
        run = lint(experiment("""
            from repro.scenario import build, scenario

            def run(seed=3):
                world = build(scenario("vehicular-amherst", seed=seed))
                return world
        """), select=["SL007"])
        assert run.findings == []

    def test_scenario_package_config_override(self):
        config = LintConfig(
            sim_scope=DEFAULT_SIM_SCOPE + ("pkg.wiring",),
            scenario_package="pkg.wiring",
        )
        run = lint(
            unit(
                "from repro.phy.radio import Medium\nm = Medium(None, None, None)\n",
                path="wiring/build.py",
                module="pkg.wiring.build",
            ),
            config=config,
            select=["SL007"],
        )
        assert run.findings == []


class TestPhyHotPathScan:
    def test_for_loop_over_registry_flagged(self):
        run = lint(unit("""
            class Medium:
                def _deliver_broadcast(self, sender, frame, channel):
                    for radio in self._radios:
                        radio.deliver(frame)
        """), select=["SL008"])
        assert len(run.findings) == 1
        assert "spatial grid" in run.findings[0].message

    def test_snapshot_and_view_scans_flagged(self):
        run = lint(unit("""
            class Medium:
                def _deliver_unicast(self, sender, frame):
                    for radio in list(self._radios):
                        pass

                def suggest_rate(self, sender, dst):
                    return [r for r in self._radios.keys() if r.address == dst]
        """), select=["SL008"])
        assert len(run.findings) == 2

    def test_registry_maintenance_exempt(self):
        run = lint(unit("""
            class Medium:
                def unregister(self, radio):
                    for peer in self._radios:
                        pass

                def _retune(self, radio, old, new):
                    ordered = sorted(self._radios, key=lambda r: r.reg_seq)

                def _metrics_source(self):
                    return sum(r.frames_sent for r in self._radios)

                def radios_on_channel(self, channel):
                    return [r for r in self._radios if r.channel == channel]
        """), select=["SL008"])
        assert run.findings == []

    def test_index_iteration_ok(self):
        run = lint(unit("""
            class Medium:
                def _deliver_broadcast(self, sender, frame, channel):
                    for radio in self._mobile.get(channel, ()):
                        radio.deliver(frame)
        """), select=["SL008"])
        assert run.findings == []

    def test_other_classes_ignored(self):
        run = lint(unit("""
            class Registry:
                def _deliver_broadcast(self):
                    for radio in self._radios:
                        pass
        """), select=["SL008"])
        assert run.findings == []


class TestSpanGuard:
    def test_unguarded_emit_flagged(self):
        run = lint(unit("""
            class AP:
                def on_frame(self, frame):
                    self.sim.trace.emit("mac.rx", self.sim.now, src=frame.src)
        """, module="repro.mac.ap2"), select=["SL009"])
        assert len(run.findings) == 1
        assert "is not None" in run.findings[0].message

    def test_guarded_emit_ok(self):
        run = lint(unit("""
            class AP:
                def on_frame(self, frame):
                    trace = self.sim.trace
                    if trace is not None:
                        trace.emit("mac.rx", self.sim.now, src=frame.src)
        """, module="repro.mac.ap2"), select=["SL009"])
        assert run.findings == []

    def test_conjoined_guard_ok(self):
        run = lint(unit("""
            class Radio:
                def set_channel(self, channel):
                    trace = self.sim.trace
                    if trace is not None and channel != self.channel:
                        trace.emit("phy.channel_set", self.sim.now, channel=channel)
        """, module="repro.phy.radio2"), select=["SL009"])
        assert run.findings == []

    def test_early_return_guard_ok(self):
        run = lint(unit("""
            class Engine:
                def _note(self):
                    spans = self.spans
                    if spans is None:
                        return
                    with spans.span("sim.run"):
                        pass
        """, module="repro.sim.engine2"), select=["SL009"])
        assert run.findings == []

    def test_unguarded_span_in_sibling_branch_flagged(self):
        run = lint(unit("""
            class Engine:
                def run(self):
                    spans = self.spans
                    if spans is not None:
                        spans.span("sim.run")
                    else:
                        spans.record("sim.run", 0.0)
        """, module="repro.sim.engine2"), select=["SL009"])
        assert len(run.findings) == 1
        assert "record" in run.findings[0].message

    def test_parameter_receiver_is_caller_guaranteed(self):
        run = lint(unit("""
            class Flow:
                def _trace_cwnd(self, trace):
                    trace.emit("tcp.cwnd", self.sim.now, cwnd=self.cwnd)
        """, module="repro.net.tcp2"), select=["SL009"])
        assert run.findings == []

    def test_guard_does_not_leak_into_sibling_statements(self):
        run = lint(unit("""
            class AP:
                def on_frame(self, frame):
                    trace = self.sim.trace
                    if trace is not None:
                        pass
                    trace.emit("mac.rx", self.sim.now)
        """, module="repro.mac.ap2"), select=["SL009"])
        assert len(run.findings) == 1

    def test_outside_hotpath_packages_ok(self):
        run = lint(unit("""
            def report(trace_path):
                bus.emit("exec.done", 0.0)
        """, module="repro.exec.workers2"), select=["SL009"])
        assert run.findings == []

    def test_hotpath_packages_configurable(self):
        config = LintConfig(hotpath_packages=("custom.pkg",))
        source = "bus.emit('x.y', 0.0)\n"
        flagged = lint(unit(source, module="custom.pkg.mod"), config=config, select=["SL009"])
        clean = lint(unit(source, module="repro.mac.mod"), config=config, select=["SL009"])
        assert len(flagged.findings) == 1
        assert clean.findings == []


class TestSuppressionsAndBaseline:
    def test_line_suppression_moves_finding_aside(self):
        run = lint(unit("""
            import random
            x = random.random()  # simlint: disable=SL001
        """), select=["SL001"])
        assert run.findings == []
        assert len(run.suppressed) == 1

    def test_disable_all_on_line(self):
        run = lint(unit("""
            import random
            x = random.random()  # simlint: disable=all
        """), select=["SL001"])
        assert run.findings == []

    def test_file_suppression(self):
        run = lint(unit("""
            # simlint: disable-file=SL001
            import random
            x = random.random()
            y = random.choice([1])
        """), select=["SL001"])
        assert run.findings == []
        assert len(run.suppressed) == 2

    def test_suppressing_one_rule_keeps_others(self):
        run = lint(unit("""
            import random
            s = {1, 2}
            for v in s:  # simlint: disable=SL003
                x = random.random()
        """), select=["SL001", "SL003"])
        assert rules_hit(run) == ["SL001"]

    def test_baseline_round_trip(self, tmp_path):
        source = "import random\nx = random.random()\n"
        run = lint(unit(source), select=["SL001"])
        assert len(run.findings) == 1

        path = tmp_path / "baseline.json"
        assert Baseline.write(path, run.findings, run.sources) == 1
        again = lint(unit(source), baseline=Baseline.load(path), select=["SL001"])
        assert again.findings == []
        assert len(again.baselined) == 1
        assert again.stale_baseline == []

    def test_baseline_survives_line_drift(self, tmp_path):
        run = lint(unit("import random\nx = random.random()\n"), select=["SL001"])
        path = tmp_path / "baseline.json"
        Baseline.write(path, run.findings, run.sources)

        shifted = "import random\n\n\nx = random.random()\n"
        again = lint(unit(shifted), baseline=Baseline.load(path), select=["SL001"])
        assert again.findings == []

    def test_edited_line_invalidates_baseline_entry(self, tmp_path):
        run = lint(unit("import random\nx = random.random()\n"), select=["SL001"])
        path = tmp_path / "baseline.json"
        Baseline.write(path, run.findings, run.sources)

        edited = "import random\ny = random.choice([1])\n"
        again = lint(unit(edited), baseline=Baseline.load(path), select=["SL001"])
        assert len(again.findings) == 1
        assert len(again.stale_baseline) == 1


class TestEngine:
    def test_syntax_error_reported_as_sl000(self):
        run = lint(unit("def broken(:\n"))
        assert rules_hit(run) == ["SL000"]

    def test_sl000_is_active_even_under_select(self):
        assert "SL000" in active_rules(select=["SL001"])

    def test_select_by_slug_name(self):
        assert resolve_rule_ids(["no-global-rng"]) == {"SL001"}

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            resolve_rule_ids(["SL999"])

    def test_ignore_removes_rule(self):
        rules = active_rules(ignore=["SL003"])
        assert "SL003" not in rules and "SL001" in rules

    def test_all_documented_rules_registered(self):
        # SL000–SL014; rule 10 (the retired backend-boundary check) is gone.
        documented = {f"SL{i:03d}" for i in range(15) if i != 10}
        assert {key for key in RULES if key.startswith("SL")} == documented

    def test_module_name_for_walks_packages(self, tmp_path):
        pkg = tmp_path / "pkg" / "sub"
        pkg.mkdir(parents=True)
        (tmp_path / "pkg" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text("")
        assert module_name_for(pkg / "mod.py") == "pkg.sub.mod"
        assert module_name_for(tmp_path / "script.py") is None

    def test_repo_tree_is_clean_under_committed_baseline(self):
        pyproject = find_pyproject(__import__("pathlib").Path(__file__).parent)
        assert pyproject is not None
        config = load_config(pyproject)
        from repro.analysis.engine import lint_paths

        baseline_path = config.root / config.baseline
        baseline = Baseline.load(baseline_path) if baseline_path.is_file() else None
        run = lint_paths([config.root / "src"], config, baseline=baseline)
        assert run.findings == [], "\n".join(f.format() for f in run.findings)


@pytest.fixture()
def project(tmp_path, monkeypatch):
    """A miniature repo with a pyproject, a src tree, and one violation."""
    (tmp_path / "pyproject.toml").write_text(
        "[tool.simlint]\n"
        'sim-scope = ["pkg"]\n'
        'taxonomy-module = "pkg.trace"\n'
        'experiments-package = "pkg.experiments"\n'
        'registry-module = "pkg.experiments.runner"\n'
    )
    src = tmp_path / "src" / "pkg"
    src.mkdir(parents=True)
    (src / "__init__.py").write_text("")
    (src / "clock.py").write_text("import time\nnow = time.time()\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestCli:
    def run_cli(self, argv):
        from repro.analysis.cli import main

        return main(argv)

    def test_findings_exit_1_and_print_location(self, project, capsys):
        assert self.run_cli([]) == 1
        out = capsys.readouterr().out
        assert "pkg/clock.py:2" in out.replace("\\", "/")
        assert "SL002" in out

    def test_clean_after_fix_exit_0(self, project, capsys):
        (project / "src" / "pkg" / "clock.py").write_text("now = 0.0\n")
        assert self.run_cli([]) == 0

    def test_json_format_is_parseable(self, project, capsys):
        assert self.run_cli(["--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 1
        assert payload["findings"][0]["rule"] == "SL002"

    def test_write_baseline_then_clean(self, project, capsys):
        assert self.run_cli(["--write-baseline"]) == 0
        assert (project / "simlint-baseline.json").is_file()
        assert self.run_cli([]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_select_skips_other_rules(self, project):
        assert self.run_cli(["--select", "SL001"]) == 0
        assert self.run_cli(["--select", "SL002"]) == 1

    def test_unknown_rule_exit_2(self, project, capsys):
        assert self.run_cli(["--select", "SL999"]) == 2

    def test_missing_path_exit_2(self, project):
        assert self.run_cli(["does-not-exist/"]) == 2

    def test_list_rules(self, project, capsys):
        assert self.run_cli(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("SL001", "SL004", "SL006"):
            assert rule_id in out

    def test_runner_dispatches_lint_subcommand(self, project, capsys):
        from repro.experiments.runner import main as runner_main

        assert runner_main(["lint", "--list-rules"]) == 0
        assert "SL001" in capsys.readouterr().out
