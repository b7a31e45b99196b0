"""Tests for ``repro.exec``: determinism, caching, fault tolerance.

The stub shard functions live in ``tests/exec_stub.py`` so worker
processes can import them by module path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.exec import (
    ExecPolicy,
    ResultCache,
    Shard,
    ShardError,
    build_plan,
    canonical_text,
    execute_experiment,
    execute_shards,
    run_campaign,
)
from repro.exec.workers import SOURCE_CACHE, SOURCE_INLINE, SOURCE_POOL
from repro.experiments import fig6_dhcp, runner

STUB = "tests.exec_stub"

#: Fast policy for fault-path tests: no real backoff sleeps.
def quick_policy(**kwargs):
    defaults = dict(jobs=1, backoff_base=0.0)
    defaults.update(kwargs)
    return ExecPolicy(**defaults)


# -- determinism ---------------------------------------------------------


class TestDeterminism:
    def test_parallel_fig6_fast_identical_to_sequential(self):
        """The acceptance check: --jobs N output == sequential output."""
        fast = runner.REGISTRY["fig6"]["fast"]
        sequential = fig6_dhcp.run(**fast)
        execution = execute_experiment("fig6", fast=True, jobs=4)
        assert execution.plan.sharded
        assert execution.shards_total == 4  # 4 cases x 1 fast seed
        assert execution.result == sequential

    def test_pool_results_arrive_in_shard_order(self):
        shards = [Shard(key=f"s{i}", params={"value": i}) for i in range(8)]
        outcomes = execute_shards(STUB, "shard_value", shards, quick_policy(jobs=4))
        assert [outcome.result for outcome in outcomes] == list(range(8))
        assert all(outcome.source == SOURCE_POOL for outcome in outcomes)

    def test_whole_run_fallback_for_unsharded_experiment(self):
        execution = execute_experiment("fig3", fast=True, jobs=2)
        assert not execution.plan.sharded
        assert execution.shards_total == 1
        assert execution.outcomes[0].source == SOURCE_INLINE  # single shard: no pool
        assert execution.result["experiment"] == "fig3"

    def test_sharded_modules_expose_the_protocol(self):
        import importlib

        from repro.exec.shards import supports_sharding

        for name in ("fig5", "fig6", "fig12", "tab2", "tab3", "model-gap"):
            module = importlib.import_module(runner.REGISTRY[name]["module"])
            assert supports_sharding(module), name


# -- result cache --------------------------------------------------------


class TestResultCache:
    def shards(self, counter, n=3, base=0):
        return [
            Shard(key=f"s{i}", params={"counter_path": str(counter), "value": base + i})
            for i in range(n)
        ]

    def test_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", code_version="v1")
        counter = tmp_path / "calls"
        cold = execute_shards(
            STUB, "count_calls", self.shards(counter), quick_policy(), cache, "stub"
        )
        assert [outcome.source for outcome in cold] == [SOURCE_INLINE] * 3
        from tests.exec_stub import calls

        assert calls(str(counter)) == 3

        warm = execute_shards(
            STUB, "count_calls", self.shards(counter), quick_policy(), cache, "stub"
        )
        assert [outcome.source for outcome in warm] == [SOURCE_CACHE] * 3
        assert [outcome.result for outcome in warm] == [outcome.result for outcome in cold]
        assert calls(str(counter)) == 3  # nothing re-executed
        assert cache.hits == 3 and cache.stores == 3

    def test_cache_invalidates_on_param_change(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", code_version="v1")
        counter = tmp_path / "calls"
        execute_shards(STUB, "count_calls", self.shards(counter), quick_policy(), cache, "stub")
        changed = execute_shards(
            STUB, "count_calls", self.shards(counter, base=100), quick_policy(), cache, "stub"
        )
        assert all(outcome.source == SOURCE_INLINE for outcome in changed)

    def test_cache_invalidates_on_code_version_change(self, tmp_path):
        counter = tmp_path / "calls"
        execute_shards(
            STUB,
            "count_calls",
            self.shards(counter),
            quick_policy(),
            ResultCache(tmp_path / "cache", code_version="sha-a"),
            "stub",
        )
        recheck = execute_shards(
            STUB,
            "count_calls",
            self.shards(counter),
            quick_policy(),
            ResultCache(tmp_path / "cache", code_version="sha-b"),
            "stub",
        )
        assert all(outcome.source == SOURCE_INLINE for outcome in recheck)

    def test_cache_isolates_experiments(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", code_version="v1")
        shard = Shard(key="s", params={"value": 1})
        execute_shards(STUB, "shard_value", [shard], quick_policy(), cache, "exp-a")
        miss = execute_shards(STUB, "shard_value", [shard], quick_policy(), cache, "exp-b")
        assert miss[0].source == SOURCE_INLINE

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", code_version="v1")
        shard = Shard(key="s", params={"value": 1})
        path = cache.put("stub", shard.key, shard.params, 42)
        path.write_bytes(b"not a pickle")
        hit, _ = cache.get("stub", shard.key, shard.params)
        assert not hit
        assert not path.exists()  # dropped, will be rewritten

    def test_canonical_text_order_independent(self):
        assert canonical_text({"b": (1, 2), "a": 1}) == canonical_text({"a": 1, "b": [1, 2]})
        assert canonical_text({"a": 1}) != canonical_text({"a": 2})

    def test_experiment_level_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", code_version="v1")
        cold = execute_experiment("model-gap", fast=True, jobs=1, cache=cache)
        warm = execute_experiment("model-gap", fast=True, jobs=1, cache=cache)
        assert cold.cache_hits == 0
        assert warm.cache_hits == warm.shards_total == 4
        assert warm.result == cold.result


# -- fault tolerance -----------------------------------------------------


class TestFaultTolerance:
    def test_inline_retry_after_transient_failure(self, tmp_path):
        shard = Shard(key="s", params={"counter_path": str(tmp_path / "c"), "fail_times": 2})
        outcomes = execute_shards(STUB, "flaky", [shard], quick_policy(max_retries=2))
        assert outcomes[0].attempts == 3
        assert outcomes[0].source == SOURCE_INLINE

    def test_inline_retries_exhausted_raises_shard_error(self, tmp_path):
        shard = Shard(key="s", params={"counter_path": str(tmp_path / "c"), "fail_times": 99})
        with pytest.raises(ShardError, match="shard 's'"):
            execute_shards(STUB, "flaky", [shard], quick_policy(max_retries=1))

    def test_pool_retry_after_transient_failure(self, tmp_path):
        shards = [
            Shard(key=f"s{i}", params={"counter_path": str(tmp_path / f"c{i}"), "fail_times": 1})
            for i in range(2)
        ]
        outcomes = execute_shards(STUB, "flaky", shards, quick_policy(jobs=2, max_retries=2))
        assert all(outcome.result == 0 for outcome in outcomes)
        assert all(outcome.attempts == 2 for outcome in outcomes)

    def test_shard_timeout_then_pool_retry_succeeds(self, tmp_path):
        # One shard stalls on its first attempt; the other worker stays
        # free so the retry can land on it and still finish in the pool.
        shards = [
            Shard(
                key="slow",
                params={"counter_path": str(tmp_path / "slow"), "sleep_s": 5.0, "value": 0},
            ),
            Shard(
                key="fast",
                params={"counter_path": str(tmp_path / "fast"), "sleep_s": 0.0, "value": 1},
            ),
        ]
        outcomes = execute_shards(
            STUB,
            "slow_first_attempt",
            shards,
            quick_policy(jobs=2, shard_timeout=0.5, max_retries=2),
        )
        assert [outcome.result for outcome in outcomes] == [0, 1]
        assert outcomes[0].attempts >= 2
        assert all(outcome.source == SOURCE_POOL for outcome in outcomes)

    def test_timeout_retries_exhausted_falls_back_inline(self, tmp_path):
        shards = [
            Shard(key=f"s{i}", params={"parent_pid": os.getpid(), "sleep_s": 3.0, "value": i})
            for i in range(2)
        ]
        outcomes = execute_shards(
            STUB,
            "slow_unless_parent",
            shards,
            quick_policy(jobs=2, shard_timeout=0.3, max_retries=0),
        )
        assert [outcome.result for outcome in outcomes] == [0, 1]
        assert all(outcome.source == SOURCE_INLINE for outcome in outcomes)

    def test_pool_death_degrades_to_sequential(self):
        shards = [
            Shard(key=f"s{i}", params={"parent_pid": os.getpid(), "value": i}) for i in range(3)
        ]
        outcomes = execute_shards(
            STUB, "die_unless_parent", shards, quick_policy(jobs=2, max_retries=1)
        )
        assert [outcome.result for outcome in outcomes] == [0, 1, 2]
        assert all(outcome.source == SOURCE_INLINE for outcome in outcomes)

    def test_pool_failures_exhausted_get_final_inline_attempt(self, tmp_path):
        shards = [
            Shard(
                key=f"s{i}",
                params={"counter_path": str(tmp_path / f"c{i}"), "fail_times": 2, "value": i},
            )
            for i in range(2)
        ]
        outcomes = execute_shards(STUB, "flaky", shards, quick_policy(jobs=2, max_retries=1))
        assert [outcome.result for outcome in outcomes] == [0, 1]
        assert [outcome.source for outcome in outcomes] == [SOURCE_INLINE] * 2
        assert [outcome.attempts for outcome in outcomes] == [3, 3]  # 2 in the pool + 1 inline

    def test_pool_break_mid_run_harvests_landed_results(self):
        # s1 lands in the pool at once; s0 kills its worker a second
        # later. The break surfaces while waiting on s0, which reruns
        # inline; s1's result already landed and is kept, not rerun.
        shards = [
            Shard(key="s0", params={"parent_pid": os.getpid(), "die_after_s": 1.0, "value": 0}),
            Shard(key="s1", params={"parent_pid": os.getpid(), "value": 1}),
        ]
        outcomes = execute_shards(
            STUB, "die_later_unless_parent", shards, quick_policy(jobs=2, max_retries=1)
        )
        assert [outcome.result for outcome in outcomes] == [0, 1]
        assert [outcome.source for outcome in outcomes] == [SOURCE_INLINE, SOURCE_POOL]
        assert [outcome.attempts for outcome in outcomes] == [2, 1]

    def test_pool_that_cannot_start_degrades_to_sequential(self, monkeypatch):
        import concurrent.futures

        def refuse(**kwargs):
            raise OSError("no worker processes here")

        # ``execute_shards`` imports the pool class when it starts one.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        shards = [Shard(key=f"s{i}", params={"value": i}) for i in range(3)]
        outcomes = execute_shards(STUB, "shard_value", shards, quick_policy(jobs=2))
        assert [outcome.result for outcome in outcomes] == [0, 1, 2]
        assert all(outcome.source == SOURCE_INLINE for outcome in outcomes)


# -- campaign + CLI ------------------------------------------------------


class TestCampaignAndCli:
    def test_run_campaign_aggregates(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", code_version="v1")
        lines = []
        reports = []
        campaign = run_campaign(
            ["fig3", "model-gap"],
            fast=True,
            jobs=2,
            cache=cache,
            progress=lines.append,
            on_experiment=lambda execution: reports.append(execution.name),
        )
        assert reports == ["fig3", "model-gap"]
        assert campaign.shards_total == 5  # 1 whole-run + 4 fractions
        assert campaign.cache_stats["stores"] == 5
        assert any("model-gap shard fraction=" in line for line in lines)

        from repro.exec import campaign_manifest

        manifest = campaign_manifest(campaign, fast=True, started_at=0.0)
        assert manifest["kind"] == "campaign"
        assert manifest["shards_total"] == 5
        assert [entry["experiment"] for entry in manifest["experiments"]] == [
            "fig3",
            "model-gap",
        ]

    def test_cli_run_jobs_reports_cache_hits(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert runner.main(["run", "fig3", "--fast", "--jobs", "2"]) == 0
        assert "cached=0/1" in capsys.readouterr().out
        assert runner.main(["run", "fig3", "--fast", "--jobs", "2"]) == 0
        assert "cached=1/1" in capsys.readouterr().out
        assert (tmp_path / runner.DEFAULT_CACHE_DIR).is_dir()

    def test_cli_no_cache_never_writes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert runner.main(["run", "fig3", "--fast", "--jobs", "2", "--no-cache"]) == 0
        assert "cached=0/1" in capsys.readouterr().out
        assert not (tmp_path / runner.DEFAULT_CACHE_DIR).exists()

    def test_cli_campaign_writes_manifest(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert (
            runner.main(
                ["campaign", "fig3", "--fast", "--jobs", "1", "--manifest", "m.json"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "campaign: 1 experiments" in out
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["kind"] == "campaign"
        assert manifest["experiments"][0]["experiment"] == "fig3"

    def test_cli_rejects_bad_jobs(self):
        with pytest.raises(SystemExit):
            runner.main(["run", "fig3", "--jobs", "0"])

    def test_cli_has_no_backend_flag(self):
        # --jobs N is the only placement knob: shards run on one local pool.
        with pytest.raises(SystemExit) as exit_info:
            runner.main(["run", "fig6", "--fast", "--backend", "local:2"])
        assert exit_info.value.code == 2

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            execute_experiment("fig99")

    def test_override_validation_applies(self):
        with pytest.raises(TypeError, match="fig3"):
            execute_experiment("fig3", overrides={"nope": 1})

    def test_build_plan_rejects_empty_shards(self):
        class Empty:
            __name__ = "empty"

            @staticmethod
            def shards(**kwargs):
                return []

            @staticmethod
            def run_shard(**kwargs):
                return None

            @staticmethod
            def merge(results, **kwargs):
                return {}

        with pytest.raises(ValueError, match="no shards"):
            build_plan("empty", Empty, {})


# -- import cost -----------------------------------------------------------


class TestImportCost:
    def test_experiment_import_leaves_multiprocessing_unloaded(self):
        """Shardable experiments import the shard vocabulary, not the pool."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        probe = (
            "import sys\n"
            "import repro.experiments.tab2_throughput_connectivity\n"
            "import repro.exec\n"
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process',"
            " 'repro.exec.workers', 'repro.exec.campaign') if m in sys.modules))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "[]"
