"""repro.scenario: spec round-trips, validation, registry, build/run
semantics (fleets, traffic, failure injection), exec integration, and
the ``spider-repro scenario`` CLI contract (exit codes, output)."""

import gc
import json

import pytest

from repro.exec.cache import canonical_text
from repro.exec.shards import Shard
from repro.exec.workers import ExecPolicy, execute_shards
from repro.mac import frames
from repro.mac.ap import _NO_CLIENTS, _NO_ENTRIES, DEFAULT_AP_CONFIG
from repro.net.backhaul import ApRouter, WiredBackhaul
from repro.net.dhcp import DhcpServer
from repro.scenario import (
    ApSpec,
    BuildError,
    DeploymentSpec,
    DriverSpec,
    FailureSpec,
    MobilitySpec,
    PropagationSpec,
    ScenarioSpec,
    SpecError,
    UnknownScenarioError,
    build,
    make_fleet,
    names,
    run_spec,
    scenario,
)
from repro.scenario.build import run_shard
from repro.scenario.cli import main as cli_main

REDUCED = {"link_timeout": 0.1, "dhcp_retry_timeout": 0.2}


def lab_spec(seed=7, duration=30.0, **overrides):
    """A small indoor world: one channel-1 AP, one Spider client."""
    base = ScenarioSpec(
        name="lab-one-ap",
        seed=seed,
        duration=duration,
        propagation=PropagationSpec(range_m=50.0, base_loss=0.02, edge_start=0.95),
        mobility=MobilitySpec(kind="static", x=0.0, y=0.0),
        deployment=DeploymentSpec(
            kind="explicit",
            aps=(ApSpec(name="ap0", channel=1, backhaul_bps=4e6),),
        ),
        drivers=(
            DriverSpec(
                kind="spider",
                address="client",
                config={"schedule": {"1": 1.0}, "period": 0.5, "multi_ap": True, **REDUCED},
            ),
        ),
    )
    return base.with_overrides(**overrides) if overrides else base


class TestSpecRoundTrip:
    def test_dict_round_trip(self):
        spec = lab_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_toml_round_trip(self):
        spec = lab_spec()
        again = ScenarioSpec.from_toml(spec.to_toml())
        assert again == spec
        assert again.digest() == spec.digest()

    def test_json_round_trip(self):
        spec = lab_spec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_registry_specs_round_trip(self):
        for name in names():
            spec = scenario(name)
            assert ScenarioSpec.from_toml(spec.to_toml()) == spec, name

    def test_load_by_suffix(self, tmp_path):
        spec = lab_spec()
        toml_path = tmp_path / "spec.toml"
        toml_path.write_text(spec.to_toml())
        json_path = tmp_path / "spec.json"
        json_path.write_text(spec.to_json())
        assert ScenarioSpec.load(toml_path) == spec
        assert ScenarioSpec.load(json_path) == spec

    def test_unknown_suffix_rejected(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("")
        with pytest.raises(SpecError, match="unknown spec format"):
            ScenarioSpec.load(path)

    def test_digest_ignores_formatting_not_content(self):
        spec = lab_spec()
        assert spec.digest() == ScenarioSpec.from_toml(spec.to_toml()).digest()
        assert spec.digest() != spec.with_overrides(seed=spec.seed + 1).digest()


class TestPartitionSpecRoundTrip:
    """The PR-9 spec tables: [phy], [[partitions]], metro fields."""

    def _metro(self):
        from repro.scenario.spec import PartitionSpec, PhySpec

        return ScenarioSpec(
            name="metro-test",
            deployment=DeploymentSpec(kind="metro", blocks_x=3, blocks_y=2, aps_per_block=1.5),
            phy=PhySpec(handoff_period_s=0.25),
            partitions=(
                PartitionSpec("west", 0.0, 0.0, 180.0, 240.0),
                PartitionSpec("east", 180.0, 0.0, 360.0, 240.0),
            ),
            drivers=(DriverSpec(kind="stock"),),
        ).validated()

    def test_toml_round_trip(self):
        spec = self._metro()
        again = ScenarioSpec.from_toml(spec.to_toml())
        assert again == spec
        assert again.digest() == spec.digest()

    def test_json_round_trip(self):
        spec = self._metro()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_new_fields_omitted_at_defaults(self):
        # The canonical form of a legacy spec must not mention any
        # PR-9 key — that is what keeps every committed digest golden
        # and exec cache entry valid.
        data = lab_spec().to_dict()
        assert "phy" not in data
        assert "partitions" not in data
        for metro_key in ("blocks_x", "blocks_y", "block_m", "aps_per_block"):
            assert metro_key not in data["deployment"]
        rendered = lab_spec().to_toml()
        assert "[phy]" not in rendered and "partitions" not in rendered

    def test_new_fields_present_when_set(self):
        data = self._metro().to_dict()
        assert data["phy"] == {"handoff_period_s": 0.25}
        assert [p["name"] for p in data["partitions"]] == ["west", "east"]
        assert data["deployment"]["blocks_x"] == 3
        # block_m stayed at its default, so it is still omitted.
        assert "block_m" not in data["deployment"]


class TestSpecValidation:
    def test_unknown_top_level_field(self):
        with pytest.raises(SpecError, match="unknown scenario field"):
            ScenarioSpec.from_dict({"sede": 3})

    def test_unknown_subtable_field(self):
        with pytest.raises(SpecError, match="unknown MobilitySpec field"):
            ScenarioSpec.from_dict({"mobility": {"kindd": "loop"}})

    def test_unknown_mobility_kind(self):
        with pytest.raises(SpecError, match="mobility kind"):
            lab_spec().with_mobility(kind="teleport").validated()

    def test_generated_needs_loop(self):
        spec = ScenarioSpec(mobility=MobilitySpec(kind="static"))
        with pytest.raises(SpecError, match="loop mobility"):
            spec.validated()

    def test_channel_mix_rejected_for_explicit(self):
        spec = lab_spec().with_deployment(channel_mix={1: 1.0})
        with pytest.raises(SpecError, match="channel_mix"):
            spec.validated()

    def test_duplicate_ap_names(self):
        aps = (
            ApSpec(name="ap0", channel=1, backhaul_bps=1e6),
            ApSpec(name="ap0", channel=6, backhaul_bps=1e6),
        )
        with pytest.raises(SpecError, match="duplicate AP name"):
            lab_spec().with_deployment(aps=aps).validated()

    @pytest.mark.parametrize("backhaul_bps", [0.0, -1e6, float("nan")])
    def test_ap_backhaul_must_be_positive(self, backhaul_bps):
        aps = (ApSpec(name="ap0", channel=1, backhaul_bps=backhaul_bps),)
        with pytest.raises(SpecError, match="'ap0': backhaul_bps must be positive"):
            lab_spec().with_deployment(aps=aps).validated()

    @pytest.mark.parametrize("beta_min, beta_max", [(3.0, -1.0), (-0.5, 1.0), (2.0, 1.0)])
    def test_ap_beta_bounds_ordered_and_non_negative(self, beta_min, beta_max):
        aps = (ApSpec(name="ap0", channel=1, backhaul_bps=1e6,
                      beta_min=beta_min, beta_max=beta_max),)
        with pytest.raises(SpecError, match="'ap0': need 0 <= beta_min <= beta_max"):
            lab_spec().with_deployment(aps=aps).validated()

    @pytest.mark.parametrize("kind", ["generated", "metro"])
    @pytest.mark.parametrize(
        "low, high, message",
        [
            (0.0, 0.0, "backhaul_bps_min must be positive"),
            (-1e6, 1e6, "backhaul_bps_min must be positive"),
            (2e6, 1e6, "need backhaul_bps_min <= backhaul_bps_max"),
        ],
    )
    def test_deployment_backhaul_bounds_checked(self, kind, low, high, message):
        spec = ScenarioSpec().with_deployment(
            kind=kind, blocks_x=1, blocks_y=1, backhaul_bps_min=low, backhaul_bps_max=high
        )
        with pytest.raises(SpecError, match=message):
            spec.validated()

    def test_ap_equal_beta_bounds_are_valid(self):
        aps = (ApSpec(name="ap0", channel=1, backhaul_bps=1e6, beta_min=0.0, beta_max=0.0),)
        lab_spec().with_deployment(aps=aps).validated()

    def test_bad_driver_count(self):
        spec = lab_spec()
        bad = DriverSpec(kind="spider", count=0)
        with pytest.raises(SpecError, match="count"):
            spec.with_overrides(drivers=(bad,)).validated()

    def test_unknown_override(self):
        with pytest.raises(SpecError, match="unknown scenario override"):
            lab_spec().with_overrides(sede=3)

    def test_failure_kind_checked(self):
        bad = FailureSpec(kind="meteor", ap="ap0")
        with pytest.raises(SpecError, match="failure kind"):
            lab_spec().with_overrides(failures=(bad,)).validated()


class TestRegistry:
    def test_known_names(self):
        expected = {
            "dense-downtown",
            "lab",
            "lossy-backhaul",
            "sparse-highway",
            "vehicular-amherst",
            "vehicular-boston",
        }
        assert expected <= set(names())

    def test_lookup_applies_overrides(self):
        spec = scenario("vehicular-amherst", seed=99, duration=10.0)
        assert (spec.seed, spec.duration) == (99, 10.0)

    def test_unknown_name(self):
        with pytest.raises(UnknownScenarioError, match="unknown scenario"):
            scenario("vehicular-nowhere")

    def test_lab_template_is_empty(self):
        spec = scenario("lab")
        assert spec.deployment.kind == "explicit"
        assert spec.deployment.aps == ()
        assert spec.drivers == ()


@pytest.fixture
def gc_restored():
    """Put the cyclic collector back as the test found it."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class TestBuildPausesCollector:
    def test_enabled_collector_stays_enabled(self, gc_restored):
        gc.enable()
        build(lab_spec())
        assert gc.isenabled()

    def test_enabled_after_build_error(self, gc_restored):
        gc.enable()
        spec = lab_spec().with_overrides(
            failures=(FailureSpec(kind="ap-outage", ap="ghost", at=1.0),)
        )
        with pytest.raises(BuildError, match="failure targets unknown AP"):
            build(spec)
        assert gc.isenabled()

    def test_disabled_collector_stays_disabled(self, gc_restored):
        gc.disable()
        build(lab_spec())
        assert not gc.isenabled()

    def test_no_automatic_collection_inside_build(self, gc_restored):
        spec = scenario("metro-core-small")
        gc.enable()
        state = {"inside": False, "collections": 0}

        def hook(phase, info):
            if phase == "start" and state["inside"]:
                state["collections"] += 1

        gc.callbacks.append(hook)
        try:
            state["inside"] = True
            world = build(spec)
            state["inside"] = False
        finally:
            gc.callbacks.remove(hook)
        assert len(world.aps) > 0
        assert state["collections"] == 0


class TestColdApFootprint:
    """An AP no client has spoken to holds no RNG state and no
    per-client containers."""

    PER_CLIENT = (
        "authenticated", "associated", "_psm_mode", "_parked",
        "_psm_buffers", "_retry_buffers", "_last_heard",
    )

    def has_client_state(self, ap):
        shared = {id(_NO_CLIENTS), id(_NO_ENTRIES)}
        held = [id(getattr(ap, attr)) not in shared for attr in self.PER_CLIENT]
        assert len(set(held)) == 1, f"{ap.name}: partly allocated {held}"
        return held[0]

    def test_built_world_is_cold(self):
        world = build(scenario("metro-core-small"))
        assert world.aps
        for name, ap in world.aps.items():
            assert world.streams.parked(f"ap:{name}")._live is None
            assert not self.has_client_state(ap)

    def test_only_aps_a_client_reached_hold_client_state(self):
        spec = scenario("metro-core-small")
        world = build(spec)
        for driver in make_fleet(world, spec):
            driver.start()
        world.sim.run(until=5.0)
        warm = {name for name, ap in world.aps.items() if self.has_client_state(ap)}
        joined = {name for name, ap in world.aps.items() if ap.associated}
        assert joined and joined <= warm < set(world.aps)
        for name in set(world.aps) - warm:
            assert world.streams.parked(f"ap:{name}")._live is None


class TestLazyWiring:
    """An AP's DHCP server, backhaul and router are built on the AP's
    first client frame, a router lookup, or failure injection."""

    WIRED = (DhcpServer, WiredBackhaul, ApRouter)

    def wired_objects(self, world):
        return [
            obj for obj in gc.get_objects()
            if isinstance(obj, self.WIRED) and obj.sim is world.sim
        ]

    def probe(self, ap):
        """Hand the AP a client's broadcast probe request."""
        ap._on_frame(
            frames.mgmt_frame(frames.FrameType.PROBE_REQUEST, "probe", frames.BROADCAST)
        )

    def test_built_world_has_no_wired_side(self):
        world = build(scenario("metro-core-small"))
        assert world.aps and world.routers == {}
        assert self.wired_objects(world) == []
        assert all(ap.on_uplink is None for ap in world.aps.values())

    def test_first_client_frame_wires_exactly_one_router(self):
        world = build(scenario("metro-core-small"))
        name = sorted(world.aps)[0]
        ap = world.aps[name]
        self.probe(ap)
        router = world.routers[name]
        assert list(world.routers) == [name]
        assert ap.on_uplink == router._on_uplink
        assert router.dhcp_server.send == router._send_dhcp_reply
        assert router.dhcp_server._rng is world.streams.parked(f"ap:{name}")
        # Later frames, lookups and hook calls find the same router.
        self.probe(ap)
        ap.on_first_client(name)
        assert world.router(name) is router
        assert world.router_lookup()(name) is router
        assert sum(isinstance(obj, ApRouter) for obj in self.wired_objects(world)) == 1
        assert len(self.wired_objects(world)) == 3

    def test_router_lookup_wires_on_demand(self):
        world = build(scenario("metro-core-small"))
        name = sorted(world.aps)[-1]
        router = world.router_lookup()(name)
        assert router is not None and router.ap is world.aps[name]
        assert list(world.routers) == [name]
        # The AP's first client frame then finds it wired.
        self.probe(world.aps[name])
        assert world.router(name) is router
        assert len(self.wired_objects(world)) == 3
        assert world.router("ghost") is None

    def test_every_ap_shares_one_wiring_hook_and_config(self):
        world = build(scenario("metro-core-small"))
        assert len({id(ap.on_first_client) for ap in world.aps.values()}) == 1
        assert all(ap.config is DEFAULT_AP_CONFIG for ap in world.aps.values())
        with pytest.raises(AttributeError):
            DEFAULT_AP_CONFIG.beacon_interval = 1.0  # frozen: sharing cannot leak

    def test_only_aps_a_client_reached_are_wired(self):
        spec = scenario("metro-core-small")
        world = build(spec)
        for driver in make_fleet(world, spec):
            driver.start()
        world.sim.run(until=5.0)
        reached = {name for name, ap in world.aps.items() if ap._last_heard is not _NO_ENTRIES}
        assert reached and set(world.routers) == reached < set(world.aps)

    def test_dhcp_wedge_wedges_an_ap_a_client_frame_wired(self):
        spec = lab_spec().with_overrides(
            failures=(FailureSpec(kind="dhcp-wedge", ap="ap0", at=0.0),)
        )
        world = build(spec)
        self.probe(world.aps["ap0"])
        router = world.routers["ap0"]
        (client,) = make_fleet(world, spec)
        result = world.run(client, spec.duration)
        assert world.router("ap0") is router
        assert router.dhcp_server.offers_made > 0  # it heard the client...
        assert result.join_successes == 0  # ...and never answered

    def test_add_ap_rejects_a_non_positive_backhaul_at_once(self):
        world = build(lab_spec())
        with pytest.raises(BuildError, match="backhaul_bps must be positive"):
            world.add_lab_ap("ap1", 1, 0.0)
        assert "ap1" not in world.aps


class TestBuildAndRun:
    def test_explicit_world_has_declared_aps(self):
        world = build(lab_spec())
        assert sorted(world.aps) == ["ap0"]
        assert world.spec is not None

    def test_duplicate_ap_at_build_is_build_error(self):
        world = build(lab_spec())
        with pytest.raises(BuildError, match="duplicate AP"):
            world.add_lab_ap("ap0", 1, 1e6)

    def test_failure_on_unknown_ap(self):
        spec = lab_spec().with_overrides(
            failures=(FailureSpec(kind="ap-outage", ap="ghost", at=1.0),)
        )
        with pytest.raises(BuildError, match="unknown AP"):
            build(spec)

    def test_run_spec_requires_drivers(self):
        with pytest.raises(BuildError, match="no drivers"):
            run_spec(lab_spec().with_overrides(drivers=()))

    def test_fleet_counts_and_addresses(self):
        spec = lab_spec().with_overrides(
            drivers=(
                DriverSpec(kind="spider", address="c", count=3,
                           config={"schedule": {"1": 1.0}, "multi_ap": True}),
                DriverSpec(kind="stock"),
            )
        )
        world = build(spec)
        fleet = make_fleet(world, spec)
        assert [driver.address for driver in fleet] == ["c0", "c1", "c2", "stock"]

    def test_run_spec_carries_traffic(self):
        results = run_spec(lab_spec())
        assert results["client"].throughput_kbytes_per_s > 0
        assert results["client"].join_successes >= 1

    def test_traffic_none_disables_flows(self):
        spec = lab_spec().with_overrides(traffic={"kind": "none"})
        spec = ScenarioSpec.from_dict(spec.to_dict())  # traffic table form
        results = run_spec(spec)
        assert results["client"].throughput_kbytes_per_s == 0
        assert results["client"].join_successes >= 1

    def test_dhcp_wedge_blocks_joins(self):
        spec = lab_spec().with_overrides(
            failures=(FailureSpec(kind="dhcp-wedge", ap="ap0", at=0.0),)
        )
        results = run_spec(spec)
        assert results["client"].join_successes == 0
        assert results["client"].throughput_kbytes_per_s == 0

    def test_ap_outage_halves_useful_time(self):
        healthy = run_spec(lab_spec())["client"]
        cut = run_spec(
            lab_spec().with_overrides(
                failures=(FailureSpec(kind="ap-outage", ap="ap0", at=5.0),)
            )
        )["client"]
        assert cut.throughput_kbytes_per_s < healthy.throughput_kbytes_per_s

    def test_bad_driver_config_key(self):
        spec = lab_spec().with_overrides(
            drivers=(DriverSpec(kind="spider", config={"not_a_knob": 1}),)
        )
        with pytest.raises(SpecError, match="bad spider config"):
            run_spec(spec)


class TestDeterminism:
    def test_same_spec_same_results_in_process(self):
        first = run_spec(lab_spec())
        second = run_spec(lab_spec())
        assert canonical_text(first) == canonical_text(second)

    def test_round_tripped_spec_is_same_world(self):
        spec = lab_spec()
        direct = run_spec(spec)
        tripped = run_spec(ScenarioSpec.from_toml(spec.to_toml()))
        assert canonical_text(direct) == canonical_text(tripped)

    def test_run_shard_matches_worker_process(self):
        """The exec pool (separate process) reproduces the inline run."""
        specs = [lab_spec(seed=seed, duration=20.0) for seed in (7, 8)]
        inline = [run_shard(spec.to_dict()) for spec in specs]
        outcomes = execute_shards(
            "repro.scenario.build",
            "run_shard",
            [
                Shard(key=f"seed={spec.seed}", params={"spec": spec.to_dict()})
                for spec in specs
            ],
            policy=ExecPolicy(jobs=2),
        )
        assert [outcome.source for outcome in outcomes] == ["pool", "pool"]
        assert [canonical_text(outcome.result) for outcome in outcomes] == [
            canonical_text(result) for result in inline
        ]

    def test_manual_wiring_matches_run_spec(self):
        """World factories and the declarative path build the same world."""
        from repro.core.config import SpiderConfig

        spec = lab_spec()
        declarative = run_spec(spec)["client"]
        lab = build(scenario("lab", seed=spec.seed))
        lab.add_lab_ap("ap0", 1, 4e6)
        spider = lab.make_spider(
            SpiderConfig(schedule={1: 1.0}, period=0.5, multi_ap=True, **REDUCED),
            address="client",
        )
        manual = lab.run(spider, spec.duration)
        assert canonical_text(manual) == canonical_text(declarative)


class TestCli:
    def run_cli(self, argv):
        return cli_main(argv)

    def test_list_exit_0(self, capsys):
        assert self.run_cli(["list"]) == 0
        out = capsys.readouterr().out
        assert "vehicular-amherst" in out and "lossy-backhaul" in out

    def test_show_resolves_registry_name(self, capsys):
        assert self.run_cli(["show", "vehicular-amherst", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "seed = 5" in out

    def test_show_round_trips(self, capsys):
        assert self.run_cli(["show", "vehicular-boston"]) == 0
        spec = ScenarioSpec.from_toml(capsys.readouterr().out)
        assert spec == scenario("vehicular-boston")

    def test_show_renders_partitions_table(self, capsys):
        assert self.run_cli(["show", "metro-core-small"]) == 0
        out = capsys.readouterr().out
        assert "[[partitions]]" in out and 'kind = "metro"' in out
        assert ScenarioSpec.from_toml(out) == scenario("metro-core-small")

    def test_show_omits_partitions_for_legacy_specs(self, capsys):
        assert self.run_cli(["show", "dense-downtown"]) == 0
        out = capsys.readouterr().out
        assert "partitions" not in out and "[phy]" not in out and "blocks_" not in out

    def test_unknown_scenario_exit_2(self, capsys):
        assert self.run_cli(["run", "vehicular-nowhere"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_unreadable_spec_file_exit_2(self, capsys):
        assert self.run_cli(["run", "does-not-exist.toml"]) == 2
        assert "cannot read spec" in capsys.readouterr().err

    def test_run_without_drivers_exit_2(self, capsys):
        assert self.run_cli(["run", "lab"]) == 2
        assert "no drivers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value", [("kernel", '"scalar"'), ("spatial_index", "false")]
    )
    def test_removed_phy_field_exit_2(self, tmp_path, capsys, field, value):
        # The PHY has one delivery path; the flags that once selected
        # another are unknown fields now, rejected without a traceback.
        path = tmp_path / "legacy.toml"
        path.write_text(f"{lab_spec(duration=20.0).to_toml()}\n[phy]\n{field} = {value}\n")
        assert self.run_cli(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"unknown PhySpec field(s): {field}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "good, bad, message",
        [
            ("backhaul_bps = 4000000.0", "backhaul_bps = 0.0",
             "AP 'ap0': backhaul_bps must be positive"),
            ("beta_min = 0.2\nbeta_max = 1.0", "beta_min = 3.0\nbeta_max = -1.0",
             "AP 'ap0': need 0 <= beta_min <= beta_max"),
        ],
    )
    def test_malformed_explicit_ap_exit_2(self, tmp_path, capsys, good, bad, message):
        text = lab_spec(duration=20.0).to_toml()
        assert good in text
        path = tmp_path / "bad-ap.toml"
        path.write_text(text.replace(good, bad))
        assert self.run_cli(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("backhaul_bps_min = 0.0\nbackhaul_bps_max = 0.0",
             "backhaul_bps_min must be positive"),
            ("backhaul_bps_min = 2000000.0\nbackhaul_bps_max = 1000000.0",
             "need backhaul_bps_min <= backhaul_bps_max"),
        ],
    )
    def test_malformed_generated_backhaul_exit_2(self, tmp_path, capsys, bad, message):
        good = "backhaul_bps_min = 1000000.0\nbackhaul_bps_max = 10000000.0"
        text = scenario("vehicular-amherst").to_toml()
        assert good in text
        path = tmp_path / "bad-backhaul.toml"
        path.write_text(text.replace(good, bad))
        assert self.run_cli(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_bad_seeds_exit_2(self, capsys):
        assert self.run_cli(["sweep", "vehicular-amherst", "--seeds", "one,two"]) == 2
        assert "--seeds" in capsys.readouterr().err

    def test_run_adhoc_toml(self, tmp_path, capsys):
        path = tmp_path / "adhoc.toml"
        path.write_text(lab_spec(duration=20.0).to_toml())
        assert self.run_cli(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "scenario lab-one-ap seed=7" in out
        assert "client" in out

    def test_run_override_changes_digest_line(self, tmp_path, capsys):
        path = tmp_path / "adhoc.toml"
        path.write_text(lab_spec(duration=20.0).to_toml())
        assert self.run_cli(["run", str(path)]) == 0
        first = capsys.readouterr().out
        assert self.run_cli(["run", str(path), "--seed", "8"]) == 0
        second = capsys.readouterr().out
        digest = [line for line in first.splitlines() if line.strip().startswith("spec ")]
        digest2 = [line for line in second.splitlines() if line.strip().startswith("spec ")]
        assert digest and digest2 and digest != digest2

    def test_jobs_2_identical_to_sequential(self, tmp_path, capsys):
        path = tmp_path / "adhoc.toml"
        path.write_text(lab_spec(duration=20.0).to_toml())

        def stable(argv):
            assert self.run_cli(argv) == 0
            out = capsys.readouterr().out
            return [line for line in out.splitlines() if not line.startswith("exec:")]

        assert stable(["run", str(path)]) == stable(["run", str(path), "--jobs", "2"])

    def test_cache_round_trip(self, tmp_path, capsys):
        path = tmp_path / "adhoc.toml"
        path.write_text(lab_spec(duration=20.0).to_toml())
        cache = str(tmp_path / "cache")
        assert self.run_cli(["run", str(path), "--cache-dir", cache]) == 0
        cold = capsys.readouterr().out
        assert "cached=0/1" in cold
        assert self.run_cli(["run", str(path), "--cache-dir", cache]) == 0
        warm = capsys.readouterr().out
        assert "cached=1/1" in warm
        strip = lambda out: [ln for ln in out.splitlines() if not ln.startswith("exec:")]
        assert strip(cold) == strip(warm)

    def test_run_profile_prints_gc_tally_then_hotspots(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = ["run", "metro-core-small", "--duration", "2", "--cache-dir", cache, "--profile"]
        assert self.run_cli(argv) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert "scenario metro-core-small seed=1" in lines
        gc_lines = [index for index, line in enumerate(lines) if line.startswith("gc: ")]
        assert len(gc_lines) == 1
        assert "collections (gen0/gen1/gen2)" in lines[gc_lines[0]]
        assert lines[gc_lines[0] + 1].startswith("mem: peak RSS ")
        assert "function calls" in lines[gc_lines[0] + 2]
        assert "run_shard" in out
        # In-process: no exec summary, nothing written to the cache.
        assert not any(line.startswith("exec:") for line in lines)
        assert "ignoring --jobs/--cache-dir" in out
        assert not (tmp_path / "cache").exists()

    def test_runner_dispatches_scenario_subcommand(self, capsys):
        from repro.experiments.runner import main as runner_main

        assert runner_main(["scenario", "list"]) == 0
        assert "vehicular-amherst" in capsys.readouterr().out

    def test_example_spec_parses(self):
        spec = ScenarioSpec.load("examples/scenarios/corner-cafe.toml")
        assert spec.name == "corner-cafe"
        assert [failure.kind for failure in spec.failures] == ["ap-outage"]
        assert spec.drivers[0].kind == "spider"


class TestRunShardPayload:
    def test_payload_shape(self):
        payload = run_shard(lab_spec(duration=20.0).to_dict())
        assert payload["scenario"] == "lab-one-ap"
        assert payload["seed"] == 7
        assert set(payload["drivers"]) == {"client"}
        summary = payload["drivers"]["client"]
        assert {"throughput_KBps", "connectivity_pct"} <= set(summary)
        json.dumps(payload)  # JSON-serializable end to end
