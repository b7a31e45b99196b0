"""Project graph layer and the project-scope rules built on it:
facts extraction, call resolution, reachability, and SL011–SL014
trigger/non-trigger fixtures (including the cross-module taint
acceptance fixture with its call chain)."""

import textwrap

from repro.analysis.config import LintConfig
from repro.analysis.core import ModuleUnit
from repro.analysis.engine import lint_units
from repro.analysis.graph import build_graph, extract_facts


def unit(source, path="mod.py", module=None):
    return ModuleUnit.from_source(path, textwrap.dedent(source), module=module)


def lint(*units, config=None, select=()):
    config = config or LintConfig(sim_scope=())
    return lint_units(list(units), config, select=select)


def rules_hit(run):
    return sorted({f.rule for f in run.findings})


class TestFactsExtraction:
    def test_functions_methods_and_classes(self):
        facts = extract_facts(unit("""
            class Base:
                def ping(self):
                    pass
            def helper():
                pass
        """, module="pkg.m"))
        assert [f.qualname for f in facts.functions] == ["Base.ping", "helper"]
        assert facts.classes["Base"].methods == {"ping": 3}
        assert facts.module_defs == ("helper",)

    def test_nested_defs_flatten_into_enclosing_function(self):
        facts = extract_facts(unit("""
            import time
            def outer():
                def inner():
                    time.time()
                return inner
        """, module="pkg.m"))
        (outer,) = facts.functions
        assert outer.qualname == "outer"
        assert "inner" in outer.local_callables
        assert any(c.callee == "time.time" for c in outer.calls)

    def test_module_level_lambda_is_a_callable_node(self):
        facts = extract_facts(unit("""
            import time
            jitter = lambda: time.time()
        """, module="pkg.m"))
        assert facts.lambda_assigns == {"jitter": 3}
        (fn,) = facts.functions
        assert fn.qualname == "jitter"
        assert any(c.callee == "time.time" for c in fn.calls)

    def test_relative_import_resolved_through_module_name(self):
        facts = extract_facts(unit(
            "from . import radio\nfrom ..obs import trace\n", module="pkg.phy.medium"
        ))
        targets = {site.target for site in facts.imports}
        assert targets == {"pkg.phy.radio", "pkg.obs.trace"}

    def test_function_local_import_is_not_toplevel(self):
        facts = extract_facts(unit("""
            import os
            def lazy():
                import json
        """, module="pkg.m"))
        by_target = {site.target: site.toplevel for site in facts.imports}
        assert by_target == {"os": True, "json": False}

    def test_environ_subscript_recorded_as_pseudo_call(self):
        facts = extract_facts(unit("""
            import os
            def read():
                return os.environ["HOME"]
        """, module="pkg.m"))
        (fn,) = facts.functions
        assert any(c.callee == "os.environ" for c in fn.calls)


class TestCallResolution:
    def test_imported_function_resolves_across_modules(self):
        g = build_graph([
            unit("from pkg.b import helper\ndef go():\n    helper()\n", module="pkg.a"),
            unit("def helper():\n    pass\n", module="pkg.b"),
        ])
        (call,) = g.functions["pkg.a.go"].calls
        assert call.target == "pkg.b.helper"

    def test_self_method_resolves_through_project_base_class(self):
        g = build_graph([
            unit("""
                from pkg.base import Base
                class Child(Base):
                    def run(self):
                        self.ping()
            """, module="pkg.child"),
            unit("""
                class Base:
                    def ping(self):
                        pass
            """, module="pkg.base"),
        ])
        (call,) = g.functions["pkg.child.Child.run"].calls
        assert call.target == "pkg.base.Base.ping"

    def test_instantiating_a_class_resolves_to_init(self):
        g = build_graph([
            unit("from pkg.b import Thing\ndef go():\n    Thing()\n", module="pkg.a"),
            unit("""
                class Thing:
                    def __init__(self):
                        pass
            """, module="pkg.b"),
        ])
        (call,) = g.functions["pkg.a.go"].calls
        assert call.target == "pkg.b.Thing.__init__"

    def test_stdlib_call_resolves_to_external_name(self):
        g = build_graph([
            unit("import time as t\ndef go():\n    t.monotonic()\n", module="pkg.a"),
        ])
        (call,) = g.functions["pkg.a.go"].calls
        assert call.target is None and call.external == "time.monotonic"

    def test_reachability_records_shortest_chain(self):
        g = build_graph([
            unit("""
                from pkg.b import mid, leaf
                def entry():
                    mid()
                    leaf()
            """, module="pkg.a"),
            unit("""
                def mid():
                    leaf()
                def leaf():
                    pass
            """, module="pkg.b"),
        ])
        parent = g.reachable_from(["pkg.a.entry"])
        assert set(parent) == {"pkg.a.entry", "pkg.b.mid", "pkg.b.leaf"}
        chain = g.call_chain(parent, "pkg.b.leaf")
        # BFS: leaf reached directly from entry, not via mid.
        assert [caller for caller, _site in chain] == ["pkg.a.entry"]

    def test_entry_points_matched_by_glob(self):
        g = build_graph([
            unit("""
                class StockDriver:
                    def on_tick(self):
                        pass
                    def helper(self):
                        pass
            """, module="pkg.drivers.stock"),
        ])
        assert g.entry_points(["pkg.drivers.*.on_*"]) == [
            "pkg.drivers.stock.StockDriver.on_tick"
        ]


class TestDeterminismTaint:
    """SL011 — including the cross-module acceptance fixture."""

    def _config(self, entry="pkg.engine.Simulator.step"):
        return LintConfig(sim_scope=(), hot_entrypoints=(entry,))

    def engine_unit(self):
        return unit("""
            from pkg import helpers
            class Simulator:
                def step(self):
                    helpers.jitter()
        """, path="pkg/engine.py", module="pkg.engine")

    def test_cross_module_wallclock_flagged_with_chain(self):
        helpers = unit("""
            import time
            def jitter():
                return time.time()
        """, path="pkg/helpers.py", module="pkg.helpers")
        run = lint(self.engine_unit(), helpers, config=self._config(), select=["SL011"])
        (finding,) = run.findings
        assert finding.path == "pkg/helpers.py"
        assert "time.time" in finding.message
        assert "pkg.engine.Simulator.step" in finding.message
        assert "pkg.helpers.jitter" in finding.message
        (hop,) = finding.related
        assert hop.path == "pkg/engine.py"
        assert "calls helpers.jitter" in hop.message

    def test_unreached_helper_is_clean(self):
        helpers = unit("""
            import time
            def jitter():
                return 0.0
            def unreached():
                return time.time()
        """, path="pkg/helpers.py", module="pkg.helpers")
        run = lint(self.engine_unit(), helpers, config=self._config(), select=["SL011"])
        assert run.findings == []

    def test_two_hop_chain_carries_both_hops(self):
        helpers = unit("""
            from pkg import deep
            def jitter():
                return deep.now()
        """, path="pkg/helpers.py", module="pkg.helpers")
        deep = unit("""
            import time
            def now():
                return time.time()
        """, path="pkg/deep.py", module="pkg.deep")
        run = lint(
            self.engine_unit(), helpers, deep, config=self._config(), select=["SL011"]
        )
        (finding,) = run.findings
        assert [loc.path for loc in finding.related] == [
            "pkg/engine.py", "pkg/helpers.py"
        ]
        assert "pkg.helpers.jitter -> pkg.deep.now -> time.time" in finding.message

    def test_taint_in_entry_point_itself(self):
        eng = unit("""
            import os
            class Simulator:
                def step(self):
                    return os.environ["SEED"]
        """, path="pkg/engine.py", module="pkg.engine")
        run = lint(eng, config=self._config(), select=["SL011"])
        (finding,) = run.findings
        assert "a hot entry point itself" in finding.message
        assert finding.related == ()

    def test_global_rng_is_taint_but_seeded_instance_is_not(self):
        eng = unit("""
            import random
            class Simulator:
                def __init__(self):
                    self.rng = random.Random(7)
                def step(self):
                    random.random()
                    self.rng.random()
        """, path="pkg/engine.py", module="pkg.engine")
        run = lint(eng, config=self._config(), select=["SL011"])
        (finding,) = run.findings
        assert "random.random" in finding.message

    def test_no_entry_points_configured_disables_rule(self):
        helpers = unit(
            "import time\ndef jitter():\n    return time.time()\n",
            module="pkg.helpers",
        )
        config = LintConfig(sim_scope=(), hot_entrypoints=())
        run = lint(self.engine_unit(), helpers, config=config, select=["SL011"])
        assert run.findings == []


class TestLayerBoundary:
    """SL012."""

    def _config(self, **kwargs):
        kwargs.setdefault("layers", ("pkg.sim", "pkg.net", "pkg.exec"))
        return LintConfig(sim_scope=(), **kwargs)

    def test_back_edge_import_flagged(self):
        run = lint(
            unit("from pkg.exec import pool\n", module="pkg.sim.engine"),
            unit("pool = None\n", module="pkg.exec.pool"),
            config=self._config(),
            select=["SL012"],
        )
        (finding,) = run.findings
        assert "back-edge" in finding.message
        assert "pkg.sim.engine" in finding.message and "pkg.exec.pool" in finding.message

    def test_downward_import_ok(self):
        run = lint(
            unit("from pkg.sim import engine\n", module="pkg.exec.pool"),
            unit("engine = None\n", module="pkg.sim.engine"),
            config=self._config(),
            select=["SL012"],
        )
        assert run.findings == []

    def test_lazy_function_local_import_exempt(self):
        run = lint(
            unit("""
                def spawn():
                    from pkg.exec import pool
                    return pool
            """, module="pkg.sim.engine"),
            unit("pool = None\n", module="pkg.exec.pool"),
            config=self._config(),
            select=["SL012"],
        )
        assert run.findings == []

    def test_layer_allow_sanctions_an_interface(self):
        config = self._config(layer_allow=("pkg.sim -> pkg.exec.shards",))
        run = lint(
            unit("from pkg.exec.shards import Shard\n", module="pkg.sim.engine"),
            unit("Shard = None\n", module="pkg.exec.shards"),
            config=config,
            select=["SL012"],
        )
        assert run.findings == []

    def test_modules_outside_layers_unconstrained(self):
        run = lint(
            unit("from pkg.exec import pool\n", module="pkg.tools.dump"),
            unit("pool = None\n", module="pkg.exec.pool"),
            config=self._config(),
            select=["SL012"],
        )
        assert run.findings == []

    def test_no_layers_configured_disables_rule(self):
        run = lint(
            unit("from pkg.exec import pool\n", module="pkg.sim.engine"),
            unit("pool = None\n", module="pkg.exec.pool"),
            config=LintConfig(sim_scope=(), layers=()),
            select=["SL012"],
        )
        assert run.findings == []


class TestTaxonomyDrift:
    """SL013."""

    def _config(self):
        return LintConfig(sim_scope=(), taxonomy_module="pkg.trace")

    def trace_unit(self, extra=""):
        return unit(
            'FOO = "app.foo"\nBAR = "app.bar"\n' + extra,
            path="pkg/trace.py",
            module="pkg.trace",
        )

    def test_emitted_but_undeclared_flagged_at_emit_site(self):
        app = unit("""
            def go(trace):
                trace.emit("app.rogue")
        """, path="pkg/app.py", module="pkg.app")
        emits_all = unit("""
            from pkg import trace as tr
            def go(trace):
                trace.emit(tr.FOO)
                trace.emit(tr.BAR)
        """, module="pkg.ok")
        run = lint(self.trace_unit(), app, emits_all, config=self._config(), select=["SL013"])
        (finding,) = run.findings
        assert finding.path == "pkg/app.py"
        assert "app.rogue" in finding.message and "not declared" in finding.message

    def test_never_emitted_entry_flagged_at_constant(self):
        app = unit("""
            from pkg import trace as tr
            def go(trace):
                trace.emit(tr.FOO)
        """, module="pkg.app")
        run = lint(self.trace_unit(), app, config=self._config(), select=["SL013"])
        (finding,) = run.findings
        assert finding.path == "pkg/trace.py"
        assert "BAR" in finding.message and "never emitted" in finding.message

    def test_local_constant_route_counts_as_emission(self):
        app = unit("""
            from pkg import trace as tr
            KIND = "app.local"
            def go(trace):
                trace.emit(KIND)
                trace.emit(tr.FOO)
                trace.emit(tr.BAR)
        """, path="pkg/app.py", module="pkg.app")
        run = lint(self.trace_unit(), app, config=self._config(), select=["SL013"])
        (finding,) = run.findings
        assert "app.local" in finding.message  # undeclared, routed via local const

    def test_ifexp_arms_both_count_as_emitted(self):
        app = unit("""
            from pkg import trace as tr
            def go(trace, ok):
                trace.emit(tr.FOO if ok else tr.BAR)
        """, module="pkg.app")
        run = lint(self.trace_unit(), app, config=self._config(), select=["SL013"])
        assert run.findings == []

    def test_taxonomy_module_absent_disables_rule(self):
        app = unit('def go(trace):\n    trace.emit("x.y")\n', module="pkg.app")
        run = lint(app, config=self._config(), select=["SL013"])
        assert run.findings == []


class TestShardPayloadPicklable:
    """SL014."""

    def test_inline_lambda_across_submit_flagged(self):
        run = lint(unit("""
            def plan(backend):
                backend.submit(lambda: 1)
        """, module="pkg.plan"), select=["SL014"])
        (finding,) = run.findings
        assert "lambda" in finding.message and "submit" in finding.message

    def test_local_def_across_shard_flagged(self):
        run = lint(unit("""
            from pkg.shards import Shard
            def plan():
                def work():
                    pass
                return Shard(work)
        """, module="pkg.plan"), select=["SL014"])
        (finding,) = run.findings
        assert "function-local callable 'work'" in finding.message

    def test_local_class_flagged(self):
        run = lint(unit("""
            def plan(backend):
                class Task:
                    pass
                backend.submit(Task)
        """, module="pkg.plan"), select=["SL014"])
        (finding,) = run.findings
        assert "'Task'" in finding.message

    def test_module_level_def_ok(self):
        run = lint(unit("""
            def work():
                pass
            def plan(backend):
                backend.submit(work)
        """, module="pkg.plan"), select=["SL014"])
        assert run.findings == []

    def test_module_level_lambda_flagged_even_across_modules(self):
        lib = unit("helper = lambda x: x\n", module="pkg.lib")
        plan = unit("""
            from pkg.lib import helper
            def plan(backend):
                backend.submit(helper)
        """, module="pkg.plan")
        run = lint(lib, plan, select=["SL014"])
        (finding,) = run.findings
        assert "pkg.lib.helper" in finding.message and "lambda" in finding.message

    def test_non_boundary_calls_ignored(self):
        run = lint(unit("""
            def plan(runner):
                runner.map(lambda x: x)
        """, module="pkg.plan"), select=["SL014"])
        assert run.findings == []
