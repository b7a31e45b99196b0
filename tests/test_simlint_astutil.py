"""astutil helpers (dotted names, import maps, relative-import
resolution) and LintConfig parsing edge cases: unknown keys, bad value
types, empty sections, retired keys."""

import ast

import pytest

from repro.analysis.astutil import ImportMap, dotted_name, resolve_relative
from repro.analysis.config import (
    DEFAULT_HOT_ENTRYPOINTS,
    DEFAULT_SIM_SCOPE,
    find_pyproject,
    load_config,
)


def expr(source):
    return ast.parse(source, mode="eval").body


class TestDottedName:
    def test_name(self):
        assert dotted_name(expr("x")) == "x"

    def test_attribute_chain(self):
        assert dotted_name(expr("a.b.c")) == "a.b.c"

    def test_call_base_is_not_a_chain(self):
        assert dotted_name(expr("f().attr")) is None

    def test_subscript_is_not_a_chain(self):
        assert dotted_name(expr("d['k'].attr")) is None


class TestResolveRelative:
    def test_single_dot_in_plain_module_is_own_package(self):
        assert resolve_relative("pkg.sub.mod", 1, "sibling") == "pkg.sub.sibling"

    def test_single_dot_in_package_init_is_itself(self):
        assert resolve_relative("pkg.sub", 1, "child", is_package=True) == "pkg.sub.child"

    def test_two_dots_walk_up(self):
        assert resolve_relative("pkg.sub.mod", 2, "other") == "pkg.other"

    def test_bare_from_dot_import(self):
        assert resolve_relative("pkg.sub.mod", 1, None) == "pkg.sub"

    def test_escaping_the_package_returns_none(self):
        assert resolve_relative("pkg.mod", 2, "x") is None
        assert resolve_relative("pkg", 1, "x", is_package=True) == "pkg.x"
        assert resolve_relative("pkg", 2, "x", is_package=True) is None

    def test_unknown_module_returns_none(self):
        assert resolve_relative(None, 1, "x") is None


class TestImportMap:
    def map_of(self, source, module_name=None, is_package=False):
        return ImportMap(ast.parse(source), module_name=module_name, is_package=is_package)

    def test_plain_import_binds_head(self):
        imports = self.map_of("import os.path\n")
        assert imports.aliases == {"os": "os"}

    def test_aliased_import(self):
        imports = self.map_of("import repro.obs.trace as tr\n")
        assert imports.resolve("tr.FOO") == "repro.obs.trace.FOO"

    def test_from_import_with_alias(self):
        imports = self.map_of("from random import choice as pick\n")
        assert imports.resolve("pick") == "random.choice"

    def test_star_import_ignored(self):
        imports = self.map_of("from os import *\n")
        assert imports.aliases == {}

    def test_relative_import_needs_module_name(self):
        assert self.map_of("from . import radio\n").aliases == {}
        imports = self.map_of("from . import radio\n", module_name="pkg.phy.medium")
        assert imports.resolve("radio") == "pkg.phy.radio"

    def test_relative_import_in_package_init(self):
        imports = self.map_of(
            "from .radio import Medium\n", module_name="pkg.phy", is_package=True
        )
        assert imports.resolve("Medium") == "pkg.phy.radio.Medium"

    def test_resolve_unknown_head_is_none(self):
        imports = self.map_of("import os\n")
        assert imports.resolve("sys.path") is None
        assert imports.resolve(None) is None

    def test_resolve_node(self):
        imports = self.map_of("import time as t\n")
        assert imports.resolve_node(expr("t.monotonic")) == "time.monotonic"


class TestLoadConfig:
    def write(self, tmp_path, body):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(body)
        return pyproject

    def test_missing_file_gives_defaults(self, tmp_path):
        config = load_config(tmp_path / "pyproject.toml")
        assert config.sim_scope == DEFAULT_SIM_SCOPE
        assert config.hot_entrypoints == DEFAULT_HOT_ENTRYPOINTS
        assert config.root is None

    def test_empty_section_gives_defaults_with_root(self, tmp_path):
        config = load_config(self.write(tmp_path, "[tool.simlint]\n"))
        assert config.sim_scope == DEFAULT_SIM_SCOPE
        assert config.root == tmp_path

    def test_no_simlint_table_at_all(self, tmp_path):
        config = load_config(self.write(tmp_path, "[tool.other]\nx = 1\n"))
        assert config.layers == ()
        assert config.root == tmp_path

    def test_unknown_key_rejected_and_named(self, tmp_path):
        pyproject = self.write(
            tmp_path, "[tool.simlint]\nsim-scpe = [\"pkg\"]\n"
        )
        with pytest.raises(ValueError) as err:
            load_config(pyproject)
        assert "sim-scpe" in str(err.value)
        assert "sim-scope" in str(err.value)  # known keys listed for the fix

    def test_list_key_with_scalar_value_rejected(self, tmp_path):
        pyproject = self.write(tmp_path, '[tool.simlint]\nlayers = "pkg.sim"\n')
        with pytest.raises(ValueError, match="layers must be a list"):
            load_config(pyproject)

    def test_list_key_with_non_string_items_rejected(self, tmp_path):
        pyproject = self.write(tmp_path, "[tool.simlint]\nselect = [1, 2]\n")
        with pytest.raises(ValueError, match="select"):
            load_config(pyproject)

    def test_string_key_with_list_value_rejected(self, tmp_path):
        pyproject = self.write(
            tmp_path, '[tool.simlint]\ntaxonomy-module = ["a", "b"]\n'
        )
        with pytest.raises(ValueError, match="taxonomy-module must be a string"):
            load_config(pyproject)

    def test_new_keys_parse(self, tmp_path):
        pyproject = self.write(tmp_path, (
            "[tool.simlint]\n"
            'layers = ["pkg.sim", "pkg.exec"]\n'
            'layer-allow = ["pkg.sim -> pkg.exec.shards"]\n'
            'hot-entrypoints = ["pkg.sim.engine.Simulator.step"]\n'
        ))
        config = load_config(pyproject)
        assert config.layers == ("pkg.sim", "pkg.exec")
        assert config.layer_allow == ("pkg.sim -> pkg.exec.shards",)
        assert config.hot_entrypoints == ("pkg.sim.engine.Simulator.step",)

    @pytest.mark.parametrize("key", ["cache-path", "backend-package", "backend-allow"])
    def test_retired_keys_rejected(self, tmp_path, key):
        pyproject = self.write(tmp_path, f'[tool.simlint]\n{key} = "x"\n')
        with pytest.raises(ValueError, match=f"unknown \\[tool.simlint\\] key\\(s\\): {key}"):
            load_config(pyproject)

    def test_find_pyproject_walks_up(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("")
        nested = tmp_path / "a" / "b"
        nested.mkdir(parents=True)
        assert find_pyproject(nested) == tmp_path / "pyproject.toml"
