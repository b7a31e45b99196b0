"""The simlint CLI: SARIF export and the exit-code
taxonomy (0 clean / 1 findings / 2 usage-config error, plus
--strict-baseline)."""

import json
import textwrap

import pytest

from repro.analysis.cli import main as cli_main
from repro.analysis.config import LintConfig
from repro.analysis.core import ModuleUnit
from repro.analysis.engine import lint_units
from repro.analysis.sarif import to_sarif


# -- miniature repo for CLI-level tests -------------------------------------


@pytest.fixture()
def project(tmp_path, monkeypatch):
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
    (src / "clean.py").write_text("VALUE = 1\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


#: Trimmed-down JSON Schema for the SARIF 2.1.0 surface simlint emits;
#: mirrors the required properties of the official schema so a shape
#: regression fails here rather than at code-scanning upload time.
_SARIF_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "$schema": {"type": "string"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                        },
                                    },
                                },
                            },
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "level": {
                                    "enum": ["none", "note", "warning", "error"]
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "properties": {
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                            "startColumn": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


class TestSarif:
    def sarif_for(self, *sources_modules, config=None, select=()):
        units = [
            ModuleUnit.from_source(path, textwrap.dedent(src), module=mod)
            for src, path, mod in sources_modules
        ]
        run = lint_units(list(units), config or LintConfig(), select=select)
        return to_sarif(run)

    def taint_sarif(self):
        return self.sarif_for(
            (
                "from pkg import helpers\n"
                "class Simulator:\n"
                "    def step(self):\n"
                "        helpers.jitter()\n",
                "pkg/engine.py",
                "pkg.engine",
            ),
            ("import time\ndef jitter():\n    return time.time()\n",
             "pkg/helpers.py", "pkg.helpers"),
            config=LintConfig(
                sim_scope=(), hot_entrypoints=("pkg.engine.Simulator.step",)
            ),
            select=["SL011"],
        )

    def test_log_matches_sarif_shape(self):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(self.taint_sarif(), _SARIF_SCHEMA)

    def test_rules_metadata_and_result_linkage(self):
        log = self.taint_sarif()
        driver = log["runs"][0]["tool"]["driver"]
        assert driver["name"] == "simlint"
        rule_ids = [r["id"] for r in driver["rules"]]
        assert "SL011" in rule_ids and rule_ids == sorted(rule_ids)
        (result,) = log["runs"][0]["results"]
        assert result["ruleId"] == "SL011"
        assert result["level"] == "error"
        assert driver["rules"][result["ruleIndex"]]["id"] == "SL011"

    def test_columns_are_one_based(self):
        (result,) = self.taint_sarif()["runs"][0]["results"]
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1

    def test_call_chain_becomes_related_locations(self):
        (result,) = self.taint_sarif()["runs"][0]["results"]
        (related,) = result["relatedLocations"]
        uri = related["physicalLocation"]["artifactLocation"]["uri"]
        assert uri == "pkg/engine.py"
        assert "jitter" in related["message"]["text"]

    def test_severity_mapping_to_levels(self):
        log = self.sarif_for(
            ("s = {1, 2}\nfor x in s:\n    pass\n", "m.py", None),
            select=["SL003"],
        )
        (result,) = log["runs"][0]["results"]
        assert result["level"] == "warning"  # SL003 is a warning rule

    def test_cli_sarif_flag_writes_file(self, project, capsys):
        assert cli_main(["--sarif", "out/lint.sarif"]) == 1
        log = json.loads((project / "out" / "lint.sarif").read_text())
        assert log["version"] == "2.1.0"
        assert any(
            r["ruleId"] == "SL002" for r in log["runs"][0]["results"]
        )

    def test_cli_format_sarif_stdout(self, project, capsys):
        assert cli_main(["--format", "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"


class TestExitCodeTaxonomy:
    def test_clean_tree_exit_0(self, project):
        (project / "src" / "pkg" / "clock.py").write_text("now = 0.0\n")
        assert cli_main([]) == 0

    def test_findings_exit_1(self, project):
        assert cli_main([]) == 1

    def test_unknown_config_key_exit_2(self, project, capsys):
        (project / "pyproject.toml").write_text(
            "[tool.simlint]\nsim-scopes = [\"pkg\"]\n"
        )
        assert cli_main([]) == 2
        assert "sim-scopes" in capsys.readouterr().err

    def test_no_python_files_exit_2(self, project, capsys):
        empty = project / "empty"
        empty.mkdir()
        assert cli_main([str(empty)]) == 2
        assert "no Python files" in capsys.readouterr().err

    def test_explicit_missing_baseline_exit_2(self, project, capsys):
        assert cli_main(["--baseline", "nope.json"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_unknown_rule_selector_exit_2(self, project):
        assert cli_main(["--select", "SL999"]) == 2

    def test_stale_baseline_reported_but_exit_0(self, project, capsys):
        (project / "src" / "pkg" / "clock.py").write_text("now = 0.0\n")
        (project / "simlint-baseline.json").write_text(json.dumps({
            "version": 1,
            "entries": [
                {"rule": "SL002", "path": "src/pkg/clock.py", "key": "0" * 16}
            ],
        }))
        assert cli_main([]) == 0
        out = capsys.readouterr().out
        assert "1 stale baseline entries" in out
        assert "stale baseline entry: SL002" in out

    def test_strict_baseline_turns_stale_into_exit_1(self, project, capsys):
        (project / "src" / "pkg" / "clock.py").write_text("now = 0.0\n")
        (project / "simlint-baseline.json").write_text(json.dumps({
            "version": 1,
            "entries": [
                {"rule": "SL002", "path": "src/pkg/clock.py", "key": "0" * 16}
            ],
        }))
        assert cli_main(["--strict-baseline"]) == 1

    def test_strict_baseline_with_consumed_entries_exit_0(self, project, capsys):
        assert cli_main(["--write-baseline"]) == 0
        assert cli_main(["--strict-baseline"]) == 0
