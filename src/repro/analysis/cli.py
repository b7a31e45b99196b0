"""``spider-repro lint``: the command-line face of simlint.

Exit codes follow lint-tool convention, pinned by tests:

- **0** — clean (possibly via suppressions or the baseline);
- **1** — actionable findings, or stale baseline entries under
  ``--strict-baseline``;
- **2** — usage or configuration error: unknown ``[tool.simlint]``
  keys, a nonexistent path, an explicit ``--baseline`` that does not
  exist, an unreadable baseline, an unknown rule selector, or zero
  Python files collected.

CI can gate on the code directly; ``--sarif`` additionally writes a
SARIF 2.1.0 log for code-scanning upload.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.baseline import Baseline
from repro.analysis.config import LintConfig, find_pyproject, load_config
from repro.analysis.core import RULES
from repro.analysis.engine import LintRun, iter_python_files, lint_paths, load_plugins
from repro.analysis.sarif import to_sarif


def _split_rules(values: List[str]) -> List[str]:
    out: List[str] = []
    for value in values:
        out.extend(token.strip() for token in value.split(",") if token.strip())
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spider-repro lint",
        description="AST-based invariant checks: determinism, trace taxonomy, shard protocol.",
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to lint (default: src/ at the repo root)"
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text", help="report format"
    )
    parser.add_argument(
        "--sarif",
        metavar="PATH",
        default=None,
        help="also write a SARIF 2.1.0 log to PATH (for code-scanning upload)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="baseline of grandfathered findings (default: [tool.simlint] baseline, if it exists)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true", help="ignore any configured baseline"
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept all current findings into the baseline file and exit 0",
    )
    parser.add_argument(
        "--strict-baseline",
        action="store_true",
        help="fail (exit 1) when the baseline holds entries nothing matched",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="RULES",
        help="comma-separated rule ids/names to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="RULES",
        help="comma-separated rule ids/names to skip",
    )
    parser.add_argument("--list-rules", action="store_true", help="print registered rules and exit")
    return parser


def _report_text(run: LintRun, stale_shown: int = 5) -> None:
    for finding in run.findings:
        print(finding.format())
    parts = [
        f"{len(run.findings)} finding{'s' if len(run.findings) != 1 else ''}"
        f" ({run.errors} errors, {run.warnings} warnings)",
        f"{run.files} files",
    ]
    if run.suppressed:
        parts.append(f"{len(run.suppressed)} suppressed")
    if run.baselined:
        parts.append(f"{len(run.baselined)} baselined")
    if run.stale_baseline:
        parts.append(f"{len(run.stale_baseline)} stale baseline entries")
    print(f"simlint: {', '.join(parts)}")
    for rule, path, _key in run.stale_baseline[:stale_shown]:
        print(f"  stale baseline entry: {rule} in {path} no longer matches"
              " — re-run --write-baseline")


def _report_json(run: LintRun) -> None:
    print(
        json.dumps(
            {
                "findings": [f.to_dict() for f in run.findings],
                "summary": {
                    "files": run.files,
                    "findings": len(run.findings),
                    "errors": run.errors,
                    "warnings": run.warnings,
                    "suppressed": len(run.suppressed),
                    "baselined": len(run.baselined),
                    "stale_baseline": [
                        {"rule": rule, "path": path, "key": key}
                        for rule, path, key in run.stale_baseline
                    ],
                },
            },
            indent=2,
        )
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    pyproject = find_pyproject(Path.cwd())
    try:
        config: LintConfig = load_config(pyproject)
    except ValueError as error:
        print(f"simlint: configuration error: {error}", file=sys.stderr)
        return 2
    root = config.root or Path.cwd()

    if args.list_rules:
        load_plugins(config.plugins)
        for rule in sorted(RULES.values(), key=lambda rule: rule.id):
            print(f"  {rule.id}  {rule.name:24s} [{rule.severity.value}] {rule.description}")
        return 0

    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        default_src = root / "src"
        paths = [default_src if default_src.is_dir() else root]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"simlint: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    if not iter_python_files(paths):
        print("simlint: no Python files to lint under the given paths", file=sys.stderr)
        return 2

    baseline_path = Path(args.baseline) if args.baseline else root / config.baseline
    if args.baseline and not args.write_baseline and not baseline_path.is_file():
        print(f"simlint: baseline {baseline_path} does not exist", file=sys.stderr)
        return 2
    baseline: Optional[Baseline] = None
    if not args.no_baseline and not args.write_baseline and baseline_path.is_file():
        try:
            baseline = Baseline.load(baseline_path)
        except (ValueError, KeyError, json.JSONDecodeError) as error:
            print(f"simlint: bad baseline {baseline_path}: {error}", file=sys.stderr)
            return 2

    try:
        run = lint_paths(
            paths,
            config,
            baseline=baseline,
            select=_split_rules(args.select),
            ignore=_split_rules(args.ignore),
            root=root,
        )
    except (KeyError, ImportError) as error:
        print(f"simlint: {error}", file=sys.stderr)
        return 2

    if args.write_baseline:
        count = Baseline.write(baseline_path, run.findings, run.sources)
        print(f"simlint: wrote {count} finding(s) to {baseline_path}")
        return 0

    if args.sarif:
        sarif_path = Path(args.sarif)
        sarif_path.parent.mkdir(parents=True, exist_ok=True)
        sarif_path.write_text(json.dumps(to_sarif(run), indent=2), encoding="utf-8")

    if args.format == "sarif":
        print(json.dumps(to_sarif(run), indent=2))
    elif args.format == "json":
        _report_json(run)
    else:
        _report_text(run)

    if run.findings:
        return 1
    if args.strict_baseline and run.stale_baseline:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
