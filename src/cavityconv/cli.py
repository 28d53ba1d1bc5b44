"""Command-line runner for the registered scenarios.

    cavityconv run <config.json> [--out PATH] [--format json|csv]
                                 [--no-converge-check]
    cavityconv list-scenarios

A truncation sweep is the ``convergence`` scenario:

    {"scenario": "convergence", "options": {"target": "pdc_epr", "n_max_list": [8, 16, 24]}}

Exit codes: 0 success, 2 validation error, 3 convergence-gate failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .propagate import PropagationError
from .scenarios import (
    ConfigError,
    ConvergenceGateError,
    list_scenarios,
    run_scenario,
)
from .serialize import result_to_json, table_to_csv

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path!r} must hold a JSON object")
    return raw


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {str(path)!r}: {exc}") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        _write(Path(out), text)
    else:
        sys.stdout.write(text)


def _metrics_table(doc: dict):
    rows = [[name, doc["metrics"][name]] for name in sorted(doc["metrics"])]
    return ["metric", "value"], rows


def _externalize_tables(doc: dict, out: str) -> dict:
    """Write tables to sibling CSV files and reference them from the doc."""
    out_path = Path(out)
    files = {}
    for name in sorted(doc.get("tables", {})):
        table = doc["tables"][name]
        csv_path = out_path.with_name(f"{out_path.stem}_{name}.csv")
        _write(csv_path, table_to_csv(table["columns"], table["rows"]))
        files[name] = csv_path.name
    if files:
        doc = dict(doc)
        doc.pop("tables")
        doc["files"] = files
    return doc


def cmd_run(args) -> int:
    raw = _load_config(args.config)
    doc = run_scenario(raw, check_convergence=not args.no_converge_check)
    if args.format == "json":
        if args.out:
            doc = _externalize_tables(doc, args.out)
        _emit(result_to_json(doc), args.out)
    else:
        tables = doc.get("tables", {})
        if tables:
            name = sorted(tables)[0]
            columns, rows = tables[name]["columns"], tables[name]["rows"]
        else:
            columns, rows = _metrics_table(doc)
        _emit(table_to_csv(columns, rows), args.out)
    return EXIT_OK


def cmd_list(_args) -> int:
    for name, description in list_scenarios():
        sys.stdout.write(f"{name:20s} {description}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavityconv",
        description="Two-mode cavity frequency-conversion scenario runner",
    )
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run one scenario from a JSON config")
    run_p.add_argument("config", help="path to the scenario config (JSON)")
    run_p.add_argument("--out", help="write the result here instead of stdout")
    run_p.add_argument("--format", choices=["json", "csv"], default="json")
    run_p.add_argument(
        "--no-converge-check",
        action="store_true",
        help="skip the truncation convergence gate",
    )

    sub.add_parser("list-scenarios", help="list registered scenarios")
    return parser


# argparse parsers keep no state between parse_args calls: build it once
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_OK
    try:
        if args.command == "run":
            return cmd_run(args)
        return cmd_list(args)
    except (ConfigError, PropagationError) as exc:
        # a propagation failure means the configured truncation cannot
        # represent the requested computation
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except ConvergenceGateError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
