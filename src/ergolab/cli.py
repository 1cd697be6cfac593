"""Command-line front end for the experiment runner.

Three subcommands::

    ergolab run <config.json>      execute one experiment (or --preset NAME)
    ergolab validate <config.json> check a config without running anything
    ergolab presets                list the built-in experiment catalog

Exit codes: 0 success, 1 configuration error (nothing written), 2
fixed-point precision exhausted, 3 iteration budget exceeded, 4 any other
``ErgolabError`` (a scan past the row limit among them), 5 an unexpected
exception (traceback printed).  Codes 2-5
leave ``config.json`` and an error ``manifest.json`` behind.  The output
root defaults to the current directory and can be redirected with ``--out``
or the ``ERGOLAB_OUTPUT_ROOT`` environment variable; the config's own
``output.directory`` is always the final path component.
"""
from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

from .errors import BudgetExceededError, ConfigError, ErgolabError, PrecisionExhaustedError
from .experiments import (
    TOOL_VERSION,
    list_presets,
    preset_config,
    run_experiment,
    validate_config,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PRECISION = 2
EXIT_BUDGET = 3
EXIT_DETECTOR = 4
EXIT_INTERNAL = 5


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    return raw


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergolab",
        description="recurrence experiments for circle cascades, special "
        "flows, torus windings and skew products",
    )
    parser.add_argument("--version", action="version", version=f"ergolab {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one experiment config")
    group = run.add_mutually_exclusive_group(required=True)
    group.add_argument("config", nargs="?", help="path to a JSON config document")
    group.add_argument("--preset", metavar="NAME", help="run a built-in preset instead")
    run.add_argument(
        "--out",
        metavar="DIR",
        help="output root (overrides ERGOLAB_OUTPUT_ROOT; default: current directory)",
    )

    check = sub.add_parser("validate", help="validate a config without running it")
    check.add_argument("config", help="path to a JSON config document")

    sub.add_parser("presets", help="list built-in experiment presets")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "presets":
            for name, summary in list_presets():
                print(f"{name:20s}  {summary}")
            return EXIT_OK
        if args.command == "validate":
            validate_config(_load_config(args.config))
            print("config ok")
            return EXIT_OK
        raw = preset_config(args.preset) if args.preset else _load_config(args.config)
        manifest = run_experiment(raw, out_root=args.out)
        for name in manifest.outputs:
            print(name)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PrecisionExhaustedError as exc:
        step = f" (step {exc.step})" if exc.step is not None else ""
        print(f"precision exhausted{step}: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ErgolabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DETECTOR
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
