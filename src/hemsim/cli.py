"""Command-line scenario runner.

    hemsim list
    hemsim describe <name>
    hemsim run <config.json | bundled-name> --out <dir> [--seed N]
              [--verify-determinism]

`run` exits 0 when every success predicate holds, 1 on predicate failure,
2 on a config/schema error (an unknown key, a repeated key, or a file that
cannot be read as UTF-8 JSON among them), and 3 on an internal error (a
determinism violation between verification reruns, or any other uncaught
exception). `describe` exits 2 on the same config errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import SchemaError, load_config_file, render_config, validate_config
from .scenarios import BUNDLED_SCENARIOS, execute_scenario, write_reports

EXIT_OK = 0
EXIT_PREDICATE_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_INTERNAL_ERROR = 3


def _resolve_config(ref: str) -> dict:
    if ref in BUNDLED_SCENARIOS:
        return validate_config(BUNDLED_SCENARIOS[ref])
    if not Path(ref).exists():
        known = ", ".join(sorted(BUNDLED_SCENARIOS))
        raise SchemaError(
            f"config: {ref!r} is neither a file nor a bundled scenario (bundled: {known})"
        )
    return load_config_file(ref)


def _cmd_list(_args) -> int:
    for name in sorted(BUNDLED_SCENARIOS):
        config = BUNDLED_SCENARIOS[name]
        print(f"{name:20s} {config.get('description', '')}")
    return EXIT_OK


def _cmd_describe(args) -> int:
    try:
        config = _resolve_config(args.name)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    sys.stdout.write(render_config(config))
    return EXIT_OK


def _cmd_run(args) -> int:
    try:
        config = _resolve_config(args.config)
        if args.seed is not None:
            config = validate_config({**config, "seed": args.seed})
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    outcome = execute_scenario(config)
    if args.verify_determinism:
        rerun = execute_scenario(config)
        if rerun.reports != outcome.reports:
            differing = sorted(
                name for name in set(outcome.reports) | set(rerun.reports)
                if outcome.reports.get(name) != rerun.reports.get(name)
            )
            print(f"internal error: nondeterministic reports: {differing}",
                  file=sys.stderr)
            return EXIT_INTERNAL_ERROR

    out_dir = Path(args.out)
    written = write_reports(outcome, out_dir)
    sys.stdout.write(outcome.reports["summary.txt"])
    print(f"wrote {len(written)} report files to {out_dir}")
    return EXIT_OK if outcome.passed else EXIT_PREDICATE_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hemsim",
        description="Simulate hardware-enabled governance mechanisms over a virtual "
                    "accelerator fleet.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list bundled scenarios")
    p_list.set_defaults(fn=_cmd_list)

    p_describe = sub.add_parser("describe", help="print a resolved scenario config")
    p_describe.add_argument("name", help="bundled scenario name or config file path")
    p_describe.set_defaults(fn=_cmd_describe)

    p_run = sub.add_parser("run", help="execute a scenario and write reports")
    p_run.add_argument("config", help="bundled scenario name or config file path")
    p_run.add_argument("--out", required=True, help="output directory for reports")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--verify-determinism", action="store_true",
                       help="run twice and fail on any report byte difference")
    p_run.set_defaults(fn=_cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)  # repr keeps it one line
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
