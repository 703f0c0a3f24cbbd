"""Command-line frontend. Exit codes are the policy contract:

0 pass, 1 policy failure, 2 operational failure, 64 usage error.
`analyze` and `repair` return the policy decision's code; the mechanical
commands (scan, plan, apply, serve, version) return 0 or 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING

from . import __version__, mcp_server
from .errors import CitecheckError, UsageError
from .pipeline import (RunOptions, front_end_options, render_output, report_json,
                       run_repair, scan_report_dict)
from .workspace import scan_workspace

EX_USAGE = 64
EX_OPERATIONAL = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit 2; we own 64
        raise UsageError(message)


def _add_options(parser: argparse.ArgumentParser, scan: bool = False) -> None:
    """One flag per RunOptions option; an unset flag leaves RunOptions' default."""
    for f, name, kind in front_end_options(scan):
        kwargs = {"dest": name, "default": argparse.SUPPRESS, "help": f.metadata["help"]}
        if kind is bool:
            kwargs["action"] = "store_true"
        else:
            kwargs["required"] = f.default is MISSING
            kwargs["type"] = kind if kind is not tuple else (
                lambda text: [s.strip() for s in text.split(",") if s.strip()])
            choices = f.metadata["choices"]
            if choices is not None:  # a list option takes a comma list of its choices
                joined = ",".join(choices)
                kwargs["metavar"] = joined if kind is tuple else "{" + joined + "}"
            if f.default not in (MISSING, None):
                kwargs["help"] += f" (default: {f.default})"
        parser.add_argument("--" + name.replace("_", "-"), **kwargs)


def build_parser() -> _Parser:
    parser = _Parser(prog="citecheck",
                     description="Verify and repair bibliographies in paper-like "
                                 "project folders.")
    sub = parser.add_subparsers(dest="command")

    common = argparse.ArgumentParser(add_help=False)
    _add_options(common)
    _add_options(sub.add_parser("scan", help="rank candidate artifacts under a path"),
                 scan=True)
    sub.add_parser("analyze", parents=[common],
                   help="extract and verify references; exit per policy")
    sub.add_parser("plan", parents=[common], help="analysis plus the rewrite plan")
    sub.add_parser("apply", parents=[common],
                   help="plan and then apply with the chosen write mode")
    sub.add_parser("repair", parents=[common],
                   help="full pipeline; writes only in replacement mode")
    sub.add_parser("serve", help="run the MCP stdio server")
    sub.add_parser("version", help="print the version")
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = vars(parser.parse_args(argv))
        command = args.pop("command")
        if command is None:
            raise UsageError("a command is required")
        if command == "version":
            print(__version__)
            return 0
        if command == "serve":
            mcp_server.serve()
            return 0
        options = RunOptions.from_arguments(args, scan=command == "scan")
        if command == "scan":
            report = scan_workspace(options.path, max_depth=options.max_depth)
            print(report_json(scan_report_dict(report)))
            return 0
        result = run_repair(options, stage=command)
        print(render_output(result, options.fmt))
        if result.apply_error is not None:
            print(f"citecheck: {result.apply_error}", file=sys.stderr)
        if command in ("analyze", "repair"):
            return result.exit_code
        return 0
    except UsageError as exc:
        print(f"citecheck: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EX_USAGE
    except CitecheckError as exc:
        print(f"citecheck: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_OPERATIONAL


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
