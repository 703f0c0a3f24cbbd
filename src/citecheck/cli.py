"""Command-line frontend. Exit codes are the policy contract:

0 pass, 1 policy failure, 2 operational failure, 64 usage error.
`analyze` and `repair` return the policy decision's code; the mechanical
commands (scan, plan, apply, serve, version) return 0 or 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING

from . import __version__
from .errors import CitecheckError, UsageError
from .mcp_server import McpServer
from .pipeline import COMMANDS, RunOptions, front_end_options, run_command, write_payload

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
    for command, (_, description) in COMMANDS.items():
        command_parser = sub.add_parser(command, help=description)
        if command != "version":
            _add_options(command_parser, scan=command == "scan")
    sub.add_parser("serve", help="Run the MCP stdio server.")
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
            # MCP's stdio transport is UTF-8 whatever the locale. A byte that is
            # not UTF-8 reads as a lone surrogate, which json.loads refuses like
            # any other malformed line.
            sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
            McpServer().serve()
            return 0
        options = RunOptions.from_arguments(args, scan=command == "scan")
        payload, result = run_command(command, options)
        write_payload(sys.stdout, payload)
        if result is not None and result.apply_error is not None:
            print(f"citecheck: {result.apply_error}", file=sys.stderr)
        return result.exit_code if command in ("analyze", "repair") else 0
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
