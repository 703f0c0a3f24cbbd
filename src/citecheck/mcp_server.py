"""MCP stdio server: the repair pipeline as six JSON-RPC tools.

Protocol frames are newline-delimited JSON-RPC 2.0 on stdout; everything
diagnostic goes to stderr. Requests are handled strictly one at a time in
arrival order: write-back tools must never race, and MCP clients
tolerate sequential servers. Tool failures become structured error
payloads; the loop itself never dies on a bad request.

A pipeline call starts from the source outcomes that the session's earlier
pipeline calls settled on the same transport mode and fixtures directory,
so a repair right after an analyze, or a reference that comes back in
another folder, fetches nothing again. Only outcomes that a retry would not
change are kept: a missing fixture, a timeout or a 429 is asked again.
Reports do not change under carry, live ones included, as no report holds a
timing. The memo holds at most CARRY_MAX_OUTCOMES outcomes: each call moves
its own to the newest end, and the oldest beyond the cap are dropped. A call
on another transport mode or fixtures directory starts the memo over; one
directory spelled two ways, such as relative and absolute, is the same one.
"""

from __future__ import annotations

import json
import sys
import traceback
from dataclasses import MISSING
from itertools import islice
from pathlib import Path
from typing import Any, TextIO

from . import __version__
from .errors import CitecheckError
from .pipeline import COMMANDS, RunOptions, front_end_options, run_command, write_payload
from .sources import Query, QueryOutcome

PROTOCOL_VERSION = "2024-11-05"

_TOOL_COMMANDS = {tool: command for command, (tool, _) in COMMANDS.items()}

_JSON_TYPES = {str: "string", int: "integer", bool: "boolean", tuple: "array"}

# Outcomes the session memo keeps. An outcome held only by the memo takes
# 0.8-1.1 KB (tracemalloc over the benchmark's mcp-session and bulk-repair
# inputs), so a full memo is about 20 MB; an mcp-session round settles 5,124.
CARRY_MAX_OUTCOMES = 20_000


def _input_schema(command: str) -> dict:
    options = [] if command == "version" else front_end_options(scan=command == "scan")
    properties = {}
    for f, name, kind in options:
        meta = f.metadata
        prop: dict[str, Any] = {"type": _JSON_TYPES[kind], "description": meta["help"]}
        enum = {"enum": list(meta["choices"])} if meta["choices"] is not None else {}
        prop.update({"items": {"type": "string", **enum}} if kind is tuple else enum)
        prop.update({k: meta[k] for k in ("minimum", "maximum") if meta[k] is not None})
        if f.default not in (MISSING, None):
            prop["default"] = f.default
        properties[name] = prop
    return {"type": "object", "properties": properties,
            "required": [name for f, name, _ in options if f.default is MISSING],
            "additionalProperties": False}


def tool_descriptors() -> list[dict]:
    """The six-tool surface, stable across calls."""
    return [{"name": tool, "description": description, "inputSchema": _input_schema(command)}
            for command, (tool, description) in COMMANDS.items()]


class McpServer:
    def __init__(self, stdin: TextIO | None = None, stdout: TextIO | None = None):
        self.stdin = stdin if stdin is not None else sys.stdin
        self.stdout = stdout if stdout is not None else sys.stdout
        # Settled outcomes of the session's pipeline calls, oldest first, under
        # the latest call's (transport mode, resolved fixtures dir): one entry
        # at most.
        self.known: dict[tuple[str, str | None], dict[tuple[str, Query], QueryOutcome]] = {}

    def call_tool(self, name: str, args: dict) -> tuple[str, bool]:
        """Run one tool; returns (payload text, is_error)."""
        command = _TOOL_COMMANDS[name]
        if command == "version":
            return json.dumps({"version": __version__}), False
        options = RunOptions.from_arguments(args, scan=command == "scan")
        if command == "scan":
            return run_command(command, options)[0], False
        config = options.source_config()
        # One store is one key, however the call spells its path.
        key = (config.transport_mode,
               config.fixtures_dir and str(Path(config.fixtures_dir).resolve()))
        known = self.known.get(key, {})
        payload, run = run_command(command, options, known=known)
        settled = {(o.source, o.query): o for v in run.verdicts for o in v.outcomes
                   if o.failure is None or not o.failure.retryable}
        # This call's outcomes go to the newest end and the oldest beyond the cap
        # go, in a copy: a dict copy does not rehash its keys, a rebuild does.
        memo = known.copy()
        for job in settled:
            memo.pop(job, None)
        memo.update(settled)
        for job in list(islice(memo, max(0, len(memo) - CARRY_MAX_OUTCOMES))):
            del memo[job]
        self.known = {key: memo}
        # A write that policy refused is an error payload, but the report still
        # travels with it so callers see the full diagnostics.
        return payload, run.apply_error is not None

    def _send(self, message: dict) -> None:
        line = json.dumps(message, ensure_ascii=False)
        for char in "\x85\u2028\u2029":  # line breaks to str.splitlines, left raw by json
            line = line.replace(char, f"\\u{ord(char):04x}")
        write_payload(self.stdout, line)

    def _result(self, request_id, result: dict) -> None:
        self._send({"jsonrpc": "2.0", "id": request_id, "result": result})

    def _error(self, request_id, code: int, message: str) -> None:
        self._send({"jsonrpc": "2.0", "id": request_id,
                    "error": {"code": code, "message": message}})

    def handle(self, request: dict) -> None:
        method = request.get("method")
        request_id = request.get("id")
        is_notification = "id" not in request
        if method == "initialize":
            self._result(request_id, {
                "protocolVersion": PROTOCOL_VERSION,
                "capabilities": {"tools": {"listChanged": False}},
                "serverInfo": {"name": "citecheck", "version": __version__},
            })
            return
        if method in ("notifications/initialized", "initialized"):
            return
        if method == "tools/list":
            self._result(request_id, {"tools": tool_descriptors()})
            return
        if method == "tools/call":
            params = request.get("params")
            name = params.get("name") if isinstance(params, dict) else None
            if not isinstance(name, str):
                self._error(request_id, -32602, "params must be an object whose name is a string")
                return
            if name not in _TOOL_COMMANDS:
                self._error(request_id, -32601, f"unknown tool: {name}")
                return
            args = params.get("arguments") or {}
            try:
                payload, is_error = self.call_tool(name, args)
            except CitecheckError as exc:
                payload = json.dumps(
                    {"error": {"type": type(exc).__name__, "message": str(exc)}})
                is_error = True
            except Exception as exc:  # never let a tool crash the loop
                print(f"citecheck mcp: tool {name} failed: {exc}", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                payload = json.dumps(
                    {"error": {"type": type(exc).__name__, "message": str(exc)}})
                is_error = True
            self._result(request_id, {
                "content": [{"type": "text", "text": payload}],
                "isError": is_error,
            })
            return
        if is_notification:
            return
        self._error(request_id, -32601, f"method not found: {method}")

    def serve(self) -> None:
        """Read newline-delimited JSON-RPC until stdin closes."""
        for line in self.stdin:
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
                self._send({"jsonrpc": "2.0", "id": None,
                            "error": {"code": -32700, "message": f"parse error: {exc}"}})
                continue
            if not isinstance(request, dict):
                self._send({"jsonrpc": "2.0", "id": None,
                            "error": {"code": -32600, "message": "invalid request"}})
                continue
            self.handle(request)
