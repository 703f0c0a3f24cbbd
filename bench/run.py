#!/usr/bin/env python3
"""citecheck benchmark: end-to-end and per-layer metrics on generated inputs.

    python3 bench/run.py --workload bulk-repair|slow-sources|mcp-session|all
                         [--seed N] [--seconds S] [--trace 0|1] [--size full|smoke]

Run from a checkout: citecheck is imported from ``src/`` next to this
directory; nothing needs installing. Each run generates its inputs from
``--seed``, sets up (corpus, fixture store, start-up probes), then runs whole
rounds of the workload's operations until ``--seconds`` have passed, checks
every output against the generator's ground truth outside the timed section,
and prints one JSON object as its last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with citecheck as
its own process through its real front end (CLI or MCP server). ``--trace 1``
reports the per-layer metrics from the traced run (see traced.py) and checks
that its output bytes equal the untraced front end's. See README.md for the
workloads, the metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("bulk-repair", "slow-sources", "mcp-session")

SIZES = {  # entries / entries / folders
    "full": {"bulk-repair": 2000, "slow-sources": 240, "mcp-session": 100},
    "smoke": {"bulk-repair": 120, "slow-sources": 30, "mcp-session": 6},
}
# Fixed per-source latency of the simulated sources in slow-sources (ms).
LATENCY_MS = {"pubmed": 25, "crossref": 40, "arxiv": 70}
# Start-up probes per run, taken before and after the timed section: the
# host's speed drifts over seconds, and probes spread in time sample more of
# it. setup_s is their median.
PROBES_BEFORE, PROBES_AFTER = 5, 4
SLICE = 150  # entries in the --workers 1 identity check of bulk-repair
PARITY_FOLDERS = 2  # mcp-session folders also run through the CLI

END_TO_END = {
    "setup_s": "s", "entries_per_s": "1/s", "call_ms_p50": "ms", "call_ms_p95": "ms",
    "cpu_ms_per_entry": "ms", "peak_rss_mb": "MB", "report_mb": "MB",
    "requests_per_entry": "count",
}
PER_LAYER = {
    "workspace.scan_ms": "ms", "workspace.files": "count",
    "extraction.us_per_entry": "us", "extraction.rejected": "count",
    "sources.requests.pubmed": "count", "sources.requests.crossref": "count",
    "sources.requests.arxiv": "count", "sources.wait_s": "s", "sources.overlap": "ratio",
    "sources.failed": "count", "sources.parse_us_per_response": "us",
    "matching.verify_s": "s", "matching.cpu_ms_per_entry": "ms",
    "matching.passes_per_entry": "count", "matching.candidates_per_entry": "count",
    "matching.score_us_per_candidate": "us", "matching.cluster_us_per_entry": "us",
    "manifestations.us_per_entry": "us", "policy.ms": "ms",
    "rewrite.plan_s": "s", "rewrite.render_s": "s", "rewrite.apply_s": "s",
    "rewrite.patches": "count",
    "pipeline.assemble_ms": "ms", "pipeline.serialize_ms": "ms",
    "pipeline.unattributed_s": "s",
    "mcp_server.overhead_ms_per_call": "ms",
}


def log(message: str) -> None:
    print(f"[bench] {message}", file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Child processes
# --------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CITECHECK_")}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


class Call:
    """One finished child process: exit code, output, wall and resource use."""

    def __init__(self, args: list[str], work: Path):
        errpath = work / "stderr.txt"
        with open(errpath, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(args, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                    stderr=err)
            self.stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - started
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024
        self.stderr = errpath.read_text(encoding="utf-8", errors="replace")


def launch_args(citecheck_args: list[str], *, sim: Path | None = None,
                latency: dict[str, float] | None = None, stats: Path | None = None,
                count_reads: Path | None = None) -> list[str]:
    args = [sys.executable, str(BENCH / "launch.py")]
    if sim is not None:
        args += ["--sim", str(sim)]
        if latency:
            args += ["--latency-ms", ",".join(str(latency[s]) for s in LATENCY_MS)]
    if stats is not None:
        args += ["--stats", str(stats)]
    if count_reads is not None:
        args += ["--count-reads", str(count_reads)]
    return args + ["--"] + citecheck_args


def probe_import(work: Path) -> float:
    """Spawn-to-exit of a process that exits once citecheck's CLI is imported."""
    call = Call([sys.executable, "-c", "import citecheck.cli"], work)
    if call.rc != 0:
        raise RuntimeError(f"citecheck does not import: {call.stderr}")
    return call.wall_s


class McpClient:
    """One `citecheck serve` process and a closed-loop JSON-RPC client."""

    def __init__(self, args: list[str], work: Path):
        self.started = time.perf_counter()
        self._err = open(work / "serve-stderr.txt", "wb")
        self.proc = subprocess.Popen(args, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self._err)
        self._id = 0
        try:
            self.request("initialize", {"protocolVersion": "2024-11-05", "capabilities": {},
                                        "clientInfo": {"name": "bench", "version": "1"}})
        except BaseException:
            self.kill()
            raise
        self.ready_s = time.perf_counter() - self.started
        self._send({"jsonrpc": "2.0", "method": "notifications/initialized"})

    def _send(self, message: dict) -> None:
        self.proc.stdin.write((json.dumps(message) + "\n").encode("utf-8"))
        self.proc.stdin.flush()

    def request(self, method: str, params: dict) -> dict:
        self._id += 1
        self._send({"jsonrpc": "2.0", "id": self._id, "method": method, "params": params})
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("citecheck serve closed its output")
        reply = json.loads(line)
        if reply.get("id") != self._id:
            raise RuntimeError(f"reply id {reply.get('id')} for request {self._id}")
        return reply

    def tool(self, name: str, arguments: dict) -> tuple[float, str, bool]:
        """(caller latency in s, payload text, isError) of one tools/call."""
        started = time.perf_counter()
        reply = self.request("tools/call", {"name": name, "arguments": arguments})
        wall = time.perf_counter() - started
        result = reply.get("result")
        if result is None:
            return wall, json.dumps(reply.get("error")), True
        return wall, result["content"][0]["text"], bool(result.get("isError"))

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def close(self) -> tuple[int, float]:
        """Ends the server; returns (exit code, peak RSS in MB)."""
        self.proc.stdin.close()
        self.proc.stdout.read()
        self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._err.close()
        return self.proc.returncode, usage.ru_maxrss / 1024

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self._err.close()


def probe_serve(args: list[str], work: Path) -> float:
    """Spawn to `initialize` reply of `citecheck serve`."""
    client = McpClient(args, work)
    try:
        return client.ready_s
    finally:
        client.close()


# --------------------------------------------------------------------------
# Results
# --------------------------------------------------------------------------

class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []
        self.metrics: dict[str, float] = {}

    def fail(self, note: str) -> None:
        """A property that is not an operation of its own does not hold."""
        self.correct = False
        self.notes.append(note)

    def ops(self, attempted: int, failed: int, what: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and what:
            self.notes.append(f"{failed} of {attempted} {what} disagree with ground truth")


def p95(values: list[float]) -> float:
    """Nearest-rank 95th percentile; with fewer than 20 values, the largest."""
    ordered = sorted(values)
    return ordered[math.ceil(0.95 * len(ordered)) - 1]


def sha(data: bytes | str) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def end_to_end(walls: list[float], entries: int, cpu_s: float, rss_mb: float,
               out_bytes: int, rounds: int, requests: int) -> dict:
    return {
        "entries_per_s": entries / sum(walls),
        "call_ms_p50": 1000 * statistics.median(walls),
        "call_ms_p95": 1000 * p95(walls),
        "cpu_ms_per_entry": 1000 * cpu_s / entries,
        "peak_rss_mb": rss_mb,
        "report_mb": out_bytes / rounds / 1e6,
        "requests_per_entry": requests / entries,
    }


def layer_metrics(t, transport, runs, rounds: int, calls: int, entries: int,
                  overhead_ms: float) -> dict:
    """Per-layer metrics of `rounds` traced rounds of `calls` calls each;
    `runs` are the pipeline runs of the first round."""
    import traced

    costs = traced.layer_costs(runs, transport.responses)
    plan_s, apply_s = traced.unrun_rewrite_costs(runs)
    verify_s = t.total["matching.verify"]
    attributed = sum(v for k, v in t.total.items() if k not in ("matching.cpu", "run"))
    return {
        "workspace.scan_ms": 1000 * t.total["workspace.scan"] / t.calls["workspace.scan"],
        "workspace.files": t.counts["files"] / rounds,
        "extraction.us_per_entry": 1e6 * t.total["extraction"] / entries,
        "extraction.rejected": sum(len(r.extraction.rejected) for r in runs),
        "sources.requests.pubmed": transport.requests["pubmed"] / rounds,
        "sources.requests.crossref": transport.requests["crossref"] / rounds,
        "sources.requests.arxiv": transport.requests["arxiv"] / rounds,
        "sources.wait_s": transport.wait_s / rounds,
        "sources.overlap": transport.wait_s / verify_s,
        "sources.failed": transport.failed / rounds,
        "sources.parse_us_per_response": costs["parse_us_per_response"],
        "matching.verify_s": verify_s / rounds,
        "matching.cpu_ms_per_entry": 1000 * t.total["matching.cpu"] / entries,
        "matching.passes_per_entry": costs["passes_per_entry"],
        "matching.candidates_per_entry": costs["candidates_per_entry"],
        "matching.score_us_per_candidate": costs["score_us_per_candidate"],
        "matching.cluster_us_per_entry": costs["cluster_us_per_entry"],
        "manifestations.us_per_entry": costs["manifestations_us_per_entry"],
        "policy.ms": 1000 * t.total["policy"] / t.counts["runs"],
        "rewrite.plan_s": t.total["rewrite.plan"] / rounds + plan_s,
        "rewrite.render_s": costs["render_s"],
        "rewrite.apply_s": t.total["rewrite.apply"] / rounds + apply_s,
        "rewrite.patches": sum(len(r.plan.patches) for r in runs if r.plan is not None),
        "pipeline.assemble_ms": 1000 * t.total["pipeline.assemble"] / calls / rounds,
        "pipeline.serialize_ms": 1000 * t.total["pipeline.serialize"] / calls / rounds,
        "pipeline.unattributed_s": (t.total["run"] - attributed) / rounds,
        "mcp_server.overhead_ms_per_call": overhead_ms,
    }


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, seed: int, size: str, work: Path):
        self.seed = seed
        self.n = SIZES[size][self.name]
        self.work = work
        self.catalog = work / "catalog.json"
        self.fixtures = work / "fixtures"

    def setup(self) -> None:
        raise NotImplementedError

    def probe(self) -> float:
        return probe_import(self.work)

    def run(self, seconds: float, trace: bool) -> Result:
        result = Result()
        started = time.perf_counter()
        self.setup()
        os.sync()  # write set-up files back now, not during the timed section
        log(f"inputs generated and fixtures recorded in {time.perf_counter() - started:.1f} s")
        started = time.perf_counter()
        if trace:
            self.traced(seconds, result)
        else:
            probes = [self.probe() for _ in range(PROBES_BEFORE)]
            self.untraced(seconds, result)
            probes += [self.probe() for _ in range(PROBES_AFTER)]
            result.metrics["setup_s"] = statistics.median(probes)
        log(f"measured and checked in {time.perf_counter() - started:.1f} s")
        return result


def read_stats(path: Path) -> dict:
    """Counts the launcher wrote; empty when citecheck did not return."""
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


def record_fixtures(args: list[str], work: Path) -> None:
    """Record a fixture store from the simulated sources through citecheck's
    own record transport."""
    stats = work / "record-stats.json"
    call = Call(launch_args(args, sim=work / "catalog.json", stats=stats), work)
    if not stats.is_file():
        raise RuntimeError(f"recording failed (exit {call.rc}): {call.stderr[-2000:]}")


class CliWorkload(Workload):
    """One CLI invocation per round over one generated paper folder."""

    stage = ""

    def cli_args(self, folder: Path, workers: int | None = None) -> list[str]:
        raise NotImplementedError

    def invoke(self, folder: Path, workers: int | None = None) -> tuple[Call, dict]:
        raise NotImplementedError

    def judge(self, call: Call, result: Result) -> None:
        raise NotImplementedError

    def untraced(self, seconds: float, result: Result) -> None:
        paper = self.corpus.papers[0]
        calls, stats, started = [], [], time.perf_counter()
        while not calls or time.perf_counter() - started < seconds:
            call, st = self.invoke(paper.target)
            calls.append(call)
            stats.append(st)
        first = calls[0]
        self.judge(first, result)
        for call in calls[1:]:
            result.ops(len(paper.cited), self.differs(first, call), "entries")
        self.identity_check(first, result)
        entries = len(paper.cited) * len(calls)
        requests = sum(self.requests(st) for st in stats)
        result.metrics = end_to_end([c.wall_s for c in calls], entries,
                                    sum(c.cpu_s for c in calls), max(c.rss_mb for c in calls),
                                    sum(len(c.stdout) for c in calls), len(calls), requests)

    def differs(self, first: Call, call: Call) -> int:
        same = call.rc == first.rc and sha(call.stdout) == sha(first.stdout)
        return 0 if same else len(self.corpus.papers[0].cited)

    def traced(self, seconds: float, result: Result) -> None:
        import traced
        from citecheck.matching import DEFAULT_WORKERS

        paper = self.corpus.papers[0]
        reference, stats = self.invoke(paper.target)
        self.judge(reference, result)
        transport = traced.CountingTransport(self.inner_transport())
        options = self.options(paper.target, DEFAULT_WORKERS)
        t, runs, rounds, started = traced.Timer(), [], 0, time.perf_counter()
        while not rounds or time.perf_counter() - started < seconds:
            self.reset(paper.folder)
            run_started = time.perf_counter()
            payload, run = traced.staged_run(options, self.stage, transport, t)
            t.total["run"] += time.perf_counter() - run_started
            runs = runs or [run]
            rounds += 1
            if not self.same_output(reference.stdout, payload):
                result.fail("traced output differs from the untraced front end's")
        # The front end's own cost: the caller's latency minus the time
        # cli.run took inside the same process.
        overhead_s = reference.wall_s - stats.get("run_s", reference.wall_s)
        result.metrics = layer_metrics(t, transport, runs, rounds, 1,
                                       len(paper.cited) * rounds, 1000 * overhead_s)

    def same_output(self, stdout: bytes, payload: str) -> bool:
        return stdout == (payload + "\n").encode("utf-8")

    def reset(self, folder: Path) -> None:
        pass


class BulkRepair(CliWorkload):
    """repair --mode replacement --write sidecar on one ~2000-entry .bib."""

    name = "bulk-repair"
    stage = "repair"

    def setup(self) -> None:
        import corpus

        self.corpus = corpus.bulk_corpus(self.seed, self.n, self.work)
        corpus.write_catalog(self.catalog, self.corpus.works)
        paper = self.corpus.papers[0]
        self.slice = self.work / "slice"
        self.slice.mkdir()
        corpus.write_bib(self.slice / "refs.bib", paper.cited[:SLICE])
        record_fixtures(["analyze", "--path", str(paper.target), "--transport", "record",
                         "--fixtures-dir", str(self.fixtures)], self.work)

    def cli_args(self, folder: Path, workers: int | None = None) -> list[str]:
        args = ["repair", "--path", str(folder), "--mode", "replacement", "--write",
                "sidecar", "--transport", "replay", "--fixtures-dir", str(self.fixtures)]
        return args + (["--workers", str(workers)] if workers else [])

    def reset(self, folder: Path) -> None:
        # A sidecar left by the previous call would join the next scan's
        # candidates and change its report; every call starts from the
        # generated folder.
        (folder / "refs.citecheck.bib").unlink(missing_ok=True)

    def invoke(self, folder: Path, workers: int | None = None) -> tuple[Call, dict]:
        self.reset(folder)
        stats = self.work / "stats.json"
        stats.unlink(missing_ok=True)
        call = Call(launch_args(self.cli_args(folder, workers), stats=stats,
                                count_reads=self.fixtures), self.work)
        return call, read_stats(stats)

    def requests(self, stats: dict) -> int:
        return stats.get("fixture_reads", 0)

    def inner_transport(self):
        from citecheck.sources import make_transport
        return make_transport("replay", self.fixtures)

    def options(self, folder: Path, workers: int):
        from citecheck.pipeline import RunOptions
        return RunOptions(path=str(folder), mode="replacement", write="sidecar",
                          transport="replay", fixtures_dir=str(self.fixtures),
                          workers=workers)

    def judge(self, call: Call, result: Result) -> None:
        import checks

        paper = self.corpus.papers[0]
        n = len(paper.cited)
        try:
            report = json.loads(call.stdout)
        except ValueError:
            result.ops(n, n, "entries")
            result.fail(f"no report (exit {call.rc}): {call.stderr[-500:]}")
            return
        wrong = checks.wrong_verdicts(report, paper.cited)
        wrong |= checks.wrong_patches(report, paper.cited)
        wrong |= checks.wrong_sidecar(paper.folder / "refs.citecheck.bib",
                                      paper.folder / "refs.bib", paper.cited)
        result.ops(n, len(wrong), "entries")
        if not checks.extraction_ok(report, paper):
            result.fail("entry count differs from the generated count")
        if call.rc != paper.exit_code or checks.decision_exit(report) != paper.exit_code:
            result.fail(f"exit code {call.rc}, the preset implies {paper.exit_code}")
        if (report.get("replacement") or {}).get("status") != "applied":
            result.fail("replacement was not applied although the preset allows it")

    def identity_check(self, first: Call, result: Result) -> None:
        default, _ = self.invoke(self.slice)
        single, _ = self.invoke(self.slice, workers=1)
        if default.stdout != single.stdout or default.rc != single.rc:
            result.fail("report bytes differ between --workers 1 and the default")


class SlowSources(CliWorkload):
    """analyze with default workers against simulated sources with latency."""

    name = "slow-sources"
    stage = "analyze"

    def setup(self) -> None:
        import corpus

        self.corpus = corpus.slow_corpus(self.seed, self.n, self.work)
        corpus.write_catalog(self.catalog, self.corpus.works)

    def cli_args(self, folder: Path, workers: int | None = None) -> list[str]:
        return ["analyze", "--path", str(folder)] + (
            ["--workers", str(workers)] if workers else [])

    def invoke(self, folder: Path, workers: int | None = None,
               latency: dict | None = LATENCY_MS) -> tuple[Call, dict]:
        stats = self.work / "stats.json"
        stats.unlink(missing_ok=True)
        call = Call(launch_args(self.cli_args(folder, workers), sim=self.catalog,
                                latency=latency, stats=stats), self.work)
        return call, read_stats(stats)

    def requests(self, stats: dict) -> int:
        return sum((stats.get("requests") or {}).values())

    def inner_transport(self):
        import simsource
        from citecheck.sources import LiveTransport
        sim = simsource.SimulatedSources.load(str(self.catalog),
                                              {s: ms / 1000 for s, ms in LATENCY_MS.items()})
        return LiveTransport(session=sim)

    def options(self, folder: Path, workers: int):
        from citecheck.pipeline import RunOptions
        return RunOptions(path=str(folder), workers=workers)

    def same_output(self, stdout: bytes, payload: str) -> bool:
        import checks
        return checks.mask_latency(stdout.decode("utf-8")) == checks.mask_latency(payload)

    def differs(self, first: Call, call: Call) -> int:
        import checks
        same = call.rc == first.rc and (checks.mask_latency(call.stdout.decode("utf-8"))
                                        == checks.mask_latency(first.stdout.decode("utf-8")))
        return 0 if same else len(self.corpus.papers[0].cited)

    def judge(self, call: Call, result: Result) -> None:
        import checks

        paper = self.corpus.papers[0]
        n = len(paper.cited)
        try:
            report = json.loads(call.stdout)
        except ValueError:
            result.ops(n, n, "entries")
            result.fail(f"no report (exit {call.rc}): {call.stderr[-500:]}")
            return
        result.ops(n, len(checks.wrong_verdicts(report, paper.cited)), "entries")
        if not checks.extraction_ok(report, paper):
            result.fail("entry count differs from the generated count")
        if call.rc != paper.exit_code or checks.decision_exit(report) != paper.exit_code:
            result.fail(f"exit code {call.rc}, the preset implies {paper.exit_code}")

    def identity_check(self, first: Call, result: Result) -> None:
        # Same manuscript, --workers 1, sources without latency: the report
        # must match the timed run's once measured latencies are masked.
        single, _ = self.invoke(self.corpus.papers[0].target, workers=1, latency=None)
        if single.rc != first.rc or not self.same_output(first.stdout,
                                                         single.stdout.decode("utf-8")):
            result.fail("report bytes differ between --workers 1 and the default")


class McpSession(Workload):
    """One `citecheck serve`, one client: scan, analyze, repair per folder."""

    name = "mcp-session"

    def setup(self) -> None:
        import corpus

        self.corpus = corpus.mcp_corpus(self.seed, self.n, self.work / "papers")
        corpus.write_catalog(self.catalog, self.corpus.works)
        client = McpClient(launch_args(["serve"], sim=self.catalog), self.work)
        try:
            for paper in self.corpus.papers:
                _, payload, is_error = client.tool("analyze_references", {
                    "path": str(paper.target), "transport": "record",
                    "fixtures_dir": str(self.fixtures)})
                if is_error:
                    raise RuntimeError(f"recording failed: {payload[:500]}")
        finally:
            client.close()

    def serve_args(self) -> list[str]:
        return launch_args(["serve"], stats=self.work / "stats.json",
                           count_reads=self.fixtures)

    def probe(self) -> float:
        return probe_serve(self.serve_args(), self.work)

    def calls(self):
        """The session's calls, in order: (paper, tool, arguments)."""
        replay = {"transport": "replay", "fixtures_dir": str(self.fixtures)}
        for paper in self.corpus.papers:
            yield paper, "scan_workspace", {"path": str(paper.folder)}
            yield paper, "analyze_references", {"path": str(paper.target), **replay}
            yield paper, "repair_paper", {"path": str(paper.target), **replay}

    def session_round(self, client: McpClient) -> list[tuple[float, str, bool]]:
        return [client.tool(name, args) for _, name, args in self.calls()]

    def judge(self, replies: list[tuple[float, str, bool]], result: Result) -> None:
        import checks

        failed = 0
        for (paper, name, _), (_, payload, is_error) in zip(self.calls(), replies):
            ok = not is_error
            if ok:
                try:
                    report = json.loads(payload)
                except ValueError:
                    report, ok = {}, False
            if ok and name == "scan_workspace":
                ok = checks.scan_ok(report, paper)
            elif ok:
                ok = (not checks.wrong_verdicts(report, paper.cited)
                      and checks.extraction_ok(report, paper)
                      and checks.decision_exit(report) == paper.exit_code
                      and (report.get("plan") is None) == (name == "analyze_references")
                      and (name == "analyze_references" or report["plan"]["patch_count"] == 0))
            failed += not ok
        result.ops(len(replies), failed, "tool calls")

    def parity(self, replies: list[tuple[float, str, bool]], result: Result) -> None:
        """repair_paper payloads equal the CLI report for the same folder;
        the CLI runs with --workers 1, the server with its default."""
        repairs = [(paper, payload) for (paper, name, _), (_, payload, _) in
                   zip(self.calls(), replies) if name == "repair_paper"]
        for paper, payload in repairs[:PARITY_FOLDERS]:
            call = Call(launch_args(["repair", "--path", str(paper.target), "--transport",
                                     "replay", "--fixtures-dir", str(self.fixtures),
                                     "--workers", "1"]), self.work)
            result.ops(1, int(call.stdout != (payload + "\n").encode("utf-8")),
                       "CLI/MCP parity comparisons")

    def entries_per_round(self) -> int:
        return 2 * sum(len(p.cited) for p in self.corpus.papers)

    def untraced(self, seconds: float, result: Result) -> None:
        client = McpClient(self.serve_args(), self.work)
        try:
            rounds, started, cpu0 = [], time.perf_counter(), client.cpu_s()
            while not rounds or time.perf_counter() - started < seconds:
                rounds.append(self.session_round(client))
            cpu = client.cpu_s() - cpu0
        except BaseException:
            client.kill()
            raise
        rc, rss = client.close()
        if rc != 0:
            result.fail(f"citecheck serve exited {rc}")
        stats = json.loads((self.work / "stats.json").read_text(encoding="utf-8"))
        first = rounds[0]
        self.judge(first, result)
        digest = [sha(payload) for _, payload, _ in first]
        for replies in rounds[1:]:
            result.ops(len(replies), sum(sha(p) != d or e for (_, p, e), d in
                                         zip(replies, digest)), "tool calls")
        self.parity(first, result)
        walls = [w for replies in rounds for w, _, _ in replies]
        out = sum(len(p.encode("utf-8")) for replies in rounds for _, p, _ in replies)
        entries = self.entries_per_round() * len(rounds)
        result.metrics = end_to_end(walls, entries, cpu, rss, out, len(rounds),
                                    stats["fixture_reads"])

    def traced(self, seconds: float, result: Result) -> None:
        import traced
        from citecheck.pipeline import RunOptions
        from citecheck.sources import make_transport

        client = McpClient(self.serve_args(), self.work)
        try:
            reference = self.session_round(client)
        finally:
            client.close()
        self.judge(reference, result)
        transport = traced.CountingTransport(make_transport("replay", self.fixtures))
        t, runs, rounds, started = traced.Timer(), [], 0, time.perf_counter()
        in_process: list[float] = []
        while not rounds or time.perf_counter() - started < seconds:
            for (_, name, args), (_, payload, _) in zip(self.calls(), reference):
                call_started = time.perf_counter()
                if name == "scan_workspace":
                    out = traced.staged_scan(args["path"], t)
                else:
                    options = RunOptions(path=args["path"], transport="replay",
                                         fixtures_dir=args["fixtures_dir"])
                    stage = "analyze" if name == "analyze_references" else "repair"
                    out, run = traced.staged_run(options, stage, transport, t)
                    if not rounds:
                        runs.append(run)
                elapsed = time.perf_counter() - call_started
                t.total["run"] += elapsed
                if not rounds:
                    in_process.append(elapsed)
                if out != payload:
                    result.fail(f"traced {name} payload differs from the server's")
            rounds += 1
        overhead = statistics.fmean(w - s for (w, _, _), s in zip(reference, in_process))
        result.metrics = layer_metrics(t, transport, runs, rounds, len(reference),
                                       self.entries_per_round() * rounds, 1000 * overhead)


CLASSES = {"bulk-repair": BulkRepair, "slow-sources": SlowSources,
           "mcp-session": McpSession}


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def run_one(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    work = BENCH / ".work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        log(f"{workload} seed={seed} trace={int(trace)} size={size}")
        result = CLASSES[workload](seed, size, work).run(seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    for note in result.notes:
        log(f"CHECK: {note}")
    return {"correct": result.correct, "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {k: {"value": result.metrics[k], "unit": u} for k, u in units.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "citecheck" / "__init__.py").is_file():
        print(f"bench: no citecheck sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in [k for k in os.environ if k.startswith("CITECHECK_")]:
        del os.environ[name]

    if args.workload != "all":
        out = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
        print(json.dumps(out))
        return 0
    # Every workload, untraced and traced; the last line sums them up.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (False, True):
            out = run_one(workload, args.seed, args.seconds, trace, args.size)
            print(json.dumps({"workload": workload, "trace": int(trace), **out}), flush=True)
            total["correct"] &= out["correct"]
            total["attempted"] += out["attempted"]
            total["failed"] += out["failed"]
            total["metrics"].update({f"{workload}/{k}": v for k, v in out["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
