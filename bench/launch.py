"""Run citecheck's CLI in this process, optionally against the simulated sources.

    python3 bench/launch.py [--sim CATALOG] [--latency-ms P,C,A]
                            [--stats FILE] [--count-reads DIR] -- <citecheck args>

``--sim`` puts the simulated PubMed/Crossref/arXiv behind the live
transport (latencies in ms for pubmed, crossref, arxiv). ``--count-reads``
counts files opened under DIR, i.e. replayed fixture lookups, through an
audit hook that changes nothing the program does. ``--stats`` receives the
counts, and the seconds ``cli.run`` took, as JSON when citecheck returns.
Everything else is citecheck's own front end: ``cli.run`` with the
arguments after ``--``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--sim")
    parser.add_argument("--latency-ms", default="0,0,0")
    parser.add_argument("--stats")
    parser.add_argument("--count-reads")
    opts = parser.parse_args(argv[:split])

    sim = None
    if opts.sim:
        from simsource import SOURCES, SimulatedSources, install

        latency = dict(zip(SOURCES, (float(x) / 1000 for x in opts.latency_ms.split(","))))
        sim = SimulatedSources.load(opts.sim, latency)
        install(sim)

    reads = [0]
    if opts.count_reads:
        prefix = os.path.join(os.path.abspath(opts.count_reads), "")

        def hook(event: str, args: tuple) -> None:
            if event == "open" and isinstance(args[0], (str, os.PathLike)):
                if os.fspath(args[0]).startswith(prefix):
                    reads[0] += 1

        sys.addaudithook(hook)

    from citecheck import cli

    started = time.perf_counter()
    code = cli.run(argv[split + 1:])
    sys.stdout.flush()
    run_s = time.perf_counter() - started
    if opts.stats:
        stats = sim.stats() if sim is not None else {"requests": {}, "wait_s": 0.0}
        stats["fixture_reads"] = reads[0]
        stats["run_s"] = run_s
        with open(opts.stats, "w", encoding="utf-8") as fh:
            json.dump(stats, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
