#!/usr/bin/env python3
"""Capture the reference stdout digests that ``run.py`` checks against.

    python3 perfbench/make_reference.py

Runs every request of every workload once, each workload in a fresh
interpreter, and writes ``reference.json``: the sha256 of each command's
stdout, keyed by workload and command line, and each pool tag's request
time at the reference host speed, which ``workloads.seeded_order`` sorts
by.  It refuses to write when any command exits nonzero or reports a status
other than ``pass``.  Run it only at a commit whose CLI output is the
accepted reference, and only after changing the workloads' pools.
"""

import json
import os
import sys

import run
from workloads import WORKLOADS


def main():
    digests, costs, failures = {}, {}, []
    for name, wl in sorted(WORKLOADS.items()):
        _, result = run.run_worker(wl.requests(wl.pool), calibrate=True)
        digests[name] = {}
        for req in result["requests"]:
            for cmd in req["commands"]:
                key = " ".join(cmd["argv"])
                if cmd["code"] != 0 or cmd["status"] != "pass":
                    failures.append((key, cmd))
                digests[name][key] = cmd["digest"]
        if wl.pool:
            reqs = result["requests"]
            walls = run.scaled([r["wall"] for r in reqs], [r["cal"] for r in reqs])
            costs[name] = {tag: float(f"{w:.4g}") for tag, w in zip(wl.pool, walls)}
        print(f"{name}: {len(digests[name])} commands", file=sys.stderr)
    if failures:
        for key, cmd in failures:
            print(f"FAIL {key}: {cmd}", file=sys.stderr)
        return 1
    out = {
        "commit": run.commit(),
        "source_sha256": run.source_digest(),
        "digests": {k: dict(sorted(v.items())) for k, v in digests.items()},
        "cost_s": costs,
    }
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
