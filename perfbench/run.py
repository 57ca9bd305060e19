#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the triplepoint CLI.

    python3 perfbench/run.py --workload crosscheck --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
Workloads are defined in ``workloads.py`` and described in ``README.md``.

``--trace 0`` times the workload untraced: set-up probes first, then a
closed loop that issues requests back to back for ``--seconds`` seconds,
one fresh interpreter per pass over the workload's pool.  Every timing is
scaled to a reference host speed with the kernel of ``calibrate.py``,
timed next to each request and each set-up probe; the report keeps the
raw figures.  ``--trace 1`` runs a fixed request list in chunks, each chunk
three times in fresh interpreters: once untraced, then twice traced.  It
reports the per-layer metrics of the first traced runs, checks that both
traced runs count the same work, and takes the tracing overhead as traced
minus untraced wall time.

Every command's stdout is checked against the digest in ``reference.json``
captured at the seed commit; a command fails when it exits nonzero,
reports a status other than ``pass`` or prints other bytes.  The last line
of stdout is one JSON object: correct, attempted, failed and metrics.  The
line before it is a report with the run's metadata and the figures that
are not metrics (fail ratio, tail percentile and sample count, drawn tags).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import Counter

from calibrate import REFERENCE_S, kernel_seconds
from tracer import LAYERS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 20
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
SPEED_WINDOW = 2  # kernel times on each side of a sample that set its speed
WORKER_GRACE_S = 150  # a worker past its deadline by this much is stuck


class BenchError(Exception):
    pass


# -- workers -------------------------------------------------------------


def run_worker(requests=None, seconds=None, trace=False, calibrate=False):
    """Run one fresh worker: (seconds until it was ready, its result).

    Without requests the worker only starts and stops, which makes it a
    set-up probe: the seconds from spawning an interpreter to
    ``triplepoint.cli`` imported and ready.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=""),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        ready = proc.stdout.readline().strip() == "ready"
        ready_s = time.perf_counter() - t0
        job = ""
        if ready and requests is not None:
            job = json.dumps({
                "requests": requests, "seconds": seconds, "trace": trace, "calibrate": calibrate,
            })
        out, err = proc.communicate(job + "\n", timeout=(seconds or 0) + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not ready or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    return ready_s, json.loads(out) if job else None


# -- checks ----------------------------------------------------------------


def check_commands(results, reference):
    """(attempted, failed, first failure) over every command of ``results``."""
    attempted = failed = 0
    first = None
    for res in results:
        for req in res["requests"]:
            for cmd in req["commands"]:
                attempted += 1
                key = " ".join(cmd["argv"])
                if cmd["code"] != 0 or cmd["status"] != "pass" or cmd["digest"] != reference.get(key):
                    failed += 1
                    if first is None:
                        first = {"command": key, **cmd}
    return attempted, failed, first


# -- metrics -------------------------------------------------------------


def tail_rank(n, pct):
    """1-based rank of the ``pct`` percentile of n samples (nearest rank), or
    None while fewer than TAIL_BEYOND samples lie beyond it."""
    rank = max(1, math.ceil(pct / 100.0 * n))
    return rank if n - rank >= TAIL_BEYOND else None


def tail(samples, pct):
    """The ``pct`` percentile of ``samples``."""
    rank = tail_rank(len(samples), pct)
    if rank is None:
        raise BenchError(
            f"{len(samples)} latency samples: too few for p{pct} with {TAIL_BEYOND} beyond it"
        )
    return sorted(samples)[rank - 1]


def scaled(walls, cals):
    """Each wall time at the reference host speed.

    A wall time is multiplied by ``REFERENCE_S`` over the median kernel time
    of the SPEED_WINDOW samples on each side of it, itself included: the
    host's speed drifts over tens of seconds, and the median drops a kernel
    time that one interruption spoiled.
    """
    out = []
    for i, wall in enumerate(walls):
        near = cals[max(0, i - SPEED_WINDOW) : i + SPEED_WINDOW + 1]
        out.append(wall * REFERENCE_S / statistics.median(near))
    return out


def setup_probes(n):
    """n set-up probes, each with the kernel time just before it."""
    probes = []
    for _ in range(n):
        cal = kernel_seconds()
        probes.append((run_worker()[0], cal))
    return probes


def end_to_end(results, setup_phases, tail_pct):
    """End-to-end metrics at the reference speed, and the raw figures."""
    reqs = [r for res in results for r in res["requests"]]
    walls = [r["wall"] for r in reqs]
    cals = [r["cal"] for r in reqs]
    items = sum(
        c["items"] for r in reqs for c in r["commands"] if c["code"] == 0 and c["status"] == "pass"
    )
    norm = scaled(walls, cals)
    setups = [s for phase in setup_phases for s in scaled(*zip(*phase))]
    raw_setups = [s for phase in setup_phases for s, _ in phase]
    metrics = {
        "cmd_p50_s": (statistics.median(norm), "s"),
        "cmd_tail_s": (tail(norm, tail_pct), "s"),
        "items_per_s": (items / sum(norm), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(res["peak_rss_kb"] for res in results) / 1024.0, "MiB"),
    }
    extra = {
        "samples": len(walls),
        "tail_percentile": tail_pct,
        "items": items,
        "loop_s": sum(res["loop_s"] for res in results),
        "host_speed": REFERENCE_S / statistics.median(cals),
        "raw": {
            "cmd_p50_s": statistics.median(walls),
            "cmd_tail_s": tail(walls, tail_pct),
            "items_per_s": items / sum(walls),
            "setup_s": statistics.median(raw_setups),
        },
    }
    return metrics, extra


def _layer_self(spans, layer):
    prefix = layer + "."
    return sum(s for name, (_, s) in spans.items() if name.startswith(prefix))


def per_layer(traced, untraced_wall):
    """Per-layer metrics from one traced worker's summary."""
    t = traced["trace"]
    spans, counts = t["spans"], t["counts"]

    def calls(name):
        return spans[name][0]

    def self_s(name):
        return spans[name][1]

    gb_calls = calls("ideals._groebner_terms")
    candidates = counts.get("candidates", 0)
    wall = traced["loop_s"]
    layers = LAYERS + ("cli",)
    layer_s = {layer: _layer_self(spans, layer) for layer in layers}
    m = {
        "kernel.reduce_calls": (calls("kernel.reduce_terms"), "count"),
        "kernel.reduce_s": (self_s("kernel.reduce_terms"), "s"),
        "kernel.mul_calls": (calls("kernel.mul_terms"), "count"),
        "kernel.mul_s": (self_s("kernel.mul_terms"), "s"),
        "polyring.key_calls": (counts.get("key_calls", 0), "count"),
        "ideals.gb_calls": (gb_calls, "count"),
        "ideals.gb_distinct": (counts.get("gb_distinct", 0), "count"),
        "ideals.gb_distinct_ratio": (counts.get("gb_distinct", 0) / gb_calls if gb_calls else 0.0, "ratio"),
        "ideals.gb_input_terms": (counts.get("gb_input_terms", 0), "count"),
        "ideals.gb_s": (self_s("ideals._groebner_terms"), "s"),
        "ideals.colength_calls": (calls("ideals.PresentedQuotient.colength"), "count"),
        "ideals.truncation_gb_calls": (counts.get("truncation_gb_calls", 0), "count"),
        "ideals.colength_errors": (counts.get("colength_errors", 0), "count"),
        "ideals.colength_s": (self_s("ideals.PresentedQuotient.colength"), "s"),
        "ideals.colon_calls": (calls("ideals.IdealHandle.colon"), "count"),
        "ideals.colon_s": (self_s("ideals.IdealHandle.colon"), "s"),
        "presentations.instantiate_s": (self_s("presentations.instantiate"), "s"),
        "presentations.trace_calls": (calls("presentations.trace_ideal"), "count"),
        "presentations.multiplicity_s": (self_s("presentations.ring_multiplicity"), "s"),
        "ulrich.check_calls": (calls("ulrich.ulrich_check"), "count"),
        "ulrich.check_s": (self_s("ulrich.ulrich_check"), "s"),
        "ulrich.search_calls": (calls("ulrich.find_reduction"), "count"),
        "ulrich.candidates": (candidates, "count"),
        "ulrich.search_hit_ratio": (
            counts.get("search_hits", 0) / candidates if candidates else 0.0, "ratio"),
        "ulrich.search_s": (self_s("ulrich.find_reduction"), "s"),
        "ulrich.good_s": (self_s("ulrich.good_check"), "s"),
        "dualgraph.enumerate_calls": (calls("dualgraph.enumerate_ulrich_chains"), "count"),
        "dualgraph.chains": (counts.get("chains", 0), "count"),
        "dualgraph.enumerate_s": (self_s("dualgraph.enumerate_ulrich_chains"), "s"),
        "graphcatalog.build_calls": (calls("graphcatalog.graph_catalog"), "count"),
        "graphcatalog.rejected": (counts.get("rejected", 0), "count"),
        "graphcatalog.build_s": (self_s("graphcatalog.graph_catalog"), "s"),
        "cli.stdout_bytes": (
            sum(c["bytes"] for r in traced["requests"] for c in r["commands"]), "bytes"),
    }
    for layer in layers:
        m[f"{layer}.self_s"] = (layer_s[layer], "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.unattributed_s"] = (wall - t["roots_s"], "s")
    m["trace.overhead_s"] = (wall - untraced_wall, "s")
    return m


def merge(results):
    """One result from the workers of one phase: requests, loop time and
    trace summed."""
    merged = {
        "requests": [r for res in results for r in res["requests"]],
        "loop_s": sum(res["loop_s"] for res in results),
        "trace": None,
    }
    if results[0]["trace"] is not None:
        spans, counts = {}, Counter()
        for res in results:
            for name, (calls, self_s) in res["trace"]["spans"].items():
                acc = spans.setdefault(name, [0, 0.0])
                acc[0] += calls
                acc[1] += self_s
            counts.update(res["trace"]["counts"])
        merged["trace"] = {
            "spans": spans,
            "counts": dict(counts),
            "roots_s": sum(res["trace"]["roots_s"] for res in results),
        }
    return merged


def work_counts(summary):
    """Everything a traced pass counts; times excluded."""
    calls = {name: c for name, (c, _) in summary["spans"].items()}
    return {"calls": calls, "counts": summary["counts"]}


def accounting(summary, wall):
    """Problems with the trace's account of the traced wall time."""
    problems = []
    if summary["open_spans"]:
        problems.append(f"{summary['open_spans']} spans left open")
    negative = [n for n, (_, s) in summary["spans"].items() if s < -1e-9]
    if negative:
        problems.append(f"negative self time: {negative}")
    if wall - summary["roots_s"] < -1e-6:
        problems.append("spans exceed the traced wall time")
    return problems


# -- metadata -------------------------------------------------------------


def source_digest():
    """sha256 over the package sources, so runs of other code never compare silently."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "triplepoint")
    if not os.path.isdir(pkg):
        raise BenchError(f"no package sources at {pkg}")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


# -- main -----------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["digests"][wl.name]
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": nproc(),
    }
    problems = []
    if args.trace == 0:
        # Half the set-up probes before the timed loop and half after, so one
        # slow moment of a shared machine does not decide the median.  The
        # first interpreter of a checkout also compiles the sources; it is
        # not a probe.
        run_worker()
        before = setup_probes(SETUP_PROBES // 2)
        rng = random.Random(args.seed)
        results, drawn = [], []
        deadline = time.perf_counter() + args.seconds
        samples = 0
        # Keep going past the deadline only until the tail percentile is defined.
        while (remaining := deadline - time.perf_counter()) > 0 or not tail_rank(samples, wl.tail_pct):
            requests = wl.pass_requests(rng)
            res = run_worker(requests, max(remaining, 0.0), calibrate=True)[1]
            samples += len(res["requests"])
            results.append(res)
            drawn.append([" ".join(r["commands"][0]["argv"]) for r in res["requests"]])
        after = setup_probes(SETUP_PROBES - len(before))
        metrics, extra = end_to_end(results, [before, after], wl.tail_pct)
        report.update(extra)
        report["drawn"] = drawn if wl.pool else len(drawn)
    else:
        # Each chunk of requests runs untraced, then traced twice, each time
        # in a fresh interpreter.
        runs = [[], [], []]
        for requests in wl.traced_chunks(args.seed):
            for phase, trace in zip(runs, (False, True, True)):
                phase.append(run_worker(requests, None, trace)[1])
        results = [res for phase in runs for res in phase]
        for res in runs[1] + runs[2]:
            problems += accounting(res["trace"], res["loop_s"])
        base, traced, again = (merge(phase) for phase in runs)
        if work_counts(traced["trace"]) != work_counts(again["trace"]):
            problems.append("two traced runs of the same requests counted different work")
        metrics = per_layer(traced, base["loop_s"])
        report["drawn"] = [" ".join(r["commands"][0]["argv"]) for r in base["requests"]]
        report["unattributed_share"] = metrics["trace.unattributed_s"][0] / metrics["trace.wall_s"][0]
        report["overhead_share"] = metrics["trace.overhead_s"][0] / base["loop_s"]

    attempted, failed, first = check_commands(results, reference)
    report["kernel_backend"] = results[0]["kernel_backend"]
    report["fail_ratio"] = failed / attempted
    if first is not None:
        report["first_failure"] = first
    if problems:
        report["problems"] = problems
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
