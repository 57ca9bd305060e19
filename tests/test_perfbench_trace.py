"""Smoke test of the benchmark's traced path.

``perfbench/run.py --trace 1`` runs requests in a traced worker
(``perfbench/worker.py``) and reads its per-layer metrics off the tracer's
summary.  The tracer wraps and probes functions by name and calls some of
them with their arguments as it found them (``ideals._groebner_terms``
takes ``assume_prefix`` by position), so a changed signature fails only a
traced run; the name guard checks only that the names resolve.  Here one
small traced worker runs a request of each kind the workloads make, plus
the socle experiment, whose colon and localization the workloads reach
least.  The files under perfbench/ are only read.
"""

import importlib
import json
import os

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)

REQUESTS = [
    [["classify", "--tag", "A:1,2,3", "--seed-reductions", "off", "--json"]],
    [["cross-check", "--tag", "H:8", "--json"]],
    [["residue-table", "--max-param", "1", "--json"],
     ["quotient-sweep", "--max-param", "2", "--json"]],
    [["socle-experiment", "--max-param", "1", "--json"]],
]


def test_traced_worker_reports_every_per_layer_metric(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    run = importlib.import_module("run")
    _, traced = run.run_worker(REQUESTS, trace=True)
    commands = [c for r in traced["requests"] for c in r["commands"]]
    assert [c["code"] for c in commands] == [0] * 5, commands
    with open(os.path.join(os.path.dirname(PERFBENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    metrics = run.per_layer(traced, traced["loop_s"])
    assert names <= set(metrics), names - set(metrics)
    assert metrics["ideals.colon_calls"][0] > 0
