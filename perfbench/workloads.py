"""Benchmark workloads: the CLI requests each one issues, in seeded order.

A request is a tuple of CLI commands (each an argv tuple) whose wall time is
one latency sample.  ``crosscheck`` and ``search`` issue one command per
request, drawn from a catalog pool without replacement; ``sweep`` issues the
two fixed grid commands as one request, so the seed does not change it.

One pass is every request of a pool once, in the order ``seeded_order``
gives; one pass runs in one fresh interpreter, so no command repeats inside
an interpreter.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
_GOLDEN = (math.sqrt(5) - 1) / 2
TRACE_CHUNK = 10  # requests per interpreter in a traced run


def catalog_tags():
    """Triple-point catalog tags: A/B/C/D/F/H with parameters <= 8 and
    Gamma1-3 (289 tags).  EX-5.3 is left out: classify refuses its CM type 3
    by design (exit 3)."""
    top = 8
    tags = []
    for l in range(top + 1):
        for m in range(l, top + 1):
            for n in range(m, top + 1):
                tags.append(f"A:{l},{m},{n}")
    tags += [f"B:{m},{n}" for m in range(top + 1) for n in range(3, top + 1)]
    tags += [f"C:{m},{n}" for m in range(top + 1) for n in range(4, top + 1)]
    tags += [f"D:{n}" for n in range(top + 1)]
    tags += [f"F:{n}" for n in range(top + 1)]
    tags += [f"H:{n}" for n in range(5, top + 1)]
    tags += ["Gamma1", "Gamma2", "Gamma3"]
    return tags


def rdp_tags():
    """Double points for ``classify``: RDP-A:n and RDP-D:n up to n = 16, E6-E8."""
    tags = [f"RDP-A:{n}" for n in range(1, 17)]
    tags += [f"RDP-D:{n}" for n in range(4, 17)]
    tags += ["RDP-E6", "RDP-E7", "RDP-E8"]
    return tags


def _load_costs():
    """Each pool tag's request time at the reference commit, by workload."""
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh).get("cost_s", {})


COSTS = _load_costs()


def seeded_order(tags, rng, cost):
    """A permutation of ``tags`` in which every prefix spreads evenly over
    the tags' costs.

    Tags are sorted by ``cost`` (their request time at the reference commit),
    then visited along a golden-ratio walk from a random start.  A run that
    is cut by its time limit then measures a sample with the pool's mix of
    cheap and costly requests.  Coarser strata (family and size) are not
    enough: the search pool's times have a gap at their median, so a small
    shift in the mix moves the sample's median by up to 15%.
    """
    ordered = sorted(tags, key=lambda t: (cost[t], t))
    start = rng.random()
    phase = [(start + k * _GOLDEN) % 1.0 for k in range(len(ordered))]
    by_phase = sorted(range(len(ordered)), key=phase.__getitem__)
    rank = [0] * len(ordered)
    for r, k in enumerate(by_phase):
        rank[k] = r
    return [ordered[rank[k]] for k in range(len(ordered))]


@dataclass(frozen=True)
class Workload:
    name: str
    pool: tuple  # tags; empty for the fixed sweep
    command: tuple  # argv template, "{tag}" replaced by the tag
    fixed: tuple = ()  # requests of a fixed workload
    trace_requests: int = 1  # requests in a traced run
    # Percentile that cmd_tail_s reports, fixed so that it does not move with
    # the number of requests a run gets through; a run keeps going until 10
    # samples lie beyond it (100 samples for p90, 50 for p80).  A run of a
    # pool workload draws 70-100% of the pool, and above p90 the sample's
    # percentile then depends on which of the few costliest tags it drew.
    tail_pct: float = 90.0

    def requests(self, tags):
        """One request per tag; the fixed request of a fixed workload."""
        if self.fixed:
            return [self.fixed]
        return [(tuple(a.replace("{tag}", t) for a in self.command),) for t in tags]

    def pass_requests(self, rng):
        """One pass: every request of the workload once, in seeded order."""
        if self.fixed:
            return self.requests(())
        return self.requests(seeded_order(self.pool, rng, COSTS[self.name]))

    def traced_chunks(self, seed):
        """The fixed requests of a traced run, the first ``trace_requests`` of
        the seed's sequence of passes, cut into one list per interpreter.

        Chunks are short so that the traced run can alternate untraced and
        traced interpreters often: on a shared machine whose speed drifts,
        their difference is then the tracing overhead and not the drift.
        """
        rng = random.Random(seed)
        chunks, left = [], self.trace_requests
        while left > 0:
            requests = self.pass_requests(rng)[:left]
            left -= len(requests)
            chunks += [requests[i : i + TRACE_CHUNK] for i in range(0, len(requests), TRACE_CHUNK)]
        return chunks


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "crosscheck",
            tuple(catalog_tags()) + ("EX-5.3",),
            ("cross-check", "--tag", "{tag}", "--json"),
            trace_requests=40,
        ),
        Workload(
            "search",
            tuple(catalog_tags()) + tuple(rdp_tags()),
            ("classify", "--tag", "{tag}", "--seed-reductions", "off", "--json"),
            trace_requests=40,
        ),
        Workload(
            "sweep",
            (),
            (),
            fixed=(
                ("residue-table", "--max-param", "6", "--json"),
                ("quotient-sweep", "--max-param", "5", "--json"),
            ),
            trace_requests=5,
            tail_pct=80.0,  # a run gets through 60-80 grid passes
        ),
    )
}
