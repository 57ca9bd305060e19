"""Acceptance suite: one test per headline criterion, exact values.

Each test prints a single pass/fail line (visible with -s or in failure
reports) after asserting every sub-check exactly.
"""

import time

import pytest

import property_suites
from reference import (
    EX53_TRACE_STATS,
    nearly_gorenstein_by_membership,
    nearly_gorenstein_expected,
)
from triplepoint.dualgraph import (
    cycle_length,
    cycle_mu,
    cycle_stats,
    enumerate_ulrich_chains,
    fundamental_cycle,
    graph_multiplicity,
    intersection_pairing,
    unique_ulrich_filter,
)
from triplepoint.errors import GraphInvariantError
from triplepoint.expectations import (
    PUBLISHED_TRACE_CYCLES,
    grid_tags,
    rdp_grid,
    residue_closed_form,
    ulrich_count_expected,
)
from triplepoint.graphcatalog import graph_catalog, quotient_sweep_tags
from triplepoint.presentations import (
    instantiate,
    residue,
    ring_multiplicity,
)
from triplepoint.ulrich import (
    classify_ulrich_set,
    next_candidate_rejected_by_trace,
    verify_rdp_list,
)

GRID_BOUND = 4


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}{': ' + detail if detail else ''}")
    assert ok, f"{name} failed: {detail}"


@pytest.fixture(scope="module")
def grid_results():
    """Classify the whole parameter grid once; reused by criteria 1-3, 7."""
    started = time.monotonic()
    out = {}
    for ftag in grid_tags(GRID_BOUND):
        pres = instantiate(ftag)
        res = residue(pres)
        certs = classify_ulrich_set(pres)
        _, rejected = next_candidate_rejected_by_trace(pres)
        out[str(ftag)] = {
            "tag": ftag,
            "pres": pres,
            "residue": res,
            "ng": nearly_gorenstein_by_membership(pres),
            "certs": certs,
            "rejected": rejected,
        }
    out["_elapsed"] = time.monotonic() - started
    return out


def test_criterion_1_residue_table(grid_results):
    elapsed = grid_results["_elapsed"]
    rows = [v for k, v in grid_results.items() if k != "_elapsed"]
    bad = [
        str(r["tag"])
        for r in rows
        if r["residue"] != residue_closed_form(r["tag"])
    ]
    ok = not bad and elapsed < 300
    _report(
        "criterion 1 (residue table, Cor 3.10)",
        ok,
        f"{len(rows)} rings, {elapsed:.1f}s, mismatches={bad}",
    )


def test_criterion_2_classification(grid_results):
    rows = [v for k, v in grid_results.items() if k != "_elapsed"]
    bad = []
    for r in rows:
        certs = r["certs"]
        if len(certs) != r["residue"]:
            bad.append((str(r["tag"]), "count"))
            continue
        for c in certs:
            full_evidence = (
                c.verdict == "ulrich"
                and c.stable
                and c.good
                and c.free_test
                and c.e0 == (c.mu - 1) * c.length
            )
            if not full_evidence:
                bad.append((str(r["tag"]), c.tag))
        if not r["rejected"]:
            bad.append((str(r["tag"]), "next-not-rejected"))
    _report(
        "criterion 2 (classification, Theorem 1.1)",
        not bad,
        f"{sum(len(r['certs']) for r in rows)} certificates, failures={bad}",
    )


def test_criterion_3_nearly_gorenstein_boundary(grid_results):
    rows = [v for k, v in grid_results.items() if k != "_elapsed"]
    bad = [
        str(r["tag"])
        for r in rows
        if r["ng"] != nearly_gorenstein_expected(r["tag"])
    ]
    boundary = [str(r["tag"]) for r in rows if r["ng"]]
    families = {t.split(":")[0] for t in boundary}
    ok = not bad and families == {"A", "B", "C", "D", "F"}
    ok = ok and all(
        t.split(":")[1].startswith("0") for t in boundary
    )
    _report(
        "criterion 3 (nearly-Gorenstein boundary)",
        ok,
        f"boundary tags={sorted(boundary)}, mismatches={bad}",
    )


def test_criterion_4_rdp_lists():
    bad = []
    for ftag in rdp_grid():
        pres = instantiate(ftag)
        certs, nxt = verify_rdp_list(pres)
        if len(certs) != ulrich_count_expected(ftag):
            bad.append((str(ftag), "count"))
        if not all(c.verdict == "ulrich" for c in certs):
            bad.append((str(ftag), "verdicts"))
        if ftag.name in ("RDP-A", "RDP-E6", "RDP-E7", "RDP-E8"):
            if nxt is None or nxt.verdict == "ulrich":
                bad.append((str(ftag), "next"))
    _report("criterion 4 (double-point Ulrich lists)", not bad, f"failures={bad}")


def test_criterion_5_graph_engine_vs_figures():
    checks = []
    g7 = graph_catalog("G7:3")
    checks.append(fundamental_cycle(g7) == (1,) * 7)
    g10 = graph_catalog("G10:2")
    checks.append(
        g10.cycle_to_json_dict(fundamental_cycle(g10))
        == {"E1": 1, "E2": 1, "E0": 2, "E3": 1, "F": 1}
    )
    Z = g10.cycle_from_json_dict(PUBLISHED_TRACE_CYCLES["EX-5.3"])
    checks.append(cycle_stats(g10, Z) == EX53_TRACE_STATS)
    ga = graph_catalog("A:1,2,3")
    enum = enumerate_ulrich_chains(ga)
    Z1 = ga.cycle_from_json_dict(PUBLISHED_TRACE_CYCLES["A:1,2,3"])
    checks.append(Z1 in enum.cycles and len(enum.chains) == 2)
    _report(
        "criterion 5 (graph engine vs printed figures)",
        all(checks),
        f"checks={checks}",
    )


def test_criterion_6_quotient_sweep():
    started = time.monotonic()
    mult_high = 0
    bad = []
    skipped_mult2 = []
    for tag in quotient_sweep_tags(4):
        try:
            g = graph_catalog(tag)
        except GraphInvariantError:
            continue
        mult = graph_multiplicity(g)
        filt = unique_ulrich_filter(g)
        enum = enumerate_ulrich_chains(g)
        count = len(enum.chains)
        if filt and count != 1:
            bad.append((tag, "filter-vs-enumeration"))
        if mult >= 4:
            mult_high += 1
            if count != 1:
                bad.append((tag, f"count={count}"))
        elif mult == 3:
            if count > 2:
                bad.append((tag, f"count={count}"))
        else:
            # multiplicity 2: the double-point lists exceed two cycles on
            # e.g. the D4 shape, so no bound is asserted (see ledger)
            skipped_mult2.append((tag, count))
    elapsed = time.monotonic() - started
    ok = not bad and mult_high >= 100 and elapsed < 120
    _report(
        "criterion 6 (quotient sweep, Theorem 4.1 / Cor 4.2)",
        ok,
        f"{mult_high} graphs with e0>=4, {len(skipped_mult2)} mult-2 reported "
        f"unbounded, {elapsed:.1f}s, failures={bad}",
    )


def test_criterion_7_cross_engine_consistency(grid_results):
    rows = [v for k, v in grid_results.items() if k != "_elapsed"]
    bad = []
    for r in rows:
        tag = r["tag"]
        pres = r["pres"]
        g = graph_catalog(tag)
        Z0 = fundamental_cycle(g)
        e0_graph = -intersection_pairing(g, Z0, Z0)
        mu_graph = cycle_mu(g, Z0)
        chain_count = len(enumerate_ulrich_chains(g).chains)
        e0_alg = ring_multiplicity(pres)
        mu_alg = pres.quotient.algebra(pres.quotient.maximal_ideal()).mu
        ulrich_count = sum(1 for c in r["certs"] if c.verdict == "ulrich")
        if (e0_alg, mu_alg, ulrich_count) != (e0_graph, mu_graph, chain_count):
            bad.append(
                (str(tag), (e0_alg, mu_alg, ulrich_count), (e0_graph, mu_graph, chain_count))
            )
        published = PUBLISHED_TRACE_CYCLES.get(str(tag))
        if published is not None:
            Z = g.cycle_from_json_dict(published)
            if cycle_length(g, Z) != r["residue"]:
                bad.append((str(tag), "trace-cycle-length"))
    _report(
        "criterion 7 (cross-engine consistency)",
        not bad,
        f"{len(rows)} tags compared, failures={bad}",
    )


def test_criterion_8_nonrational_control():
    pres = instantiate("EX-5.2")
    certs = classify_ulrich_set(pres)
    ok = len(certs) == 3 and all(
        c.verdict == "ulrich" and c.e0 == 3 * i
        for i, c in enumerate(certs, start=1)
    )
    _report(
        "criterion 8 (non-rational control, geometric genus 1)",
        ok,
        f"e0 values={[c.e0 for c in certs]}",
    )


def test_criterion_9_property_suites():
    started = time.monotonic()
    total = 0
    for suite in property_suites.ALL_SUITES:
        total += suite()
    elapsed = time.monotonic() - started
    ok = total >= 1000 and elapsed < 180
    _report(
        "criterion 9 (randomized property suites)",
        ok,
        f"{total} cases in {elapsed:.1f}s",
    )
