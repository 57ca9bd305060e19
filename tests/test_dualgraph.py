"""Graph engine: intersection theory, fundamental cycles, chains."""

import hashlib
import inspect
import itertools
import json
import random
import sys
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner

from reference import (
    edge_indices,
    edge_ids,
    graph_json,
    induced_components,
    recursive_chains,
    rescanning_laufer,
    same_graph,
)
from triplepoint import dualgraph
from triplepoint.cli import main
from triplepoint.dualgraph import (
    DualGraph,
    arithmetic_genus,
    canonical_numbers,
    canonical_pairing,
    cycle_length,
    cycle_mu,
    cycle_stats,
    enumerate_ulrich_chains,
    fundamental_cycle,
    graph_multiplicity,
    intersection_pairing,
    is_antinef,
    unique_ulrich_filter,
)
from triplepoint.errors import GraphInvariantError, ParameterError, ParseError
from triplepoint.expectations import grid_tags, residue_closed_form, ulrich_count_expected
from triplepoint.graphcatalog import _RING_GRAPHS, graph_catalog, quotient_sweep_tags
from triplepoint.presentations import _RDP_FAMILIES, _RTP_FAMILIES, FamilyTag


def single_vertex(w=-3):
    return DualGraph(["E1"], [w], [])


def test_pairing_single_vertex():
    g = single_vertex(-3)
    assert intersection_pairing(g, (1,), (1,)) == -3


def test_pairing_edge():
    g = DualGraph(["a", "b"], [-2, -2], [("a", "b")])
    assert intersection_pairing(g, (1, 0), (0, 1)) == 1


def test_pairing_ex53_cycle():
    g = graph_catalog("G10:2")
    Z = g.cycle_from_json_dict({"E1": 1, "E2": 2, "E0": 2, "E3": 1, "F": 1})
    assert intersection_pairing(g, Z, Z) == -7


def test_fundamental_cycle_examples():
    assert fundamental_cycle(single_vertex()) == (1,)
    g7 = graph_catalog("G7:3")
    assert fundamental_cycle(g7) == (1,) * 7
    g10 = graph_catalog("G10:2")
    assert g10.cycle_to_json_dict(fundamental_cycle(g10)) == {
        "E1": 1,
        "E2": 1,
        "E0": 2,
        "E3": 1,
        "F": 1,
    }


def test_fundamental_cycle_is_antinef():
    for tag in ("A:1,2,3", "H:8", "G13:4", "T22:3,2,4", "cyclic:2,3,2"):
        g = graph_catalog(tag)
        assert is_antinef(g, fundamental_cycle(g))


def test_antinef_rejects_single_component():
    g = DualGraph(["a", "b"], [-2, -2], [("a", "b")])
    assert not is_antinef(g, (1, 0))


def test_canonical_numbers():
    g = graph_catalog("G10:2")
    assert canonical_numbers(g) == (0, 1, 0, 0, 1)
    Z = g.cycle_from_json_dict({"E1": 1, "E2": 2, "E0": 2, "E3": 1, "F": 1})
    assert canonical_pairing(g, Z) == 3


def test_arithmetic_genus():
    g = DualGraph(["a", "b"], [-2, -2], [("a", "b")])
    assert arithmetic_genus(g, (1, 0)) == 0
    assert arithmetic_genus(g, (1, 1)) == 0
    for tag in ("A:2,3,4", "Gamma2", "RDP-D:6", "G9:3"):
        gg = graph_catalog(tag)
        assert arithmetic_genus(gg, fundamental_cycle(gg)) == 0


def test_rationality_check_catalogs():
    for tag in ("B:2,5", "F:3", "cyclic:4,2", "G14:2", "RDP-E7"):
        g = graph_catalog(tag)
        assert arithmetic_genus(g, fundamental_cycle(g)) == 0


def test_multiplicity_and_stats():
    g10 = graph_catalog("G10:2")
    assert graph_multiplicity(g10) == 4
    Z = g10.cycle_from_json_dict({"E1": 1, "E2": 2, "E0": 2, "E3": 1, "F": 1})
    assert cycle_stats(g10, Z) == {"len": 2, "e0": 7, "mu": 5}
    assert cycle_mu(g10, fundamental_cycle(g10)) == 5
    for tag in ("A:0,2,4", "H:9", "Gamma3"):
        g = graph_catalog(tag)
        assert graph_multiplicity(g) == 3
        assert cycle_mu(g, fundamental_cycle(g)) == 4


def test_unique_ulrich_filter():
    assert unique_ulrich_filter(graph_catalog("G10:2"))
    assert unique_ulrich_filter(graph_catalog("cyclic:2,3,2"))
    assert not unique_ulrich_filter(graph_catalog("G7:3"))
    assert unique_ulrich_filter(single_vertex(-3))


def test_chains_gamma7_recovers_printed_cycle():
    g = graph_catalog("G7:3")
    enum = enumerate_ulrich_chains(g)
    assert len(enum.chains) == 2
    assert enum.cycles[1] == (1, 2, 2, 2, 1, 2, 1)  # figure order with E4 = tip


def test_chains_a222_three_cycles():
    g = graph_catalog("A:2,2,2")
    assert len(enumerate_ulrich_chains(g).chains) == 3


def test_chains_run_to_the_end_of_long_chains():
    # every step lowers sum(Y), so the enumeration ends without a depth cap;
    # RDP-A:n has (n + 1) // 2 Ulrich ideals, one chain of each depth
    enum = enumerate_ulrich_chains(graph_catalog("RDP-A:60"))
    assert len(enum.chains) == 30
    assert [len(c.steps) for c in enum.chains] == list(range(30))


def test_chains_g10_unique():
    enum = enumerate_ulrich_chains(graph_catalog("G10:2"))
    assert len(enum.chains) == 1


def test_chains_strictly_increasing_and_distinct():
    for tag in ("A:3,3,3", "H:11", "F:4"):
        g = graph_catalog(tag)
        enum = enumerate_ulrich_chains(g)
        seen = set()
        for chain in enum.chains:
            prev = enum.fundamental
            for (Y, Z) in chain.steps:
                assert all(a < b or y == 0 for a, b, y in zip(prev, Z, Y))
                assert all(b >= a for a, b in zip(prev, Z))
                assert any(b > a for a, b in zip(prev, Z))
                prev = Z
            seen.add(chain.result(enum.fundamental))
        assert len(seen) == len(enum.chains)


def test_chain_counts_match_residues_on_grid():
    # the first theorem on the graph side: each triple point has exactly
    # c = residue_closed_form chains, one cycle of each colength k = 1..c,
    # each with mu = 4 and e0 = -Z^2 = 3k; A, B, C, D, F to 20, H:5..61
    # and Gamma1-3 are 2,608 graphs
    tags = grid_tags(20)
    assert len(tags) == 2608
    for ftag in tags:
        g = graph_catalog(ftag)
        enum = enumerate_ulrich_chains(g)
        got = sorted(
            (cycle_length(g, Z), cycle_mu(g, Z), -intersection_pairing(g, Z, Z))
            for Z in enum.cycles
        )
        expected = [(k, 4, 3 * k) for k in range(1, residue_closed_form(ftag) + 1)]
        assert got == expected and not enum.antinef_pruned, str(ftag)


def test_double_point_chain_counts_match_the_published_lists():
    tags = [FamilyTag("RDP-A", (n,)) for n in range(1, 101)]
    tags += [FamilyTag("RDP-D", (n,)) for n in range(4, 101)]
    tags += [FamilyTag(name, ()) for name in ("RDP-E6", "RDP-E7", "RDP-E8")]
    for tag in tags:
        count = len(enumerate_ulrich_chains(graph_catalog(tag)).chains)
        assert count == ulrich_count_expected(tag), str(tag)


def test_filter_implies_unique_over_sweep():
    # the walk tests K . Y = K . Z_0 and never reads the filter, so this
    # checks the lemma that a filtered graph has only Z_0, as does the
    # quotient-sweep invariant; and multiplicity >= 4 leaves Z_0 alone
    def runs(top, ns):
        weights = range(2, top + 1)
        return [",".join(map(str, c)) for n in ns for c in itertools.product(weights, repeat=n)]

    tags = [f"G{i}:{b}" for i in range(1, 16) for b in range(2, 40)]
    tags += [f"T22:{b},{run}" for b in range(2, 5) for run in runs(4, range(1, 6))]
    tags += [f"cyclic:{run}" for run in runs(5, range(1, 7))]
    assert len(tags) == 7119
    filtered = heavy = 0
    for tag in tags:
        try:
            g = graph_catalog(tag)
        except GraphInvariantError:
            continue
        count = len(enumerate_ulrich_chains(g).chains)
        if unique_ulrich_filter(g):
            filtered += 1
            assert count == 1, tag
        if graph_multiplicity(g) >= 4:
            heavy += 1
            assert count == 1, tag
    assert filtered > 7000 and heavy > 7000, (filtered, heavy)


def test_rdp_dynkin_chain_counts_match_published_lists():
    # the double-point shapes inside the quotient catalog reproduce the
    # published Ulrich counts even at multiplicity two
    cases = [
        ("cyclic:2,2,2,2,2", FamilyTag("RDP-A", (5,))),
        ("T22:2,2", FamilyTag("RDP-D", (4,))),
        ("T22:2,2,2,2", FamilyTag("RDP-D", (6,))),
        ("G3:2", FamilyTag("RDP-E6", ())),
        ("G7:2", FamilyTag("RDP-E7", ())),
        ("G15:2", FamilyTag("RDP-E8", ())),
    ]
    for tag, rdp in cases:
        g = graph_catalog(tag)
        assert len(enumerate_ulrich_chains(g).chains) == ulrich_count_expected(rdp), tag


def test_laufer_independent_of_vertex_order():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 7)
        ids = [f"E{k}" for k in range(n)]
        edges = [(ids[rng.randrange(k)], ids[k]) for k in range(1, n)]
        weights = [rng.choice([-2, -2, -3, -4]) for _ in range(n)]
        g = DualGraph(ids, weights, edges)
        Z = fundamental_cycle(g)
        perm = list(range(n))
        rng.shuffle(perm)
        g2 = DualGraph(
            [ids[p] for p in perm],
            [weights[p] for p in perm],
            edges,
        )
        Z2 = fundamental_cycle(g2)
        assert all(Z[p] == Z2[k] for k, p in enumerate(perm))


def test_fundamental_cycle_minimality_brute_force():
    # on small graphs, every anti-nef cycle dominates Z0 componentwise
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 6)
        ids = [f"E{k}" for k in range(n)]
        edges = [(ids[rng.randrange(k)], ids[k]) for k in range(1, n)]
        weights = [rng.choice([-2, -3, -4]) for _ in range(n)]
        g = DualGraph(ids, weights, edges)
        Z0 = fundamental_cycle(g)
        bound = [min(2 * c, 4) for c in Z0]
        for cand in itertools.product(*(range(b + 1) for b in bound)):
            if not any(cand):
                continue
            if is_antinef(g, cand):
                assert all(c >= z for c, z in zip(cand, Z0))
        # removing any vertex of Z0 above the reduced cycle breaks anti-nefness
        for k in range(n):
            if Z0[k] > 1:
                smaller = tuple(c - 1 if j == k else c for j, c in enumerate(Z0))
                assert not is_antinef(g, smaller)


def test_graph_json_round_trip():
    g = graph_catalog("G12:3")
    text = graph_json(g)
    assert same_graph(DualGraph.from_json(text), g)
    assert graph_json(DualGraph.from_json(text)) == text
    data = json.loads(text)
    assert data["vertices"][0] == {"id": "E1", "weight": -3}


def test_graph_invariants_rejected():
    with pytest.raises(GraphInvariantError):
        DualGraph(["a"], [-1], [])  # a (-1)-curve
    with pytest.raises(GraphInvariantError):
        DualGraph(["a", "b"], [-2, -2], [])  # disconnected
    with pytest.raises(GraphInvariantError):
        DualGraph(["a", "b"], [-2, -2], [("a", "b"), ("b", "a")])  # multi-edge
    with pytest.raises(GraphInvariantError):
        # chain of three (-2) with a cycle is not negative definite
        DualGraph(
            ["a", "b", "c"], [-2, -2, -2], [("a", "b"), ("b", "c"), ("c", "a")]
        )


def test_ex53_alias():
    assert same_graph(graph_catalog("EX-5.3"), graph_catalog("G10:2"))


def _pinned_graph_tags():
    tags = quotient_sweep_tags(5) + [str(t) for t in grid_tags(6)]
    tags += [f"RDP-A:{n}" for n in range(1, 30)] + [f"RDP-D:{n}" for n in range(4, 30)]
    tags += ["RDP-E6", "RDP-E7", "RDP-E8", "EX-5.3"]
    tags += [f"A:{l},{m},{n}" for n in (7, 8) for m in range(n + 1) for l in range(m + 1)]
    tags += [f"G{i}:{b}" for i in range(1, 16) for b in (6, 9)]
    tags += ["T22:2,2,2,2,2", "T22:3,5,4,3,2", "T22:6,2,3,2,3,2", "T22:2,7"]
    return tags


def test_catalog_graphs_are_pinned():
    # each catalog graph's vertex ids and weights, in order, and its edge set
    # are what the commands' cycles and verdicts are keyed by
    rows = []
    for tag in _pinned_graph_tags():
        g = graph_catalog(tag)
        rows.append([tag, list(g.ids), list(g.weights), sorted(sorted(e) for e in edge_ids(g))])
    assert len(rows) == 1075
    digest = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
    assert digest == "af137b4cb40ef88d82e26294bd64dbaeb953b396bbbeaa4226e74933466fcbc9"


def test_every_ring_family_but_ex52_has_a_graph():
    # EX-5.2 is the one ring without a catalog graph
    rings = _RTP_FAMILIES + _RDP_FAMILIES + ("EX-5.3",)
    assert sorted(_RING_GRAPHS) == sorted(rings)
    with pytest.raises(ParameterError, match="no graph catalog entry"):
        graph_catalog("EX-5.2")


def _fraction_lu_negative_definite(M):
    """Reference: exact LU over Fractions, negative definite iff every
    pivot is negative."""
    M = [[Fraction(x) for x in row] for row in M]
    n = len(M)
    for k in range(n):
        piv = M[k][k]
        if piv >= 0:
            return False
        pivot_row = [(c, M[k][c]) for c in range(k + 1, n) if M[k][c]]
        for r in range(k + 1, n):
            if M[r][k]:
                f = M[r][k] / piv
                for c, x in pivot_row:
                    M[r][c] -= f * x
    return True


def _intersection_matrix(weights, index_edges):
    n = len(weights)
    M = [[0] * n for _ in range(n)]
    for i, w in enumerate(weights):
        M[i][i] = w
    for i, j in index_edges:
        M[i][j] = M[j][i] = 1
    return M


def _graph_or_none(ids, weights, edges):
    try:
        return DualGraph(ids, weights, edges)
    except GraphInvariantError:
        return None


def _check_against_fraction_lu(rng, n, extra_edges, weights):
    """Build a random connected graph on n vertices: a spanning tree plus
    extra_edges(n) random edges, weights from weights(n).  Assert the
    constructor's verdict is Fraction LU's; return (shape, verdict)."""
    ids = [f"E{k}" for k in range(n)]
    index_edges = {(rng.randrange(k), k) for k in range(1, n)}  # spanning tree
    for _ in range(extra_edges(n)):
        i, j = sorted(rng.sample(range(n), 2))
        index_edges.add((i, j))
    shape = "cycles" if len(index_edges) >= n else "tree"
    index_edges = sorted(index_edges)
    w = weights(n)
    expected = _fraction_lu_negative_definite(_intersection_matrix(w, index_edges))
    g = _graph_or_none(ids, w, [(ids[i], ids[j]) for i, j in index_edges])
    assert (g is not None) == expected, (w, index_edges)
    if g is not None:
        assert g.is_negative_definite()
    return shape, expected


def test_integer_sylvester_matches_fraction_lu_on_random_graphs():
    # the least-degree elimination against Fraction LU, both verdicts for
    # trees (leaf steps only) and for graphs with cycles (fill-in)
    rng = random.Random(11)
    # small dense graphs: up to n - 1 extra edges on n <= 9 vertices, so
    # fill-in entries are themselves filled and updated
    seen = []
    for trial in range(200):
        seen.append(_check_against_fraction_lu(
            rng,
            rng.randint(1, 9),
            lambda n: rng.randint(1, n - 1) if trial % 2 and n >= 3 else 0,
            lambda n: [rng.choice([-2, -2, -3, -4]) for _ in range(n)],
        ))
    shapes, verdicts = zip(*seen)
    assert min(verdicts.count(True), verdicts.count(False), shapes.count("cycles")) >= 30
    # larger sparse graphs: n <= 40, at most 4 extra edges, and a share of
    # heavier weights drawn per graph so that both verdicts stay common
    verdicts = {(shape, v): 0 for shape in ("tree", "cycles") for v in (True, False)}
    for trial in range(400):
        heavy = rng.choice([0.1, 0.4, 0.8])
        shape_verdict = _check_against_fraction_lu(
            rng,
            rng.randint(1, 40),
            lambda n: rng.randint(1, min(n - 1, 4)) if trial % 2 and n >= 3 else 0,
            lambda n: [rng.choice([-3, -4, -5]) if rng.random() < heavy else -2 for _ in range(n)],
        )
        verdicts[shape_verdict] += 1
    assert min(verdicts.values()) >= 40, verdicts


def _minus_two_star(arms):
    """All (-2) star: center 'c', arms of the given lengths."""
    ids, edges = ["c"], []
    for a, length in enumerate(arms):
        prev = "c"
        for k in range(length):
            v = f"a{a}_{k}"
            ids.append(v)
            edges.append((prev, v))
            prev = v
    return ids, [-2] * len(ids), edges


@pytest.mark.parametrize(
    "arms",
    [(1, 1, 1, 1), (2, 2, 2), (1, 3, 3), (1, 2, 5)],
    ids=["D4~", "E6~", "E7~", "E8~"],
)
def test_affine_dynkin_stars_are_semidefinite(arms):
    ids, weights, edges = _minus_two_star(arms)
    index = {v: k for k, v in enumerate(ids)}
    M = _intersection_matrix(weights, [(index[a], index[b]) for a, b in edges])
    # every proper leading minor is a definite Dynkin minor; the last is 0
    assert _fraction_lu_negative_definite([row[:-1] for row in M[:-1]])
    assert not _fraction_lu_negative_definite(M)
    with pytest.raises(GraphInvariantError, match="not negative definite"):
        DualGraph(ids, weights, edges)
    # the same graph with the center last
    with pytest.raises(GraphInvariantError, match="not negative definite"):
        DualGraph(ids[1:] + ids[:1], weights, edges)


def test_indefinite_star_rejected():
    # five (-2) leaves on a (-2) center: Z = 2 E_c + sum E_i has Z.Z = 2
    ids, weights, edges = _minus_two_star((1, 1, 1, 1, 1))
    with pytest.raises(GraphInvariantError, match="not negative definite"):
        DualGraph(ids, weights, edges)
    # one heavier vertex makes it definite
    assert DualGraph(ids, [-3] + weights[1:], edges).is_negative_definite()


def test_laufer_runs_once_per_graph_in_quotient_sweep(monkeypatch):
    full_runs = []
    built = []
    laufer = dualgraph._laufer
    catalog = graph_catalog

    def counting_laufer(g, Z, P, inside):
        if all(inside):
            full_runs.append(g.ids)
        return laufer(g, Z, P, inside)

    def counting_catalog(tag):
        g = catalog(tag)
        built.append(tag)
        return g

    monkeypatch.setattr(dualgraph, "_laufer", counting_laufer)
    monkeypatch.setattr("triplepoint.cli.graph_catalog", counting_catalog)
    result = CliRunner().invoke(main, ["quotient-sweep", "--max-param", "3", "--json"])
    assert result.exit_code == 0, result.output
    rows = json.loads(result.output)["rows"]
    assert len(built) == len(rows) > 0
    assert len(full_runs) == len(built)
    # the graph functions read the stored Z_0, P_0 and rationality flag
    g = graph_catalog("G7:3")
    full_runs.clear()
    Z0 = fundamental_cycle(g)
    assert arithmetic_genus(g, Z0) == 0 and graph_multiplicity(g) == 3
    unique_ulrich_filter(g)
    enumerate_ulrich_chains(g)
    cycle_stats(g, Z0)
    assert full_runs == [] and fundamental_cycle(g) is Z0


def test_induced_bound_is_the_subgraph_fundamental_cycle(monkeypatch):
    # one worklist run on an orthogonal locus gives the fundamental cycle of
    # each of its components
    induced = []
    laufer = dualgraph._laufer

    def recording_laufer(g, Z, P, inside):
        laufer(g, Z, P, inside)
        if not all(inside):
            induced.append((g, [v for v, f in enumerate(inside) if f], list(Z)))

    graphs = [graph_catalog(t) for t in grid_tags(4)]
    for tag in quotient_sweep_tags(5):
        try:
            graphs.append(graph_catalog(tag))
        except GraphInvariantError:
            pass
    monkeypatch.setattr(dualgraph, "_laufer", recording_laufer)
    for g in graphs:
        enumerate_ulrich_chains(g)
    monkeypatch.undo()
    comps = [(g, comp, Z) for g, locus, Z in induced for comp in induced_components(g, locus)]
    assert len(induced) >= 50 and len(comps) > len(induced)
    for g, comp, Z in comps:
        inside = set(comp)
        sub = DualGraph(
            [g.ids[v] for v in comp],
            [g.weights[v] for v in comp],
            [(g.ids[i], g.ids[j]) for i, j in edge_indices(g)
             if i in inside and j in inside],
        )
        assert tuple(Z[v] for v in comp) == fundamental_cycle(sub), (g.ids, comp)


def _sweep_and_catalog_graphs():
    """The graphs of the quotient sweep at b <= 5 and of the 290 catalog
    tags that cross-check takes (A-F and Gamma up to 8, H:5-8, EX-5.3)."""
    sweep = []
    for tag in quotient_sweep_tags(5):
        try:
            sweep.append(graph_catalog(tag))
        except GraphInvariantError:
            pass
    catalog = [t for t in map(str, grid_tags(8)) if not t.startswith("H:")]
    catalog += [f"H:{n}" for n in range(5, 9)] + ["EX-5.3"]
    assert len(quotient_sweep_tags(5)) == 736 and len(catalog) == 290
    return sweep + [graph_catalog(t) for t in catalog]


def test_z0_and_its_invariants_match_the_reference_formulas():
    # also Y.Y + K.Y, from which _genus halves p_a, is even on random
    # positive cycles Y: sum w_i*Y_i*(Y_i - 1) + 2*sum_edges Y_i*Y_j - 2*sum Y_i
    graphs = _sweep_and_catalog_graphs()
    rng = random.Random(50)
    filters = set()
    for g in graphs:
        for _ in range(3):
            Y = [rng.randint(0, 4) for _ in range(g.n)]
            Y[rng.randrange(g.n)] += 1
            s = intersection_pairing(g, Y, Y) + canonical_pairing(g, Y)
            assert s % 2 == 0 and arithmetic_genus(g, Y) == s // 2 + 1, (g.ids, Y)
        Z0 = fundamental_cycle(g)
        assert Z0 == rescanning_laufer(g, range(g.n)), g.ids
        assert g._p0 == tuple(g.pairing_with_vertex(Z0, i) for i in range(g.n))
        assert arithmetic_genus(g, Z0) == 0 and g._rational
        assert graph_multiplicity(g) == -intersection_pairing(g, Z0, Z0)
        assert cycle_mu(g, Z0) == 1 - intersection_pairing(g, Z0, Z0)
        filt = any(
            g.weights[i] <= -3 and g.pairing_with_vertex(Z0, i) < 0 for i in range(g.n)
        )
        assert unique_ulrich_filter(g) == filt
        filters.add(filt)
    assert filters == {True, False}


def _random_rational_trees(seed, count):
    """``count`` seeded random rational trees with 2-10 vertices and weights
    -2 to -4; a drawn tree that is not negative definite or not rational is
    drawn again."""
    rng = random.Random(seed)
    trees = []
    while len(trees) < count:
        n = rng.randint(2, 10)
        ids = [f"E{k}" for k in range(n)]
        edges = [(ids[rng.randrange(k)], ids[k]) for k in range(1, n)]
        try:
            g = DualGraph(ids, [rng.choice([-2, -3, -4]) for _ in range(n)], edges)
        except GraphInvariantError:
            continue
        if g._rational:
            trees.append(g)
    return trees


def test_chains_match_the_recursive_walk():
    # one candidate per component, F_C, level by level with no cycle dedupe
    # and no final sort, against the recursive walk over each whole box with
    # its p_a test, its dedupe and its sort: the same chains in the same
    # order, and the same anti-nef pruning flag
    large = [graph_catalog(t) for t in ("RDP-A:300", "RDP-D:150", "H:150", "A:15,15,15")]
    depths = set()
    for g in _sweep_and_catalog_graphs() + large + _random_rational_trees(21, 3000):
        enum = enumerate_ulrich_chains(g)
        assert enum == recursive_chains(g), g.ids
        depths.update(len(c.steps) for c in enum.chains)
    assert depths == set(range(150))


def test_chain_walk_needs_no_recursion():
    # RDP-A:600 has a chain of 299 steps; the recursive walk needs a frame
    # per step, the level-by-level walk none
    g = graph_catalog("RDP-A:600")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        enum = enumerate_ulrich_chains(g)
        with pytest.raises(RecursionError):
            recursive_chains(g)
    finally:
        sys.setrecursionlimit(limit)
    assert len(enum.chains) == 300
    assert [len(c.steps) for c in enum.chains] == list(range(300))


@pytest.mark.parametrize(
    "tag", ["RDP-A:400", "RDP-A:2000", "cyclic:" + ",".join(["2"] * 300), "RDP-D:2000"]
)
def test_large_trees_build_in_linear_time(tag):
    # each elimination step is a leaf, each Laufer step a worklist entry;
    # the cubic Bareiss test took 2.3 s on RDP-A:400
    best = min(_build_time(tag) for _ in range(3))
    assert best < 0.1, best


def _build_time(tag):
    start = time.perf_counter()
    graph_catalog(tag)
    return time.perf_counter() - start


def test_large_cycles_parse_in_linear_time():
    # membership in a tuple of ids made the parse quadratic: 0.17 s for a
    # cycle over all 4,000 vertices of RDP-A:4000, against 7 ms for its stats
    g = graph_catalog("RDP-A:4000")
    data = {v: 1 for v in g.ids}
    assert g.cycle_from_json_dict(data) == (1,) * 4000
    best = min(_parse_time(g, data) for _ in range(3))
    assert best < 0.03, best
    with pytest.raises(ParseError, match="unknown vertex 'nope'"):
        g.cycle_from_json_dict({**data, "nope": 1, "also": 1})


def _parse_time(g, data):
    start = time.perf_counter()
    g.cycle_from_json_dict(data)
    return time.perf_counter() - start
