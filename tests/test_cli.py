"""CLI surface: commands, exit codes, deterministic JSON."""

import json
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from triplepoint import dualgraph as dg
from triplepoint.cli import main
from triplepoint.errors import GraphInvariantError
from triplepoint.expectations import grid_tags, rdp_grid
from triplepoint.graphcatalog import graph_catalog, quotient_sweep_tags


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def test_classify_a123_text():
    res = invoke("classify", "--tag", "A:1,2,3")
    assert res.exit_code == 0
    assert "residue        : 2 (expected 2)" in res.output
    assert res.output.count("verdict=ulrich") == 2
    assert "rejected by trace containment: True" in res.output


def test_classify_json_deterministic():
    a = invoke("classify", "--tag", "B:1,3", "--json")
    b = invoke("classify", "--tag", "B:1,3", "--json")
    assert a.exit_code == 0 and a.output == b.output
    data = json.loads(a.output)
    assert data["status"] == "pass"
    assert len(data["ulrich"]) == 2


def test_classify_ex52_notes_nonrational():
    res = invoke("classify", "--tag", "EX-5.2", "--json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert len(data["ulrich"]) == 3
    assert "non-rational" in data["note"]


def test_classify_rdp_delegates_to_list():
    res = invoke("classify", "--tag", "RDP-E8", "--json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert len(data["ulrich"]) == 2
    assert data["next"]["verdict"] != "ulrich"


def test_classify_ex53_is_input_error():
    res = invoke("classify", "--tag", "EX-5.3")
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "input error: classify needs CM type 1 or 2, and EX-5.3 has type 3" in res.stderr


def test_classify_bad_tag_exit_2():
    assert invoke("classify", "--tag", "Q:9").exit_code == 2
    assert invoke("classify", "--tag", "A:3,2,1").exit_code == 2


def test_exponent_above_the_cap_exit_2():
    # t^20001 in the matrix, t^16384 in a minor
    for tag in ("A:0,0,20000", "A:0,0,16382"):
        res = invoke("classify", "--tag", tag)
        assert res.exit_code == 2, (tag, res.output)
        assert "exceeds the cap" in res.output or "above the cap" in res.output


def test_residue_table():
    res = invoke("residue-table", "--max-param", "2", "--json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["status"] == "pass"
    tags = {r["tag"] for r in data["rows"]}
    assert {"A:0,0,0", "D:2", "Gamma1"} <= tags


def test_residue_table_bound():
    assert invoke("residue-table", "--max-param", "9").exit_code == 2


def test_grid_bound_above_the_range_exit_2():
    # each upper bound is the option's range, so all three refuse alike
    for command, bound, text in (
        ("residue-table", "7", "0<=x<=6"),
        ("socle-experiment", "7", "0<=x<=6"),
        ("quotient-sweep", "6", "2<=x<=5"),
    ):
        res = invoke(command, "--max-param", bound, "--json")
        assert res.exit_code == 2, (command, res.output)
        assert f"Invalid value for '--max-param': {bound} is not in the range {text}." in res.output
        assert "rows" not in res.output


def test_negative_grid_bound_exit_2():
    for command in ("residue-table", "socle-experiment"):
        res = invoke(command, "--max-param", "-1", "--json")
        assert res.exit_code == 2, (command, res.output)
        assert "rows" not in res.output
    # 0 is a grid of its own: A:0,0,0, D:0, F:0 and the Gamma rows
    res = invoke("residue-table", "--max-param", "0", "--json")
    assert res.exit_code == 0
    assert "A:0,0,0" in [r["tag"] for r in json.loads(res.output)["rows"]]


def test_quotient_sweep_bound_below_two_exit_2():
    # every weight b is at least 2, so a smaller bound would be a pass over no rows
    for bound in ("-1", "0", "1"):
        res = invoke("quotient-sweep", "--max-param", bound, "--json")
        assert res.exit_code == 2, (bound, res.output)
        assert "rows" not in res.output
    res = invoke("quotient-sweep", "--max-param", "2", "--json")
    assert res.exit_code == 0
    assert json.loads(res.output)["rows"]


def test_quotient_sweep_small():
    res = invoke("quotient-sweep", "--max-param", "3", "--json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["status"] == "pass"
    by_tag = {r["tag"]: r for r in data["rows"]}
    assert by_tag["G10:2"]["multiplicity"] == 4
    assert by_tag["G10:2"]["chainCount"] == 1
    assert by_tag["G10:2"]["status"] == "pass"
    assert by_tag["cyclic:2,3,2"]["filter"] is True
    assert by_tag["G11:2"]["chainCount"] == 2  # multiplicity 3, two cycles
    assert by_tag["G11:2"]["status"] == "pass"


def test_cross_check_examples():
    for tag in ("A:1,2,3", "H:5", "Gamma1"):
        res = invoke("cross-check", "--tag", tag, "--json")
        assert res.exit_code == 0, res.output
        data = json.loads(res.output)
        assert data["status"] == "pass"
    data = json.loads(invoke("cross-check", "--tag", "A:1,2,3", "--json").output)
    assert data["graph"]["traceCycleLength"] == data["algebra"]["res"] == 2


def test_cross_check_counts_every_chain():
    # 18 Ulrich ideals: the graph side counts chains of depth 17 too
    res = invoke("cross-check", "--tag", "A:17,17,17", "--json")
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["algebra"]["ulrichCount"] == data["graph"]["chainCount"] == 18
    assert data["status"] == "pass"


def test_cross_check_ex53():
    res = invoke("cross-check", "--tag", "EX-5.3", "--json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["algebra"]["e0"] == 4 and data["graph"]["e0"] == 4
    assert data["algebra"]["mu"] == 5 and data["graph"]["mu"] == 5


def test_graph_z0_matches_figure():
    res = invoke("graph", "z0", "--tag", "G10:2")
    assert res.exit_code == 0
    assert json.loads(res.output) == {"E1": 1, "E2": 1, "E0": 2, "E3": 1, "F": 1}


def test_graph_stats_cycle():
    res = invoke(
        "graph",
        "stats",
        "--tag",
        "G10:2",
        "--cycle",
        '{"E1":1,"E2":2,"E0":2,"E3":1,"F":1}',
    )
    assert res.exit_code == 0
    assert json.loads(res.output) == {"len": 2, "e0": 7, "mu": 5}


def test_graph_filter_single_vertex(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"vertices":[{"id":"E0","weight":-3}],"edges":[]}')
    res = invoke("graph", "filter", "--file", str(path))
    assert res.exit_code == 0
    assert json.loads(res.output) is True


def test_graph_chains_output():
    res = invoke("graph", "chains", "--tag", "A:1,2,3")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["count"] == 2
    assert "truncated" not in data


def test_graph_pa_defaults_to_fundamental_cycle():
    res = invoke("graph", "pa", "--tag", "Gamma2")
    assert res.exit_code == 0
    assert json.loads(res.output) == {"pa": 0}
    res = invoke(
        "graph", "pa", "--tag", "RDP-A:2", "--cycle", '{"E1":1,"E2":0}'
    )
    assert json.loads(res.output) == {"pa": 0}


def test_graph_cycle_not_an_object_exit_2():
    res = invoke("graph", "pa", "--tag", "G10:2", "--cycle", "[1,2]")
    assert res.exit_code == 2
    assert "input error" in res.output
    assert "Traceback" not in res.output


def test_graph_cycle_negative_or_zero_exit_2():
    for cycle in ('{"E0":-1}', '{"E0":0}', "{}", '{"E0":1.5}', '{"E0":true}'):
        for sub in ("stats", "pa"):
            res = invoke("graph", sub, "--tag", "G10:2", "--cycle", cycle)
            assert res.exit_code == 2, (sub, cycle, res.output)


def test_graph_cycle_with_unknown_vertex_exit_2():
    # an id that is no vertex is refused, not dropped from the cycle
    for sub, cycle, unknown in (
        ("pa", '{"E0":1,"E9":4}', "'E9'"),
        ("stats", '{"E1":1,"E2":2,"E0":2,"E3":1,"F":1,"X":7}', "'X'"),
    ):
        res = invoke("graph", sub, "--tag", "G10:2", "--cycle", cycle)
        assert res.exit_code == 2, (sub, res.output)
        assert res.stdout == ""
        assert f"input error: cycle names unknown vertex {unknown}" in res.stderr


def test_graph_stats_cycle_not_antinef_exit_2():
    # E0 alone pairs positively with its neighbours: bad input, not an
    # engine invariant violation
    res = invoke("graph", "stats", "--tag", "G10:2", "--cycle", '{"E0":1}')
    assert res.exit_code == 2, res.output
    assert "input error" in res.output and "anti-nef" in res.output


def test_graph_parse_error_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert invoke("graph", "z0", "--file", str(path)).exit_code == 2


@pytest.mark.parametrize(
    "case",
    ["directory", "not utf-8", "nested graph", "nested cycle", "huge weight", "huge cycle pa",
     "huge cycle stats", "huge result pa", "huge result stats", "huge G index"],
)
def test_graph_unreadable_input_exit_2(tmp_path, case):
    # input the graph reader cannot read is bad input: no traceback, and no
    # engine invariant violation; json reads and writes no integer of more
    # than 4,300 digits, and says so by a plain ValueError, so a cycle of
    # 2,500 digits whose genus or statistics have about 5,000 is bad input
    # too, and so is a G-family index that int would refuse
    path = tmp_path / "graph.json"
    args = ["graph", "z0", "--file", str(path)]
    huge = "9" * 5_000
    large = int("9" * 2_500)
    if case == "directory":
        args[-1] = str(tmp_path)
    elif case == "not utf-8":
        path.write_bytes(b'\xff\xfe{"vertices": []}')
    elif case == "nested graph":
        path.write_text("[" * 200_000)
    elif case == "huge weight":
        path.write_text('{"vertices": [{"id": "E0", "weight": -%s}], "edges": []}' % huge)
    elif case == "nested cycle":
        args = ["graph", "stats", "--tag", "G10:2", "--cycle", "[" * 5_000]
    elif case == "huge result pa":
        args = ["graph", "pa", "--tag", "G10:2", "--cycle", '{"E0": %d}' % large]
    elif case == "huge result stats":
        g = graph_catalog("G10:2")
        Z = g.cycle_to_json_dict([large * c for c in dg.fundamental_cycle(g)])
        args = ["graph", "stats", "--tag", "G10:2", "--cycle", json.dumps(Z)]
    elif case == "huge G index":
        args = ["graph", "z0", "--tag", f"G{huge}:2"]
    else:
        sub = case.split()[-1]
        args = ["graph", sub, "--tag", "G10:2", "--cycle", '{"E0": %s}' % huge]
    res = invoke(*args)
    assert res.exit_code == 2, res.output
    assert res.stdout == "" and "Traceback" not in res.output


# minimally elliptic: a -2 center with three arms (-2, -3), p_a(Z_0) = 1
_ELLIPTIC_STAR = {
    "vertices": [{"id": "E0", "weight": -2}]
    + [{"id": f"{arm}{k}", "weight": -1 - k} for arm in "ABC" for k in (1, 2)],
    "edges": [["E0", f"{arm}1"] for arm in "ABC"] + [[f"{arm}1", f"{arm}2"] for arm in "ABC"],
}


def test_non_rational_graph_file_is_bad_input(tmp_path):
    # the rationality check runs after the graph is read, in the engine; for
    # a --file graph its failure is bad input, and z0 and pa need no check
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(_ELLIPTIC_STAR))
    z0 = invoke("graph", "z0", "--file", str(path))
    assert z0.exit_code == 0 and json.loads(z0.stdout)["E0"] == 3
    assert json.loads(invoke("graph", "pa", "--file", str(path)).stdout) == {"pa": 1}
    for sub in ("filter", "chains", "stats"):
        res = invoke("graph", sub, "--file", str(path), "--cycle", z0.stdout)
        assert res.exit_code == 2, (sub, res.output)
        assert res.stdout == "" and "not rational" in res.stderr


_IDS = st.sampled_from(["E0", "E1", "E2", "E3", "F"])  # the ids of G10:2
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3) | _IDS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6,
)
_VERTEX = st.fixed_dictionaries({"id": _IDS, "weight": st.integers(-5, 1)}) | _JSON
_GRAPH = st.fixed_dictionaries({
    "vertices": st.lists(_VERTEX, max_size=5),
    "edges": st.lists(st.lists(_IDS, min_size=2, max_size=2) | _JSON, max_size=5),
}) | _JSON
_CYCLE = st.dictionaries(_IDS, st.integers(0, 4), max_size=5) | _JSON


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    sub=st.sampled_from(["z0", "pa", "filter", "chains", "stats"]),
    graph=st.none() | _GRAPH.map(json.dumps) | st.text(max_size=12),
    cycle=st.none() | _CYCLE.map(json.dumps) | st.text(max_size=12),
)
def test_graph_input_fuzz_keeps_the_exit_code_contract(sub, graph, cycle):
    # a graph file (or the catalog graph G10:2 when there is none) and an
    # optional cycle, well-formed parts mixed with arbitrary JSON and text:
    # every run exits 0-3 with no escaping exception, a graph file is never
    # an engine fault (exit 3), and bad input (exit 2) prints nothing on
    # stdout
    with tempfile.TemporaryDirectory() as tmp:
        args = ["graph", sub]
        if graph is None:
            args += ["--tag", "G10:2"]
        else:
            path = Path(tmp) / "graph.json"
            path.write_text(graph, encoding="utf-8")
            args += ["--file", str(path)]
        if cycle is not None:
            args += ["--cycle", cycle]
        res = invoke(*args)
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code in (0, 1, 2, 3), res.output
    assert graph is None or res.exit_code != 3, res.output
    assert "Traceback" not in res.output
    if res.exit_code == 2:
        assert res.stdout == ""


def _chain_graphs():
    tags = [str(t) for t in grid_tags(6) + rdp_grid()] + ["EX-5.3", "RDP-A:50"]
    for tag in tags + quotient_sweep_tags(4):
        try:
            yield tag, graph_catalog(tag)
        except GraphInvariantError:
            continue  # not a resolution graph at these weights


def test_graph_chains_streams_the_whole_object():
    # the cycles are written one at a time, as the bytes of the object
    for tag, g in _chain_graphs():
        enum = dg.enumerate_ulrich_chains(g)
        whole = {
            "fundamental": g.cycle_to_json_dict(enum.fundamental),
            "cycles": [g.cycle_to_json_dict(c) for c in enum.cycles],
            "count": len(enum.chains),
            "antinefPruned": enum.antinef_pruned,
        }
        res = invoke("graph", "chains", "--tag", tag)
        assert res.exit_code == 0, (tag, res.output)
        assert res.stdout == json.dumps(whole, separators=(", ", ": ")) + "\n", tag


def test_graph_without_vertices_exit_2(tmp_path):
    # a graph with no vertices has no component, so it is no resolution
    # graph: every subcommand rejects it as input
    path = tmp_path / "empty.json"
    path.write_text('{"vertices":[],"edges":[]}')
    for sub in ("z0", "pa", "filter", "chains", "stats"):
        extra = ("--cycle", '{"E0":1}') if sub == "stats" else ()
        res = invoke("graph", sub, "--file", str(path), *extra)
        assert res.exit_code == 2, (sub, res.output)
        assert "no vertices" in res.output


def test_graph_file_that_is_no_resolution_graph_exit_2(tmp_path):
    # a --file graph is the user's input: one that breaks a condition of a
    # resolution graph is bad input, not an engine invariant violation
    def vertices(*ids, weight=-2):
        return [{"id": v, "weight": weight} for v in ids]

    cases = {
        "vertex with self-intersection > -2": (vertices("a", weight=-1), []),
        "duplicate vertex ids": (vertices("a", "a"), []),
        "graph is not connected": (vertices("a", "b"), []),
        "multi-edge": (vertices("a", "b"), [["a", "b"], ["b", "a"]]),
        "intersection matrix is not negative definite": (
            vertices("c", "a", "b", "d", "e"), [["c", v] for v in "abde"]
        ),
    }
    path = tmp_path / "bad.json"
    for message, (verts, edges) in cases.items():
        path.write_text(json.dumps({"vertices": verts, "edges": edges}))
        res = invoke("graph", "z0", "--file", str(path))
        assert res.exit_code == 2, (message, res.output)
        assert res.stdout == "" and res.stderr == f"input error: {message}\n"


def test_graph_file_wrong_json_types_exit_2(tmp_path):
    # ids and endpoints must be strings, weights JSON integers: a list id or
    # endpoint is no traceback, and a float, string or bool weight is not
    # truncated or cast; an edge is a list of two endpoints, so neither the
    # string "ab", the object {"a": 1, "b": 2} nor an edges object keyed "ab"
    # is read as the edge a-b
    good = {"id": "E", "weight": -2}
    ab = [{"id": "a", "weight": -2}, {"id": "b", "weight": -2}]
    cases = [
        {"vertices": [{"id": [1], "weight": -2}], "edges": []},
        {"vertices": [good], "edges": [[["E"], "E"]]},
        {"vertices": [{"id": "E", "weight": -2.5}], "edges": []},
        {"vertices": [{"id": "E", "weight": "-3"}], "edges": []},
        {"vertices": [{"id": "E", "weight": True}], "edges": []},
        {"vertices": ab, "edges": ["ab"]},
        {"vertices": ab, "edges": [{"a": 1, "b": 2}]},
        {"vertices": ab, "edges": {"ab": 0}},
    ]
    path = tmp_path / "graph.json"
    for data in cases:
        path.write_text(json.dumps(data))
        for sub in ("z0", "chains"):
            res = invoke("graph", sub, "--file", str(path))
            assert res.exit_code == 2, (sub, data, res.output)
            assert res.stdout == "" and "input error" in res.stderr, (sub, data)
    path.write_text(json.dumps({"vertices": ab, "edges": [["a", "b"]]}))
    assert invoke("graph", "z0", "--file", str(path)).exit_code == 0


def test_rdp_verify_single():
    res = invoke("rdp-verify", "--tag", "RDP-E7", "--json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    row = data["rows"][0]
    assert row["count"] == 3 and row["status"] == "pass"
    assert row["next"] != "ulrich"


def test_socle_experiment_single():
    res = invoke("socle-experiment", "--tag", "A:1,2,3", "--json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["rows"][0]["gorensteinQuotient"] is True


def test_byte_identical_json_across_runs():
    outs = {invoke("graph", "chains", "--tag", "H:8").output for _ in range(3)}
    assert len(outs) == 1


def test_socle_experiment_refuses_a_tag_without_trace_exit_2():
    # the experiment needs CM type 2; the grid skips other rings, but a
    # single tag it cannot answer is bad input, not an empty run
    for argv in (("--tag", "RDP-E7"), ("--tag", "EX-5.3", "--json")):
        res = invoke("socle-experiment", *argv)
        assert res.exit_code == 2, (argv, res.output)
        assert res.stdout == ""
        assert "input error: socle-experiment needs CM type 2" in res.stderr


def test_tag_parameters_other_than_ascii_digits_exit_2():
    for tag in ("A:1,2,1_0", "A:+1,2,3", "A:-0,1,2", "D: 3", "A:\u0661,2,3"):
        res = invoke("classify", "--tag", tag)
        assert res.exit_code == 2, (tag, res.output)
        assert res.stdout == "" and "bad parameters in tag" in res.stderr


def test_rdp_verify_refuses_a_ring_that_is_no_double_point_exit_2():
    res = invoke("rdp-verify", "--tag", "A:1,2,3")
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert "input error: A:1,2,3 is not a rational double point" in res.stderr


def test_graph_family_index_other_than_ascii_digits_exit_2():
    # the G index is read like a tag parameter: ASCII digits only, so an
    # Arabic-Indic one is no catalog entry rather than G1
    assert invoke("graph", "z0", "--tag", "G1:3").exit_code == 0
    for tag in ("G١:3", "G¹:3"):
        res = invoke("graph", "z0", "--tag", tag)
        assert res.exit_code == 2, (tag, res.output)
        assert res.stdout == "" and "input error: no graph catalog entry" in res.stderr


def test_bad_ring_tag_same_error_for_every_command():
    # a ring family's parameters are checked once, when the tag is read, so
    # the algebra commands and the graph command refuse them alike
    for tag in ("A:2,1,1", "B:1,2", "C:0,3", "H:4", "RDP-A:0", "RDP-D:3", "Gamma1:1",
                "EX-5.3:1"):
        lines = set()
        for argv in (("classify", "--tag", tag), ("cross-check", "--tag", tag),
                     ("graph", "z0", "--tag", tag)):
            res = invoke(*argv)
            assert res.exit_code == 2, (argv, res.output)
            assert res.stdout == "" and res.stderr.startswith("input error: "), argv
            lines.add(res.stderr)
        assert len(lines) == 1, (tag, lines)
