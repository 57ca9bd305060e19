"""Command-line surface: reports, sweeps, and cross-engine checks.

Exit codes: 0 all pass, 1 expectation mismatch, 2 input error, 3 engine
invariant violation (any other package error).  All JSON output has a fixed field order, so equal
inputs produce byte-identical output.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from . import dualgraph as dg
from . import expectations as exp
from .errors import (
    EngineInvariantError,
    ExponentRangeError,
    GraphInvariantError,
    ParameterError,
    ParseError,
    TriplepointError,
)
from .graphcatalog import graph_catalog, quotient_sweep_tags
from .presentations import (
    instantiate,
    parse_tag,
    residue,
    ring_multiplicity,
    trace_ideal,
)
from .ulrich import (
    classify_ulrich_set,
    gorenstein_quotient_experiment,
    next_candidate_rejected_by_trace,
    verify_rdp_list,
)

_INPUT_ERRORS = (ParseError, ParameterError, ExponentRangeError, click.UsageError)


def _dumps(data):
    return json.dumps(data, separators=(", ", ": "))


def _emit(data, as_json, text_renderer):
    if as_json:
        click.echo(_dumps(data))
    else:
        text_renderer(data)


def _emit_rows(rows, as_json, columns):
    """Report a grid and return its exit code.  The grid fails when a row's
    status is neither pass nor skip.  In text, a header of column titles,
    each row as its ``(title, key, format spec)`` cells and its status, and
    the overall status."""
    failed = any(r["status"] not in ("pass", "skip") for r in rows)
    status = "fail" if failed else "pass"
    if as_json:
        click.echo(_dumps({"rows": rows, "status": status}))
    else:
        click.echo(" ".join(format(title, spec) for title, _, spec in columns) + "  status")
        for r in rows:
            cells = " ".join(format(str(r[key]), spec) for _, key, spec in columns)
            click.echo(cells + "  " + r["status"])
        click.echo(f"overall: {status}")
    return 1 if failed else 0


def _rdp_list(pres):
    """A double point's list (``verify_rdp_list``) and its verdict:
    ``(certs, next, expected, ok)``.  It passes with the expected count,
    every listed ideal Ulrich, and the next pattern ideal, when there is
    one, not Ulrich."""
    certs, nxt = verify_rdp_list(pres)
    expected = exp.ulrich_count_expected(pres.tag)
    ok = (
        len(certs) == expected
        and all(c.verdict == "ulrich" for c in certs)
        and (nxt is None or nxt.verdict != "ulrich")
    )
    return certs, nxt, expected, ok


def _exit_codes(command):
    """Exit with the code the command returns: bad input exits 2, and any
    other package error 3."""

    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            code = command(*args, **kwargs)
        except _INPUT_ERRORS as exc:
            click.echo(f"input error: {exc}", err=True)
            sys.exit(2)
        except TriplepointError as exc:
            click.echo(f"engine invariant violation: {exc}", err=True)
            sys.exit(3)
        sys.exit(code)

    return run


@click.group()
def main():
    """Verification workbench for Ulrich ideals on rational surface
    singularities: exact ideal theory over Q(i) on one side, resolution
    graph combinatorics on the other.

    \b
    Tag grammar (ring catalog):
      A:l,m,n   B:m,n   C:m,n   D:n   F:n   H:n
      Gamma1 Gamma2 Gamma3   EX-5.2 EX-5.3
      RDP-A:n  RDP-D:n  RDP-E6 RDP-E7 RDP-E8
    Graph-only tags:
      cyclic:b1,...,bn   T22:b,b1,...,bn   G1:b .. G15:b
    """


@main.command("classify")
@click.option("--tag", required=True, help="catalog tag, e.g. A:1,2,3 or RDP-E7")
@click.option("--json", "as_json", is_flag=True)
@click.option(
    "--seed-reductions",
    type=click.Choice(["on", "off"]),
    default="on",
    show_default=True,
    help="try the published reduction pairs before searching",
)
@_exit_codes
def cmd_classify(tag, as_json, seed_reductions):
    """Certify the full Ulrich set of a catalog ring."""
    ftag = parse_tag(tag)
    pres = instantiate(ftag)
    if pres.cm_type == 1:
        certs, nxt, expected, ok = _rdp_list(pres)
        data = {
            "tag": str(ftag),
            "ulrich": [c.to_json_dict() for c in certs],
            "next": nxt.to_json_dict() if nxt else None,
            "expectedCount": expected,
            "status": "pass" if ok else "fail",
        }
        _emit(data, as_json, _render_classify_rdp)
        return 0 if ok else 1
    if pres.cm_type != 2:
        raise ParameterError(
            f"classify needs CM type 1 or 2, and {ftag} has type {pres.cm_type}"
        )
    certs = classify_ulrich_set(pres, use_seeds=seed_reductions == "on")
    res = len(certs)  # one certificate per k = 1..ell(A/trace)
    ng = res == 1  # the trace lies in m, so m <= trace exactly when ell(A/trace) = 1
    rejected_ideal, rejected = next_candidate_rejected_by_trace(pres)
    expected_res = exp.residue_closed_form(ftag)
    ok = (
        res == expected_res
        and all(c.verdict == "ulrich" for c in certs)
        and rejected
    )
    data = {
        "tag": str(ftag),
        "trace": [str(g) for g in trace_ideal(pres).groebner()],
        "residue": res,
        "expectedResidue": expected_res,
        "nearlyGorenstein": ng,
        "ulrich": [c.to_json_dict() for c in certs],
        "rejectedNext": {
            "ideal": [str(g) for g in rejected_ideal.gens],
            "rejectedByTraceContainment": rejected,
        },
        "status": "pass" if ok else "fail",
    }
    if str(ftag) == "EX-5.2":
        data["note"] = "non-rational singularity (geometric genus 1)"
    _emit(data, as_json, _render_classify)
    return 0 if ok else 1


def _render_classify(d):
    click.echo(f"tag            : {d['tag']}")
    if "note" in d:
        click.echo(f"note           : {d['note']}")
    click.echo(f"trace ideal    : ({', '.join(d['trace'])})")
    click.echo(f"residue        : {d['residue']} (expected {d['expectedResidue']})")
    click.echo(f"nearly Gorenst.: {d['nearlyGorenstein']}")
    click.echo("ulrich ideals  :")
    for c in d["ulrich"]:
        red = ", ".join(c["reduction"]) if c["reduction"] else "-"
        click.echo(
            f"  ({', '.join(c['ideal'])})  verdict={c['verdict']}"
            f"  e0={c['e0']} mu={c['mu']} len={c['len']}  Q=({red})"
        )
    rn = d["rejectedNext"]
    click.echo(
        f"next candidate ({', '.join(rn['ideal'])}) rejected by trace"
        f" containment: {rn['rejectedByTraceContainment']}"
    )
    click.echo(f"status         : {d['status']}")


def _render_classify_rdp(d):
    click.echo(f"tag            : {d['tag']}")
    click.echo(f"expected count : {d['expectedCount']}")
    for c in d["ulrich"]:
        click.echo(f"  ({', '.join(c['ideal'])})  verdict={c['verdict']}")
    if d["next"]:
        c = d["next"]
        click.echo(
            f"  next ({', '.join(c['ideal'])})  verdict={c['verdict']}"
            f"  e0={c['e0']} mu={c['mu']} len={c['len']}"
        )
    click.echo(f"status         : {d['status']}")


@main.command("residue-table")
@click.option("--max-param", default=3, show_default=True, type=click.IntRange(0, 6))
@click.option("--json", "as_json", is_flag=True)
@_exit_codes
def cmd_residue_table(max_param, as_json):
    """Computed residues vs the closed forms over the parameter grid."""
    rows = []
    for ftag in exp.grid_tags(max_param):
        expected = exp.residue_closed_form(ftag)
        try:
            computed = residue(instantiate(ftag))
            status = "pass" if computed == expected else "fail"
        except TriplepointError as err:
            computed = None
            status = f"error: {err}"
        rows.append(
            {"tag": str(ftag), "computed": computed, "expected": expected, "status": status}
        )
    columns = [("tag", "tag", "<14"), ("computed", "computed", ">8"),
               ("expected", "expected", ">8")]
    return _emit_rows(rows, as_json, columns)


@main.command("quotient-sweep")
@click.option(
    "--max-param",
    default=4,
    show_default=True,
    type=click.IntRange(2, 5),
    help="bound on all weights b (each weight is at least 2)",
)
@click.option("--json", "as_json", is_flag=True)
@_exit_codes
def cmd_quotient_sweep(max_param, as_json):
    """Chain counts over the quotient-singularity graph catalog.

    Multiplicity >= 4 must give the fundamental cycle only; multiplicity 3
    at most two cycles.  Multiplicity-2 graphs are reported without a
    bound: the double-point lists grow with the graph.
    """
    rows = []
    for tag in quotient_sweep_tags(max_param):
        try:
            g = graph_catalog(tag)
        except GraphInvariantError:
            continue  # not a resolution graph at these weights
        mult = dg.graph_multiplicity(g)
        filt = dg.unique_ulrich_filter(g)
        count = len(dg.enumerate_ulrich_chains(g).chains)
        # the walk never reads the filter: this checks that it implies Z_0 alone
        if filt and count != 1:
            raise EngineInvariantError(
                f"filter says unique but enumeration found {count} on {tag}"
            )
        if mult >= 4:
            expected, status = "1", "pass" if count == 1 else "fail"
        elif mult == 3:
            expected, status = "<=2", "pass" if count <= 2 else "fail"
        else:
            expected, status = None, "skip"
        rows.append(
            {
                "tag": tag,
                "multiplicity": mult,
                "filter": filt,
                "chainCount": count,
                "expected": expected,
                "status": status,
            }
        )
    columns = [("tag", "tag", "<22"), ("mult", "multiplicity", ">4"),
               ("filter", "filter", ">6"), ("chains", "chainCount", ">6"),
               ("expected", "expected", ">8")]
    return _emit_rows(rows, as_json, columns)


@main.command("cross-check")
@click.option("--tag", required=True)
@click.option("--json", "as_json", is_flag=True)
@_exit_codes
def cmd_cross_check(tag, as_json):
    """Compare the algebra engine against the graph engine for one tag."""
    ftag = parse_tag(tag)
    pres = instantiate(ftag)
    g = graph_catalog(ftag)
    graph_side = {
        "e0": dg.graph_multiplicity(g),
        "mu": dg.cycle_mu(g, dg.fundamental_cycle(g)),
        "chainCount": len(dg.enumerate_ulrich_chains(g).chains),
    }
    algebra_side = {
        "e0": ring_multiplicity(pres),
        "mu": pres.quotient.algebra(pres.quotient.maximal_ideal()).mu,
    }
    checks = [
        ("e0", algebra_side["e0"], graph_side["e0"]),
        ("mu", algebra_side["mu"], graph_side["mu"]),
    ]
    if pres.cm_type == 2:
        certs = classify_ulrich_set(pres)
        algebra_side["res"] = len(certs)
        algebra_side["ulrichCount"] = sum(1 for c in certs if c.verdict == "ulrich")
        checks.append(
            ("ulrichCount/chainCount", algebra_side["ulrichCount"], graph_side["chainCount"])
        )
        published = exp.PUBLISHED_TRACE_CYCLES.get(str(ftag))
        if published is not None:
            Z = g.cycle_from_json_dict(published)
            graph_side["traceCycleLength"] = dg.cycle_length(g, Z)
            checks.append(
                ("res/traceCycleLength", algebra_side["res"], graph_side["traceCycleLength"])
            )
    mismatches = [{"field": f, "algebra": a, "graph": b} for f, a, b in checks if a != b]
    data = {
        "tag": str(ftag),
        "algebra": algebra_side,
        "graph": graph_side,
        "mismatches": mismatches,
        "status": "pass" if not mismatches else "fail",
    }
    _emit(data, as_json, _render_cross)
    return 0 if not mismatches else 1


def _render_cross(d):
    click.echo(f"tag     : {d['tag']}")
    click.echo(f"algebra : {d['algebra']}")
    click.echo(f"graph   : {d['graph']}")
    for m in d["mismatches"]:
        click.echo(f"MISMATCH {m['field']}: algebra={m['algebra']} graph={m['graph']}")
    click.echo(f"status  : {d['status']}")


def _load_graph(tag, file):
    if (tag is None) == (file is None):
        raise ParseError("give exactly one of --tag or --file")
    if tag is not None:
        return graph_catalog(tag)
    try:
        with open(file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read graph file: {exc}") from exc
    return dg.DualGraph.from_json(text)


def _echo_chains(g, enum):
    """Echo the chains object {"fundamental", "cycles", "count",
    "antinefPruned"} one cycle at a time: the bytes of ``_dumps`` of the
    whole object, without holding it or its text."""
    fundamental = _dumps(g.cycle_to_json_dict(enum.fundamental))
    click.echo(f'{{"fundamental": {fundamental}, "cycles": [', nl=False)
    for k, Z in enumerate(enum.cycles):
        click.echo((", " if k else "") + _dumps(g.cycle_to_json_dict(Z)), nl=False)
    pruned = _dumps(enum.antinef_pruned)
    click.echo(f'], "count": {len(enum.chains)}, "antinefPruned": {pruned}}}')


def _cycle_of(g, text):
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer past the digit limit
        raise ParseError(f"invalid cycle JSON: {exc}") from exc
    return g.cycle_from_json_dict(data)


@main.command("graph")
@click.argument(
    "subcommand", type=click.Choice(["z0", "pa", "filter", "chains", "stats"])
)
@click.option("--tag", default=None, help="graph catalog tag, e.g. G10:2")
@click.option(
    "--file",
    default=None,
    type=click.Path(exists=True, dir_okay=False),
    help="graph JSON file",
)
@click.option("--cycle", default=None, help="cycle as JSON, e.g. {\"E0\":2,...}")
@_exit_codes
def cmd_graph(subcommand, tag, file, cycle):
    """Resolution-graph computations; always emits JSON."""
    try:
        g = _load_graph(tag, file)
        if subcommand == "z0":
            out = g.cycle_to_json_dict(dg.fundamental_cycle(g))
        elif subcommand == "pa":
            Z = _cycle_of(g, cycle) if cycle else dg.fundamental_cycle(g)
            out = {"pa": dg.arithmetic_genus(g, Z)}
        elif subcommand == "filter":
            out = dg.unique_ulrich_filter(g)
        elif subcommand == "stats":
            if not cycle:
                raise ParseError("stats needs --cycle")
            Z = _cycle_of(g, cycle)
            if not dg.is_antinef(g, Z):
                raise ParseError("cycle is not anti-nef")
            out = dg.cycle_stats(g, Z)
        else:  # chains
            _echo_chains(g, dg.enumerate_ulrich_chains(g))
            return 0
    except ValueError as exc:
        raise GraphInvariantError(str(exc)) from exc
    except GraphInvariantError as exc:
        if file is None:
            raise
        raise ParseError(str(exc)) from exc  # a --file graph that is not rational
    try:
        text = _dumps(out)
    except ValueError as exc:  # an integer past the digit limit of str()
        raise ParseError("result too large to print") from exc
    click.echo(text)
    return 0


@main.command("rdp-verify")
@click.option("--tag", default=None, help="single RDP tag, e.g. RDP-D:6")
@click.option("--json", "as_json", is_flag=True)
@_exit_codes
def cmd_rdp_verify(tag, as_json):
    """Certify the double-point Ulrich lists (and next-pattern failures)."""
    rows = []
    for ftag in [parse_tag(tag)] if tag else exp.rdp_grid():
        certs, nxt, expected, ok = _rdp_list(instantiate(ftag))
        rows.append(
            {
                "tag": str(ftag),
                "count": len(certs),
                "expected": expected,
                "verdicts": [c.verdict for c in certs],
                "next": nxt.verdict if nxt else None,
                "status": "pass" if ok else "fail",
            }
        )
    columns = [("tag", "tag", "<10"), ("count", "count", ">5"),
               ("expected", "expected", ">8"), ("next", "next", ">20")]
    return _emit_rows(rows, as_json, columns)


@main.command("socle-experiment")
@click.option("--tag", default=None, help="single tag; default sweeps the grid")
@click.option("--max-param", default=3, show_default=True, type=click.IntRange(0, 6))
@click.option("--json", "as_json", is_flag=True)
@_exit_codes
def cmd_socle(tag, max_param, as_json):
    """Is the quotient by the trace ideal Gorenstein?  (Experiment: no
    expected values, output is informational.)  Only CM type 2 rings have
    the trace ideal: the grid skips the others, and a single --tag of
    another type is an input error."""
    rows = []
    for ftag in [parse_tag(tag)] if tag else exp.grid_tags(max_param):
        pres = instantiate(ftag)
        if pres.cm_type != 2:
            if tag:
                raise ParameterError(
                    f"socle-experiment needs CM type 2, and {ftag} has type {pres.cm_type}"
                )
            continue
        rows.append(
            {"tag": str(ftag), "gorensteinQuotient": gorenstein_quotient_experiment(pres)}
        )
    _emit({"rows": rows}, as_json, _render_socle)
    return 0


def _render_socle(d):
    for r in d["rows"]:
        click.echo(f"{r['tag']:<14} A/trace Gorenstein: {r['gorensteinQuotient']}")


if __name__ == "__main__":
    main()
