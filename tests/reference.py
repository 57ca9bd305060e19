"""Reference computations and formats that only the tests use.

No command forms an ideal product or power, audits a Groebner basis, builds
a polynomial from exponent pairs or writes a graph as JSON, so these live
here, beside the tests that compare the program's results against them.
The expected values here are the source's, for checks no command makes.

The catalog is kept here in its printed text forms too (matrices,
equations, seeds and the double points' Ulrich lists, exponents
substituted from the general displays), with a cofactor expansion of
minors: the program builds the same polynomials by arithmetic, and the
tests parse these texts to check them term for term.
"""

import itertools
import json

from triplepoint import kernel
from triplepoint.errors import ParameterError
from triplepoint.ideals import IdealHandle, _exp_lcm, _spoly

# The source's statistics of the trace cycle of EX-5.3 (its G10:2 graph).
EX53_TRACE_STATS = {"len": 2, "e0": 7, "mu": 5}


def nearly_gorenstein_expected(tag):
    """The source's nearly-Gorenstein boundary of a triple-point family."""
    name, p = tag.name, tag.params
    if name in ("A", "B", "C", "D", "F"):
        return p[0] == 0
    if name in ("H", "Gamma1", "Gamma2", "Gamma3", "EX-5.2"):
        return False
    raise ParameterError(f"no nearly-Gorenstein expectation for {tag}")


def from_terms(ring, pairs):
    """The polynomial sum c*X^e of (exponent tuple e, coefficient c) pairs;
    repeated exponents are collected."""
    p = ring.zero()
    for exp, c in pairs:
        p = p + ring.monomial(exp, c)
    return p


def product(I, J):
    """The ideal of pairwise products, repeats dropped in order; a square
    uses only the pairs i <= j."""
    if I.gens == J.gens:
        pairs = itertools.combinations_with_replacement(I.gens, 2)
    else:
        pairs = itertools.product(I.gens, J.gens)
    return IdealHandle(I.ring, dict.fromkeys(a * b for a, b in pairs))


def power(I, n):
    """I^n for n >= 1, by repeated products."""
    out = I
    for _ in range(n - 1):
        out = product(out, I)
    return out


def spair_audit(basis):
    """Does every S-polynomial of ``basis`` reduce to 0?  Walks all pairs
    with no pruning, so it shares none of the Buchberger pair bookkeeping
    it audits."""
    basis = list(basis)
    if not basis:
        return True
    ring = basis[0].ring
    terms = [kernel.monic_terms(list(b.terms)) for b in basis]
    for i, j in itertools.combinations(range(len(terms)), 2):
        L = _exp_lcm(terms[i][0][1], terms[j][0][1])
        s = _spoly(terms[i], terms[j], L, ring.key(L), ring.kc)
        if kernel.reduce_terms(s, terms, ring.kc)[1]:
            return False
    return True


def graph_json(g):
    """The graph as the JSON text ``DualGraph.from_json`` reads."""
    data = {
        "vertices": [{"id": v, "weight": w} for v, w in zip(g.ids, g.weights)],
        "edges": [[a, b] for a, b in g.edges],
    }
    return json.dumps(data, separators=(",", ":"))


# -- the catalog as printed ---------------------------------------------


def printed_matrix(tag):
    """The defining matrix of a determinantal catalog entry, as text."""
    name, p = tag.name, tag.params
    if name == "A":
        l, m, n = p
        return [["x", f"t^{m+1}", f"t^{n+1} + z"], [f"t^{l+1}", "y", "z"]]
    if name == "B":
        m, n = p
        k = (n + 1) // 2
        if n % 2 == 1:  # n = 2k - 1
            return [["x", "y", f"t^{k} + z*t"], [f"t^{m+1}", "z", "y"]]
        return [["x", "y", "z*t"], [f"t^{m+1}", "z", f"y + t^{k}"]]
    if name == "C":
        m, n = p
        return [["x", "y", f"t^2 + z^{n-1}"], [f"t^{m+1}", "z", "y"]]
    if name == "D":
        return [["x", "y", "z^2"], [f"t^{p[0]+1}", "z", "y + t^2"]]
    if name == "F":
        return [["x", "y", "t^3 + z^2"], [f"t^{p[0]+1}", "z", "y"]]
    if name == "H":
        n = p[0]
        k = (n + 1) // 3
        if n == 3 * k - 1:
            return [["x", "y", f"z*t + t^{k}"], ["y", "z", "x"]]
        if n == 3 * k:
            return [["x", "y", "z*t"], ["y", "z", f"x + t^{k}"]]
        return [["x", "y", "z*t"], [f"y + t^{k}", "z", "x"]]
    return {
        "Gamma1": [["x", "y", "t^2"], ["y", "z", "x + z^2"]],
        "Gamma2": [["x", "y", "z^2"], ["y", "z", "x + t^2"]],
        "Gamma3": [["x", "y", "t^2 + z^3"], ["y", "z", "x"]],
        "EX-5.2": [["x", "y", "z"], ["y", "z", "x^2 - t^3"]],
        "EX-5.3": [["z1", "z4", "z2", "z3^2"], ["z2", "z3", "z4", "z5"]],
    }[name]


def printed_equation(tag):
    """The equation of a double point, as text."""
    name, p = tag.name, tag.params
    if name == "RDP-A":
        return f"z^2 + x^2 + y^{p[0]+1}"
    if name == "RDP-D":
        return f"z^2 + x^2*y + y^{p[0]-1}"
    return {
        "RDP-E6": "z^2 + x^3 + y^4",
        "RDP-E7": "z^2 + x^3 + x*y^3",
        "RDP-E8": "z^2 + x^3 + y^5",
    }[name]


def printed_published_reduction(tag, i):
    """The source's reduction pair of (x, y, z, t^i), as text, or None."""
    name = tag.name
    if name == "A":
        return (f"t^{i}", "x + y + z")
    if name in ("B", "C", "D", "F"):
        return (f"t^{i}", "x + z")
    if name in ("H", "Gamma1", "Gamma2", "Gamma3"):
        return (f"t^{i}", "z")
    if name == "EX-5.2":
        return ("x", f"t^{i}")
    return None


def printed_maximal_reduction_seed(tag):
    """The seed reductions of the maximal ideal, as text."""
    name = tag.name
    if name.startswith("RDP-"):
        return (("x", "y"),)
    if name == "EX-5.3":
        return (("z1 + z3 + z5", "z2 + z4"), ("z1 + z5", "z2 + z3 + z4"),
                ("z1 - z5", "z2 - z3 + z4"))
    return (printed_published_reduction(tag, 1),)


def printed_rdp_list(tag):
    """(generators, seed reduction) of each listed Ulrich ideal of a double
    point, as text."""
    name, p = tag.name, tag.params
    if name == "RDP-D":
        n = p[0]
        m = n // 2
        last = m if n % 2 else m - 1
        items = [(["x", f"y^{j}", "z"], ("x", f"y^{j}")) for j in range(1, last + 1)]
        if n % 2 == 0:
            for sign in "+-":
                g = f"x {sign} i*y^{m-1}"
                items.append(([g, f"y^{m}", "z"], (g, f"y^{m}")))
        return items + [(["x^2", "y", "z"], ("y", "x^2"))]
    jmax = (p[0] + 1) // 2 if name == "RDP-A" else {"RDP-E6": 2, "RDP-E7": 3, "RDP-E8": 2}[name]
    return [(["x", f"y^{j}", "z"], ("x", f"y^{j}")) for j in range(1, jmax + 1)]


def cofactor_minors(rows, k):
    """The k x k minors of a matrix of polynomials by cofactor expansion
    along the first row, rows and then columns in the order of
    ``itertools.combinations``."""
    ring = rows[0][0].ring

    def det(rs, cs):
        if len(rs) == 1:
            return rows[rs[0]][cs[0]]
        total = ring.zero()
        for pos, c in enumerate(cs):
            term = rows[rs[0]][c] * det(rs[1:], cs[:pos] + cs[pos + 1 :])
            total = total + term if pos % 2 == 0 else total - term
        return total

    return [
        det(rs, cs)
        for rs in itertools.combinations(range(len(rows)), k)
        for cs in itertools.combinations(range(len(rows[0])), k)
    ]
