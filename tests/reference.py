"""Reference computations and formats that only the tests use.

No command forms an ideal product or power, audits a Groebner basis, builds
a polynomial from exponent pairs or writes a graph as JSON, so these live
here, beside the tests that compare the program's results against them.
The expected values here are the source's, for checks no command makes.
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
