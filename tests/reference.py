"""Reference computations and formats that only the tests use.

No command forms an ideal product or power, divides by a list of
polynomials, tests membership in the ambient ring, audits a Groebner basis,
builds a polynomial from exponent pairs, lists a graph's edges, compares
two graphs or writes a graph as JSON, so these live here, beside the tests
that compare the program's results against them.  So do the plainer forms
of seven of the program's computations: Laufer's sequence by rescanning,
the chain walk by recursion, the "good" rank over every row, the two trace
verdicts of ``classify`` by ambient membership, the socle of A/tr by the
colon of the localized trace (the program reads all three off colengths),
and the trace's shape by parsing its global basis element by element (the
program reads the trace's colength c and tests, at the origin, that it
lies in (x_1, ..., x_n^c), of colength c).  No command reads a global
quotient dimension either (``quotient_dim``).
The expected values here are the source's, for checks no command makes.

The catalog is kept here in its printed text forms too (matrices,
equations, seeds and the double points' Ulrich lists, exponents
substituted from the general displays), with a cofactor expansion of
minors: the program builds the same polynomials by arithmetic, and the
tests read these texts with ``read`` to check them term for term.
"""

import itertools
import json

from triplepoint import kernel
from triplepoint.dualgraph import (
    ChainEnumeration,
    UlrichChain,
    canonical_numbers,
    intersection_pairing,
    is_antinef,
)
from triplepoint.errors import ExponentRangeError, ParameterError, ShapeError, ZeroPolynomialError
from triplepoint.ideals import (
    IdealHandle,
    _echelon,
    _eliminate,
    _lift,
    _localize,
    _spoly,
    _standard_monomials,
)
from triplepoint.polyring import _MAX_EXP, Polynomial, _to_triple
from triplepoint.presentations import trace_ideal
from triplepoint.ulrich import next_candidate_rejected_by_trace

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


def read(ring, text):
    """A printed polynomial in ``ring``: ``text`` with ``^`` for powers,
    evaluated as Python with the ring's variables and the imaginary unit
    ``i`` bound.  Coefficients are integers written with ``*``."""
    names = dict(zip(ring.names, ring.gens()), i=ring.scalar((0, 1, 1)))
    return ring.zero() + eval(text.replace("^", "**"), {"__builtins__": {}}, names)


def reduce(p, divisors, want_quotients=False):
    """Remainder of ``p`` on division by ``divisors``, from the kernel.
    With ``want_quotients``, also the quotients, found by a textbook
    division of its own whose remainder must equal the kernel's."""
    divs = []
    for g in divisors:
        if not g:
            raise ZeroPolynomialError("zero divisor in division")
        divs.append(list(g.terms))
    r = Polynomial(p.ring, kernel.reduce_terms(list(p.terms), divs, p.ring.kc))
    if not want_quotients:
        return r
    quots, rest = _divide(p, divisors)
    assert rest == r, (p, divisors)
    return quots, r


def _divide(p, divisors):
    """Textbook multivariate division: the lead term of what is left goes
    to the quotient of the first divisor whose lead divides it, and to the
    remainder when none does.  Returns (quotients, remainder)."""
    ring = p.ring
    quots = [ring.zero() for _ in divisors]
    rem = ring.zero()
    while p:
        k, a, b, d = p.terms[0]
        e = ring.exponents(k)
        lead = monomial(ring, e, (a, b, d))
        for i, g in enumerate(divisors):
            gk, ga, gb, gd = g.terms[0]
            ge = ring.exponents(gk)
            if all(u >= v for u, v in zip(e, ge)):
                # (a + b*i)/d over (ga + gb*i)/gd, by the conjugate of ga + gb*i
                c = ((a * ga + b * gb) * gd, (b * ga - a * gb) * gd, d * (ga * ga + gb * gb))
                q = monomial(ring, tuple(u - v for u, v in zip(e, ge)), c)
                quots[i] = quots[i] + q
                p = p - q * g
                break
        else:
            rem = rem + lead
            p = p - lead
    return quots, rem


def contains(I, p):
    """Does ``p`` lie in the ideal ``I`` of the ambient polynomial ring?"""
    gb = I.groebner()
    return not p or bool(gb) and not reduce(p, gb)


def nearly_gorenstein_by_membership(pres):
    """m <= tr, decided by membership of each variable in the ambient ring."""
    tr = trace_ideal(pres)
    return all(contains(tr, v) for v in pres.ring.gens())


def rejected_by_membership(pres):
    """Does the first candidate past the trace fail to contain the trace,
    decided by membership of each trace generator in the candidate's image
    in the ambient ring?"""
    img = pres.quotient.image(next_candidate_rejected_by_trace(pres)[0])
    return not all(contains(img, g) for g in trace_ideal(pres).gens)


def trace_shape_by_parsing(pres):
    """(v, c) of a trace ideal (x_1, ..., x_v^c, ..., x_n), read element by
    element off its reduced basis: each element must be a pure power, all
    but at most one of exponent 1, and every variable must occur; otherwise
    ShapeError, with one message per way the basis fails."""
    ring = pres.ring
    unit_vars = set()
    power = None
    for g in trace_ideal(pres).groebner():
        if len(g.terms) != 1:
            raise ShapeError(f"trace basis element {g} is not a monomial")
        exp = ring.exponents(g.terms[0][0])
        support = [k for k, e in enumerate(exp) if e]
        if len(support) != 1:
            raise ShapeError(f"trace basis element {g} is not a pure power")
        v = support[0]
        if exp[v] == 1:
            unit_vars.add(v)
        elif power is None:
            power = (v, exp[v])
        else:
            raise ShapeError("trace basis has two higher pure powers")
    if power is None:
        if len(unit_vars) != ring.n:
            raise ShapeError("trace basis does not involve every variable")
        return ring.n - 1, 1
    v, c = power
    if unit_vars != set(range(ring.n)) - {v}:
        raise ShapeError("trace basis variables do not cover the complement")
    return v, c


def quotient_dim(I):
    """Vector-space dimension of ring/I in the ambient ring, or None when
    infinite."""
    std = _standard_monomials([g.terms[0][0] for g in I.groebner()], I.ring)
    return None if std is None else len(std)


def socle_by_localized_colon(pres):
    """dim (tr : m)/tr of the local algebra A/tr: the trace's basis
    localized, set as the basis of a handle, and the quotient dimensions of
    that handle and of its colon by m."""
    tr = trace_ideal(pres)
    basis, std = _localize(pres.ring, [list(g.terms) for g in tr.groebner()])
    local = IdealHandle(pres.ring, [Polynomial(pres.ring, b) for b in basis])
    local._gb = local.gens
    return len(std) - quotient_dim(local.colon(pres.quotient.maximal_ideal()))


def monomial(ring, exp, coeff=1):
    """The polynomial coeff*X^exp, its exponents checked against the cap."""
    exp = tuple(exp)
    if len(exp) != ring.n:
        raise ValueError("exponent length mismatch")
    if any(x < 0 for x in exp):
        raise ValueError("negative exponent")
    if max(exp, default=0) > _MAX_EXP:
        raise ExponentRangeError(f"exponent {max(exp)} exceeds the cap {_MAX_EXP}")
    c = _to_triple(coeff)
    if c == kernel.SZERO:
        return ring.zero()
    return Polynomial(ring, ((ring.key(exp),) + c,))


def from_terms(ring, pairs):
    """The polynomial sum c*X^e of (exponent tuple e, coefficient c) pairs;
    repeated exponents are collected."""
    p = ring.zero()
    for exp, c in pairs:
        p = p + monomial(ring, exp, c)
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
    leads = [ring.exponents(t[0][0]) for t in terms]
    for i, j in itertools.combinations(range(len(terms)), 2):
        L = tuple(max(u, v) for u, v in zip(leads[i], leads[j]))
        s = _spoly(terms[i], terms[j], ring.key(L))
        if kernel.reduce_terms(s, terms, ring.kc):
            return False
    return True


def graph_json(g):
    """The graph as the JSON text ``DualGraph.from_json`` reads."""
    data = {
        "vertices": [{"id": v, "weight": w} for v, w in zip(g.ids, g.weights)],
        "edges": [list(e) for e in edge_ids(g)],
    }
    return json.dumps(data, separators=(",", ":"))


def edge_indices(g):
    """The edges of ``g`` as vertex-index pairs (i, j) with i < j, in index
    order, read off its adjacency lists: no command lists the edges."""
    return tuple((i, j) for i, nbrs in enumerate(g._adj) for j in sorted(nbrs) if i < j)


def edge_ids(g):
    """The edges of ``g`` as vertex-id pairs, in the order of
    ``edge_indices``."""
    return tuple((g.ids[i], g.ids[j]) for i, j in edge_indices(g))


def same_graph(g, h):
    """Equal vertex ids and weights, in order, and equal edges: no command
    compares two graphs."""
    return (g.ids, g.weights, edge_indices(g)) == (h.ids, h.weights, edge_indices(h))


def rescanning_laufer(g, verts):
    """Laufer's computation sequence on the subgraph induced by ``verts``:
    from the reduced cycle, raise the first coefficient whose vertex pairs
    positively with the cycle, and scan again.  The result, indexed like
    ``verts``, is the subgraph's fundamental cycle."""
    pos = {v: k for k, v in enumerate(verts)}
    nbrs = [[pos[w] for w in g._adj[v] if w in pos] for v in verts]
    weights = [g.weights[v] for v in verts]
    Z = [1] * len(weights)
    while True:
        for k, w in enumerate(weights):
            if Z[k] * w + sum(Z[j] for j in nbrs[k]) > 0:
                Z[k] += 1
                break
        else:
            return tuple(Z)


def induced_components(g, vertices):
    """Connected components of the induced subgraph, sorted."""
    remaining = set(vertices)
    comps = []
    while remaining:
        start = min(remaining)
        seen, stack = {start}, [start]
        while stack:
            for w in g._adj[stack.pop()]:
                if w in remaining and w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(tuple(sorted(seen)))
        remaining -= seen
    return sorted(comps)


def recursive_chains(g):
    """The chain enumeration as the structure theorem states it, the
    reference for the lemma that each step's only candidate on a component
    C of the orthogonal locus is its fundamental cycle F_C.  Each step
    walks, on purpose, the whole box of cycles between F_C (from
    ``rescanning_laufer``) and the previous Y, by ``itertools.product``,
    and decides each cycle by the pairing formulas alone: K . Y = K . Z_0,
    Y . Z_prev = 0, p_a(Y) = 0 and anti-nefness, with no first-step
    shortcut.  The walk is recursive and depth-first."""
    Z0 = g._z0
    K = canonical_numbers(g)
    KZ0 = sum(c * k for c, k in zip(Z0, K))
    chains = [UlrichChain(())]
    seen_cycles = {Z0}
    pruned = False

    def step_candidates(Zprev, upper):
        orth = [i for i in range(g.n) if g.pairing_with_vertex(Zprev, i) == 0]
        for comp in induced_components(g, orth):
            lower = rescanning_laufer(g, comp)
            if any(lo > upper[v] for lo, v in zip(lower, comp)):
                continue
            for combo in itertools.product(*(range(lo, upper[v] + 1) for lo, v in zip(lower, comp))):
                Y = [0] * g.n
                for val, v in zip(combo, comp):
                    Y[v] = val
                yield tuple(Y)

    def extend(prefix_steps, Zprev, upper):
        nonlocal pruned
        for Y in step_candidates(Zprev, upper):
            if sum(c * k for c, k in zip(Y, K)) != KZ0:
                continue
            if intersection_pairing(g, Y, Zprev) != 0:
                continue
            if intersection_pairing(g, Y, Y) + KZ0 != -2:
                continue
            Znew = tuple(a + b for a, b in zip(Zprev, Y))
            if not is_antinef(g, Znew):
                pruned = True
                continue
            steps = prefix_steps + ((Y, Znew),)
            if Znew not in seen_cycles:
                seen_cycles.add(Znew)
                chains.append(UlrichChain(steps))
            extend(steps, Znew, Y)

    extend((), Z0, Z0)
    ordered = sorted(chains, key=lambda c: (len(c.steps), c.steps))
    return ChainEnumeration(Z0, tuple(ordered), pruned)


def is_good_on_every_row(B, Q):
    """``FiniteAlgebra.is_good`` with the rank of s -> (NF(s*g_j) mod Q)_j
    taken over every standard monomial s, not only those off I's pivots."""
    span = B._span(Q)
    if any(_eliminate(w, span) for w in B._squares):
        return False
    offset = B._standard[-1] + 1
    blocks = range(len(B._rows[0]), 0, -1)
    pivots = {}
    for j in blocks:
        for head in span.values():
            pivots[head[0][0] + j * offset] = _lift(head, j * offset)
    filed = len(pivots)
    rows = ([t for j in blocks for t in _lift(nfs[j - 1], j * offset)] for nfs in B._rows)
    return len(_echelon(rows, pivots)) - filed == B.length


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
