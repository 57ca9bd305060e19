"""Certify or refute the Ulrich property for ideals in catalog rings.

The numeric criterion is the two-dimensional one: an m-primary ideal I
with a stable 2-generated reduction Q (I^2 = QI) is Ulrich iff
e0(I) = (mu(I) - 1) * length(A/I).  The freeness cross-check
length(A/I^2) - length(A/I) = mu(I) * length(A/I) is computed
independently and must agree whenever a stable reduction is known; a
disagreement is an engine invariant violation, not a verdict.

Absence of a reduction is never read as "not Ulrich": the search is a
bounded heuristic, so such candidates get the verdict
``no-reduction-found``.

The reduction search decides candidates in one pass, by linear algebra.
For Q inside I + J (J the defining ideal), QI + J lies in I^2 + J, and by
Nakayama the two agree at the origin exactly when the products q*g
(q in Q, g in I) span the finite-dimensional space
W = (I^2 + J)/(m*I^2 + J), the degree-2 part of the fiber cone of I
(Northcott & Rees 1954).  The test is linear in q: any q in I + J is
sum c_i*g_i modulo m*I + J with constants c_i (the g_i generate I), so
q*g_j = sum c_i*g_i*g_j modulo m*I^2 + J.  One frame per I holds the
reduced basis of m*I + J and an echelon of the g_i's normal forms modulo
it, each pivot carrying the normal forms of its products with every g_j
modulo m*I^2 + J.  A candidate then costs, for each q, one reduction
modulo m*I + J and one decomposition over the pivots (it fails exactly
when q is outside I + J), and one rank of the combined rows.

Ambient equality QI + J = I^2 + J implies the span, so the first
candidate is accepted on it without a frame (seeded searches stop there);
a failed ambient check can be spoiled by components away from the
origin, so it never rejects: the frame decides that candidate too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import kernel
from .errors import ShapeError, TriplepointError
from .ideals import IdealHandle, PresentedQuotient, _eliminate, _file_pivot, _rank
from .presentations import (
    RDP_RING,
    FamilyTag,
    RingPresentation,
    published_reduction,
    trace_ideal,
)

VERDICT_ULRICH = "ulrich"
VERDICT_GOOD_NOT_ULRICH = "good-not-ulrich"
VERDICT_NOT_GOOD = "not-good"
VERDICT_NO_REDUCTION = "no-reduction-found"


class EngineInvariantError(TriplepointError):
    """A cross-check the engine guarantees internally has failed."""


# Coefficients of the generators in the search's linear combinations.
_COEFFICIENT_POOL = ((0, 0, 1), (1, 0, 1), (-1, 0, 1), (2, 0, 1), (-2, 0, 1), (0, 1, 1))


@dataclass(frozen=True)
class UlrichCertificate:
    tag: str
    ideal: IdealHandle
    reduction: IdealHandle | None
    stable: bool
    good: bool | None
    e0: int | None
    mu: int
    length: int
    free_test: bool | None
    verdict: str

    def to_json_dict(self):
        return {
            "tag": self.tag,
            "ideal": [str(g) for g in self.ideal.gens],
            "reduction": [str(g) for g in self.reduction.gens]
            if self.reduction is not None
            else None,
            "verdict": self.verdict,
            "e0": self.e0,
            "mu": self.mu,
            "len": self.length,
            "stable": self.stable,
            "good": self.good,
            "freeTest": self.free_test,
        }


def is_reduction_stable(A: PresentedQuotient, I: IdealHandle, Q: IdealHandle) -> bool:
    """I^2 == QI at the origin, for a 2-generated Q inside I + J (J the
    defining ideal): the span test of the reduction search."""
    if len(Q.gens) != 2:
        raise ValueError("reduction must have exactly 2 generators")
    spans = _spans(_span_basis(A, I), Q)
    if spans is None:
        raise ValueError("reduction candidate is not inside the ideal")
    return spans


def good_check(A: PresentedQuotient, I: IdealHandle, Q: IdealHandle) -> bool:
    """Q : I == I at the origin.

    Localized, Q + J (J the defining ideal) is supported at the origin
    only, so Q : I is a colon in a finite algebra.  It contains I exactly
    when I^2 lies in Q there, and then the two are equal exactly when their
    colengths are.
    """
    local = A._localized(Q)
    if not all(local.contains(g) for g in I.power(2).gens):
        return False
    return local.colon(I).quotient_dim() == A.colength(I)


def _candidate_pairs(gens, seeds=()):
    """Candidate reductions of (gens): the seed pairs first, then pairs of
    generators, sums and linear combinations over ``_COEFFICIENT_POOL``."""
    n = len(gens)
    yield from seeds
    for i, j in itertools.combinations(range(n), 2):
        yield (gens[i], gens[j])
    for i, j in itertools.combinations(range(n), 2):
        s = gens[i] + gens[j]
        for k in range(n):
            if k not in (i, j):
                yield (s, gens[k])
    if n > 2:
        for i in range(n):
            rest = None
            for j in range(n):
                if j != i:
                    rest = gens[j] if rest is None else rest + gens[j]
            yield (gens[i], rest)
    ring = gens[0].ring
    vectors = []
    for vec in itertools.product(_COEFFICIENT_POOL, repeat=n):
        if all(c == (0, 0, 1) for c in vec):
            continue
        vectors.append(vec)
        if len(vectors) >= 80:
            break

    def combine(vec):
        p = ring.zero()
        for c, g in zip(vec, gens):
            if c != (0, 0, 1):
                p = p + g * c
        return p

    combos = [combine(v) for v in vectors]
    for a, b in itertools.combinations(range(len(combos)), 2):
        yield (combos[a], combos[b])


def _span_basis(A, I):
    """Frame of the span test for I (module docstring): the reduced basis of
    m*I + J, the echelon of the generators' normal forms modulo it, where
    each pivot carries its W-rows (the normal forms modulo m*I^2 + J of its
    products with every generator), the number of generators, and dim W."""
    kc = A.ring.kc
    m = A.maximal_ideal()
    reducers = [list(g.terms) for g in A.image(m.product(I)).groebner()]
    large = [list(g.terms) for g in A.image(m.product(I.power(2))).groebner()]
    gens = [list(g.terms) for g in I.gens]
    n = len(gens)
    products = {}
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        nf = kernel.reduce_terms(kernel.mul_terms(gens[i], gens[j], kc), large, kc)[1]
        products[i, j] = products[j, i] = nf
    pivots = {}
    for i, g in enumerate(gens):
        row = kernel.reduce_terms(g, reducers, kc)[1]
        row, carried = _eliminate(row, pivots, [products[i, j] for j in range(n)])
        if row:
            _file_pivot(pivots, row, carried)
    dim = _rank(w for _, rows in pivots.values() for w in rows)
    return reducers, pivots, n, dim


def _spans(frame, Q):
    """Do the products q*g (q in Q, g in I) span W?  None when a generator
    of Q lies outside I + J.  ``frame`` comes from ``_span_basis(A, I)``.

    The normal form of q modulo m*I + J is decomposed over the pivots; its
    W-rows are then the same combination of the pivots' W-rows (up to sign,
    which leaves the rank alone), so no product is formed here."""
    reducers, pivots, n, dim = frame
    kc = Q.ring.kc
    rows = []
    for q in Q.gens:
        row = kernel.reduce_terms(list(q.terms), reducers, kc)[1]
        row, carried = _eliminate(row, pivots, [[]] * n)
        if row:
            return None
        rows.extend(carried)
    return _rank(rows, dim) == dim


def find_reduction(A, I, seeds=(), max_candidates=400):
    """First 2-generated Q <= I with I^2 = QI at the origin, in the order of
    ``_candidate_pairs`` (the pairs ``seeds`` first); None when its first
    ``max_candidates`` pairs hold none.

    One pass.  The first candidate inside I + J (J the defining ideal) is
    accepted when QI + J = I^2 + J in the ambient ring; that equality is
    sound when it holds, and seeded searches stop there without a frame.
    Otherwise the frame of ``_span_basis`` is built once, and it decides
    that candidate and every later one alone: membership in I + J and the
    span test of the module docstring, both linear algebra with no
    Groebner basis per candidate.  By linearity of q -> q*g modulo
    m*I^2 + J, a candidate costs one reduction modulo m*I + J, a
    decomposition over the frame's pivots and one rank.
    """
    gens = list(I.gens)
    if not gens:
        return None
    img = A.image(I)
    frame = None
    for q1, q2 in itertools.islice(_candidate_pairs(gens, seeds), max_candidates):
        if not q1 or not q2:
            continue
        Q = IdealHandle(I.ring, [q1, q2])
        if frame is None:
            if not (img.contains(q1) and img.contains(q2)):
                continue
            if A.image_equal(I.power(2), Q.product(I)):
                return Q
            frame = _span_basis(A, I)
        if _spans(frame, Q):
            return Q
    return None


def ulrich_check(
    A: PresentedQuotient,
    I: IdealHandle,
    seeds=(),
    tag: str = "",
) -> UlrichCertificate:
    length = A.colength(I)
    mu = A.min_gens(I)
    Q = find_reduction(A, I, seeds)
    if Q is None:
        return UlrichCertificate(
            tag, I, None, False, None, None, mu, length, None, VERDICT_NO_REDUCTION
        )
    e0 = A.colength(Q)
    numeric = e0 == (mu - 1) * length
    len_sq = A.colength(I.power(2))
    free_test = (len_sq - length) == mu * length
    if numeric != free_test:
        raise EngineInvariantError(
            f"freeness cross-check disagrees with numeric criterion for {tag or I!r}"
        )
    good = good_check(A, I, Q)
    if numeric and good:
        verdict = VERDICT_ULRICH
    elif good:
        verdict = VERDICT_GOOD_NOT_ULRICH
    else:
        verdict = VERDICT_NOT_GOOD
    return UlrichCertificate(
        tag, I, Q, True, good, e0, mu, length, free_test, verdict
    )


def trace_shape(pres: RingPresentation):
    """Detect the trace ideal shape (x_1..x_{n-1}, x_n^{c+1}).

    Returns (power_variable_index, c + 1).  The detection reads the
    reduced Groebner basis; anything else raises ShapeError.
    """
    tr = trace_ideal(pres)
    ring = pres.ring
    gb = tr.groebner()
    unit_vars = set()
    power = None
    for g in gb:
        if len(g.terms) != 1:
            raise ShapeError(f"trace basis element {g} is not a monomial")
        exp = g.terms[0][1]
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
    v, c1 = power
    if unit_vars != set(range(ring.n)) - {v}:
        raise ShapeError("trace basis variables do not cover the complement")
    return v, c1


def classify_ulrich_set(pres: RingPresentation, use_seeds: bool = True):
    """Certificates for every candidate above the trace ideal."""
    v, count = trace_shape(pres)
    ring = pres.ring
    A = pres.quotient
    others = [ring.var(name) for k, name in enumerate(ring.names) if k != v]
    out = []
    for i in range(1, count + 1):
        gens = others + [ring.var(ring.names[v]) ** i]
        I = IdealHandle(ring, gens)
        seed = published_reduction(pres.tag, i) if use_seeds else None
        out.append(ulrich_check(A, I, (seed,) if seed else (), tag=f"{pres.tag}#{i}"))
    return out


def next_candidate_rejected_by_trace(pres: RingPresentation):
    """The first candidate past the trace, plus its containment refutation.

    Returns (ideal, rejected) where rejected is True when the ideal fails
    to contain the trace ideal (so it cannot be Ulrich).
    """
    v, count = trace_shape(pres)
    ring = pres.ring
    others = [ring.var(name) for k, name in enumerate(ring.names) if k != v]
    I = IdealHandle(ring, others + [ring.var(ring.names[v]) ** (count + 1)])
    tr = trace_ideal(pres)
    img = pres.quotient.image(I)
    rejected = not all(img.contains(g) for g in tr.gens)
    return I, rejected


# -- rational double point lists ----------------------------------------


def _rdp_listed(tag: FamilyTag):
    """(ideal generators, seed reduction) for each listed Ulrich ideal."""
    R = RDP_RING
    x, y, z = R.var("x"), R.var("y"), R.var("z")
    name = tag.name
    items = []
    if name in ("RDP-A", "RDP-E6", "RDP-E7", "RDP-E8"):
        if name == "RDP-A":
            n = tag.params[0]
            jmax = (n + 1) // 2
        else:
            jmax = {"RDP-E6": 2, "RDP-E7": 3, "RDP-E8": 2}[name]
        for j in range(1, jmax + 1):
            items.append(([x, y**j, z], (x, y**j)))
        return items
    if name == "RDP-D":
        n = tag.params[0]
        if n % 2 == 0:
            m = n // 2
            for j in range(1, m):
                items.append(([x, y**j, z], (x, y**j)))
            plus = R.polynomial(f"x + i*y^{m-1}")
            minus = R.polynomial(f"x - i*y^{m-1}")
            items.append(([plus, y**m, z], (plus, y**m)))
            items.append(([minus, y**m, z], (minus, y**m)))
        else:
            m = (n - 1) // 2
            for j in range(1, m + 1):
                items.append(([x, y**j, z], (x, y**j)))
        items.append(([x**2, y, z], (y, x**2)))
        return items
    raise ValueError(f"not an RDP tag: {tag}")


def _rdp_next(tag: FamilyTag):
    """The first ideal past the listed pattern, for families where the
    pattern continues formally (A and E)."""
    R = RDP_RING
    x, y, z = R.var("x"), R.var("y"), R.var("z")
    name = tag.name
    if name == "RDP-A":
        j = (tag.params[0] + 1) // 2 + 1
    elif name in ("RDP-E6", "RDP-E7", "RDP-E8"):
        j = {"RDP-E6": 3, "RDP-E7": 4, "RDP-E8": 3}[name]
    else:
        return None
    ideal = [x, y**j, z]
    seeds = ((x, z), (x + y**j, z), (x, y**j))
    return ideal, seeds


def verify_rdp_list(pres: RingPresentation):
    """Certify every listed RDP Ulrich ideal; for A and E families also
    certify that the next pattern ideal fails the numeric criterion."""
    if pres.cm_type != 1:
        raise ValueError("verify_rdp_list expects an RDP presentation")
    A = pres.quotient
    certs = []
    for k, (gens, seed) in enumerate(_rdp_listed(pres.tag), start=1):
        I = IdealHandle(RDP_RING, gens)
        certs.append(ulrich_check(A, I, (seed,), tag=f"{pres.tag}#{k}"))
    nxt = _rdp_next(pres.tag)
    next_cert = None
    if nxt is not None:
        gens, seeds = nxt
        I = IdealHandle(RDP_RING, gens)
        next_cert = ulrich_check(A, I, seeds, tag=f"{pres.tag}#next")
    return certs, next_cert


def gorenstein_quotient_experiment(pres: RingPresentation) -> bool:
    """Is A / trace Gorenstein?  True iff the socle is one-dimensional.

    The socle of the local algebra A/tr is (tr : m)/tr, so its dimension is
    length(A/tr) - length(A/(tr : m)).  Both are quotient dimensions of
    ideals with no zero but the origin: the localized trace and its colon.
    """
    A = pres.quotient
    local = A._localized(trace_ideal(pres))
    return local.quotient_dim() - local.colon(A.maximal_ideal()).quotient_dim() == 1
