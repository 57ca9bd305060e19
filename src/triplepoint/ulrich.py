"""Certify or refute the Ulrich property for ideals in catalog rings.

The numeric criterion is the two-dimensional one: an m-primary ideal I
with a stable 2-generated reduction Q (I^2 = QI) is Ulrich iff
e0(I) = (mu(I) - 1) * length(A/I).  The freeness cross-check
length(A/I^2) - length(A/I) = mu(I) * length(A/I) is computed
independently and must agree whenever a stable reduction is known; a
disagreement is an engine invariant violation, not a verdict.

The ideals certified are mostly one family, (x_1, ..., x_v^k, ..., x_n)
(``_family``): the chain (x, y, z, t^k) of a triple point up to its trace
(x, y, z, t^c), and (x, y^j, z) of a double point.  The trace is recognised
at the origin: c is its colength, and it lies in (x, y, z, t^c), of colength c.

Absence of a reduction is never read as "not Ulrich": the search tries a
fixed finite list of candidates, which need not hold a reduction, so such
ideals get the verdict ``no-reduction-found``.

Every verdict on I is linear algebra in one finite algebra
B = A/(m*I^2 + J) at the origin (``ideals.FiniteAlgebra``, J the defining
ideal), built once per I: length(A/I), mu(I), length(A/I^2), e0 and
"good" are dimensions of subspaces of B.  No equality of ideals in the
ambient ring, which components away from the origin could spoil, decides
anything.

The reduction search decides candidates in one pass.  For Q inside I, by
Nakayama QI = I^2 at the origin exactly when the products q*g (q in Q,
g in I) span W = I^2/(m*I^2 + J), the degree-2 part of the fiber cone
(Northcott & Rees 1954), and g may range over a minimal generating set
g_1, ..., g_mu.  The test is a rank in W's coordinates: an element of W, a
normal form in B, is read at the leading monomials of an echelon basis of
W, at most mu(mu+1)/2 of them (see ``ideals.FiniteAlgebra``).  Q is a
reduction exactly when the 2*mu rows coord(q*g_j) have rank dim W.  Each
q is a vector a over the minimal generators, q = sum a_p*g_p modulo m*I,
so its rows are sum a_p*coord(g_p*g_j) and no product is formed.  A seed,
given as polynomials, reads its vector off I's echelon once it is found
inside I at the origin; the search's own candidates are pairs of tuples
c of positions among the minimal generators, each the vector of ones
there, q = sum_{p in c} g_p.  A pair whose two ranks sum below dim W
fails at once (rank [R1; R2] <= rank R1 + rank R2); the polynomials of
Q are formed only for the candidate pair that passes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import EngineInvariantError, ParameterError, ShapeError
from .ideals import IdealHandle, PresentedQuotient
from .presentations import (
    RDP_RING,
    FamilyTag,
    RingPresentation,
    published_reduction,
    residue,
    trace_ideal,
)

VERDICT_ULRICH = "ulrich"
VERDICT_GOOD_NOT_ULRICH = "good-not-ulrich"
VERDICT_NOT_GOOD = "not-good"
VERDICT_NO_REDUCTION = "no-reduction-found"


@dataclass(frozen=True)
class UlrichCertificate:
    tag: str
    ideal: IdealHandle
    reduction: IdealHandle | None
    good: bool | None
    e0: int | None
    mu: int
    length: int
    free_test: bool | None
    verdict: str

    @property
    def stable(self) -> bool:
        """A stable reduction (I^2 = QI) was found."""
        return self.reduction is not None

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


def good_check(A: PresentedQuotient, I: IdealHandle, Q: IdealHandle) -> bool:
    """Q : I == I at the origin, decided on I's finite algebra."""
    return A.algebra(I).is_good(Q)


def _candidate_pairs(n, seeds=()):
    """Candidate reductions of an ideal with n generators: the seed pairs
    first, as given, then pairs of tuples of generator positions, each
    standing for the sum of the generators there: each pair of generators,
    the sum of two generators with a third, and, for n > 2, each generator
    with the sum of the others.  That is n(n-1)^2/2 + n pairs for n > 2,
    and 1 pair for n = 2."""
    yield from seeds
    for i, j in itertools.combinations(range(n), 2):
        yield ((i,), (j,))
    for i, j in itertools.combinations(range(n), 2):
        for k in range(n):
            if k not in (i, j):
                yield ((i, j), (k,))
    if n > 2:
        for i in range(n):
            yield ((i,), tuple(k for k in range(n) if k != i))


def _combination(gens, c):
    """The polynomial sum of the generators at the positions ``c``."""
    return sum((gens[i] for i in c), gens[0].ring.zero())


def find_reduction(A, I, seeds=()):
    """First 2-generated Q <= I with I^2 = QI at the origin, in the order of
    ``_candidate_pairs`` (the pairs ``seeds`` first); None when none of
    them is one.

    One pass over the candidates, each decided in I's finite algebra by
    the span test of the module docstring: linear algebra, with no Groebner
    basis per candidate.  The candidates combine a minimal generating set,
    the generators at ``B.minimal`` (all of them when I is minimally
    generated): with a redundant generator (a repeat, or one in m*I) in the
    list, the fixed combinations could miss every reduction.  A seed
    outside I at the origin is skipped.
    """
    if not I.gens:
        return None
    seeds = tuple(seeds)
    B = A.algebra(I)
    gens = [I.gens[i] for i in B.minimal]
    for k, pair in enumerate(_candidate_pairs(B.mu, seeds)):
        if k >= len(seeds):
            if B.spans_combinations(*pair):
                return IdealHandle(I.ring, [_combination(gens, c) for c in pair])
        elif all(pair):
            Q = IdealHandle(I.ring, pair)
            if B.spans(Q):
                return Q
    return None


def ulrich_check(
    A: PresentedQuotient,
    I: IdealHandle,
    seeds=(),
    tag: str = "",
) -> UlrichCertificate:
    B = A.algebra(I)
    length, mu = B.length, B.mu
    Q = find_reduction(A, I, seeds)
    if Q is None:
        return UlrichCertificate(
            tag, I, None, None, None, mu, length, None, VERDICT_NO_REDUCTION
        )
    e0 = B.colength(Q)
    numeric = e0 == (mu - 1) * length
    free_test = (B.square_length - length) == mu * length
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
        tag, I, Q, good, e0, mu, length, free_test, verdict
    )


def _family(ring, v, k):
    """The generators (x_1, ..., x_v^k, ..., x_n): every variable, with x_v
    raised to k."""
    return [g**k if i == v else g for i, g in enumerate(ring.gens())]


def classify_ulrich_set(pres: RingPresentation, use_seeds: bool = True):
    """Certificates for the chain I_k = (x_1, ..., x_n^k) (``_family``, the
    power on the last variable as in the seeds), k = 1..c = ell(A/tr).
    ShapeError unless tr = I_c at the origin: c >= 1, ell(A/I_c) = c, and tr
    lies in I_c, read in the finite algebra I_c's certificate just built."""
    A, ring = pres.quotient, pres.ring
    tr = trace_ideal(pres)
    count = A.colength(tr)
    out = []
    for i in range(1, count + 1):
        I = IdealHandle(ring, _family(ring, ring.n - 1, i))
        seed = published_reduction(pres.tag, i) if use_seeds else None
        out.append(ulrich_check(A, I, (seed,) if seed else (), tag=f"{pres.tag}#{i}"))
    if not out or out[-1].length != count or not A.algebra(out[-1].ideal).contains(tr):
        raise ShapeError(f"trace is not (x_1, ..., x_n^{count}) at the origin")
    return out


def next_candidate_rejected_by_trace(pres: RingPresentation):
    """(I, rejected) for the first candidate past the chain,
    I = (x_1, ..., x_n^(c+1)) with c = ell(A/tr): rejected is True when
    ell(A/I) > c, which proves at the origin, with no assumption on the
    trace's shape, that I does not contain tr (so it cannot be Ulrich)."""
    ring = pres.ring
    count = residue(pres)
    I = IdealHandle(ring, _family(ring, ring.n - 1, count + 1))
    return I, pres.quotient.colength(I) > count


# -- rational double point lists ----------------------------------------


def _rdp_pattern_top(tag: FamilyTag):
    """For the families whose list is the pattern (x, y^j, z) alone (A and
    E), the largest listed j; None for the others."""
    if tag.name == "RDP-A":
        return (tag.params[0] + 1) // 2
    return {"RDP-E6": 2, "RDP-E7": 3, "RDP-E8": 2}.get(tag.name)


def _rdp_listed(tag: FamilyTag):
    """(ideal generators, seed reduction) for each listed Ulrich ideal: the
    family (x, y^j, z) (``_family``), and for D also (x +- i*y^(m-1), y^m, z)
    when n = 2m, and (x^2, y, z)."""
    R = RDP_RING
    x, y, z = R.gens()
    top = _rdp_pattern_top(tag)
    if top is not None:
        return [(_family(R, 1, j), (x, y**j)) for j in range(1, top + 1)]
    if tag.name == "RDP-D":
        n = tag.params[0]
        items = [(_family(R, 1, j), (x, y**j)) for j in range(1, (n + 1) // 2)]
        if n % 2 == 0:
            m = n // 2
            iy = y ** (m - 1) * (0, 1, 1)  # i*y^(m-1)
            plus, minus = x + iy, x - iy
            items.append(([plus, y**m, z], (plus, y**m)))
            items.append(([minus, y**m, z], (minus, y**m)))
        items.append(([x**2, y, z], (y, x**2)))
        return items
    raise ValueError(f"not an RDP tag: {tag}")


def _rdp_next(tag: FamilyTag):
    """The first ideal past the listed pattern, for families where the
    pattern continues formally (A and E)."""
    top = _rdp_pattern_top(tag)
    if top is None:
        return None
    x, y, z = RDP_RING.gens()
    j = top + 1
    return _family(RDP_RING, 1, j), ((x, z), (x + y**j, z), (x, y**j))


def verify_rdp_list(pres: RingPresentation):
    """Certify every listed RDP Ulrich ideal; for A and E families also
    certify that the next pattern ideal fails the numeric criterion."""
    if pres.cm_type != 1:
        raise ParameterError(f"{pres.tag} is not a rational double point")
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
    length(A/tr) - length(A/(tr : m)), two local colengths: a colon commutes
    with localization, so the colon tr : m in the polynomial ring is the
    local one at the origin.
    """
    A = pres.quotient
    tr = trace_ideal(pres)
    return A.colength(tr) - A.colength(tr.colon(A.maximal_ideal())) == 1
