"""Groebner-basis core and ideal calculus.

Buchberger with the Gebauer-Moeller pair update and sugar selection;
output is the unique reduced Groebner basis sorted by ascending leading
monomial, so equal ideals produce identical bases.  Local colengths at
the origin are computed by m-adic truncation: quotient_dim(defining + I +
m^N) is evaluated along an increasing schedule of N until two values
agree, which by Nakayama pins the value for all larger N; once m^N lies
in the ideal already, the ideal is m-primary and its own quotient
dimension is the answer.

Work is cached on the objects that own it, never in module globals: an
``IdealHandle`` keeps its reduced basis for its lifetime, and a
``PresentedQuotient`` keeps one image handle per generator tuple and one
colength per image basis for its lifetime.  The CLI builds one
presentation per command, so nothing accumulates across commands.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush

from . import kernel
from .errors import ColengthBudgetError, ZeroPolynomialError
from .polyring import Polynomial, Ring, elimination

_COLENGTH_BUDGET = 64  # last truncation order tried without a finite guess
_COLENGTH_SCHEDULE = (2, 3, 4, 6, 8, 11, 15, 20, 26, 33, 41, 50, 60, _COLENGTH_BUDGET)


def _exp_divides(a, b):
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _exp_lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def _spoly(f, g, L, lkey, kc):
    """S-polynomial of monic term lists f, g with lead lcm ``L`` of key
    ``lkey``; keys are additive, so X^(L - lm f) has key lkey - key(lm f) + kc."""
    mf = tuple(x - y for x, y in zip(L, f[0][1]))
    mg = tuple(x - y for x, y in zip(L, g[0][1]))
    a = kernel.mono_mul_terms(f, lkey - f[0][0] + kc, mf, kernel.SONE, kc)
    b = kernel.mono_mul_terms(g, lkey - g[0][0] + kc, mg, (-1, 0, 1), kc)
    return kernel.add_terms(a, b)


def _groebner_terms(gens, ring, assume_prefix=0):
    """Reduced Groebner basis of ``gens`` (term lists); deterministic.  The
    first ``assume_prefix`` generators must be a Groebner basis already."""
    G = [kernel.monic_terms(g) for g in gens if g]
    if not G:
        return []
    kc = ring.kc
    lm = [g[0][1] for g in G]
    deg = [sum(e) for e in lm]
    sugar = [max(sum(t[1]) for t in g) for g in G]
    prefix = min(assume_prefix, len(G))
    live = list(range(prefix))  # elements whose leads no later lead divides
    basis = [G[k] for k in live]  # their term lists, the reducers
    heap = []  # pending pairs as (sugar, lcm key, i, j, lcm)

    def update(h):
        """Gebauer-Moeller update for the new element h."""
        eh, dh = lm[h], deg[h]
        monomial = len(G[h]) == 1
        new = []
        for k in live:
            L = _exp_lcm(lm[k], eh)
            dL = sum(L)
            # coprime leads, or two single terms: the S-polynomial reduces
            # to 0, so the pair is never queued, but it still prunes others
            trivial = dL == deg[k] + dh or (monomial and len(G[k]) == 1)
            new.append((dL, not trivial, k, L))
        new.sort()
        kept = []  # criteria M and F: keep a pair only if no kept lcm divides its lcm
        for _, queue, k, L in new:
            if not any(_exp_divides(M, L) for M, _, _ in kept):
                kept.append((L, queue, k))
        # criterion B: drop (i, j) if lm(h) divides its lcm L and neither
        # (i, h) nor (j, h) has lcm L
        heap[:] = [p for p in heap if not _exp_divides(eh, p[4])
                   or p[4] in (_exp_lcm(lm[p[2]], eh), _exp_lcm(lm[p[3]], eh))]
        heapify(heap)
        for L, queue, k in kept:
            if queue:
                s = max(sugar[k] - deg[k], sugar[h] - dh) + sum(L)
                heappush(heap, (s, ring.key(L), k, h, L))
        live[:] = [k for k in live if not _exp_divides(eh, lm[k])] + [h]
        basis[:] = [G[k] for k in live]

    for h in range(prefix, len(G)):
        update(h)
    while heap:
        s, lkey, i, j, L = heappop(heap)
        spol = _spoly(G[i], G[j], L, lkey, kc)
        r = spol and kernel.reduce_terms(spol, basis, kc)[1]
        if r:
            G.append(kernel.monic_terms(r))
            lm.append(G[-1][0][1])
            deg.append(sum(lm[-1]))
            sugar.append(s)
            update(len(G) - 1)

    # minimal basis: drop leading monomials divisible by another's
    order = sorted(range(len(G)), key=lambda t: G[t][0][0])
    minimal = []
    for t in order:
        e = lm[t]
        if not any(_exp_divides(m[0][1], e) for m in minimal):
            minimal.append(G[t])
    # interreduce tails against the rest
    reduced = list(minimal)
    for t in range(len(reduced)):
        others = reduced[:t] + reduced[t + 1 :]
        if not others:
            continue
        _, r = kernel.reduce_terms(reduced[t], others, ring.kc)
        reduced[t] = kernel.monic_terms(r)
    reduced = [g for g in reduced if g]
    reduced.sort(key=lambda g: g[0][0])
    return reduced


class IdealHandle:
    """Generator list with a cached reduced Groebner basis.

    The basis is computed on first use and kept for the handle's lifetime;
    the handle is otherwise immutable, and the cache fill is idempotent.
    """

    __slots__ = ("ring", "gens", "_gb")

    def __init__(self, ring: Ring, gens):
        self.ring = ring
        kept = []
        for g in gens:
            if isinstance(g, str):
                g = ring.polynomial(g)
            if g.ring != ring:
                raise ValueError("generator from a different ring")
            if g:
                kept.append(g)
        self.gens = tuple(kept)
        self._gb = None

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.gens)})"

    def groebner(self) -> tuple:
        if self._gb is None:
            terms = _groebner_terms([list(g.terms) for g in self.gens], self.ring)
            self._gb = tuple(Polynomial(self.ring, t) for t in terms)
        return self._gb

    def is_zero(self) -> bool:
        return not self.gens

    def contains(self, p: Polynomial) -> bool:
        if p.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        if not p:
            return True
        gb = self.groebner()
        if not gb:
            return False
        return not p.reduce(gb)

    def equals(self, other: IdealHandle) -> bool:
        if self.ring != other.ring:
            raise ValueError("ideals from different rings")
        return self.groebner() == other.groebner()

    def __add__(self, other: IdealHandle) -> IdealHandle:
        if self.ring != other.ring:
            raise ValueError("ideals from different rings")
        return IdealHandle(self.ring, self.gens + other.gens)

    def product(self, other: IdealHandle) -> IdealHandle:
        """Pairwise products, repeats dropped in order; a square uses only
        the pairs i <= j."""
        if self.ring != other.ring:
            raise ValueError("ideals from different rings")
        if self.gens == other.gens:
            pairs = itertools.combinations_with_replacement(self.gens, 2)
        else:
            pairs = itertools.product(self.gens, other.gens)
        return IdealHandle(self.ring, dict.fromkeys(a * b for a, b in pairs))

    def power(self, n: int) -> IdealHandle:
        if n < 1:
            raise ValueError("power must be >= 1")
        out = self
        for _ in range(n - 1):
            out = out.product(self)
        return out

    def leading_exponents(self) -> tuple:
        return tuple(g.terms[0][1] for g in self.groebner())

    def quotient_dim(self):
        """Vector-space dimension of ring/ideal, or None when infinite."""
        gb = self.groebner()
        if not gb:
            return None
        if gb[0].degree() == 0:
            return 0
        shape = _standard_shape(self.leading_exponents(), self.ring.n)
        return None if shape is None else shape[0]

    def colon(self, other: IdealHandle) -> IdealHandle:
        """Ideal quotient {p : p * other <= self}."""
        if other.is_zero():
            raise ZeroPolynomialError("colon by the zero ideal")
        result = None
        for g in other.gens:
            if self.contains(g):
                continue  # colon by an element of the ideal is everything
            cg = _colon_single(self, g)
            if result is None or result.gens == cg.gens:
                result = cg
            else:
                result = _intersect(result, cg)
        if result is None:
            return IdealHandle(self.ring, [self.ring.one()])
        return IdealHandle(self.ring, [p for p in result.groebner()])


def _standard_shape(lead_exps, n):
    """(count, top degree) of the monomials outside the monomial ideal of
    ``lead_exps``.

    Returns None when some variable has no pure power among the leads.
    One walk over the standard monomials, so the cost is linear in the
    count.
    """
    # prune leads divisible by other leads
    minimal = []
    for e in sorted(lead_exps, key=sum):
        if not any(_exp_divides(f, e) for f in minimal):
            minimal.append(e)
    for i in range(n):
        if not any(all(e[j] == 0 for j in range(n) if j != i) for e in minimal):
            return None
    origin = (0,) * n
    if any(sum(e) == 0 for e in minimal):
        return 0, 0
    seen = {origin}
    stack = [origin]
    count = top = 0
    while stack:
        e = stack.pop()
        count += 1
        top = max(top, sum(e))
        for i in range(n):
            f = e[:i] + (e[i] + 1,) + e[i + 1 :]
            if f in seen:
                continue
            seen.add(f)
            if not any(_exp_divides(le, f) for le in minimal):
                stack.append(f)
    return count, top


# -- elimination, intersection, colon -----------------------------------

_EXT_CACHE: dict = {}


def _ext_ring(ring: Ring) -> Ring:
    ext = _EXT_CACHE.get(ring)
    if ext is None:
        ext = Ring(("_w",) + ring.names, elimination(1))
        _EXT_CACHE[ring] = ext
    return ext


def _lift(p: Polynomial, ext: Ring, w_deg: int) -> Polynomial:
    terms = []
    for (_, e, a, b, d) in p.terms:
        ne = (w_deg,) + e
        terms.append((ext.key(ne), ne, a, b, d))
    terms.sort(reverse=True)
    return Polynomial(ext, terms)


def _drop(p: Polynomial, ring: Ring) -> Polynomial:
    terms = []
    for (_, e, a, b, d) in p.terms:
        ne = e[1:]
        terms.append((ring.key(ne), ne, a, b, d))
    terms.sort(reverse=True)
    return Polynomial(ring, terms)


def _intersect(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    """I cap J via the single-variable elimination trick."""
    ring = I.ring
    ext = _ext_ring(ring)
    w = ext.var("_w")
    one_minus_w = ext.one() - w
    gens = [_lift(g, ext, 1) for g in I.gens]
    gens += [one_minus_w * _lift(g, ext, 0) for g in J.gens]
    gb = IdealHandle(ext, gens).groebner()
    kept = [_drop(g, ring) for g in gb if all(t[1][0] == 0 for t in g.terms)]
    return IdealHandle(ring, kept)


def _colon_single(I: IdealHandle, g: Polynomial) -> IdealHandle:
    ring = I.ring
    meet = _intersect(I, IdealHandle(ring, [g]))
    quots = []
    for f in meet.gens:
        qs, r = f.reduce([g], want_quotients=True)
        if r:
            raise ArithmeticError("intersection element not divisible by generator")
        quots.append(qs[0])
    return IdealHandle(ring, quots)


def minors(rows, k: int) -> IdealHandle:
    """Ideal of all k x k minors of a matrix of polynomials."""
    if not rows or not rows[0]:
        raise ValueError("empty matrix")
    ring = rows[0][0].ring
    m, n = len(rows), len(rows[0])
    if k < 1 or k > min(m, n):
        raise ValueError(f"minor size {k} out of range for {m}x{n} matrix")

    def det(rs, cs):
        if len(rs) == 1:
            return rows[rs[0]][cs[0]]
        total = ring.zero()
        r0 = rs[0]
        for pos, c in enumerate(cs):
            sub = det(rs[1:], cs[:pos] + cs[pos + 1 :])
            term = rows[r0][c] * sub
            total = total + term if pos % 2 == 0 else total - term
        return total

    gens = []
    for rs in itertools.combinations(range(m), k):
        for cs in itertools.combinations(range(n), k):
            gens.append(det(tuple(rs), tuple(cs)))
    return IdealHandle(ring, gens)


def spair_audit(basis) -> bool:
    """Independent check that every S-polynomial of ``basis`` reduces to 0.

    Walks all pairs with no pruning, so it does not share the Buchberger
    pair bookkeeping it is meant to audit.
    """
    basis = list(basis)
    if not basis:
        return True
    ring = basis[0].ring
    terms = [kernel.monic_terms(list(b.terms)) for b in basis]
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            L = _exp_lcm(terms[i][0][1], terms[j][0][1])
            s = _spoly(terms[i], terms[j], L, ring.key(L), ring.kc)
            _, r = kernel.reduce_terms(s, terms, ring.kc)
            if r:
                return False
    return True


class PresentedQuotient:
    """A local ring presented as (power series ring) / (defining ideal).

    All equalities tested here (ideal equality among origin-primary
    ideals, colengths, products) are invariant under completion, so the
    computations run in the polynomial ring.

    The quotient keeps, for its lifetime, one image handle per generator
    tuple (so each image's reduced basis is computed once) and one
    colength per image basis.
    """

    __slots__ = ("ring", "defining", "_maximal", "_images", "_colengths")

    def __init__(self, ring: Ring, defining: IdealHandle):
        self.ring = ring
        for g in defining.gens:
            if any(sum(t[1]) < 2 for t in g.terms):
                raise ValueError(
                    "defining ideal not inside the square of the maximal ideal"
                )
        self.defining = defining
        self._maximal = None
        self._images = {}
        self._colengths = {}

    def maximal_ideal(self) -> IdealHandle:
        if self._maximal is None:
            self._maximal = IdealHandle(self.ring, self.ring.gens())
        return self._maximal

    def image(self, ideal: IdealHandle) -> IdealHandle:
        img = self._images.get(ideal.gens)
        if img is None:
            img = self._images[ideal.gens] = ideal + self.defining
            self._images[img.gens] = img  # an image is its own image
        return img

    def image_equal(self, I: IdealHandle, J: IdealHandle) -> bool:
        return self.image(I).equals(self.image(J))

    def colength(self, ideal: IdealHandle) -> int:
        """Length of (local ring)/(ideal) at the origin via truncation."""
        gb = self.image(ideal).groebner()
        length = self._colengths.get(gb)
        if length is None:
            length = self._colengths[gb] = self._truncated_length(gb)
        return length

    def _truncated_length(self, gb) -> int:
        if gb and gb[0].degree() == 0:
            return 0
        n = self.ring.n
        gb_terms = [list(g.terms) for g in gb]
        shape = _standard_shape([g.terms[0][1] for g in gb], n)
        prev = None
        for N in _schedule(shape):
            extra = self._outside(gb_terms, N)
            if not extra:
                # m^N lies in the ideal already, so the ideal is m-primary
                # and its quotient is local: no further Buchberger run
                return shape[0]
            final = _groebner_terms(gb_terms + extra, self.ring, assume_prefix=len(gb_terms))
            truncated = _standard_shape([t[0][1] for t in final], n)
            if truncated is None:
                raise ColengthBudgetError("truncated quotient unexpectedly infinite")
            if truncated[0] == prev:
                return prev
            prev = truncated[0]
        raise ColengthBudgetError(
            f"colength did not stabilize within truncation budget {_COLENGTH_BUDGET}"
        )

    def _outside(self, gb_terms, N):
        """The degree-N monomials that do not reduce to 0 modulo the basis."""
        ring = self.ring
        # honest members: single-term basis elements
        mono_lead = [t[0][1] for t in gb_terms if len(t) == 1]
        extra = []
        for e in _compositions(N, ring.n, mono_lead):
            mono = [(ring.key(e), e, 1, 0, 1)]
            _, r = kernel.reduce_terms(mono, gb_terms, ring.kc)
            if r:
                extra.append(mono)
        return extra

    def min_gens(self, ideal: IdealHandle) -> int:
        """Minimal number of generators of the image of ``ideal``."""
        m_ideal = self.maximal_ideal().product(ideal)
        return self.colength(m_ideal) - self.colength(ideal)


def _schedule(shape):
    """Truncation orders to try for an ideal whose leading-term quotient
    has ``shape`` (see ``_standard_shape``).

    Whenever that quotient is already finite, start just past its top
    degree: stabilization is immediate in that case.
    """
    if shape is None:
        return _COLENGTH_SCHEDULE
    guess = shape[1] + 1
    return (guess, guess + 1) + tuple(N for N in _COLENGTH_SCHEDULE if N > guess + 1)


def _compositions(N, n, mono_lead):
    """Exponent tuples of total degree N, skipping multiples of known
    monomial ideal members as we go."""

    def rec(prefix, remaining, slot):
        if slot == n - 1:
            e = prefix + (remaining,)
            if not any(_exp_divides(ml, e) for ml in mono_lead):
                yield e
            return
        for v in range(remaining + 1):
            pre = prefix + (v,)
            padded = pre + (0,) * (n - slot - 1)
            if any(
                _exp_divides(ml, padded)
                for ml in mono_lead
                if all(ml[i] == 0 for i in range(slot + 1, n))
            ):
                continue
            yield from rec(pre, remaining - v, slot + 1)

    yield from rec((), N, 0)
