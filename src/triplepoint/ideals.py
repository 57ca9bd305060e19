"""Groebner-basis core and ideal calculus.

Buchberger with the Gebauer-Moeller pair update and sugar selection; a
pair whose S-polynomial is identically zero (the two elements are monomial
multiples of one polynomial) is dropped before it is formed.  The output
is the unique reduced Groebner basis sorted by ascending leading monomial,
so equal ideals produce identical bases.

Local statements are decided in finite quotients.  A local colength at
the origin is computed in one step: when K has finite quotient dimension
D, the local algebra of k[x]/K at the origin has length at most D, so
m^D lies in K there, and K + (x_1^D, ..., x_n^D) has the same local ring
at the origin and no other zero; its quotient dimension is the local
length.  A colon K : L with k[x]/K finite is linear algebra on the
standard monomials of K (the multiplication-matrix idea of FGLM).  An
infinite global quotient raises ``ColengthBudgetError``.

Work is cached on the objects that own it, never in module globals: an
``IdealHandle`` keeps its reduced basis and standard monomials for its
lifetime, and a ``PresentedQuotient`` keeps one image handle per
generator tuple and one localized handle per image basis for its
lifetime.  The CLI builds one presentation per command, so nothing
accumulates across commands.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush

from . import kernel
from .errors import ColengthBudgetError, ZeroPolynomialError
from .kernel import _divides
from .polyring import Polynomial, Ring, check_exponent_cap


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


def _same_multiple(f, g):
    """Is the S-polynomial of monic term lists f, g zero?  It is exactly
    when (L/lm f)*f = (L/lm g)*g: the lists have one length, and term by
    term the keys, shifted by their leads' keys, and the coefficients agree."""
    if len(f) != len(g):
        return False
    kf, kg = f[0][0], g[0][0]
    return all(s[0] - kf == t[0] - kg and s[2:] == t[2:] for s, t in zip(f, g))


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
            if not any(_divides(M, L) for M, _, _ in kept):
                kept.append((L, queue, k))
        # criterion B: drop (i, j) if lm(h) divides its lcm L and neither
        # (i, h) nor (j, h) has lcm L
        heap[:] = [p for p in heap if not _divides(eh, p[4])
                   or p[4] in (_exp_lcm(lm[p[2]], eh), _exp_lcm(lm[p[3]], eh))]
        heapify(heap)
        for L, queue, k in kept:
            if queue:
                s = max(sugar[k] - deg[k], sugar[h] - dh) + sum(L)
                heappush(heap, (s, ring.key(L), k, h, L))
        live[:] = [k for k in live if not _divides(eh, lm[k])] + [h]
        basis[:] = [G[k] for k in live]

    for h in range(prefix, len(G)):
        update(h)
    while heap:
        s, lkey, i, j, L = heappop(heap)
        if _same_multiple(G[i], G[j]):
            continue
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
        if not any(_divides(m[0][1], e) for m in minimal):
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

    The basis and, for a finite quotient, the standard monomials are
    computed on first use and kept for the handle's lifetime; the handle is
    otherwise immutable, and the cache fills are idempotent.
    """

    __slots__ = ("ring", "gens", "_gb", "_std")

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
        self._std = None

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
        std = self._standard()
        return None if std is None else len(std)

    def _standard(self):
        """Exponents of the standard monomials, or None when infinitely many."""
        if self._std is None:
            self._std = _standard_monomials(self.leading_exponents(), self.ring.n)
        return self._std

    def colon(self, other: IdealHandle) -> IdealHandle:
        """Ideal quotient {p : p * other <= self}, for an ideal whose
        quotient is finite (``ColengthBudgetError`` otherwise).

        (self : other)/self is the kernel of s -> (NF(s*g))_{g in other} on
        the span of the standard monomials s.  Each row carries s itself
        below the normal forms, whose g-block is lifted above every key in
        play; rows are taken by ascending s, so echelon on the lifted keys
        leaves kernel rows with distinct leading monomials s.
        """
        if self.ring != other.ring:
            raise ValueError("ideals from different rings")
        if other.is_zero():
            raise ZeroPolynomialError("colon by the zero ideal")
        std = self._standard()
        if std is None:
            raise ColengthBudgetError("the global quotient is infinite")
        if not std:
            return self  # the unit ideal
        ring, kc = self.ring, self.ring.kc
        gb = [list(g.terms) for g in self.groebner()]
        monomials = sorted((ring.key(e), e) for e in std)
        offset = monomials[-1][0] + 1  # normal forms have standard keys only
        pivots = {}
        kernel_rows = []
        for k, e in monomials:
            row = [(k, e, 1, 0, 1)]
            for j, g in enumerate(other.gens, start=1):
                prod = kernel.mono_mul_terms(list(g.terms), k, e, kernel.SONE, kc)
                nf = kernel.reduce_terms(prod, gb, kc)[1]
                row = [(t[0] + j * offset, t[1], t[2], t[3], t[4]) for t in nf] + row
            row = _cancel_leads(row, pivots)
            if row[0][0] >= offset:
                pivots[row[0][0]] = kernel.monic_terms(row)
            else:
                kernel_rows.append(row)
        if not kernel_rows:
            return self
        # Already a Groebner basis: a colon element is a member of self plus
        # its normal form, which lies in the kernel, so its leading monomial
        # leads a basis element or a kernel row.  Only interreduction is left.
        basis = gb + kernel_rows
        return _from_basis(ring, _groebner_terms(basis, ring, assume_prefix=len(basis)))


def _cancel_leads(row, pivots):
    """Echelon step: subtract pivot rows (monic, by leading key) from the
    term list ``row`` while its leading key has one."""
    while row and row[0][0] in pivots:
        _, _, a, b, d = row[0]
        row = kernel.add_terms(row, kernel.scale_terms(pivots[row[0][0]], (-a, -b, d)))
    return row


def _from_basis(ring: Ring, basis) -> IdealHandle:
    """Handle generated by a reduced Groebner basis given as term lists."""
    handle = IdealHandle(ring, [Polynomial(ring, t) for t in basis])
    handle._gb = handle.gens
    return handle


def _standard_monomials(lead_exps, n):
    """Exponents outside the monomial ideal of ``lead_exps``, the leading
    exponents of a reduced basis, by one walk from the origin.

    Returns None when some variable has no pure power among the leads.
    """
    for i in range(n):
        if not any(all(e[j] == 0 for j in range(n) if j != i) for e in lead_exps):
            return None
    origin = (0,) * n
    if origin in lead_exps:
        return []
    seen = {origin}
    stack = [origin]
    out = []
    while stack:
        e = stack.pop()
        out.append(e)
        for i in range(n):
            f = e[:i] + (e[i] + 1,) + e[i + 1 :]
            if f in seen:
                continue
            seen.add(f)
            if not any(_divides(le, f) for le in lead_exps):
                stack.append(f)
    return out


def _localize(ideal: IdealHandle) -> IdealHandle:
    """An ideal with the local ring of ``ideal`` at the origin and no other
    zero, so that its quotient dimension is the local length.

    With D = dim k[x]/ideal finite, adding the pure powers x_i^D changes
    nothing at the origin (m^D lies in the ideal there); when each x_i^D
    reduces to 0 already, the ideal is the answer and no basis is computed.
    """
    D = ideal.quotient_dim()
    if D is None:
        raise ColengthBudgetError("the global quotient is infinite")
    ring = ideal.ring
    gb = [list(g.terms) for g in ideal.groebner()]
    members = [g[0][1] for g in gb if len(g) == 1]  # monomials of the ideal
    powers = []
    for i in range(ring.n):
        e = tuple(D if j == i else 0 for j in range(ring.n))
        if any(_divides(m, e) for m in members):
            continue
        r = kernel.reduce_terms(list(ring.monomial(e).terms), gb, ring.kc)[1]
        if r:
            powers.append(r)
    if not powers:
        return ideal
    return _from_basis(ring, _groebner_terms(gb + powers, ring, assume_prefix=len(gb)))


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
    localized handle per image basis.
    """

    __slots__ = ("ring", "defining", "_maximal", "_images", "_local")

    def __init__(self, ring: Ring, defining: IdealHandle):
        self.ring = ring
        for g in defining.gens:
            if any(sum(t[1]) < 2 for t in g.terms):
                raise ValueError(
                    "defining ideal not inside the square of the maximal ideal"
                )
            check_exponent_cap(g)
        self.defining = defining
        self._maximal = None
        self._images = {}
        self._local = {}

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
        """Length of (local ring)/(ideal) at the origin."""
        return self._localized(ideal).quotient_dim()

    def _localized(self, ideal: IdealHandle) -> IdealHandle:
        """The image of ``ideal`` with its local ring at the origin and no
        other zero (see ``_localize``); one per image basis."""
        img = self.image(ideal)
        gb = img.groebner()
        local = self._local.get(gb)
        if local is None:
            local = self._local[gb] = _localize(img)
        return local

    def min_gens(self, ideal: IdealHandle) -> int:
        """Minimal number of generators of the image of ``ideal``."""
        m_ideal = self.maximal_ideal().product(ideal)
        return self.colength(m_ideal) - self.colength(ideal)
