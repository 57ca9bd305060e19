"""Groebner-basis core and ideal calculus.

Buchberger with the Gebauer-Moeller pair criteria (B applied when a pair
is popped, not by rebuilding the queue), taking pairs by ascending lcm
(the normal strategy), tuned for the inputs the program makes, which are
mostly monomials (the products in m*I^2, say).  Unless a prefix is
given as a reduced basis, the monomial inputs enter first as one batch:
a set of monomials is a Groebner basis already, so the minimal ones are
filed as that prefix, with no reduction and no pair update.  The other
inputs enter by ascending leading monomial, each fully reduced by the
basis so far, so one that a monomial already there divides is dropped
before any pair bookkeeping.  Two single-term elements never form a pair
(their S-polynomial is 0).  The live elements are those whose leads no
later lead divides; as the prefix is minimal and every later element
enters reduced by them, no live lead divides another, so they are the
minimal basis.  The output is the unique reduced Groebner basis sorted by
ascending leading monomial, so equal ideals produce identical bases.

A monomial is its packed key (see ``polyring``): keys are additive, and
one mask decides divisibility, so a lead is tested by key (the batch
entry, the live set, criterion B, the localization's pure powers, the
finite algebra's memo); a lead is a pure power of x_i when its key agrees
with kc's in every other exponent field.  Only the lcms of criteria M and
F have no key: Buchberger decodes each lead once, as its element enters
the basis, and forms and compares the lcms as exponent tuples.  Standard
monomials are walked layer by layer in total degree on keys, with set
lookups in place of divisibility tests, and come out as keys in ascending
order.

Local statements are decided in finite quotients.  A local colength at
the origin is computed in one step: when K has finite quotient dimension
D, the local algebra of k[x]/K at the origin has length at most D, so
m^D lies in K there, and K + (x_1^D, ..., x_n^D) has the same local ring
at the origin and no other zero; its quotient dimension is the local
length.  A colon K : L with k[x]/K finite is linear algebra on the
standard monomials of K (the multiplication-matrix idea of FGLM), and it
commutes with localization.  An infinite global quotient raises
``ColengthBudgetError``.

Each verdict on a candidate ideal I is linear algebra in one finite
algebra, A/(m*I^2 + J) at the origin (``FiniteAlgebra``), on the
standard monomials of its localized basis.  That basis is mostly
monomials, so the normal form of a monomial outside the standard ones is
read by membership: it is 0 when a monomial of the basis divides it (so
always, when the basis is monomials only), and only a monomial that no
such monomial divides is reduced.  The memo of normal forms is keyed by
key, so each monomial's normal form is found once.

Work is cached on the objects that own it, never in module globals: an
``IdealHandle`` keeps its reduced basis for its lifetime, and a
``PresentedQuotient`` keeps one image handle per generator tuple for its
lifetime, and the finite algebra of the ideal it last worked on; an
algebra keeps its memo of monomial normal forms, so each distinct
monomial's normal form is found once per ideal.  A localized ideal is not
kept: a command almost never asks for the same one twice, nor do its
standard monomials.  The CLI builds one presentation per command, so
nothing accumulates across commands.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush

from . import kernel
from .errors import ColengthBudgetError, ExponentRangeError, RingMismatchError, ZeroPolynomialError
from .polyring import _BIAS, _MASK, _MAX_EXP, _SHIFT, Polynomial, Ring, check_exponent_cap


def _exp_lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def _divides(a, b):
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _spoly(f, g, lkey):
    """S-polynomial of monic term lists f, g whose leads have the lcm of key
    ``lkey``; keys are additive, so X^(L - lm f) times f shifts f's keys by
    lkey - key(lm f)."""
    a = _lift(f, lkey - f[0][0])
    b = kernel.mono_mul_terms(g, lkey - g[0][0], (-1, 0, 1))
    return kernel.add_terms(a, b)


def _criterion_b(G, lm, i, j, L, lkey, kc):
    """Criterion B, applied when the pair (i, j) with lcm L of key ``lkey``
    is popped: some element h of G added after the pair was queued (h > j)
    has a lead dividing L, and neither (i, h) nor (j, h) has lcm L.  These
    are the pairs an eager update would have removed from the queue as each
    h came in.  ``lm`` holds the leads' exponents."""
    for h in range(j + 1, len(G)):
        if (
            (G[h][0][0] - lkey + kc) & kc == kc
            and L != _exp_lcm(lm[i], lm[h])
            and L != _exp_lcm(lm[j], lm[h])
        ):
            return True
    return False


def _groebner_terms(gens, ring, assume_prefix=0):
    """Reduced Groebner basis of ``gens`` (term lists); deterministic.  The
    first ``assume_prefix`` generators must be a reduced basis already."""
    gens = [g for g in gens if g]
    if not gens:
        return []
    kc = ring.kc
    prefix = min(assume_prefix, len(gens))
    if not prefix:
        # the monomial inputs enter as one batch, as the prefix: a set of
        # monomials is a Groebner basis already; by ascending key a later
        # monomial never divides an earlier one, so the kept ones (no kept
        # monomial divides them) are minimal
        kept, keys = [], []
        for g in sorted((g for g in gens if len(g) == 1), key=lambda g: g[0][0]):
            k = g[0][0]
            for m in keys:
                if (m - k + kc) & kc == kc:
                    break
            else:
                kept.append(g)
                keys.append(k)
        gens = kept + [g for g in gens if len(g) > 1]
        prefix = len(kept)
    G = [kernel.monic_terms(g) for g in gens[:prefix]]
    lm = [ring.exponents(g[0][0]) for g in G]  # the leads' exponents
    live = list(range(prefix))  # elements whose leads no later lead divides
    basis = list(G)  # their term lists, the reducers
    heap = []  # pending pairs as (lcm key, i, j, lcm), popped by ascending lcm

    def add(g):
        """Append the monic element g, reduced by ``basis``, and apply the
        Gebauer-Moeller update for it."""
        h = len(G)
        G.append(g)
        kh = g[0][0]
        eh = ring.exponents(kh)
        lm.append(eh)
        monomial = len(g) == 1
        new = []
        for k in live:
            if monomial and len(G[k]) == 1:
                # two single terms: the S-polynomial is 0, so no pair and no
                # lcm; as the pair prunes nothing either, at worst a few more
                # pairs are queued than the full criteria M and F would keep
                continue
            L = _exp_lcm(lm[k], eh)
            new.append((sum(L), k, L))
        new.sort()
        kept = []  # criteria M and F: queue a pair only if no kept lcm divides its lcm
        for _, k, L in new:
            if not any(_divides(M, L) for M in kept):
                kept.append(L)
                heappush(heap, (ring.key(L), k, h, L))
        live[:] = [k for k in live if (kh - G[k][0][0] + kc) & kc != kc] + [h]
        basis[:] = [G[k] for k in live]

    # the other inputs enter by ascending lead, each fully reduced by the live
    # basis first, so no live lead divides the lead of one that enters
    for g in sorted(gens[prefix:], key=lambda g: g[0][0]):
        r = kernel.reduce_terms(g, basis, kc) if basis else g
        if r:
            add(kernel.monic_terms(r))
    while heap:
        lkey, i, j, L = heappop(heap)
        if _criterion_b(G, lm, i, j, L, lkey, kc):
            continue
        spol = _spoly(G[i], G[j], lkey)
        r = spol and kernel.reduce_terms(spol, basis, kc)
        if r:
            add(kernel.monic_terms(r))

    # the live set is the minimal basis: the prefix is minimal, and every other
    # element enters reduced by the live basis, so no live lead divides another
    minimal = [G[k] for k in sorted(live, key=lambda k: G[k][0][0])]
    # interreduce tails against the rest; the leads stay, so the list stays
    # sorted by ascending lead, and a single term is reduced already
    reduced = list(minimal)
    for t, g in enumerate(minimal):
        if len(g) > 1 and len(minimal) > 1:
            reduced[t] = kernel.reduce_terms(g, reduced[:t] + reduced[t + 1 :], kc)
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
            if g.ring != ring:
                raise RingMismatchError("generator from a different ring")
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

    def __add__(self, other: IdealHandle) -> IdealHandle:
        if self.ring != other.ring:
            raise RingMismatchError("ideals from different rings")
        return IdealHandle(self.ring, self.gens + other.gens)

    def colon(self, other: IdealHandle) -> IdealHandle:
        """Ideal quotient {p : p * other <= self}, for an ideal whose
        quotient is finite (``ColengthBudgetError`` otherwise).

        (self : other)/self is the kernel of s -> (NF(s*g))_{g in other} on
        the span of the standard monomials s (``_colon_kernel``): self's
        basis and the kernel rows generate the colon.
        """
        if self.ring != other.ring:
            raise RingMismatchError("ideals from different rings")
        if other.is_zero():
            raise ZeroPolynomialError("colon by the zero ideal")
        ring, kc = self.ring, self.ring.kc
        gb = [list(g.terms) for g in self.groebner()]
        std = _standard_monomials([g[0][0] for g in gb], ring)
        if std is None:
            raise ColengthBudgetError("the global quotient is infinite")
        if not std:
            return self  # the unit ideal
        prods = ((k, [_lift(g.terms, k - kc) for g in other.gens])
                 for k in std)
        nfs = ((k, [kernel.reduce_terms(p, gb, kc) for p in ps]) for k, ps in prods)
        kernel_rows = _colon_kernel(nfs, std[-1] + 1, {})  # normal forms have standard keys
        return IdealHandle(ring, self.groebner() + tuple(Polynomial(ring, r) for r in kernel_rows))


# -- echelon on term lists ---------------------------------------------
#
# Finite-algebra linear algebra (the colon, and every subspace of a
# ``FiniteAlgebra``) runs on term lists as rows, with the leading key as the
# pivot column.  The pivots are a dict from leading key to monic row.


def _eliminate(row, pivots):
    """Echelon step: while the leading key of the term list ``row`` has a
    pivot, subtract the multiple of the pivot that cancels it.  Returns the
    reduced row."""
    while row and row[0][0] in pivots:
        _, a, b, d = row[0]
        row = kernel.add_terms(row, kernel.mono_mul_terms(pivots[row[0][0]], 0, (-a, -b, d)))
    return row


def _echelon(rows, pivots=None, stop=None):
    """Echelon of term lists on leading keys: file each row that the pivots
    so far (``pivots``, none by default) leave nonzero, made monic, until
    there are ``stop`` pivots.  Returns the pivots; their number is the
    rank."""
    pivots = {} if pivots is None else pivots
    for row in rows:
        row = _eliminate(row, pivots)
        if row:
            pivots[row[0][0]] = kernel.monic_terms(row)
            if len(pivots) == stop:
                break
    return pivots


def _lift(row, shift):
    """The term list ``row`` with every key raised by ``shift``."""
    return [(t[0] + shift,) + t[1:] for t in row]


def _colon_kernel(nfs, offset, pivots):
    """The kernel rows of s -> (NF(s*g_j))_j, modulo the rows in ``pivots``:
    ``nfs`` yields (s, [NF(s*g_1), ..., NF(s*g_n)]) by ascending key s, with
    every key below ``offset``.  Each row carries s itself below the normal
    forms, whose g_j block is lifted by j*offset above every key in play
    (the pivots' keys too), so echelon on the lifted keys leaves kernel rows
    with distinct leading monomials s.  Fills ``pivots``."""
    kernel_rows = []
    for s, blocks in nfs:
        row = [t for j in range(len(blocks), 0, -1) for t in _lift(blocks[j - 1], j * offset)]
        row = _eliminate(row + [(s, 1, 0, 1)], pivots)
        if row[0][0] >= offset:
            pivots[row[0][0]] = kernel.monic_terms(row)
        else:
            kernel_rows.append(row)
    return kernel_rows


def _standard_monomials(lead_keys, ring):
    """The keys of the monomials outside the monomial ideal of the leads of
    keys ``lead_keys``, in ascending order, found layer by layer in total
    degree.

    f is standard exactly when f is not a lead and every f - x_j with
    f_j > 0 is standard: a lead properly dividing f divides one of them.
    Each f of the next layer is formed once, as e + x_i from the standard e
    with i at or past e's last nonzero index, and its other f - x_j (j < i)
    are looked up in the current layer.  Keys are additive, so f's key is
    e's plus ``ring.units[i]``, and every test is a set lookup of a key;
    e_j = 0 exactly when e's key keeps the top bit of field j, that of kc.

    Returns None when some variable has no pure power among the leads.  A
    lead is a power of x_i exactly when its key equals kc in every exponent
    field but x_i's, since field j holds _BIAS - e_j, which is _BIAS, kc's,
    exactly when e_j = 0: no lead is decoded.
    """
    n, units, kc = ring.n, ring.units, ring.kc
    fields = (1 << _SHIFT * n) - 1  # every exponent field, not the degree
    for i in range(n):
        others = fields ^ (_MASK << _SHIFT * i)
        if not any((k ^ kc) & others == 0 for k in lead_keys):
            return None
    lead_keys = set(lead_keys)
    if kc in lead_keys:
        return []
    bits = [_BIAS << _SHIFT * j for j in range(n)]
    out = []
    layer = [(kc, 0)]  # (key of e, e's last nonzero index)
    while layer:
        layer.sort()  # one total degree: by key is by the order
        keys = [k for k, _ in layer]
        out += keys
        known = set(keys)
        step = []
        for k, top in layer:
            for i in range(top, n):
                fk = k + units[i]
                if fk not in lead_keys and all(
                    k & bits[j] or fk - units[j] in known for j in range(i)
                ):
                    step.append((fk, i))
        layer = step
    return out


def _localize(ring: Ring, basis):
    """Localize the ideal whose reduced Groebner basis is ``basis`` (term
    lists): the reduced basis and standard monomials of an ideal with the
    same local ring at the origin and no other zero, so that its quotient
    dimension is the local length.

    With D = dim k[x]/ideal, the number of standard monomials, finite,
    adding the pure powers x_i^D changes nothing at the origin (m^D lies in
    the ideal there); when each x_i^D reduces to 0 already, ``basis`` and
    its standard monomials are the answer and no basis is computed.
    """
    std = _standard_monomials([g[0][0] for g in basis], ring)
    if std is None:
        raise ColengthBudgetError("the global quotient is infinite")
    D, kc = len(std), ring.kc
    members = [g[0][0] for g in basis if len(g) == 1]  # keys of the ideal's monomials
    powers = []
    for i in range(ring.n):
        # a lead over x_j is standard, so no lead exponent exceeds D and a
        # monomial divides x_i^D only if it is a power of x_i: testing
        # x_i^min(D, 2^15 - 1) keeps the key test exact for any D
        pk = kc + min(D, _BIAS - 1) * ring.units[i]
        if any((m - pk + kc) & kc == kc for m in members):
            continue
        if D > _MAX_EXP:
            raise ExponentRangeError(f"exponent {D} exceeds the cap {_MAX_EXP}")
        r = kernel.reduce_terms([(pk, 1, 0, 1)], basis, kc)
        if r:
            powers.append(r)
    if not powers:
        return basis, std
    local = _groebner_terms(basis + powers, ring, assume_prefix=len(basis))
    return local, _standard_monomials([g[0][0] for g in local], ring)


def minors(rows) -> IdealHandle:
    """Ideal of the 2x2 minors of a 2-row matrix of polynomials: one
    a_i*b_j - a_j*b_i for each pair of columns i < j, in the order of
    ``itertools.combinations``."""
    if len(rows) != 2 or len(rows[0]) != len(rows[1]) or len(rows[0]) < 2:
        raise ValueError("minors need a matrix of 2 rows and at least 2 columns")
    a, b = rows
    return IdealHandle(
        a[0].ring,
        [a[i] * b[j] - a[j] * b[i] for i, j in itertools.combinations(range(len(a)), 2)],
    )


class PresentedQuotient:
    """A local ring presented as (power series ring) / (defining ideal).

    All equalities tested here (ideal equality among origin-primary
    ideals, colengths, products) are invariant under completion, so the
    computations run in the polynomial ring.

    The quotient keeps, for its lifetime, one image handle per generator
    tuple (so each image's reduced basis is computed once); of the
    ``FiniteAlgebra`` objects it keeps the most recent one.
    """

    __slots__ = ("ring", "defining", "_images", "_algebra")

    def __init__(self, ring: Ring, defining: IdealHandle):
        self.ring = ring
        for g in defining.gens:
            # grevlex is graded, so a term of degree below 2 lies at or below
            # x_1, the greatest of degree 1, and so does the last term
            if g.terms[-1][0] <= ring.kc + ring.units[0]:
                raise ValueError(
                    "defining ideal not inside the square of the maximal ideal"
                )
            check_exponent_cap(g)
        self.defining = defining
        self._images = {}
        self._algebra = (None, None)

    def maximal_ideal(self) -> IdealHandle:
        return IdealHandle(self.ring, self.ring.gens())

    def image(self, ideal: IdealHandle) -> IdealHandle:
        img = self._images.get(ideal.gens)
        if img is None:
            img = self._images[ideal.gens] = ideal + self.defining
            self._images[img.gens] = img  # an image is its own image
        return img

    def colength(self, ideal: IdealHandle) -> int:
        """Length of (local ring)/(ideal) at the origin."""
        img = self.image(ideal)
        basis = [list(g.terms) for g in img.groebner()]
        return len(_localize(self.ring, basis)[1])

    def algebra(self, ideal: IdealHandle) -> FiniteAlgebra:
        """The finite algebra of ``ideal`` (see ``FiniteAlgebra``).  Only the
        most recent one is kept: a command reads each ideal's algebra in one
        stretch, so an older one would only hold memory."""
        gens, alg = self._algebra
        if gens != ideal.gens:
            alg = FiniteAlgebra(self, ideal)
            self._algebra = (ideal.gens, alg)
        return alg


class FiniteAlgebra:
    """B = A/L at the origin, L = m*I^2 + J, for I = (g_1, ..., g_n) in
    A = k[x]/J; its k-basis is the standard monomials s of the localized L.

    An ideal K containing L at the origin is the span K/L of the normal
    forms NF(s*k), k generating K, and ell(A/K) = dim B - dim K/L: the
    NF(s*g_j) span I/L, those with s != 1 span m*I/L, and the NF(g_i*g_j)
    span W = I^2/L, the degree-2 part of the fiber cone.  A normal form is
    linear, so NF(s*p) sums c*NF(s*u) over the terms c*u of p, and each
    monomial's normal form is found once (a memo, which starts with the
    standard monomials; see the module docstring for the others).

    Each product P_ij = g_i*g_j is formed once: L is generated by J and the
    x_k*P_ij, and W by the NF(P_ij).  The coordinates of w in W are its
    coefficients at the pivot keys of W's echelon (projecting onto them is
    one-to-one on W), at most n(n+1)/2 of them.

    The frame, I/L's echelon, files the rows with s != 1 first (they span
    m*I/L), then each NF(g_i) with a tag term appended, keyed by the
    position g_i takes among the generators that file; tag keys lie below
    kc, the key of 1, so below every monomial key.  A row left with tags
    only is not filed; the generators that file (``minimal``, their
    indices) generate I minimally at the origin, by Nakayama; there are mu
    of them.  The span test (see ``ulrich``) is a rank in W's coordinates
    over vectors a on these positions: q = sum a_p*g_p has the rows
    sum a_p*coord(P_pj), j in ``minimal``.  A vector lists p by ascending
    position, as the term (p, a_p), or as p alone when a_p = 1: a tuple c of
    positions is the vector of ones there, and ``_vector`` reads q's off the
    frame: the one membership test in I, for seeds and ``contains``.  Each
    vector's rows and echelon are formed once; a pair whose two ranks sum
    below dim W fails with no elimination.
    """

    __slots__ = ("dim", "length", "mu", "minimal", "square_length", "_basis",
                 "_monomial_leads", "_polynomial_leads", "_kc", "_memo", "_standard", "_rows",
                 "_pivots", "_squares", "_w_pivots", "_coords", "_vectors", "_spans")

    def __init__(self, A: PresentedQuotient, I: IdealHandle):
        ring, kc = A.ring, A.ring.kc
        gens = [list(g.terms) for g in I.gens]
        n = len(gens)
        pairs = list(itertools.combinations_with_replacement(range(n), 2))
        products = {(i, j): kernel.mul_terms(gens[i], gens[j], kc) for i, j in pairs}
        # m*I^2 from the same products, each x_k*P_ij once and in the order of
        # m*(I^2): the generators of I^2, then of m times them, repeats dropped
        squares = dict.fromkeys(tuple(p) for p in products.values())
        m_squares = dict.fromkeys(
            tuple(_lift(p, u))
            for u in ring.units
            for p in squares
        )
        basis = _groebner_terms(
            [list(t) for t in m_squares] + [list(g.terms) for g in A.defining.gens], ring
        )
        # the standard monomials come by ascending key, 1 first
        self._basis, self._standard = _localize(ring, basis)
        self._monomial_leads = [g[0][0] for g in self._basis if len(g) == 1]
        self._polynomial_leads = [g[0][0] for g in self._basis if len(g) > 1]
        self._kc = kc
        self._memo = {k: [(k, 1, 0, 1)] for k in self._standard}
        self.dim = len(self._standard)
        self._rows = [[self._shifted(g, k) for g in gens] for k in self._standard]
        pivots = _echelon(itertools.chain.from_iterable(self._rows[1:]))
        minimal = []
        for i, row in enumerate(self._rows[0]):
            row = _eliminate(row + [(len(minimal), 1, 0, 1)], pivots)
            if row[0][0] >= kc:
                pivots[row[0][0]] = kernel.monic_terms(row)
                minimal.append(i)
        self._pivots = pivots
        self.length = self.dim - len(pivots)
        self.minimal = tuple(minimal)
        self.mu = len(minimal)
        nfs = {p: self._nf(products[p]) for p in pairs}
        self._squares = list(nfs.values())
        self._w_pivots = _echelon(self._squares)
        self.square_length = self.dim - len(self._w_pivots)
        self._coords = [
            [self._coord(nfs[min(i, j), max(i, j)]) for j in minimal] for i in minimal
        ]
        self._vectors = {}
        self._spans = {}

    def _shifted(self, p, mkey):
        """NF(X^m * p) for a term list p and the monomial X^m of key
        ``mkey``."""
        kc, memo = self._kc, self._memo
        shift = mkey - kc
        out = []
        for k, a, b, d in p:
            fk = k + shift
            nf = memo.get(fk)
            if nf is None:
                # the memo holds every standard monomial, so some lead
                # divides f, and NF(f) is 0 unless every lead dividing f
                # belongs to an element that is not a monomial
                nf = memo[fk] = (
                    kernel.reduce_terms([(fk, 1, 0, 1)], self._basis, kc)
                    if self._polynomial_leads
                    and any((le - fk + kc) & kc == kc for le in self._polynomial_leads)
                    and not any((le - fk + kc) & kc == kc for le in self._monomial_leads)
                    else []
                )
            if nf:
                if a != 1 or b or d != 1:
                    nf = kernel.mono_mul_terms(nf, 0, (a, b, d))
                out = kernel.add_terms(out, nf) if out else nf
        return out

    def _nf(self, p):
        return self._shifted(p, self._kc)

    def _coord(self, w):
        """The coordinates of w in W: its terms at the pivot keys of W."""
        return [t for t in w if t[0] in self._w_pivots]

    def _span(self, Q: IdealHandle):
        """Echelon of (Q + L)/L, spanned by the NF(s*q); one per Q."""
        pivots = self._spans.get(Q.gens)
        if pivots is None:
            qs = [list(q.terms) for q in Q.gens]
            rows = (self._shifted(q, k) for k in self._standard for q in qs)
            pivots = self._spans[Q.gens] = _echelon(rows)
        return pivots

    def _vector(self, q):
        """q's vector, as the tags (coefficients -a_p) the frame leaves of
        NF(q); None when it leaves a monomial lead: q is outside I there."""
        row = _eliminate(self._nf(list(q.terms)), self._pivots)
        if row and row[0][0] >= self._kc:
            return None
        return tuple(p if (a, b, d) == (-1, 0, 1) else (p, -a, -b, d)
                     for p, a, b, d in reversed(row))

    def contains(self, K: IdealHandle) -> bool:
        """Does K lie in I at the origin?"""
        return all(self._vector(k) is not None for k in K.gens)

    def spans(self, Q: IdealHandle):
        """The span test: do the q*g_j (q in Q, j in ``minimal``) span W?
        None when some q lies outside I at the origin."""
        vectors = [self._vector(q) for q in Q.gens]
        return None if None in vectors else self._rank_test(vectors)

    def spans_combinations(self, c1, c2):
        """The span test for q = sum g_p over the positions p in c1 and c2
        among the minimal generators, the vectors of ones there."""
        return self._rank_test((c1, c2))

    def _rank_test(self, vectors):
        """Do the vectors' rows span W?  The rows after the first vector's
        continue its echelon, unless the ranks sum below dim W."""
        w_dim, entries, ranks = len(self._w_pivots), [], 0
        for v in vectors:
            entry = self._vectors.get(v) or self._vector_rows(v)
            entries.append(entry)
            ranks += len(entry[1])
        if ranks < w_dim:
            return False  # rank [R1; R2] <= rank R1 + rank R2
        pivots = dict(entries[0][1])
        for rows, _ in entries[1:]:
            _echelon(rows, pivots, w_dim)
        return len(pivots) == w_dim

    def _vector_rows(self, v):
        """Cache and return (rows, their echelon) of the vector v: the rows
        sum a_p*coord(P_pj), j in ``minimal``."""
        terms = [(t, None) if type(t) is int else (t[0], t[1:]) for t in v]
        rows = []
        for coords in zip(*self._coords):  # coords[p] = coord(P_pj)
            row = []
            for p, a in terms:
                w = coords[p]
                if w:
                    w = kernel.mono_mul_terms(w, 0, a) if a else w
                    row = kernel.add_terms(row, w) if row else w
            rows.append(row)
        entry = self._vectors[v] = (rows, _echelon(rows))
        return entry

    def colength(self, Q: IdealHandle) -> int:
        """ell(A/(Q + L)): ell(A/Q) when Q contains L, as a reduction does."""
        return self.dim - len(self._span(Q))

    def is_good(self, Q: IdealHandle) -> bool:
        """Q : I == I at the origin.  Q : I contains I exactly when W lies in
        (Q + L)/L (then I^2 lies in Q + m*I^2, so in Q by Nakayama, as does
        L), and then the two are equal exactly when ell(A/(Q : I)), the rank
        of s -> (NF(s*g_j) mod Q)_j, equals ell(A/I).  That map is then 0
        on I/L, so it must be one-to-one on the ell(A/I) standard monomials
        off the pivots of I/L's echelon, which span a complement of I/L:
        no kernel row (``_colon_kernel``, modulo Q's span in each block)."""
        span = self._span(Q)
        if any(_eliminate(w, span) for w in self._squares):
            return False
        offset = self._standard[-1] + 1  # normal forms have standard keys only
        pivots = {}
        for j in range(1, len(self._rows[0]) + 1):
            for head in span.values():
                pivots[head[0][0] + j * offset] = _lift(head, j * offset)
        rows = ((k, row) for k, row in zip(self._standard, self._rows) if k not in self._pivots)
        return not _colon_kernel(rows, offset, pivots)
