"""Groebner engine, ideal calculus, colengths."""

import itertools
import random
import signal

import pytest

from reference import (
    cofactor_minors,
    contains,
    from_terms,
    monomial,
    power,
    printed_matrix,
    product,
    quotient_dim,
    read,
    spair_audit,
)
from triplepoint import ideals, kernel
from triplepoint.errors import ColengthBudgetError, ExponentRangeError, RingMismatchError
from triplepoint.ideals import IdealHandle, PresentedQuotient, minors
from triplepoint.polyring import Ring
from triplepoint.presentations import instantiate, parse_tag
from triplepoint.ulrich import VERDICT_NOT_GOOD, ulrich_check

R = Ring(("x", "y", "z", "t"))
x, y, z, t = R.gens()

A123_GENS = [x * y - t**5, x * z - t**6 - z * t**2, y * z + y * t**4 - z * t**3]


def A123():
    return PresentedQuotient(R, IdealHandle(R, A123_GENS))


def test_buchberger_monomial_pair():
    gb = IdealHandle(R, [x**2, x * y]).groebner()
    assert [str(g) for g in gb] == ["x*y", "x^2"]


def test_buchberger_variables():
    gb = IdealHandle(R, [x, y, z, t]).groebner()
    assert {str(g) for g in gb} == {"x", "y", "z", "t"}


def test_buchberger_a123_membership_and_audit():
    I = IdealHandle(R, A123_GENS)
    assert contains(I, x * y - t**5)
    assert spair_audit(I.groebner())


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _reference_groebner(gens, ring):
    """Plain Buchberger with no pair criteria: every pair is reduced
    against everything, then the basis is made minimal and interreduced."""
    kc = ring.kc
    G = [kernel.monic_terms(g) for g in gens if g]
    pairs = [(i, j) for j in range(len(G)) for i in range(j)]
    while pairs:
        i, j = pairs.pop()
        f, g = G[i], G[j]
        ef, eg = ring.exponents(f[0][0]), ring.exponents(g[0][0])
        L = tuple(max(a, b) for a, b in zip(ef, eg))
        mf = tuple(a - b for a, b in zip(L, ef))
        mg = tuple(a - b for a, b in zip(L, eg))
        s = kernel.add_terms(
            kernel.mul_terms([(ring.key(mf), 1, 0, 1)], f, kc),
            kernel.mul_terms([(ring.key(mg), -1, 0, 1)], g, kc),
        )
        r = kernel.reduce_terms(s, G, kc)
        if r:
            G.append(kernel.monic_terms(r))
            pairs += [(k, len(G) - 1) for k in range(len(G) - 1)]
    minimal = []
    for g in sorted(G, key=lambda g: g[0][0]):
        lead = ring.exponents(g[0][0])
        if not any(_divides(ring.exponents(m[0][0]), lead) for m in minimal):
            minimal.append(g)
    reduced = []
    for k, g in enumerate(minimal):
        r = kernel.reduce_terms(g, minimal[:k] + minimal[k + 1 :], kc)
        reduced.append(kernel.monic_terms(r))
    return sorted(reduced, key=lambda g: g[0][0])


_COEFFS = ((1, 0, 1), (-1, 0, 1), (2, 0, 1), (0, 1, 1), (1, 1, 2), (-3, 0, 2))


def _random_exponent(rng, ring, degree):
    exp = [0] * ring.n
    for _ in range(degree):
        exp[rng.randrange(ring.n)] += 1
    return tuple(exp)


def _random_terms(rng, ring):
    """A random monomial or binomial of degree 1 to 3, the shape of most
    generators the program makes."""
    pairs = []
    for _ in range(rng.randint(1, 2)):
        pairs.append((_random_exponent(rng, ring, rng.randint(1, 3)), rng.choice(_COEFFS)))
    return list(from_terms(ring, pairs).terms)


@pytest.mark.parametrize("ring", [R], ids=["grevlex"])
def test_buchberger_matches_reference_without_criteria(ring):
    # t*(x*(y - z)) = x*(t*(y - z)): a queued pair, its leads x*y and y*t
    # not coprime, whose S-polynomial is identically zero
    shared = IdealHandle(ring, [x * (y - z), t * (y - z)])
    gens = [list(g.terms) for g in shared.gens]
    assert ideals._groebner_terms(gens, ring) == _reference_groebner(gens, ring)
    assert [str(g) for g in shared.groebner()] == ["y*t - z*t", "x*y - x*z"]
    rng = random.Random(31)
    for _ in range(50):
        gens = [_random_terms(rng, ring) for _ in range(rng.randint(3, 5))]
        expected = _reference_groebner(gens, ring)
        assert ideals._groebner_terms(gens, ring) == expected, gens
        # a known basis of the first generators as the assumed prefix
        k = rng.randint(1, len(gens))
        prefix = _reference_groebner(gens[:k], ring)
        got = ideals._groebner_terms(prefix + gens[k:], ring, assume_prefix=len(prefix))
        assert got == expected, (gens, k)


def test_monomial_batch_keeps_the_minimal_inputs():
    # inputs whose leads divide one another, with no prefix given: the
    # monomial batch keeps the minimal ones (a given prefix must be reduced)
    prefix = [list(g.terms) for g in (x**2, y, x)]
    expected = [list(g.terms) for g in (y, x)]
    assert ideals._groebner_terms(prefix, R) == expected


def _monomial_heavy(rng, ring):
    """8 to 30 monomials of degree 1 to 6, with repeats and multiples of
    earlier ones on purpose, and 1 to 3 binomials or trinomials, shuffled:
    the shape of m*I^2 + J."""
    exps = []
    for _ in range(rng.randint(8, 30)):
        roll = rng.random()
        if exps and roll < 0.2:
            exps.append(rng.choice(exps))  # a repeat
        elif exps and roll < 0.5:
            e = list(rng.choice(exps))  # a multiple
            while sum(e) < 6 and rng.random() < 0.7:
                e[rng.randrange(ring.n)] += 1
            exps.append(tuple(e))
        else:
            exps.append(_random_exponent(rng, ring, rng.randint(1, 6)))
    gens = [list(from_terms(ring, [(e, rng.choice(_COEFFS))]).terms) for e in exps]
    for _ in range(rng.randint(1, 3)):
        pairs = [
            (_random_exponent(rng, ring, rng.randint(1, 6)), rng.choice(_COEFFS))
            for _ in range(rng.randint(2, 3))
        ]
        gens.append(list(from_terms(ring, pairs).terms))
    rng.shuffle(gens)
    return gens


@pytest.mark.parametrize("ring", [R], ids=["grevlex"])
def test_buchberger_matches_reference_on_monomial_heavy_inputs(ring):
    rng = random.Random(47)
    for _ in range(12):
        gens = _monomial_heavy(rng, ring)
        expected = _reference_groebner(gens, ring)
        assert ideals._groebner_terms(gens, ring) == expected, gens
        k = rng.randint(1, len(gens))
        prefix = _reference_groebner(gens[:k], ring)
        got = ideals._groebner_terms(prefix + gens[k:], ring, assume_prefix=len(prefix))
        assert got == expected, (gens, k)


def test_buchberger_matches_reference_on_trace_ideal_products():
    # I + J, m*I + J, I^2 + J and m*I^2 + J for I = (x, y, z, t^2) in A:1,2,3
    A = A123()
    I = IdealHandle(R, [x, y, z, t**2])
    m = A.maximal_ideal()
    J = [list(g.terms) for g in A.defining.gens]
    prefix = _reference_groebner(J, R)
    for ideal in (I, product(m, I), power(I, 2), product(m, power(I, 2))):
        gens = [list(g.terms) for g in A.image(ideal).gens]
        expected = _reference_groebner(gens, R)
        assert ideals._groebner_terms(gens, R) == expected
        rest = [list(g.terms) for g in ideal.gens]
        got = ideals._groebner_terms(prefix + rest, R, assume_prefix=len(prefix))
        assert got == expected


def _monomial(ring, exp, coeff):
    return list(from_terms(ring, [(exp, coeff)]).terms)


def test_monomial_batch_matches_reference():
    # non-monic coefficients 2, i and 1/3, repeats, multiples of earlier
    # monomials, monomials only, and a known basis as the assumed prefix
    two, i, third = (2, 0, 1), (0, 1, 1), (1, 0, 3)
    cases = [
        [_monomial(R, (2, 0, 0, 0), two), _monomial(R, (1, 1, 0, 0), i),
         _monomial(R, (2, 0, 0, 0), third), _monomial(R, (3, 1, 0, 0), two)],
        [_monomial(R, (0, 0, 0, 3), i), _monomial(R, (0, 2, 0, 0), third),
         _monomial(R, (0, 2, 0, 1), two), list((x * y - t**2).terms),
         list((2 * x * z - y * t).terms), _monomial(R, (0, 0, 0, 3), third)],
        [_monomial(R, (0, 0, 0, 0), third), list((x - y).terms)],
    ]
    rng = random.Random(53)
    for _ in range(20):
        cases.append([
            _monomial(R, _random_exponent(rng, R, rng.randint(0, 4)), rng.choice(_COEFFS))
            for _ in range(rng.randint(1, 12))
        ])
    for gens in cases:
        expected = _reference_groebner(gens, R)
        assert ideals._groebner_terms(gens, R) == expected, gens
        for k in range(1, len(gens) + 1):
            prefix = _reference_groebner(gens[:k], R)
            got = ideals._groebner_terms(prefix + gens[k:], R, assume_prefix=len(prefix))
            assert got == expected, (gens, k)


def _reductions(monkeypatch):
    """The list of arguments of every ``kernel.reduce_terms`` call from now on."""
    calls = []
    original = kernel.reduce_terms

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(kernel, "reduce_terms", counted)
    return calls


def test_monomial_inputs_make_no_reduction_on_entry(monkeypatch):
    # m^3 is 20 monomials, a Groebner basis as it stands
    calls = _reductions(monkeypatch)
    m3 = power(IdealHandle(R, [x, y, z, t]), 3)
    assert len(m3.groebner()) == 20
    assert calls == []
    # a binomial among them enters through the reduction
    assert IdealHandle(R, m3.gens + (x * y - z * t,)).groebner()
    assert calls


def test_monomial_pairs_compute_no_lcm(monkeypatch):
    # m^3 is 20 monomials: 190 pairs, none of which needs an lcm
    computed = []
    original = ideals._exp_lcm

    def counted(a, b):
        computed.append((a, b))
        return original(a, b)

    monkeypatch.setattr(ideals, "_exp_lcm", counted)
    m3 = power(IdealHandle(R, [x, y, z, t]), 3)
    assert len(m3.gens) == 20
    assert len(m3.groebner()) == 20
    assert computed == []
    # one binomial among them pairs with the monomials
    gens = m3.gens + (x * y - z * t,)
    assert IdealHandle(R, gens).groebner()
    assert computed


def test_monomial_input_forms_no_s_polynomial(monkeypatch):
    formed = []
    original = ideals._spoly

    def counted(*args):
        formed.append(args)
        return original(*args)

    monkeypatch.setattr(ideals, "_spoly", counted)
    m3 = power(IdealHandle(R, [x, y, z, t]), 3)
    assert len(m3.groebner()) == 20
    assert formed == []
    # the counter sees the pairs of a non-monomial input
    assert IdealHandle(R, A123_GENS).groebner()
    assert formed


def test_spair_audit_rejects_non_basis():
    assert not spair_audit([x * y - t**5, x * z - t**6 - z * t**2])


def test_member_trivial():
    assert contains(IdealHandle(R, [x]), x**2)
    assert not contains(IdealHandle(R, [x, y, z, t]), R.one())


def test_ideal_equal():
    assert IdealHandle(R, [x, x + y]).groebner() == IdealHandle(R, [x, y]).groebner()
    assert (
        IdealHandle(R, [x, y, z, t**2, t**3]).groebner()
        == IdealHandle(R, [x, y, z, t**2]).groebner()
    )


def test_trace_equals_entry_ideal_a123():
    # entry ideal of the defining matrix plus the relations = (x,y,z,t^2)
    entries = [x, t**3, t**4 + z, t**2, y, z]
    lhs = IdealHandle(R, entries + A123_GENS)
    rhs = IdealHandle(R, [x, y, z, t**2] + A123_GENS)
    assert lhs.groebner() == rhs.groebner()


def test_ideal_equal_random_shuffle_and_units():
    rng = random.Random(7)
    I = IdealHandle(R, A123_GENS)
    units = [(0, 1, 1), (2, 0, 1), (-1, 0, 1), (0, -2, 1)]
    for _ in range(6):
        gens = list(A123_GENS)
        rng.shuffle(gens)
        gens = [g * rng.choice(units) for g in gens]
        assert IdealHandle(R, gens).groebner() == I.groebner()


def test_sum_product_power():
    assert (IdealHandle(R, [x]) + IdealHandle(R, [y])).groebner() == (
        IdealHandle(R, [x, y]).groebner()
    )
    xy = IdealHandle(R, [x, y])
    assert product(xy, xy).groebner() == IdealHandle(R, [x**2, x * y, y**2]).groebner()
    m = IdealHandle(R, [x, y, z, t])
    assert quotient_dim(power(m, 2)) == 5


def test_square_drops_repeated_generators():
    m2 = power(IdealHandle(R, [x, y, z, t]), 2)
    assert len(m2.gens) == 10
    square = power(m2, 2)
    assert len(square.gens) == len(set(square.gens)) == 35
    naive = IdealHandle(R, [a * b for a in m2.gens for b in m2.gens])
    assert len(naive.gens) == 100
    assert square.groebner() == naive.groebner()


def test_colon():
    colon = IdealHandle(R, [x**2, y, z, t]).colon(IdealHandle(R, [x]))
    assert colon.groebner() == IdealHandle(R, [x, y, z, t]).groebner()
    xyzt2 = IdealHandle(R, [x, y, z, t**2])
    assert xyzt2.colon(IdealHandle(R, [R.one()])).groebner() == xyzt2.groebner()
    # the colon is linear algebra in the finite quotient
    with pytest.raises(ColengthBudgetError):
        IdealHandle(R, [x**2]).colon(IdealHandle(R, [x]))


def test_colon_basis_is_the_reduced_groebner_basis():
    A = A123()
    m = IdealHandle(R, [x, y, z, t])
    cases = [
        (power(m, 3), m, power(m, 2)),
        (A.image(IdealHandle(R, [x, y, z, t**3])), m,
         A.image(IdealHandle(R, [x, y, z, t**2]))),
        (IdealHandle(R, [x**2 - x, y, z, t**2]), IdealHandle(R, [t]),
         IdealHandle(R, [x**2 - x, y, z, t])),
    ]
    for K, L, expected in cases:
        C = K.colon(L)
        assert C.groebner() == expected.groebner()
        # the basis built from the kernel rows is what Buchberger returns
        assert C.groebner() == IdealHandle(R, C.gens).groebner()
        assert all(contains(K, c * g) for c in C.gens for g in L.gens)


def test_colon_good_ideal_identity_a123():
    # (Q1 : J1) = J1 inside the quotient, consequence of Ulrich => good
    A = A123()
    J1 = IdealHandle(R, [x, y, z, t])
    Q1 = IdealHandle(R, [t, x + y + z])
    assert A.image(Q1).colon(J1).groebner() == A.image(J1).groebner()


def test_minors_2x2_is_determinant():
    M = [[x, y], [z, t]]
    assert minors(M).groebner() == IdealHandle(R, [x * t - y * z]).groebner()


def test_minors_2x4_match_cofactor_expansion():
    # EX-5.3's six minors, term for term and in column-pair order
    text = printed_matrix(parse_tag("EX-5.3"))
    ring = instantiate("EX-5.3").ring
    M = [[read(ring, e) for e in row] for row in text]
    expected = cofactor_minors(M, 2)
    assert len(expected) == 6
    assert [g.terms for g in minors(M).gens] == [g.terms for g in expected]


def test_minors_out_of_range():
    for rows in ([[x, y]], [[x, y], [z, t], [x, t]], [[x], [y]], [[x, y], [z]]):
        with pytest.raises(ValueError):
            minors(rows)


def test_quotient_dim():
    assert quotient_dim(IdealHandle(R, [x, y, z, t])) == 1
    assert quotient_dim(IdealHandle(R, [x])) is None
    R2 = Ring(("x", "y"))
    assert quotient_dim(IdealHandle(R2, [R2.var("x")])) is None


def test_ring_mismatch_raises():
    # a package error, which the CLI maps to an exit code, not a ValueError
    R2 = Ring(("x", "y"))
    other = IdealHandle(R2, [R2.var("x")])
    with pytest.raises(RingMismatchError):
        IdealHandle(R, [x, R2.var("y")])
    with pytest.raises(RingMismatchError):
        IdealHandle(R, [x]) + other
    with pytest.raises(RingMismatchError):
        IdealHandle(R, [x, y, z, t]).colon(other)


def _brute_standard_count(lead_exps, n, box):
    count = 0
    for e in itertools.product(*(range(b + 1) for b in box)):
        if not any(all(le[k] <= e[k] for k in range(n)) for le in lead_exps):
            count += 1
    return count


def test_quotient_dim_brute_force_oracle():
    rng = random.Random(11)
    R3 = Ring(("x", "y", "z"))
    for _ in range(25):
        pures = [rng.randint(1, 4) for _ in range(3)]
        gens = [monomial(R3, tuple(p if k == i else 0 for k in range(3)))
                for i, p in enumerate(pures)]
        for _ in range(rng.randint(0, 3)):
            e = tuple(rng.randint(0, 3) for _ in range(3))
            if any(e):
                gens.append(monomial(R3, e))
        I = IdealHandle(R3, gens)
        expected = _brute_standard_count(
            [R3.exponents(g.terms[0][0]) for g in I.groebner()], 3, [max(pures)] * 3
        )
        assert quotient_dim(I) == expected


def test_standard_monomials_match_box_enumeration():
    rng = random.Random(29)
    for n in (3, 4):
        ring = Ring(tuple(f"v{k}" for k in range(n)))
        for _ in range(30):
            pures = [rng.randint(1, 4) for _ in range(n)]
            leads = {tuple(p if k == i else 0 for k in range(n)) for i, p in enumerate(pures)}
            for _ in range(rng.randint(0, 5)):
                leads.add(tuple(rng.randint(0, 3) for _ in range(n)))
            leads.discard((0,) * n)
            box = itertools.product(*(range(p) for p in pures))
            expected = [e for e in box if not any(_divides(le, e) for le in leads)]
            got = ideals._standard_monomials([ring.key(e) for e in leads], ring)
            assert sorted(ring.exponents(k) for k in got) == expected, leads
            assert got == sorted(set(got))  # ascending, so no repeats
    # the pure-power test reads keys: lead e with x_j (j != i) is finite
    # exactly when e is a pure power of x_i, for exponents up to 2^15 - 1
    top = (1 << 15) - 1
    for n in (4, 5):
        ring = Ring(tuple(f"v{k}" for k in range(n)))
        exps = [(0,) * n] + [tuple(top * (k == i) for k in range(n)) for i in range(n)]
        exps += [tuple(rng.choice((0, 0, 1, top, rng.randint(1, top))) for _ in range(n))
                 for _ in range(40)]
        for e in exps:
            lead = ring.key(e)
            exp = ring.exponents(lead)
            for i in range(n):
                others = [ring.kc + ring.units[j] for j in range(n) if j != i]
                got = ideals._standard_monomials([lead] + others, ring)
                if any(exp[j] for j in range(n) if j != i):
                    assert got is None, (e, i)
                else:
                    assert got == [ring.kc + a * ring.units[i] for a in range(exp[i])], (e, i)
    R3 = Ring(("x", "y", "z"))
    # a variable without a pure power: infinitely many
    leads = [R3.key(e) for e in [(2, 0, 0), (0, 3, 0), (0, 1, 1)]]
    assert ideals._standard_monomials(leads, R3) is None
    # the unit ideal: none
    assert ideals._standard_monomials([R3.kc], R3) == []


def test_local_length_examples():
    A = A123()
    m = IdealHandle(R, [x, y, z, t])
    assert A.colength(m) == 1
    for i in (1, 2, 3):
        Ji = IdealHandle(R, [x, y, z, t**i])
        assert A.colength(Ji) == i


def test_local_length_sees_only_the_origin():
    # (x, y, z^2 - z, t) cuts out the origin and the surface point
    # (0, 0, 1, 0): the global quotient has length 2, the local length at
    # the origin ignores the distant point
    A = A123()
    I = IdealHandle(R, [x, y, z**2 - z, t])
    assert quotient_dim(A.image(I)) == 2
    assert A.colength(I) == 1


def test_local_length_of_m_primary_ideal_runs_no_truncation_basis(monkeypatch):
    # m^N already lies in (x, y, z, t^3) + defining, so the colength is the
    # quotient dimension of the basis in hand
    A = A123()
    truncations = []
    original = ideals._groebner_terms

    def counted(gens, ring, assume_prefix=0):
        if assume_prefix:
            truncations.append(assume_prefix)
        return original(gens, ring, assume_prefix)

    monkeypatch.setattr(ideals, "_groebner_terms", counted)
    assert A.colength(IdealHandle(R, [x, y, z, t**3])) == 3
    assert truncations == []
    # (x^2 - x, y, z, t) also cuts out the point (1, 0, 0, 0) of the
    # surface: m^N never lies in it, so truncation must run
    I = IdealHandle(R, [x**2 - x, y, z, t])
    assert quotient_dim(A.image(I)) == 2
    assert A.colength(I) == 1
    assert truncations


def test_images_are_cached_per_quotient():
    A = A123()
    I = IdealHandle(R, [x, y, z, t**2])
    assert A.image(I) is A.image(IdealHandle(R, [x, y, z, t**2]))
    assert A.image(A.image(I)) is A.image(I)
    assert A.colength(I) == 2
    # the same ideal from other generators: another image, the same basis
    other = IdealHandle(R, [t**2, z, y, x])
    assert A.image(other) is not A.image(I)
    assert A.image(other).groebner() == A.image(I).groebner()
    assert A.colength(other) == 2


def test_local_length_budget_error():
    # (x, y) leaves a curve through the origin: no stabilization
    A = A123()
    with pytest.raises(ColengthBudgetError):
        A.colength(IdealHandle(R, [x, y]))


def test_local_length_monotone():
    A = A123()
    I = IdealHandle(R, [x, y, z, t**3])
    J = IdealHandle(R, [x, y, z, t**3, t**2])
    assert A.colength(I) >= A.colength(J)


def test_min_gens():
    A = A123()
    m = IdealHandle(R, [x, y, z, t])
    assert A.algebra(m).mu == 4
    for i in (1, 2):
        assert A.algebra(IdealHandle(R, [x, y, z, t**i])).mu == 4


def test_presented_quotient_rejects_low_degree():
    with pytest.raises(ValueError):
        PresentedQuotient(R, IdealHandle(R, [x - t**2]))


def test_gb_cache_is_stable():
    I = IdealHandle(R, A123_GENS)
    assert I.groebner() is I.groebner()


def test_monomial_algebra_reads_normal_forms_by_membership(monkeypatch):
    # for I = m in A:1,2,3 the localized basis of m*I^2 + J is monomials
    # only, so every monomial outside the standard ones has normal form 0,
    # and no normal form is reduced by that basis
    A = A123()
    calls = _reductions(monkeypatch)
    alg = ideals.FiniteAlgebra(A, A.maximal_ideal())
    assert not alg._polynomial_leads
    assert not [c for c in calls if c[1] is alg._basis]
    assert (alg.dim, alg.length, alg.mu, alg.square_length) == (12, 1, 4, 5)
    # a mixed basis: monomials that only its binomial leads divide are reduced
    I = IdealHandle(R, [x, y, z, t**2])
    mixed = ideals.FiniteAlgebra(A, I)
    assert mixed._polynomial_leads
    assert [c for c in calls if c[1] is mixed._basis]


class _OverTime(Exception):
    pass


def _raise_over_time(signum, frame):
    raise _OverTime


def test_non_homogeneous_algebras_finish_under_a_time_bound():
    # m-primary ideals of A:1,2,3 with non-homogeneous generators, where the
    # Groebner basis of m*I^2 + J is prone to coefficient growth: the four
    # full certificates finish within 30 s
    cases = [
        ([2 * x * z + 3 * x + 2 * t, 3 * x * y + 2 * z * t + 2 * z], (21, 4, 4, 6)),
        ([x * t + 2 * y * t + y, 3 * x + 2 * t], (18, 4, 3, 5)),
        ([3 * x + 3 * z + 3 * t, x * t + x], (18, 3, 4, 5)),
        ([3 * x * y + 3 * x, 2 * y + 3 * z + 3 * t], (18, 3, 4, 5)),
    ]
    A = A123()
    previous = signal.signal(signal.SIGALRM, _raise_over_time)
    signal.setitimer(signal.ITIMER_REAL, 30)
    try:
        for gens, (dim, length, mu, e0) in cases:
            I = IdealHandle(R, gens + [x**3, y**2, z**2, t**3])
            B = A.algebra(I)
            assert (B.dim, B.length, B.mu) == (dim, length, mu), gens
            assert A.colength(I) == length
            cert = ulrich_check(A, I)
            assert (cert.e0, cert.verdict) == (e0, VERDICT_NOT_GOOD), gens
    except _OverTime:
        pytest.fail("the four certificates took more than 30 s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "tag,gens,polynomial_elements",
    [("A:8,8,8", ["x", "y", "z", "t^9"], 3), ("RDP-D:6", ["x + i*y^2", "y^3", "z"], 4)],
)
def test_key_indexed_memo_matches_uncached_reduction(tag, gens, polynomial_elements):
    # bases with non-monomial elements, so that some memo entries are reduced
    # and others are read by membership; every monomial of degree <= 6, shifted
    # from 1 and in a second pass again, must have the normal form that the
    # kernel's division by the localized basis gives
    A = instantiate(tag).quotient
    ring, kc = A.ring, A.ring.kc
    alg = ideals.FiniteAlgebra(A, IdealHandle(ring, [read(ring, g) for g in gens]))
    assert len(alg._polynomial_leads) == polynomial_elements
    assert alg._standard[0] == kc
    exps = [e for e in itertools.product(range(7), repeat=ring.n) if sum(e) <= 6]
    for _ in range(2):
        for e in exps:
            term = [(ring.key(e), 1, 0, 1)]
            assert alg._shifted(term, kc) == kernel.reduce_terms(term, alg._basis, kc)
    # and shifted by a monomial rather than from 1
    x_key = ring.var("x").terms[0][0]
    for e in exps:
        f = (e[0] + 1,) + e[1:]
        want = kernel.reduce_terms([(ring.key(f), 1, 0, 1)], alg._basis, kc)
        assert alg._shifted([(ring.key(e), 1, 0, 1)], x_key) == want


def test_defining_ideal_must_lie_in_the_square_of_m():
    # every term of every defining generator has degree at least 2
    for bad in (x * y - t, x * y - 1, x * y + z**3 + y):
        with pytest.raises(ValueError):
            PresentedQuotient(R, IdealHandle(R, [x * z - t**2, bad]))
    PresentedQuotient(R, IdealHandle(R, [x * z - t**2, x * y + z**3 + y * t]))


def test_localize_past_the_key_range():
    # D = 40000 is past 2^15, where x_i^D has no exact key: a monomial power
    # x^200 of the ideal still counts as dividing x^40000, so the ideal is
    # already local; a missing one needs x^40000 itself, past the cap
    local = IdealHandle(R, [x**200, y**200, z, t])
    basis = [list(g.terms) for g in local.groebner()]
    std = ideals._standard_monomials([g[0][0] for g in basis], R)
    got = ideals._localize(R, basis)
    assert got[0] is basis and got[1] == std
    assert len(std) == 40000
    other = IdealHandle(R, [x**200, x * y - y**200, z, t])
    basis = [list(g.terms) for g in other.groebner()]
    with pytest.raises(ExponentRangeError):
        ideals._localize(R, basis)
