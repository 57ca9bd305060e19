"""Randomized property suites, runnable standalone and from acceptance.

Each suite asserts its property over ``cases`` randomized instances and
returns the number of cases it ran.  Seeds are fixed by the callers so
failures reproduce.
"""

import itertools
import math
import random

from reference import edge_ids, from_terms, reduce, spair_audit
from triplepoint.dualgraph import DualGraph, fundamental_cycle, is_antinef
from triplepoint.ideals import IdealHandle, PresentedQuotient
from triplepoint.polyring import Ring

R4 = Ring(("x", "y", "z", "t"))
R3 = Ring(("x", "y", "z"))
x, y, z, t = R4.gens()

A123 = PresentedQuotient(
    R4,
    IdealHandle(R4, [x * y - t**5, x * z - t**6 - z * t**2, y * z + y * t**4 - z * t**3]),
)


def _random_poly(rng, ring, max_terms=4, max_deg=2, max_coeff=3):
    pairs = []
    for _ in range(rng.randint(1, max_terms)):
        exp = [0] * ring.n
        for _ in range(rng.randint(0, max_deg)):
            exp[rng.randrange(ring.n)] += 1
        c = (rng.randint(-max_coeff, max_coeff), rng.randint(-1, 1), rng.randint(1, 2))
        pairs.append((tuple(exp), c))
    return from_terms(ring, pairs)


def assert_canonical(p):
    """The terms of ``p`` are canonical: keys strictly descending, each the
    ring's key of the nonnegative exponents it decodes to, coefficients
    nonzero and in lowest terms with a positive denominator."""
    keys = [t[0] for t in p.terms]
    assert all(a > b for a, b in zip(keys, keys[1:]))
    for key, a, b, d in p.terms:
        exp = p.ring.exponents(key)
        assert min(exp) >= 0 and key == p.ring.key(exp)
        assert (a or b) and d > 0 and math.gcd(math.gcd(a, b), d) == 1


def run_spair_audit(seed=101, cases=200):
    """Every emitted Groebner basis passes the independent S-pair audit."""
    rng = random.Random(seed)
    for _ in range(cases):
        gens = [_random_poly(rng, R3) for _ in range(rng.randint(1, 3))]
        basis = IdealHandle(R3, gens).groebner()
        assert spair_audit(basis)
    return cases


def run_division_recombination(seed=202, cases=300):
    """p == sum(q_i g_i) + r exactly, the remainder is irreducible, and the
    remainder and quotients are canonical."""
    rng = random.Random(seed)
    for _ in range(cases):
        p = _random_poly(rng, R4, max_terms=5, max_deg=3)
        divisors = [
            g
            for g in (_random_poly(rng, R4) for _ in range(rng.randint(1, 3)))
            if g
        ]
        if not divisors:
            divisors = [x]
        quots, r = reduce(p, divisors, want_quotients=True)
        for part in [r] + quots:
            assert_canonical(part)
        total = r
        for q, g in zip(quots, divisors):
            total = total + q * g
        assert total == p
        assert reduce(r, divisors) == r
    return cases


def _random_tree_graph(rng, max_n=7):
    n = rng.randint(1, max_n)
    ids = [f"E{k}" for k in range(n)]
    edges = [(ids[rng.randrange(k)], ids[k]) for k in range(1, n)]
    weights = [rng.choice([-2, -2, -3, -4]) for _ in range(n)]
    return DualGraph(ids, weights, edges)


def run_laufer_order_independence(seed=303, cases=200):
    """The fundamental cycle does not depend on the vertex numbering."""
    rng = random.Random(seed)
    for _ in range(cases):
        g = _random_tree_graph(rng)
        n = g.n
        Z = fundamental_cycle(g)
        perm = list(range(n))
        rng.shuffle(perm)
        g2 = DualGraph(
            [g.ids[p] for p in perm], [g.weights[p] for p in perm], edge_ids(g)
        )
        Z2 = fundamental_cycle(g2)
        assert all(Z[p] == Z2[k] for k, p in enumerate(perm))
    return cases


def run_minimality_oracle(seed=404, cases=100):
    """Brute force: every anti-nef cycle dominates Z0 componentwise."""
    rng = random.Random(seed)
    for _ in range(cases):
        g = _random_tree_graph(rng, max_n=6)
        Z0 = fundamental_cycle(g)
        bound = [min(2 * c, 4) for c in Z0]
        for cand in itertools.product(*(range(b + 1) for b in bound)):
            if not any(cand):
                continue
            if is_antinef(g, cand):
                assert all(c >= z for c, z in zip(cand, Z0))
    return cases


def run_colength_monotonicity(seed=505, cases=200):
    """I <= J implies len(A/I) >= len(A/J)."""
    rng = random.Random(seed)
    for _ in range(cases):
        k = rng.randint(1, 4)
        gens = [x, y, z, t**k]
        for _ in range(rng.randint(0, 2)):
            p = _random_poly(rng, R4, max_terms=2, max_deg=2)
            if p:
                gens.append(p)
        I = IdealHandle(R4, gens)
        extra = _random_poly(rng, R4, max_terms=2, max_deg=3)
        J = I + IdealHandle(R4, [extra] if extra else [])
        assert A123.colength(I) >= A123.colength(J)
    return cases


ALL_SUITES = (
    run_spair_audit,
    run_division_recombination,
    run_laufer_order_independence,
    run_minimality_oracle,
    run_colength_monotonicity,
)
