"""Polynomial arithmetic, the grevlex order, rendering."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplepoint.errors import ExponentRangeError, RingMismatchError, ZeroPolynomialError
from property_suites import assert_canonical
from reference import from_terms, monomial, reduce
from triplepoint.ideals import IdealHandle, PresentedQuotient
from triplepoint.polyring import _MAX_EXP, Ring, check_exponent_cap

R = Ring(("x", "y", "z", "t"))
x, y, z, t = R.gens()


def _degree(p):
    """Total degree of a nonzero polynomial: grevlex leads with it."""
    return sum(p.ring.exponents(p.terms[0][0]))


def test_add_cancellation():
    assert (x + y) + (x - y) == 2 * x


def test_add_identity():
    p = x**2 * y - 3 * t
    assert p + R.zero() == p


def test_add_example_from_presentation():
    # (t^5) + (xy - t^5) -> xy
    assert t**5 + (x * y - t**5) == x * y


def test_mul_difference_of_squares():
    assert (x + y) * (x - y) == x**2 - y**2


def test_mul_identity():
    p = x * z - t**6 - z * t**2
    assert p * R.one() == p


def test_gaussian_conjugates():
    i = R.scalar((0, 1, 1))
    assert (x + i * y) * (x - i * y) == x**2 + y**2


def test_degree_of_product_adds():
    p = x * y - t**5
    q = z**2 + t
    assert _degree(p * q) == _degree(p) + _degree(q)


def test_leading_term_grevlex_tiebreak():
    # x t^3 and t^4 have equal degree; grevlex prefers the smaller t power
    p = x * t**3 + t**4
    k, a, b, d = p.terms[0]
    assert R.exponents(k) == (1, 0, 0, 3)
    assert (a, b, d) == (1, 0, 1)


def test_leading_term_degree_dominates():
    assert R.exponents((x**2 + y).terms[0][0]) == (2, 0, 0, 0)


def test_ring_mismatch_raises():
    other = Ring(("x", "y"))
    with pytest.raises(RingMismatchError):
        x + other.var("x")


def test_reduce_single_step():
    q, r = reduce(x**2, [x], want_quotients=True)
    assert not r and q[0] == x


def test_reduce_by_zero_divisor_raises():
    with pytest.raises(ZeroPolynomialError):
        reduce(x, [y, R.zero()])


def test_reduce_no_step():
    assert reduce(y, [x]) == y


def test_reduce_grevlex_t5_leads():
    # under grevlex the binomial xy - t^5 leads with t^5
    p = x**2 * y
    assert reduce(p, [x * y - t**5]) == p


def test_render_table():
    # every branch of the term and scalar renderers: the unit, negative,
    # pure imaginary, mixed, rational and constant coefficients, first and
    # later in a polynomial
    i = (0, 1, 1)
    table = [
        (R.zero(), "0"),
        (x * y - t**5, "-t^5 + x*y"),
        (x * z - t**6 - z * t**2, "-t^6 - z*t^2 + x*z"),
        (x**2 * (1, 1, 1) + t * (0, 2, 1) + R.scalar((-3, 0, 2)), "(1+i)*x^2 + 2i*t - 3/2"),
        (x**2 + y**2, "x^2 + y^2"),
        (-x + y, "-x + y"),
        (-3 * x + y * (1, 0, 2) + z * (-1, 0, 2), "-3*x + 1/2*y - 1/2*z"),
        (x * i - t * (0, 2, 1), "i*x - 2i*t"),
        (-(x * i) + y * (0, -1, 2), "-i*x - 1/2i*y"),
        (x * (-2, -1, 2), "(-1-1/2i)*x"),
        (x + R.scalar((1, 1, 1)), "x + (1+i)"),
        (x - 3, "x - 3"),
        (x + R.scalar((0, -1, 1)), "x - i"),
        (y + R.scalar((0, 5, 3)), "y + 5/3i"),
        (R.scalar(i), "i"),
        (R.scalar((0, -2, 3)), "-2/3i"),
        (R.scalar(7), "7"),
        (R.scalar((-3, 0, 2)), "-3/2"),
        (R.scalar((6, 3, 4)), "(3/2+3/4i)"),
        (R.scalar((6, -3, 4)), "(3/2-3/4i)"),
    ]
    for p, text in table:
        assert str(p) == text, (p.terms, text)


def test_gaussian_coefficients_render_in_lowest_terms():
    cases = [
        ((4, 1, 2), "(2+1/2i)*x"),
        ((-2, 1, 2), "(-1+1/2i)*x"),
        ((1, 2, 2), "(1/2+i)*x"),
        ((3, -6, 4), "(3/4-3/2i)*x"),
        ((1, 1, 2), "(1/2+1/2i)*x"),
        ((0, 1, 2), "1/2i*x"),
    ]
    for coeff, text in cases:
        assert str(monomial(R, (1, 0, 0, 0), coeff)) == text


def test_exponent_cap_is_checked_where_exponents_enter():
    R3 = Ring(("x", "y", "z"))
    X = R3.var("x")
    for base, n in ((X, _MAX_EXP + 1), (X**8192, 2)):
        with pytest.raises(ExponentRangeError):
            base**n
    with pytest.raises(ExponentRangeError):
        check_exponent_cap(X**_MAX_EXP * X)
    with pytest.raises(ExponentRangeError):
        PresentedQuotient(R3, IdealHandle(R3, [X**_MAX_EXP * X]))
    # a degree above the cap is no exponent above it
    for top in (X**_MAX_EXP, X**_MAX_EXP * R3.var("y") ** _MAX_EXP + X):
        assert check_exponent_cap(top) is top
    top = X**_MAX_EXP
    assert top.terms[0][0] == R3.key((_MAX_EXP, 0, 0))


def test_one_term_power_equals_repeated_multiplication():
    # the one-term power forms c^n and n*e directly; the product walks there
    # one factor at a time, through the general multiplication
    i = (0, 1, 1)
    for p, top in ((x, _MAX_EXP), (x * i, _MAX_EXP), (-(y * t**2), _MAX_EXP // 2),
                   (x * z * (2, 0, 3), 200), (t * (1, 1, 2), 200), (R.scalar(i), 200)):
        product = R.one()
        for n in range(top + 1):
            assert p**n == product, (p, n)
            product = product * p
    assert (x * (2, 0, 3)) ** _MAX_EXP == monomial(
        R, (_MAX_EXP, 0, 0, 0), (2**_MAX_EXP, 0, 3**_MAX_EXP)
    )
    with pytest.raises(ExponentRangeError):
        (y * t**2) ** (_MAX_EXP // 2 + 1)


@st.composite
def _exponents_summing_below_cap(draw, n):
    total = draw(st.tuples(*(st.integers(0, _MAX_EXP) for _ in range(n))))
    e1 = tuple(draw(st.integers(0, s)) for s in total)
    return e1, tuple(s - a for s, a in zip(total, e1))


@settings(max_examples=150, deadline=None)
@given(_exponents_summing_below_cap(4))
def test_keys_are_additive_below_the_cap(pair):
    # a key decodes to its exponents, and adding keys adds exponents, both in
    # the key arithmetic and in the products the kernel forms
    e1, e2 = pair
    total = tuple(a + b for a, b in zip(e1, e2))
    for e in (e1, e2, total):
        assert R.exponents(R.key(e)) == e
    assert R.key(total) == R.key(e1) + R.key(e2) - R.kc
    product = monomial(R, e1, 2) * (monomial(R, e2) + R.one())
    powers = x ** total[0] * y ** total[1] * z ** total[2] * t ** total[3]
    assert {R.exponents(k) for k, *_ in product.terms} == {total, e1}
    assert [R.exponents(k) for k, *_ in powers.terms] == [total]


def test_scalars_are_ints_or_gaussian_triples():
    # a coefficient enters as an int or as (re, im, den), kept in lowest terms
    assert R.scalar((12, 6, 8)).terms == ((R.kc, 6, 3, 4),)
    assert x * (2, 0, 4) == monomial(R, (1, 0, 0, 0), (1, 0, 2))
    for bad in (Fraction(1, 2), 0.5, "1"):
        with pytest.raises(TypeError):
            R.scalar(bad)
    # nor as an operand of polynomial arithmetic
    for op in (lambda: x * Fraction(1, 2), lambda: x * 0.5, lambda: 0.5 * x, lambda: x + 0.5,
               lambda: x - 0.5, lambda: x * "a", lambda: "a" + x):
        with pytest.raises(TypeError):
            op()


def test_gaussian_str():
    assert str(R.scalar((3, 0, 2))) == "3/2"
    assert str(R.scalar((0, -1, 1))) == "-i"


def _polys(ring):
    coeff = st.tuples(
        st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 3)
    )
    exp = st.tuples(*(st.integers(0, 3) for _ in range(ring.n)))
    term = st.tuples(exp, coeff)
    return st.lists(term, max_size=5).map(
        lambda pairs: from_terms(ring, pairs)
    )


@settings(max_examples=120, deadline=None)
@given(_polys(R), _polys(R))
def test_addition_commutes(p, q):
    assert p + q == q + p


@settings(max_examples=120, deadline=None)
@given(_polys(R), _polys(R), _polys(R))
def test_mul_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@settings(max_examples=120, deadline=None)
@given(_polys(R), _polys(R))
def test_mul_commutes_and_degree(p, q):
    assert p * q == q * p
    if p and q:
        assert _degree(p * q) == _degree(p) + _degree(q)


@settings(max_examples=80, deadline=None)
@given(_polys(R), st.lists(_polys(R), min_size=1, max_size=3))
def test_reduce_idempotent_and_witnessed(p, divisors):
    divisors = [d for d in divisors if d]
    if not divisors:
        return
    quots, r = reduce(p, divisors, want_quotients=True)
    assert reduce(r, divisors) == r
    for part in [r] + quots:
        assert_canonical(part)
    total = r
    for qi, di in zip(quots, divisors):
        total = total + qi * di
    assert total == p


def test_key_mask_divisibility_matches_exponents():
    # kc is 2^15 in each exponent field: a divides b exactly when
    # (key(a) - key(b) + kc) & kc == kc, for every exponent below 2^15
    rng = random.Random(16)
    top = (1 << 15) - 1

    def field():
        return rng.choice((0, top, rng.randint(0, 3), rng.randint(0, top)))

    for n in (3, 4, 5):
        ring = Ring(tuple(f"v{k}" for k in range(n)))
        units = [ring.key(tuple(int(j == i) for j in range(n))) - ring.kc for i in range(n)]
        assert list(ring.units) == units
        extremes = [(0,) * n, (top,) * n]
        cases = [(a, b) for a in extremes for b in extremes]
        for _ in range(600):
            a = tuple(field() for _ in range(n))
            # b near a half the time, so that divisibility holds often
            b = (tuple(field() for _ in range(n)) if rng.random() < 0.5 else
                 tuple(min(top, max(0, x + rng.randint(-1, 2))) for x in a))
            cases.append((a, b))
        for a, b in cases:
            for u, v in ((a, b), (b, a)):
                mask = (ring.key(u) - ring.key(v) + ring.kc) & ring.kc == ring.kc
                assert mask == all(x <= y for x, y in zip(u, v)), (u, v)
