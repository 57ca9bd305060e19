"""Exact multivariate polynomials over Q(i) in grevlex order.

Rings are value objects (variable names); every ring orders its monomials
by grevlex, the only order the program uses.  Polynomials are immutable
and always kept in canonical form: terms strictly descending in grevlex,
coefficients nonzero and in lowest terms.  Everything is safe to share
across threads; operations are pure functions.

A monomial is its packed grevlex key (``Ring.key``): one int whose
integer order is the monomial order, and a term is (key, coefficient).
Keys are additive up to the key ``kc`` of 1, and ``units[i]`` is the step
of x_i, so the key of e + x_i is key(e) + units[i].  ``kc`` is also a
mask, 2^15 in each exponent field and 0 in the degree field: for
exponents below 2^15, a divides b exactly when
(key(a) - key(b) + kc) & kc == kc, since each field of the difference is
2^15 + b_j - a_j and keeps that bit exactly when a_j <= b_j.  The key
order, this test and ``Ring.exponents``, which decodes a key for the few
readers that need one exponent per variable, are exact below 2^15.  Input
exponents are capped at 16383 (2^14 - 1) per variable, which leaves room
for the products x_k*g_i*g_j the program forms; the cap is checked where
exponents enter: powers and defining ideals (``check_exponent_cap``).
"""

from __future__ import annotations

from fractions import Fraction

from . import kernel
from .errors import ExponentRangeError, RingMismatchError

_SHIFT = 16
_BIAS = 1 << 15
_MASK = (1 << _SHIFT) - 1
_MAX_EXP = (1 << 14) - 1


def check_exponent_cap(p: Polynomial) -> Polynomial:
    """``p`` itself; ``ExponentRangeError`` when a term has an exponent above
    the cap, where the packed order key fields would overlap.  No exponent
    exceeds the lead's degree (its key's top field): below the cap, no key is decoded."""
    if p.terms and p.terms[0][0] >> _SHIFT * p.ring.n > _MAX_EXP:
        for t in p.terms:
            top = max(p.ring.exponents(t[0]))
            if top > _MAX_EXP:
                raise ExponentRangeError(f"exponent {top} exceeds the cap {_MAX_EXP}")
    return p


class Ring:
    """Polynomial ring context: ordered variable names, monomials in grevlex
    with x_1 > x_2 > ... > x_n."""

    __slots__ = ("names", "n", "kc", "units", "_index", "_hash")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        if "i" in names:
            # the renderer prints the imaginary unit as i, so a variable of
            # that name would make printed polynomials ambiguous
            raise ValueError("'i' is reserved for the imaginary unit")
        self.names = names
        self.n = len(names)
        self._index = {v: k for k, v in enumerate(names)}
        self.kc = self.key((0,) * self.n)
        # key(x_i) - kc: one more in the degree field, one less in x_i's field
        self.units = tuple((1 << _SHIFT * self.n) - (1 << _SHIFT * i) for i in range(self.n))
        self._hash = hash(names)

    def __eq__(self, other):
        return isinstance(other, Ring) and self.names == other.names

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Ring({', '.join(self.names)})"

    def key(self, exp) -> int:
        """Packed grevlex key: integer comparison agrees with the order.
        The fields, most significant first, are the total degree and then
        _BIAS - e for the exponents e from the last variable to the first."""
        key = sum(exp)
        for x in reversed(exp):
            key = (key << _SHIFT) | (_BIAS - x)
        return key

    def exponents(self, key) -> tuple:
        """The exponent tuple of ``key``: field i is _BIAS - e_i."""
        exp = []
        for _ in range(self.n):
            exp.append(_BIAS - (key & _MASK))
            key >>= _SHIFT
        return tuple(exp)

    # -- constructors -------------------------------------------------

    def zero(self) -> Polynomial:
        return Polynomial(self, ())

    def one(self) -> Polynomial:
        return self.scalar(1)

    def scalar(self, c) -> Polynomial:
        c = _to_triple(c)
        if c == kernel.SZERO:
            return self.zero()
        return Polynomial(self, ((self.kc,) + c,))

    def var(self, name) -> Polynomial:
        return Polynomial(self, ((self.kc + self.units[self._index[name]], 1, 0, 1),))

    def gens(self) -> tuple:
        return tuple(self.var(v) for v in self.names)

    def render_monomial(self, exp) -> str:
        parts = []
        for name, e in zip(self.names, exp):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


def _to_triple(c):
    if isinstance(c, tuple) and len(c) == 3:
        return kernel._snorm(*c)
    if isinstance(c, int):
        return (c, 0, 1) if c else kernel.SZERO
    raise TypeError(f"cannot use {type(c).__name__} as a scalar")


def _spow(c, n):
    """The scalar c^n in lowest terms, for c = (a + b*i)/d and n >= 0: the
    Gaussian integer (a + b*i)^n by repeated squaring, over d^n."""
    a, b, d = c
    re, im = 1, 0
    k = n
    while k:
        if k & 1:
            re, im = re * a - im * b, re * b + im * a
        a, b = a * a - b * b, 2 * a * b
        k >>= 1
    return kernel._snorm(re, im, d**n)


class Polynomial:
    """Immutable sparse polynomial over Q(i) in a fixed ring."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: tuple):
        self.ring = ring
        self.terms = tuple(terms)

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic ----------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError(f"cannot use {type(other).__name__} as a polynomial")
        if self.ring != other.ring:
            raise RingMismatchError(
                f"ring mismatch: {self.ring!r} vs {other.ring!r}"
            )

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.scalar(other)
        self._check(other)
        return Polynomial(self.ring, kernel.add_terms(list(self.terms), list(other.terms)))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, kernel.mono_mul_terms(list(self.terms), 0, (-1, 0, 1)))

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int) or (isinstance(other, tuple) and len(other) == 3):
            c = _to_triple(other)
            if c == kernel.SZERO:
                return self.ring.zero()
            return Polynomial(self.ring, kernel.mono_mul_terms(list(self.terms), 0, c))
        self._check(other)
        return Polynomial(
            self.ring, kernel.mul_terms(list(self.terms), list(other.terms), self.ring.kc)
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        top = max((max(self.ring.exponents(t[0])) for t in self.terms), default=0)
        if n * max(top, 1) > _MAX_EXP:
            raise ExponentRangeError(f"power {n} takes an exponent above the cap {_MAX_EXP}")
        if len(self.terms) == 1:
            # (c*X^e)^n = c^n * X^(n*e): one term, no multiplication
            k, a, b, d = self.terms[0]
            kc = self.ring.kc
            return Polynomial(self.ring, ((kc + n * (k - kc),) + _spow((a, b, d), n),))
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- equality and text ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.scalar(other)
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for idx, (k, a, b, d) in enumerate(self.terms):
            mono = self.ring.render_monomial(self.ring.exponents(k))
            coeff = (a, b, d)
            text, negative = _render_term(coeff, mono)
            if idx == 0:
                parts.append("-" + text if negative else text)
            else:
                parts.append(("- " if negative else "+ ") + text)
        return " ".join(parts)

    def __repr__(self):
        return f"<{self}>"


def _render_scalar(c):
    """(a + b i)/d with each part in lowest terms, a mixed one in
    parentheses.  The callers pass a pure imaginary one with b > 0 and carry
    its sign themselves."""
    a, b, d = c
    re, im = Fraction(a, d), Fraction(b, d)
    if not im:
        return str(re)
    im_text = "i" if abs(im) == 1 else f"{abs(im)}i"
    if not re:
        return im_text
    return f"({re}+{im_text})" if im > 0 else f"({re}-{im_text})"


def _render_term(c, mono):
    """Return (text, negative) for one rendered term: a real or pure
    imaginary coefficient carries its sign out, a mixed one prints in
    parentheses, and a coefficient 1 beside a monomial is dropped."""
    a, b, d = c
    negative = b < 0 if a == 0 else a < 0 and b == 0
    c = (-a, -b, d) if negative else c
    if mono == "1":
        return _render_scalar(c), negative
    return (mono if c == (1, 0, 1) else f"{_render_scalar(c)}*{mono}"), negative
