"""Exact multivariate polynomials over Q(i) in grevlex order.

Rings are value objects (variable names); every ring orders its monomials
by grevlex, the only order the program uses.  Polynomials are immutable
and always kept in canonical form: terms strictly descending in grevlex,
coefficients nonzero and in lowest terms.  Everything is safe to share
across threads; operations are pure functions.

A monomial is addressed by its packed grevlex key (``Ring.key``): one int
whose integer order is the monomial order.  Keys are additive up to the
key ``kc`` of 1, and ``units[i]`` is the step of x_i, so the key of e + x_i
is key(e) + units[i].  ``kc`` is also a mask, 2^15 in each exponent field and
0 in the degree field: for exponents below 2^15, a divides b exactly when
(key(a) - key(b) + kc) & kc == kc, since each field of the difference is
2^15 + b_j - a_j and keeps that bit exactly when a_j <= b_j.  The key order
and this test are exact below 2^15.  Input exponents are capped at 16383
(2^14 - 1) per variable, which leaves room for the products x_k*g_i*g_j the
program forms; the cap is checked where exponents enter: monomials, powers,
parsed text, and defining ideals (``check_exponent_cap``).
"""

from __future__ import annotations

from fractions import Fraction

from . import kernel
from .errors import ExponentRangeError, ParseError, RingMismatchError, ZeroPolynomialError

_SHIFT = 16
_BIAS = 1 << 15
_MAX_EXP = (1 << 14) - 1


def check_exponent_cap(p: Polynomial) -> Polynomial:
    """``p`` itself; ``ExponentRangeError`` when a term has an exponent above
    the cap, where the packed order key fields would overlap."""
    for t in p.terms:
        if max(t[1]) > _MAX_EXP:
            raise ExponentRangeError(f"exponent {max(t[1])} exceeds the cap {_MAX_EXP}")
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

    # -- constructors -------------------------------------------------

    def zero(self) -> Polynomial:
        return Polynomial(self, ())

    def one(self) -> Polynomial:
        return self.scalar(1)

    def scalar(self, c) -> Polynomial:
        c = _to_triple(c)
        if c == kernel.SZERO:
            return self.zero()
        e = (0,) * self.n
        return Polynomial(self, ((self.kc, e, c[0], c[1], c[2]),))

    def var(self, name) -> Polynomial:
        i = self._index[name]
        e = tuple(1 if j == i else 0 for j in range(self.n))
        return Polynomial(self, ((self.key(e), e, 1, 0, 1),))

    def gens(self) -> tuple:
        return tuple(self.var(v) for v in self.names)

    def monomial(self, exp, coeff=1) -> Polynomial:
        exp = tuple(exp)
        if len(exp) != self.n:
            raise ValueError("exponent length mismatch")
        if any(x < 0 for x in exp):
            raise ValueError("negative exponent")
        c = _to_triple(coeff)
        if c == kernel.SZERO:
            return self.zero()
        return check_exponent_cap(Polynomial(self, ((self.key(exp), exp, c[0], c[1], c[2]),)))

    def polynomial(self, text: str) -> Polynomial:
        return _parse(self, text)

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
    if isinstance(c, Fraction):
        return kernel._snorm(c.numerator, 0, c.denominator)
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
        return Polynomial(self.ring, kernel.neg_terms(list(self.terms)))

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)) or (
            isinstance(other, tuple) and len(other) == 3
        ):
            c = _to_triple(other)
            if c == kernel.SZERO:
                return self.ring.zero()
            return Polynomial(self.ring, kernel.scale_terms(list(self.terms), c))
        self._check(other)
        return Polynomial(
            self.ring, kernel.mul_terms(list(self.terms), list(other.terms), self.ring.kc)
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        top = max((max(t[1]) for t in self.terms), default=0)
        if n * max(top, 1) > _MAX_EXP:
            raise ExponentRangeError(f"power {n} takes an exponent above the cap {_MAX_EXP}")
        if len(self.terms) == 1:
            # (c*X^e)^n = c^n * X^(n*e): one term, no multiplication
            _, e, a, b, d = self.terms[0]
            exp = tuple(n * x for x in e)
            return Polynomial(self.ring, ((self.ring.key(exp), exp) + _spow((a, b, d), n),))
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def reduce(self, divisors, want_quotients=False):
        """Remainder (and optional quotients) on division by ``divisors``."""
        divs = []
        for g in divisors:
            self._check(g)
            if not g.terms:
                raise ZeroPolynomialError("zero divisor in division")
            divs.append(list(g.terms))
        q, r = kernel.reduce_terms(
            list(self.terms), divs, self.ring.kc, want_quotients
        )
        rpoly = Polynomial(self.ring, r)
        if want_quotients:
            return [Polynomial(self.ring, t) for t in q], rpoly
        return rpoly

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
        for idx, (k, e, a, b, d) in enumerate(self.terms):
            mono = self.ring.render_monomial(e)
            coeff = (a, b, d)
            text, negative = _render_term(coeff, mono)
            if idx == 0:
                parts.append("-" + text if negative else text)
            else:
                parts.append(("- " if negative else "+ ") + text)
        return " ".join(parts)

    def __repr__(self):
        return f"<{self}>"


def _render_scalar(c, bare=False):
    """(a + b i)/d with each part in lowest terms."""
    a, b, d = c
    re, im = Fraction(a, d), Fraction(b, d)
    if not im:
        return str(re)
    im_text = "i" if abs(im) == 1 else f"{abs(im)}i"
    if not re:
        return im_text if im > 0 else f"-{im_text}"
    s = f"{re}+{im_text}" if im > 0 else f"{re}-{im_text}"
    return s if bare else f"({s})"


def _render_term(c, mono):
    """Return (text, negative) for one rendered term."""
    a, b, d = c
    if mono == "1":
        if b == 0 and a < 0:
            return _render_scalar((-a, 0, d)), True
        if a == 0 and b < 0:
            return _render_scalar((0, -b, d)), True
        return _render_scalar(c, bare=(b == 0 or a == 0)), False
    if b == 0:
        if a == 1 and d == 1:
            return mono, False
        if a == -1 and d == 1:
            return mono, True
        if a < 0:
            return f"{_render_scalar((-a, 0, d))}*{mono}", True
        return f"{_render_scalar(c)}*{mono}", False
    if a == 0:
        negative = b < 0
        bb = -b if negative else b
        if d == 1 and bb == 1:
            return f"i*{mono}", negative
        return f"{_render_scalar((0, bb, d))}*{mono}", negative
    return f"{_render_scalar(c)}*{mono}", False


# -- parser ------------------------------------------------------------

_MINUS_CHARS = {"-", "−"}


def _tokenize(text):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _MINUS_CHARS:
            toks.append(("op", "-"))
            i += 1
        elif ch in "+*/^()":
            toks.append(("op", ch))
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("num", int(text[i:j])))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j]))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r} in polynomial")
    return toks


class _Parser:
    def __init__(self, ring, toks):
        self.ring = ring
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def take(self):
        t = self.peek()
        self.pos += 1
        return t

    def parse(self):
        p = self.expr()
        if self.pos != len(self.toks):
            raise ParseError("trailing input in polynomial")
        return p

    def expr(self):
        kind, val = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.take()
            negate = val == "-"
        p = self.term()
        if negate:
            p = -p
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                q = self.term()
                p = p - q if val == "-" else p + q
            else:
                return p

    def term(self):
        p = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                p = p * self.factor()
            elif kind in ("num", "name") or (kind == "op" and val == "("):
                # juxtaposition: "2x", "3i", "(1+i)x"
                p = p * self.factor()
            else:
                return p

    def factor(self):
        base = self.primary()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            k3, v3 = self.take()
            if k3 != "num":
                raise ParseError("exponent must be an integer")
            return base ** v3
        return base

    def primary(self):
        kind, val = self.take()
        if kind == "num":
            num = val
            k2, v2 = self.peek()
            if k2 == "op" and v2 == "/":
                self.take()
                k3, v3 = self.take()
                if k3 != "num" or v3 == 0:
                    raise ParseError("bad rational literal")
                return self.ring.scalar((num, 0, v3))
            return self.ring.scalar(num)
        if kind == "name":
            if val == "i":
                return self.ring.scalar((0, 1, 1))
            if val not in self.ring._index:
                raise ParseError(f"unknown variable {val!r}")
            return self.ring.var(val)
        if kind == "op" and val == "(":
            p = self.expr()
            k2, v2 = self.take()
            if not (k2 == "op" and v2 == ")"):
                raise ParseError("unbalanced parenthesis")
            return p
        raise ParseError(f"unexpected token {val!r}")


def _parse(ring, text):
    toks = _tokenize(text)
    if not toks:
        raise ParseError("empty polynomial text")
    return check_exponent_cap(_Parser(ring, toks).parse())
