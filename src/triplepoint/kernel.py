"""Term kernel: sparse polynomial arithmetic over Q(i), in pure Python.

A polynomial is a list of terms sorted strictly descending by sort key,
with no zero coefficients.  Each term is a flat 4-tuple

    (key, re, im, den)

where ``key`` is the packed monomial order key (a single int whose integer
order agrees with the monomial order; it is the monomial, see ``polyring``)
and ``re + im*i over den`` the coefficient in lowest terms with ``den > 0``.

Keys are additive up to a ring constant ``kc`` (the key of the constant
monomial): key(e1 + e2) == key(e1) + key(e2) - kc.  ``kc`` is also the
divisibility mask: for exponents below 2^15, a divides b exactly when
(key(a) - key(b) + kc) & kc == kc (see ``polyring``).  The kernel works on
keys alone: products add keys, and the reduction decides which divisor's
lead divides a term by this test.

The public callables are exactly the term-list entry points the other
modules call, one per operation (a scalar times a monomial is one, with a
key shift of 0 to scale), and no function calls a public name of this module.
Scalar helpers and stdlib imports are private.  perfbench's tracer
(``perfbench/tracer.py``) wraps every public callable of this module and
rebinds every attribute holding the same function object, so a public
helper, a public import or an internal call to an entry point would show
up as kernel spans that no other layer made.
"""

from heapq import heapify as _heapify
from heapq import heappop as _heappop
from heapq import heappush as _heappush
from math import gcd as _gcd

SZERO = (0, 0, 1)
SONE = (1, 0, 1)


def _snorm(a, b, d):
    """Lowest-terms Gaussian rational (a + b*i)/d with d > 0."""
    if d == 1:
        return (a, b, 1)  # gcd(gcd(a, b), 1) = 1; and (0, 0, 1) is SZERO
    if a == 0 and b == 0:
        return SZERO
    if d < 0:
        a, b, d = -a, -b, -d
    g = _gcd(_gcd(a, b), d)
    if g > 1:
        return (a // g, b // g, d // g)
    return (a, b, d)


def _sdiv(c1, c2):
    # (a+bi)/d / ((p+qi)/e) = (a+bi)(p-qi)e / (d(p^2+q^2))
    a, b, d = c1
    p, q, e = c2
    if p == 0 and q == 0:
        raise ZeroDivisionError("division by zero scalar")
    return _snorm((a * p + b * q) * e, (b * p - a * q) * e, d * (p * p + q * q))


def add_terms(p, q):
    """Merge two canonical term lists."""
    if not p:
        return list(q)
    if not q:
        return list(p)
    out = []
    i = j = 0
    np_, nq = len(p), len(q)
    while i < np_ and j < nq:
        tp = p[i]
        tq = q[j]
        kp = tp[0]
        kq = tq[0]
        if kp > kq:
            out.append(tp)
            i += 1
        elif kp < kq:
            out.append(tq)
            j += 1
        else:
            _, a1, b1, d1 = tp
            _, a2, b2, d2 = tq
            a = a1 * d2 + a2 * d1
            b = b1 * d2 + b2 * d1
            if a or b:
                a, b, d = _snorm(a, b, d1 * d2)
                out.append((kp, a, b, d))
            i += 1
            j += 1
    out.extend(p[i:])
    out.extend(q[j:])
    return out


def mono_mul_terms(p, shift, c):
    """Multiply by c times the monomial X^m whose key is kc + ``shift``
    (c nonzero): every key rises by ``shift``, so a shift of 0 scales."""
    ca, cb, cd = c
    out = []
    for (k, a, b, d) in p:
        na, nb, nd = _snorm(a * ca - b * cb, a * cb + b * ca, d * cd)
        out.append((k + shift, na, nb, nd))
    return out


def mul_terms(p, q, kc):
    if not p or not q:
        return []
    if len(p) > len(q):
        p, q = q, p
    acc = {}
    for (k1, a1, b1, d1) in p:
        for (k2, a2, b2, d2) in q:
            k = k1 + k2 - kc
            cur = acc.get(k)
            if cur is None:
                acc[k] = [a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2]
            else:
                a, b, d = cur
                na = a1 * a2 - b1 * b2
                nb = a1 * b2 + b1 * a2
                nd = d1 * d2
                cur[0] = a * nd + na * d
                cur[1] = b * nd + nb * d
                cur[2] = d * nd
    out = []
    for k in sorted(acc, reverse=True):
        a, b, d = acc[k]
        if a or b:
            a, b, d = _snorm(a, b, d)
            out.append((k, a, b, d))
    return out


def reduce_terms(p, divisors, kc):
    """Remainder of the multivariate division of p by an ordered list of
    nonzero divisors: no term of it is divisible by a divisor's leading
    monomial, and p minus it lies in the ideal of the divisors.

    Terms leave the heap in descending key order, and a step only adds terms
    below the one it removes (a divisor's tail lies below its lead), so no
    monomial is popped twice: each term that no lead divides is appended to
    the remainder, which comes out canonical with no merge and no sort.  The
    pending coefficients are kept by key.
    """
    if not p:
        return []
    lead = [d[0] for d in divisors]
    nd = len(divisors)
    work = {}
    heap = []
    for (k, a, b, d) in p:
        work[k] = (a, b, d)
        heap.append(-k)
    _heapify(heap)
    rem = []
    while heap:
        k = -_heappop(heap)
        c = work.pop(k, None)
        if c is None:
            continue  # cancelled, or a second heap entry for k
        hit = -1
        for idx in range(nd):
            if (lead[idx][0] - k + kc) & kc == kc:
                hit = idx
                break
        if hit < 0:
            rem.append((k,) + c)
            continue
        lk, la, lb, ld = lead[hit]
        ca, cb, cd = _sdiv(c, (la, lb, ld))
        g = divisors[hit]
        for gi in range(1, len(g)):
            gk, ga, gb, gd = g[gi]
            tk = gk + k - lk
            ma = ga * ca - gb * cb
            mb = ga * cb + gb * ca
            md = gd * cd
            cur = work.get(tk)
            if cur is None:
                work[tk] = _snorm(-ma, -mb, md)
                _heappush(heap, -tk)
            else:
                a = cur[0] * md - ma * cur[2]
                b = cur[1] * md - mb * cur[2]
                if a or b:
                    work[tk] = _snorm(a, b, cur[2] * md)
                else:
                    del work[tk]
    return rem


def monic_terms(p):
    """Scale so the leading coefficient is 1."""
    if not p:
        return p
    la, lb, ld = p[0][1:]
    if la == 1 and lb == 0 and ld == 1:
        return p
    ca, cb, cd = _sdiv(SONE, (la, lb, ld))
    out = []
    for (k, a, b, d) in p:
        na, nb, nd = _snorm(a * ca - b * cb, a * cb + b * ca, d * cd)
        out.append((k, na, nb, nd))
    return out
