"""Term kernel: sparse polynomial arithmetic over Q(i), in pure Python.

A polynomial is a list of terms sorted strictly descending by sort key,
with no zero coefficients.  Each term is a flat 5-tuple

    (key, exp, re, im, den)

where ``key`` is the packed monomial order key (a single int whose integer
order agrees with the monomial order), ``exp`` the exponent tuple, and
``re + im*i over den`` the coefficient in lowest terms with ``den > 0``.

Keys are additive up to a ring constant ``kc`` (the key of the constant
monomial): key(e1 + e2) == key(e1) + key(e2) - kc.

The public callables are exactly the term-list entry points the other
modules call, and no function here calls a public name of this module.
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
    if a == 0 and b == 0:
        return SZERO
    if d < 0:
        a, b, d = -a, -b, -d
    g = _gcd(_gcd(a, b), d)
    if g > 1:
        return (a // g, b // g, d // g)
    return (a, b, d)


def _sadd(c1, c2):
    a1, b1, d1 = c1
    a2, b2, d2 = c2
    return _snorm(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


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
            a1, b1, d1 = tp[2], tp[3], tp[4]
            a2, b2, d2 = tq[2], tq[3], tq[4]
            a = a1 * d2 + a2 * d1
            b = b1 * d2 + b2 * d1
            if a or b:
                a, b, d = _snorm(a, b, d1 * d2)
                out.append((kp, tp[1], a, b, d))
            i += 1
            j += 1
    out.extend(p[i:])
    out.extend(q[j:])
    return out


def neg_terms(p):
    return [(k, e, -a, -b, d) for (k, e, a, b, d) in p]


def scale_terms(p, c):
    """Multiply by a nonzero scalar."""
    ca, cb, cd = c
    out = []
    for (k, e, a, b, d) in p:
        na, nb, nd = _snorm(a * ca - b * cb, a * cb + b * ca, d * cd)
        out.append((k, e, na, nb, nd))
    return out


def mono_mul_terms(p, mkey, mexp, c, kc):
    """Multiply by c * X^mexp (c nonzero)."""
    ca, cb, cd = c
    shift = mkey - kc
    out = []
    for (k, e, a, b, d) in p:
        na, nb, nd = _snorm(a * ca - b * cb, a * cb + b * ca, d * cd)
        ne = tuple(x + y for x, y in zip(e, mexp))
        out.append((k + shift, ne, na, nb, nd))
    return out


def mul_terms(p, q, kc):
    if not p or not q:
        return []
    if len(p) > len(q):
        p, q = q, p
    acc = {}
    for (k1, e1, a1, b1, d1) in p:
        for (k2, e2, a2, b2, d2) in q:
            k = k1 + k2 - kc
            cur = acc.get(k)
            if cur is None:
                ne = tuple(x + y for x, y in zip(e1, e2))
                acc[k] = [ne, a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2]
            else:
                _, a, b, d = cur
                na = a1 * a2 - b1 * b2
                nb = a1 * b2 + b1 * a2
                nd = d1 * d2
                cur[1] = a * nd + na * d
                cur[2] = b * nd + nb * d
                cur[3] = d * nd
    out = []
    for k in sorted(acc, reverse=True):
        e, a, b, d = acc[k]
        if a or b:
            a, b, d = _snorm(a, b, d)
            out.append((k, e, a, b, d))
    return out


def _divides(a, b):
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def reduce_terms(p, divisors, kc, want_quotients=False):
    """Multivariate division of p by an ordered list of nonzero divisors.

    Returns (quotients, remainder).  quotients is None unless requested,
    otherwise a list of term lists with p == sum(q_i * divisors_i) + r.
    The remainder has no term divisible by any divisor leading monomial.
    """
    if not p:
        return ([[] for _ in divisors] if want_quotients else None), []
    lead = [d[0] for d in divisors]
    nd = len(divisors)
    work = {}
    heap = []
    for (k, e, a, b, d) in p:
        work[e] = [k, a, b, d]
        heap.append((-k, e))
    _heapify(heap)
    rem = {}
    quots = [{} for _ in range(nd)] if want_quotients else None
    while heap:
        nk, e = _heappop(heap)
        ent = work.get(e)
        if ent is None:
            continue
        del work[e]
        k = -nk
        coeff = (ent[1], ent[2], ent[3])
        hit = -1
        for idx in range(nd):
            if _divides(lead[idx][1], e):
                hit = idx
                break
        if hit < 0:
            r = rem.get(e)
            if r is None:
                rem[e] = [k, coeff[0], coeff[1], coeff[2]]
            else:
                a, b, d = _sadd((r[1], r[2], r[3]), coeff)
                if a or b:
                    r[1], r[2], r[3] = a, b, d
                else:
                    del rem[e]
            continue
        lk, le, la, lb, ld = lead[hit]
        c = _sdiv(coeff, (la, lb, ld))
        texp = tuple(x - y for x, y in zip(e, le))
        if want_quotients:
            q = quots[hit]
            prev = q.get(texp)
            if prev is None:
                q[texp] = [k - lk + kc, c[0], c[1], c[2]]
            else:
                a, b, d = _sadd((prev[1], prev[2], prev[3]), c)
                if a or b:
                    prev[1], prev[2], prev[3] = a, b, d
                else:
                    del q[texp]
        ca, cb, cd = c
        g = divisors[hit]
        for gi in range(1, len(g)):
            gk, ge, ga, gb, gd = g[gi]
            tk = gk + k - lk
            te = tuple(x + y for x, y in zip(ge, texp))
            ma = ga * ca - gb * cb
            mb = ga * cb + gb * ca
            md = gd * cd
            cur = work.get(te)
            if cur is None:
                na, nb, nd2 = _snorm(-ma, -mb, md)
                work[te] = [tk, na, nb, nd2]
                _heappush(heap, (-tk, te))
            else:
                a = cur[1] * md - ma * cur[3]
                b = cur[2] * md - mb * cur[3]
                if a or b:
                    na, nb, nd2 = _snorm(a, b, cur[3] * md)
                    cur[1], cur[2], cur[3] = na, nb, nd2
                else:
                    del work[te]
    rem_list = [(v[0], e, v[1], v[2], v[3]) for e, v in rem.items()]
    rem_list.sort(reverse=True)
    if want_quotients:
        qlists = []
        for q in quots:
            ql = [(v[0], e, v[1], v[2], v[3]) for e, v in q.items()]
            ql.sort(reverse=True)
            qlists.append(ql)
        return qlists, rem_list
    return None, rem_list


def monic_terms(p):
    """Scale so the leading coefficient is 1."""
    if not p:
        return p
    la, lb, ld = p[0][2], p[0][3], p[0][4]
    if la == 1 and lb == 0 and ld == 1:
        return p
    ca, cb, cd = _sdiv(SONE, (la, lb, ld))
    out = []
    for (k, e, a, b, d) in p:
        na, nb, nd = _snorm(a * ca - b * cb, a * cb + b * ca, d * cd)
        out.append((k, e, na, nb, nd))
    return out
