"""Resolution-graph calculus: intersection theory and Ulrich chains.

Cycles are plain tuples of non-negative ints indexed like the graph's
vertex list.  Anti-nef means Z.E_i <= 0 for every vertex (the weak sign
convention, which the fundamental-cycle and orthogonality computations
require).  The pairing vector of a cycle Z is (Z.E_i), one entry per vertex.

A graph is checked when it is built, in time linear in its size when it is
a tree.  Negative definiteness is one exact symmetric elimination that takes
a vertex of least remaining degree first: on a tree every step is a leaf,
which changes only its neighbour's diagonal entry, and a graph with cycles
also takes fill-in.  The graph then holds its fundamental cycle Z_0, from
Laufer's computation sequence run as a worklist on the pairing vector, and
Z_0's pairing vector P_0.  p_a(Z_0), the multiplicity -Z_0^2, mu and the
uniqueness filter are sums over P_0.

Chain enumeration follows the structure theorem: starting from Z_0, each
step adds the fundamental cycle F_C of one component C of the orthogonal
locus {E_i : Z_prev . E_i = 0}, the only Y with p_a(Y) = 0 that a step can
add there (the proof is in ``enumerate_ulrich_chains``).  Each cycle of the
walk carries its pairing vector, so the locus is read off it, and one
worklist run on the whole locus gives every component's F_C.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

from .errors import GraphInvariantError, ParseError


class DualGraph:
    """Weighted dual graph of a resolution: negative-definite, no (-1)s."""

    __slots__ = ("ids", "weights", "_adj", "_z0", "_p0", "_rational")

    def __init__(self, ids, weights, edges):
        ids = tuple(ids)
        weights = tuple(weights)
        if len(ids) != len(set(ids)):
            raise GraphInvariantError("duplicate vertex ids")
        if len(weights) != len(ids):
            raise GraphInvariantError("weights/ids length mismatch")
        if any(w > -2 for w in weights):
            raise GraphInvariantError("vertex with self-intersection > -2")
        index = {v: k for k, v in enumerate(ids)}
        seen = set()
        adj = [[] for _ in ids]
        for a, b in edges:
            ia, ib = index[a], index[b]
            if ia == ib:
                raise GraphInvariantError("loop edge")
            key = (ia, ib) if ia < ib else (ib, ia)
            if key in seen:
                raise GraphInvariantError("multi-edge")
            seen.add(key)
            adj[ia].append(ib)
            adj[ib].append(ia)
        self.ids = ids
        self.weights = weights
        self._adj = tuple(map(tuple, adj))
        # one search finds the components and the reduced cycle, 1 on every
        # vertex, with its pairing vector w_i + deg_i: Laufer's start
        inside = [True] * len(ids)
        comps, Z, P = _locus(self, inside)
        if len(comps) != 1:
            raise GraphInvariantError("graph is not connected")
        if not self.is_negative_definite():
            raise GraphInvariantError("intersection matrix is not negative definite")
        _laufer(self, Z, P, inside)
        self._z0, self._p0 = tuple(Z), tuple(P)
        # Z_0^2 + K.Z_0 = sum Z_i*(P_i - w_i - 2)
        self._rational = _genus(sum(z * (p - w - 2) for z, p, w in zip(Z, P, weights))) == 0

    def __repr__(self):
        return f"DualGraph({len(self.ids)} vertices)"

    @property
    def n(self):
        return len(self.ids)

    def is_negative_definite(self):
        """Exact symmetric elimination, a vertex of least remaining degree
        first.  Eliminating v leaves the Schur complement on the other
        vertices, and the matrix is negative definite exactly when every
        pivot d_v is negative, in any order of pivots: a principal block
        and a Schur complement of a negative definite matrix are negative
        definite.

        Entries are exact fractions, (num, den) with den > 0.  A vertex of
        degree <= 1 changes only its neighbour's diagonal, d_u - e^2/d_v,
        and that neighbour is the one of its neighbours not yet eliminated.
        On a tree e is the edges' 1 throughout, and num/den is a ratio of
        subtree determinants with no reduction.  When every remaining vertex
        has degree >= 2 (a graph with cycles), the step also takes fill-in,
        e_uw - e_uv*e_vw/d_v for each pair of v's neighbours, and the
        entries that are no longer 1 are kept in ``off``, in lowest terms.
        """
        n = self.n
        num, den = list(self.weights), [1] * n
        deg = [len(a) for a in self._adj]
        off = {}  # (i, j) with i < j: off-diagonal entries other than 1
        fill = {}  # v: the vertices joined to v by fill-in
        done = [False] * n
        leaves = [v for v in range(n) if deg[v] <= 1]
        for _ in range(n):
            if leaves:
                v = leaves.pop()
            else:
                v = min((u for u in range(n) if not done[u]), key=deg.__getitem__)
            p, q = num[v], den[v]
            if p >= 0:
                return False
            done[v] = True
            if deg[v] <= 1:
                if deg[v]:
                    for u in self._adj[v]:
                        if not done[u]:
                            break
                    else:  # the neighbour is joined to v by fill-in
                        u = next(u for u in fill[v] if not done[u])
                    deg[u] -= 1
                    if deg[u] == 1:
                        leaves.append(u)
                    e = off.pop((u, v) if u < v else (v, u), None) if off else None
                    if e is None:  # d_u - 1/d_v
                        num[u], den[u] = den[u] * q - num[u] * p, -den[u] * p
                    else:
                        num[u], den[u] = _sub((num[u], den[u]), (-e[0] * e[0] * q, -e[1] * e[1] * p))
                continue
            nbrs = {}
            for u in itertools.chain(self._adj[v], fill.pop(v, ())):
                if not done[u]:
                    nbrs[u] = off.pop((u, v) if u < v else (v, u), (1, 1))
            items = list(nbrs.items())
            for k, (u, (a, b)) in enumerate(items):
                num[u], den[u] = _sub((num[u], den[u]), (-a * a * q, -b * b * p))
                deg[u] -= 1
                for w, (c, d) in items[k + 1:]:
                    key = (u, w) if u < w else (w, u)
                    x = off.get(key)
                    if x is None and w in self._adj[u]:
                        x = (1, 1)
                    elif x is None:  # fill-in: a new edge u-w
                        x = (0, 1)
                        fill.setdefault(u, []).append(w)
                        fill.setdefault(w, []).append(u)
                        deg[u] += 1
                        deg[w] += 1
                    off[key] = _sub(x, (-a * c * q, -b * d * p))
            leaves += [u for u in nbrs if deg[u] <= 1]
        return True

    def pairing_with_vertex(self, Z, i):
        """Z . E_i."""
        total = Z[i] * self.weights[i]
        for j in self._adj[i]:
            total += Z[j]
        return total

    @classmethod
    def from_json_dict(cls, data):
        """Graph from {"vertices": [{"id": ..., "weight": ...}], "edges":
        [[a, b]]}: ids and endpoints must be strings, weights integers (not
        bools, floats or strings) and each edge a list of two endpoints, or
        the input is malformed.  A graph that breaks a condition of a
        resolution graph (``__init__``) is bad input too."""
        try:
            ids = [v["id"] for v in data["vertices"]]
            weights = [v["weight"] for v in data["vertices"]]
            edges = data["edges"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed graph object: {exc}") from exc
        if type(edges) is not list or not all(type(e) is list and len(e) == 2 for e in edges):
            raise ParseError("edges must be a list of two-element lists")
        if not all(type(v) is str for v in itertools.chain(ids, *edges)):
            raise ParseError("vertex ids and edge endpoints must be strings")
        if not all(type(w) is int for w in weights):
            raise ParseError("vertex weights must be integers")
        if not ids:
            raise ParseError("graph has no vertices")
        try:
            return cls(ids, weights, edges)
        except KeyError as exc:
            raise ParseError(f"edge references unknown vertex {exc}") from exc
        except GraphInvariantError as exc:
            raise ParseError(str(exc)) from exc

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also an integer past the digit limit
            raise ParseError(f"invalid graph JSON: {exc}") from exc
        return cls.from_json_dict(data)

    def cycle_to_json_dict(self, Z):
        return {v: c for v, c in zip(self.ids, Z)}

    def cycle_from_json_dict(self, data):
        """Positive cycle from {vertex id: non-negative integer}; absent
        ids count 0, and an id that is no vertex is malformed input."""
        if not isinstance(data, dict) or not all(
            type(c) is int and c >= 0 for c in data.values()
        ):
            raise ParseError("cycle must be an object of non-negative integers")
        known = set(self.ids)
        unknown = [v for v in data if v not in known]
        if unknown:
            raise ParseError(f"cycle names unknown vertex {unknown[0]!r}")
        Z = tuple(data.get(v, 0) for v in self.ids)
        if not any(Z):
            raise ParseError("cycle must be positive")
        return Z



def _sub(x, y):
    """x - y for fractions (num, den) with den > 0, in lowest terms."""
    (a, b), (c, d) = x, y
    p, q = a * d - b * c, b * d
    r = math.gcd(p, q)
    return p // r, q // r


def intersection_pairing(g: DualGraph, Y, Z) -> int:
    if len(Y) != g.n or len(Z) != g.n:
        raise ValueError("cycle length does not match vertex count")
    total = 0
    for i in range(g.n):
        if Y[i]:
            total += Y[i] * g.pairing_with_vertex(Z, i)
    return total


def is_positive(Z) -> bool:
    return all(c >= 0 for c in Z) and any(c > 0 for c in Z)


def is_antinef(g: DualGraph, Z) -> bool:
    if not is_positive(Z):
        raise ValueError("anti-nef test expects a positive cycle")
    return all(g.pairing_with_vertex(Z, i) <= 0 for i in range(g.n))


def fundamental_cycle(g: DualGraph):
    """The smallest anti-nef cycle, computed when the graph is built."""
    return g._z0


def _laufer(g: DualGraph, Z, P, inside):
    """Laufer's computation sequence as a worklist, in place.  ``Z`` is a
    cycle supported on the vertices k with ``inside[k]``, and ``P`` its
    pairing vector there.  While an inside vertex k pairs positively, Z[k]
    rises by the least t that makes P[k] + t*w_k <= 0 (t steps of the
    sequence at once) and P rises by t at k's neighbours; no vertex is
    scanned again unless its pairing turns positive.  From the reduced
    cycle of a negative definite vertex set it ends at the fundamental
    cycle of each component of the set, in any order of steps, since a
    step never passes an anti-nef cycle."""
    adj, weights = g._adj, g.weights
    work = [k for k, p in enumerate(P) if p > 0 and inside[k]]
    while work:
        k = work.pop()
        p, w = P[k], weights[k]
        t = -(p // w)  # ceil(p / -w)
        Z[k] += t
        P[k] = p + t * w
        for j in adj[k]:
            q = P[j]
            P[j] = q + t
            if q <= 0 < q + t and inside[j]:
                work.append(j)


def canonical_numbers(g: DualGraph):
    """K . E_i = -E_i^2 - 2 per vertex."""
    return tuple(-w - 2 for w in g.weights)


def canonical_pairing(g: DualGraph, Z) -> int:
    K = canonical_numbers(g)
    return sum(c * k for c, k in zip(Z, K))


def _genus(s):
    """p_a from s = Y.Y + K.Y, which is even: with K.E_i = -w_i - 2,
    Y.Y + K.Y = sum w_i*Y_i*(Y_i - 1) + 2*sum_edges Y_i*Y_j - 2*sum Y_i."""
    return s // 2 + 1


def arithmetic_genus(g: DualGraph, Y) -> int:
    if not is_positive(Y):
        raise ValueError("arithmetic genus expects a positive cycle")
    return _genus(intersection_pairing(g, Y, Y) + canonical_pairing(g, Y))


def _require_rational(g):
    if not g._rational:
        raise GraphInvariantError("graph is not rational (p_a(Z_0) != 0)")


def graph_multiplicity(g: DualGraph) -> int:
    """-Z_0^2 = -sum Z_0,i * P_0,i."""
    _require_rational(g)
    return -sum(z * p for z, p in zip(g._z0, g._p0))


def cycle_length(g: DualGraph, Z) -> int:
    """Colength of the ideal represented by an anti-nef cycle."""
    _require_rational(g)
    if not is_antinef(g, Z):
        raise ValueError("cycle is not anti-nef")
    return -(intersection_pairing(g, Z, Z) + canonical_pairing(g, Z)) // 2


def cycle_mu(g: DualGraph, Z) -> int:
    """Minimal generator count of the represented ideal: 1 - Z.Z_0, and
    Z.Z_0 = sum Z_i * P_0,i."""
    _require_rational(g)
    if not is_antinef(g, Z):
        raise ValueError("cycle is not anti-nef")
    return 1 - sum(z * p for z, p in zip(Z, g._p0))


def cycle_stats(g: DualGraph, Z):
    return {
        "len": cycle_length(g, Z),
        "e0": -intersection_pairing(g, Z, Z),
        "mu": cycle_mu(g, Z),
    }


def unique_ulrich_filter(g: DualGraph) -> bool:
    """Some vertex has b >= 3 and negative pairing with Z_0 (forces X = {m})."""
    _require_rational(g)
    return any(w <= -3 and p < 0 for w, p in zip(g.weights, g._p0))


@dataclass(frozen=True)
class UlrichChain:
    """One chain Z_0 < Z_1 < ... < Z_s; steps hold (Y_k, Z_k)."""

    steps: tuple

    def result(self, Z0):
        return self.steps[-1][1] if self.steps else Z0


@dataclass(frozen=True)
class ChainEnumeration:
    fundamental: tuple
    chains: tuple  # UlrichChain, first entry is the empty chain (Z_0)
    antinef_pruned: bool

    @property
    def cycles(self):
        return tuple(c.result(self.fundamental) for c in self.chains)


def _locus(g: DualGraph, inside):
    """The components of the vertices flagged in ``inside``, sorted, by one
    depth-first search, with the reduced cycle of the set (1 on it) and its
    pairing vector there (w_v plus v's neighbours in the set)."""
    adj, weights = g._adj, g.weights
    Z, P, comps = [0] * len(adj), [0] * len(adj), []
    for s, flag in enumerate(inside):
        if flag and not Z[s]:
            Z[s] = 1
            comp, stack = [s], [s]
            while stack:
                v = stack.pop()
                p = weights[v]
                for w in adj[v]:
                    if inside[w]:
                        p += 1
                        if not Z[w]:
                            Z[w] = 1
                            comp.append(w)
                            stack.append(w)
                P[v] = p
            comps.append(tuple(sorted(comp)))
    return comps, Z, P


def enumerate_ulrich_chains(g: DualGraph) -> ChainEnumeration:
    """Every Ulrich chain of the rational graph ``g``, with one candidate Y
    per component C of each step's orthogonal locus: its fundamental cycle.

    A step from Z_prev adds a positive Y with Y . Z_prev = 0, p_a(Y) = 0,
    K . Y = K . Z_0 and Y at most the previous step's Y (Z_0 at first), and
    keeps Z_prev + Y anti-nef.  As Z_prev is anti-nef, Y . Z_prev = 0 puts
    supp Y in the locus {E_v : Z_prev . E_v = 0}, where
    (Z_prev + Y) . E_v = Y . E_v: so Y is anti-nef there, and supp Y is a
    union of whole components, since a locus vertex off supp Y joined to it
    would pair positively.  p_a <= 0 on every positive cycle of a rational
    graph (Artin 1966) and p_a(A + B) = p_a(A) + p_a(B) + A . B - 1, so
    p_a(Y) = 0 leaves one component C, and Y >= F_C, the least positive
    cycle anti-nef on C.  Write Y = F_C + D with D >= 0 on C: p_a(F_C) = 0
    (a fundamental cycle has p_a >= 0), p_a(D) <= 0 and F_C . D <= 0, so
    p_a(Y) <= -1 unless D = 0.  Hence
    Y = F_C, whose p_a needs no test.  On the first step, K . E_v = b_v - 2
    makes K . Y = K . Z_0 with Y <= Z_0 ask Y = Z_0 on every vertex with
    b >= 3, so the uniqueness filter is a consequence, not a test.

    Each step's Y is at most the previous one and differs from it (Y = Y_prev
    would give Y . Z_prev = Y . Y < 0), so a chain has at most sum(Z_0)
    steps.  Each cycle Z ends one chain: on a chain ending at Z, the later
    Y are at most Y_k, so Z - Z_(k-1) has support supp Y_k = C_k, a
    component of Z_(k-1)'s locus, and Y_k = F_(C_k); by induction Z fixes
    its chain, and as Y > 0 no chain is a proper prefix of another with the
    same end.  The walk goes level by level, each chain's next steps sorted
    by Y, so the chains come out by (len(steps), steps), and a long chain
    meets no recursion limit.
    """
    _require_rational(g)
    n, adj, weights = g.n, g._adj, g.weights
    Z0 = g._z0
    K = canonical_numbers(g)  # read once; every K . Y below uses it
    KZ0 = sum(c * k for c, k in zip(Z0, K))
    chains = [UlrichChain(())]
    pruned = False

    def steps_from(Pprev, upper):
        """(F_C, the pairing vector of Z_prev + F_C) for each component C of
        the locus of the cycle Z_prev with pairing vector ``Pprev`` where
        F_C <= ``upper``, K . F_C = K . Z_0 and Z_prev + F_C is anti-nef,
        sorted by F_C."""
        nonlocal pruned
        inside = [p == 0 for p in Pprev]
        comps, F, PF = _locus(g, inside)
        _laufer(g, F, PF, inside)  # no edge joins two components: every F_C
        out = []
        for comp in comps:
            if sum(F[v] * K[v] for v in comp) != KZ0 or any(F[v] > upper[v] for v in comp):
                continue
            # Pprev is 0 on the locus, so P adds F_C's own pairing vector
            Y, P = [0] * n, list(Pprev)
            for v in comp:
                y = Y[v] = F[v]
                P[v] += y * weights[v]
                for j in adj[v]:
                    P[j] += y
            if any(p > 0 for p in P):
                pruned = True
            else:
                out.append((tuple(Y), P))
        out.sort(key=lambda step: step[0])
        return out

    # one level of chains at a time: (steps, Z_prev, its pairing vector, Y_prev)
    level = [((), Z0, g._p0, Z0)]
    while level:
        deeper = []
        for prefix, Zprev, Pprev, upper in level:
            for Y, P in steps_from(Pprev, upper):
                Znew = tuple(a + b for a, b in zip(Zprev, Y))
                steps = prefix + ((Y, Znew),)
                chains.append(UlrichChain(steps))
                deeper.append((steps, Znew, P, Y))
        level = deeper
    return ChainEnumeration(Z0, tuple(chains), pruned)
