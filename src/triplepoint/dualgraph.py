"""Resolution-graph calculus: intersection theory and Ulrich chains.

Cycles are plain tuples of non-negative ints indexed like the graph's
vertex list.  Anti-nef means Z.E_i <= 0 for every vertex (the weak sign
convention, which the fundamental-cycle and orthogonality computations
require).

A graph is checked when it is built: negative definiteness is Sylvester's
test on the leading principal minors, in integer arithmetic.  It then holds
its fundamental cycle Z_0 (Laufer's sequence) and whether p_a(Z_0) = 0.

Chain enumeration follows the structure theorem: starting from the
fundamental cycle, each step adds a positive cycle Y with

    Y . Z_prev = 0,   p_a(Y) = 0,   K . (Z_0 - Y) = 0,

and the new cycle must stay anti-nef.  Supports of admissible Y are full
connected components of the orthogonal locus {E_i : Z_prev . E_i = 0}: a
component-boundary vertex would get positive pairing with the new cycle.
The enumeration always ends: each step's Y is at most the previous one
coefficientwise and differs from it (Y = Y_prev would give
Y . Z_prev = Y . Y < 0), so a chain has at most sum(Z_0) steps.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .errors import GraphInvariantError, ParseError


class DualGraph:
    """Weighted dual graph of a resolution: negative-definite, no (-1)s."""

    __slots__ = ("ids", "weights", "edges", "_adj", "_edge_idx", "_hash", "_z0", "_rational")

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
        norm_edges = []
        edge_idx = []
        for a, b in edges:
            ia, ib = index[a], index[b]
            if ia == ib:
                raise GraphInvariantError("loop edge")
            key = (min(ia, ib), max(ia, ib))
            if key in edge_idx:
                raise GraphInvariantError("multi-edge")
            edge_idx.append(key)
            norm_edges.append((a, b))
        self.ids = ids
        self.weights = weights
        self.edges = tuple(norm_edges)
        self._edge_idx = tuple(edge_idx)
        adj = [[] for _ in ids]
        for i, j in edge_idx:
            adj[i].append(j)
            adj[j].append(i)
        self._adj = tuple(tuple(sorted(x)) for x in adj)
        self._hash = hash((ids, weights, self._edge_idx))
        if len(_components_of(self, range(len(ids)))) != 1:
            raise GraphInvariantError("graph is not connected")
        if not self.is_negative_definite():
            raise GraphInvariantError("intersection matrix is not negative definite")
        self._z0 = _laufer(self, range(len(ids)))
        self._rational = arithmetic_genus(self, self._z0) == 0

    def __eq__(self, other):
        return (
            isinstance(other, DualGraph)
            and self.ids == other.ids
            and self.weights == other.weights
            and self._edge_idx == other._edge_idx
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"DualGraph({len(self.ids)} vertices)"

    @property
    def n(self):
        return len(self.ids)

    def matrix(self):
        n = self.n
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            M[i][i] = self.weights[i]
        for i, j in self._edge_idx:
            M[i][j] = M[j][i] = 1
        return M

    def is_negative_definite(self):
        # Sylvester: the k-th leading principal minor has sign (-1)^k.
        # Fraction-free Bareiss elimination: after step k the pivot M[k][k]
        # is the (k+1)-th leading minor, and dividing by the previous pivot
        # is exact.
        M = self.matrix()
        n = self.n
        prev, sign = 1, -1
        for k in range(n):
            piv = M[k][k]
            if piv * sign <= 0:
                return False
            Mk = M[k]
            for Mr in M[k + 1:]:
                Mrk = Mr[k]
                for c in range(k + 1, n):
                    Mr[c] = (piv * Mr[c] - Mrk * Mk[c]) // prev
            prev, sign = piv, -sign
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
        [[a, b]]}: ids and endpoints must be strings and weights integers
        (not bools, floats or strings), or the input is malformed."""
        try:
            ids = [v["id"] for v in data["vertices"]]
            weights = [v["weight"] for v in data["vertices"]]
            edges = [(a, b) for a, b in data["edges"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed graph object: {exc}") from exc
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

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
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
        unknown = [v for v in data if v not in self.ids]
        if unknown:
            raise ParseError(f"cycle names unknown vertex {unknown[0]!r}")
        Z = tuple(data.get(v, 0) for v in self.ids)
        if not any(Z):
            raise ParseError("cycle must be positive")
        return Z


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


def _laufer(g: DualGraph, verts):
    """Laufer's computation sequence on the subgraph induced by ``verts``:
    from the reduced cycle, raise a coefficient while its vertex pairs
    positively with the cycle.  The result, indexed like ``verts``, is the
    subgraph's fundamental cycle; the sequence ends only when the subgraph is
    negative definite."""
    pos = {v: k for k, v in enumerate(verts)}
    nbrs = [[pos[w] for w in g._adj[v] if w in pos] for v in verts]
    weights = [g.weights[v] for v in verts]
    Z = [1] * len(weights)
    while True:
        for k, w in enumerate(weights):
            if Z[k] * w + sum(Z[j] for j in nbrs[k]) > 0:
                Z[k] += 1
                break
        else:
            return tuple(Z)


def canonical_numbers(g: DualGraph):
    """K . E_i = -E_i^2 - 2 per vertex."""
    return tuple(-w - 2 for w in g.weights)


def canonical_pairing(g: DualGraph, Z) -> int:
    K = canonical_numbers(g)
    return sum(c * k for c, k in zip(Z, K))


def arithmetic_genus(g: DualGraph, Y) -> int:
    if not is_positive(Y):
        raise ValueError("arithmetic genus expects a positive cycle")
    s = intersection_pairing(g, Y, Y) + canonical_pairing(g, Y)
    if s % 2:
        raise GraphInvariantError("odd self-intersection plus canonical pairing")
    return s // 2 + 1


def _require_rational(g):
    if not g._rational:
        raise GraphInvariantError("graph is not rational (p_a(Z_0) != 0)")


def graph_multiplicity(g: DualGraph) -> int:
    _require_rational(g)
    return -intersection_pairing(g, g._z0, g._z0)


def cycle_length(g: DualGraph, Z) -> int:
    """Colength of the ideal represented by an anti-nef cycle."""
    _require_rational(g)
    if not is_antinef(g, Z):
        raise ValueError("cycle is not anti-nef")
    return -(intersection_pairing(g, Z, Z) + canonical_pairing(g, Z)) // 2


def cycle_mu(g: DualGraph, Z) -> int:
    """Minimal generator count of the represented ideal."""
    _require_rational(g)
    if not is_antinef(g, Z):
        raise ValueError("cycle is not anti-nef")
    return -intersection_pairing(g, Z, g._z0) + 1


def cycle_stats(g: DualGraph, Z):
    return {
        "len": cycle_length(g, Z),
        "e0": -intersection_pairing(g, Z, Z),
        "mu": cycle_mu(g, Z),
    }


def unique_ulrich_filter(g: DualGraph) -> bool:
    """Some vertex has b >= 3 and negative pairing with Z_0 (forces X = {m})."""
    _require_rational(g)
    return any(
        g.weights[i] <= -3 and g.pairing_with_vertex(g._z0, i) < 0 for i in range(g.n)
    )


@dataclass(frozen=True)
class UlrichChain:
    """One chain Z_0 < Z_1 < ... < Z_s; steps hold (Y_k, Z_k)."""

    steps: tuple

    @property
    def depth(self):
        return len(self.steps)

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


def _components_of(g: DualGraph, vertices):
    """Connected components of the induced subgraph, sorted; a vertex set
    is connected when it forms exactly one."""
    remaining = set(vertices)
    comps = []
    while remaining:
        start = min(remaining)
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in g._adj[v]:
                if w in remaining and w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(tuple(sorted(seen)))
        remaining -= seen
    comps.sort()
    return comps


def enumerate_ulrich_chains(g: DualGraph) -> ChainEnumeration:
    _require_rational(g)
    Z0 = g._z0
    K = canonical_numbers(g)  # read once; every K . Y below uses it
    KZ0 = sum(c * k for c, k in zip(Z0, K))
    heavy = frozenset(i for i in range(g.n) if g.weights[i] <= -3)
    chains = [UlrichChain(())]
    seen_cycles = {Z0}
    pruned = False

    def step_candidates(Zprev, upper, first):
        orth = [i for i in range(g.n) if g.pairing_with_vertex(Zprev, i) == 0]
        for comp in _components_of(g, orth):
            # support bound for the first step: every b>=3 vertex sits in supp(Y_1)
            if first and heavy and not heavy.issubset(comp):
                continue
            if any(upper[v] < 1 for v in comp):
                continue
            # the fundamental cycle of the induced subgraph bounds Y below
            lower = _laufer(g, comp)
            if any(lo > upper[v] for lo, v in zip(lower, comp)):
                continue
            ranges = [range(lo, upper[v] + 1) for lo, v in zip(lower, comp)]
            for combo in itertools.product(*ranges):
                Y = [0] * g.n
                for val, v in zip(combo, comp):
                    Y[v] = val
                yield tuple(Y)

    def conditions_hold(Y, Zprev):
        if sum(c * k for c, k in zip(Y, K)) != KZ0:
            return False
        if intersection_pairing(g, Y, Zprev) != 0:
            return False
        # p_a(Y) = (Y.Y + K.Y)/2 + 1 = 0, with K.Y = K.Z_0 checked above
        return intersection_pairing(g, Y, Y) + KZ0 == -2

    def extend(prefix_steps, Zprev, upper, first):
        nonlocal pruned
        for Y in step_candidates(Zprev, upper, first):
            if not conditions_hold(Y, Zprev):
                continue
            Znew = tuple(a + b for a, b in zip(Zprev, Y))
            if not is_antinef(g, Znew):
                pruned = True
                continue
            steps = prefix_steps + ((Y, Znew),)
            if Znew not in seen_cycles:
                seen_cycles.add(Znew)
                chains.append(UlrichChain(steps))
            extend(steps, Znew, list(Y), False)

    extend((), Z0, list(Z0), True)
    ordered = sorted(chains, key=lambda c: (c.depth, c.steps))
    return ChainEnumeration(Z0, tuple(ordered), pruned)
