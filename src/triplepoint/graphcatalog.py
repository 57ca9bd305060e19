"""Weighted dual graph catalog.

Every catalog graph is a tree, built by one helper, ``_tree``, from
(id, weight, neighbour) triples: each vertex is listed after the vertex it
joins, and the first has neighbour ``None``.  ``_path`` gives the triples of
a run of vertices E_k, E_{k+1}, ... from a list of weights, in which a
1-tuple ``(w,)`` is a branch: one vertex of weight w on the run's last
vertex, the run going on from that vertex.  Each family is a short spec
over these two helpers.

Vertex indexing convention: figure order, left to right along the main
chain, with branch vertices inserted right after their attachment vertex.
Open circles in the source figures carry weight -2; the one marked vertex
of a triple-point family carries -3.

Tag grammar (same parser as the presentation catalog, which also checks
the ring catalog families' parameters; the graph-only families are checked
here):

    A:l,m,n  B:m,n  C:m,n  D:n  F:n  H:n  Gamma1  Gamma2  Gamma3
    RDP-A:n  RDP-D:n  RDP-E6  RDP-E7  RDP-E8
    cyclic:b1,...,bn          chain with weights -b1..-bn
    T22:b,b1,...,bn           central -b, chain -b1..-bn, two -2 tips
    G1:b .. G15:b             the quotient star shapes around a -b center
    EX-5.3                    alias for G10:2 (its resolution graph)
"""

from __future__ import annotations

import itertools

from .dualgraph import DualGraph
from .errors import ParameterError
from .presentations import parse_tag


def _check(cond, msg):
    if not cond:
        raise ParameterError(msg)


def _tree(vertices) -> DualGraph:
    """The tree of (id, weight, neighbour) triples."""
    ids, weights, edges = [], [], []
    for v, w, u in vertices:
        ids.append(v)
        weights.append(w)
        if u is not None:
            edges.append((u, v))
    return DualGraph(ids, weights, edges)


def _path(items, start=None, k=1):
    """Triples of the run E_k, E_{k+1}, ... joined to ``start``: a weight
    continues the run, a branch (w,) hangs off the run's last vertex."""
    out, prev = [], start
    for j, item in enumerate(items, k):
        v = f"E{j}"
        if isinstance(item, tuple):
            out.append((v, item[0], prev))
        else:
            out.append((v, item, prev))
            prev = v
    return out


def _star(*arms):
    """A -2 center E0 with -2 arms of these lengths."""
    vertices, k = [("E0", -2, None)], 1
    for length in arms:
        vertices += _path([-2] * length, "E0", k)
        k += length
    return vertices


# Gamma_i(b) data: (left arm outer->inner, right arm inner->outer, F index
# in the right arm or None).  All have a -2 tip on the -b center.
_GAMMA_SHAPES = {
    1: ([-3], [-3], 0),
    2: ([-2, -2], [-3], 0),
    3: ([-2, -2], [-2, -2], None),
    4: ([-3], [-4], 0),
    5: ([-2, -2, -2], [-3], 0),
    6: ([-2, -2], [-4], 0),
    7: ([-2, -2, -2], [-2, -2], None),
    8: ([-3], [-5], 0),
    9: ([-2, -2], [-5], 0),
    10: ([-2, -3], [-3], 0),
    11: ([-2, -2], [-3, -2], 0),
    12: ([-3, -2], [-3], 0),
    13: ([-2, -2], [-2, -3], 1),
    14: ([-2, -2, -2, -2], [-3], 0),
    15: ([-2, -2, -2, -2], [-2, -2], None),
}


def _gamma(i, b):
    """The left arm, the center E0 with its tip, then the right arm, whose
    F vertex takes no number."""
    left, right, f = _GAMMA_SHAPES[i]
    k = len(left)
    vertices = _path(left) + [("E0", -b, f"E{k}")] + _path([(-2,), *right[:f]], "E0", k + 1)
    if f is None:
        return vertices
    vertices.append(("F", right[f], vertices[-1][0] if f else "E0"))
    return vertices + _path(right[f + 1:], "F", k + f + 2)


# The graph of each ring catalog family, from its parameters (checked by
# ``parse_tag``).
_RING_GRAPHS = {
    # the m-arm (outermost first), the -3 center, then the l-arm and the n-arm
    "A": lambda l, m, n: (
        _path([-2] * m + [-3])
        + _path([-2] * l, f"E{m + 1}", m + 2)
        + _path([-2] * n, f"E{m + 1}", m + l + 2)
    ),
    # arm of m, the -3 vertex, junction with a -2 tip, n-3 chain, end
    "B": lambda m, n: _path([-2] * m + [-3, -2, (-2,)] + [-2] * (n - 2)),
    "C": lambda m, n: _path([-2] * m + [-3] + [-2] * (n - 2) + [(-2,), -2]),
    "D": lambda n: _path([-2] * n + [-3, -2, -2, (-2,), -2, -2]),
    "F": lambda n: _path([-2] * n + [-3, -2, -2, -2, (-2,), -2, -2]),
    # chain of n (-2)s with the -3 attached two before the right end
    "H": lambda n: _path([-2] * (n - 2) + [(-3,), -2, -2]),
    "Gamma1": lambda: _path([-3, -2, -2, (-2,), -2, -2, -2]),
    "Gamma2": lambda: _path([-3, -2, -2, (-2,), -2, -2, -2, -2]),
    "Gamma3": lambda: _path([-3, -2, -2, -2, -2, (-2,), -2, -2]),
    "RDP-A": lambda n: _path([-2] * n),
    "RDP-D": lambda n: _star(n - 3, 1, 1),
    "RDP-E6": lambda: _star(2, 2, 1),
    "RDP-E7": lambda: _star(3, 2, 1),
    "RDP-E8": lambda: _star(4, 2, 1),
    "EX-5.3": lambda: _gamma(10, 2),
}


def graph_catalog(tag) -> DualGraph:
    """The catalog graph for a tag (string or FamilyTag)."""
    if isinstance(tag, str):
        tag = parse_tag(tag)
    name, p = tag.name, tag.params
    if name in _RING_GRAPHS:
        return _tree(_RING_GRAPHS[name](*p))
    if name == "cyclic":
        _check(p and min(p) >= 2, "cyclic takes weights b1,...,bn >= 2")
        return _tree(_path([-b for b in p]))
    if name == "T22":
        _check(len(p) >= 2 and min(p) >= 2, "T22 takes weights b,b1,...,bn >= 2")
        n = len(p) - 1
        chain = [(f"E{j}", -p[j], f"E{j + 1}" if j < n else None) for j in range(n, 0, -1)]
        return _tree(chain + [("E0", -p[0], "E1"), ("U1", -2, "E0"), ("U2", -2, "E0")])
    if name.startswith("G") and name[1:].isascii() and name[1:].isdigit():
        # two digits at most past the leading zeros, so int meets no digit limit
        index = name[1:].lstrip("0")
        _check(0 < len(index) <= 2 and int(index) <= 15, "quotient star families are G1..G15")
        _check(len(p) == 1 and p[0] >= 2, f"{name} takes the central weight b >= 2")
        return _tree(_gamma(int(index), p[0]))
    raise ParameterError(f"no graph catalog entry for tag {tag}")


def quotient_sweep_tags(b_max: int = 4):
    """Deterministic tag list for the quotient-singularity sweep: chains of
    1 to 4 weights, T22 graphs with 1 to 3 chain weights, and the star
    shapes, all weights from 2 to ``b_max``."""
    tags = []
    rng = range(2, b_max + 1)
    for n in range(1, 5):
        for combo in itertools.product(rng, repeat=n):
            tags.append("cyclic:" + ",".join(map(str, combo)))
    for n in range(1, 4):
        for b in rng:
            for combo in itertools.product(rng, repeat=n):
                tags.append(f"T22:{b}," + ",".join(map(str, combo)))
    for i in range(1, 16):
        for b in rng:
            tags.append(f"G{i}:{b}")
    return tags
