"""Weighted dual graph catalog.

Vertex indexing convention: figure order, left to right along the main
chain, with branch vertices inserted right after their attachment vertex.
Open circles in the source figures carry weight -2; the one marked vertex
of a triple-point family carries -3.

Tag grammar (same parser as the presentation catalog):

    A:l,m,n  B:m,n  C:m,n  D:n  F:n  H:n  Gamma1  Gamma2  Gamma3
    RDP-A:n  RDP-D:n  RDP-E6  RDP-E7  RDP-E8
    cyclic:b1,...,bn          chain with weights -b1..-bn
    T22:b,b1,...,bn           central -b, chain -b1..-bn, two -2 tips
    G1:b .. G15:b             the quotient star shapes around a -b center
    EX-5.3                    alias for G10:2 (its resolution graph)
"""

from __future__ import annotations

from .dualgraph import DualGraph
from .errors import ParameterError
from .presentations import FamilyTag, parse_tag


def _chain_graph(prefix, weights):
    ids = [f"{prefix}{k+1}" for k in range(len(weights))]
    edges = [(ids[k], ids[k + 1]) for k in range(len(weights) - 1)]
    return ids, list(weights), edges


def _check(cond, msg):
    if not cond:
        raise ParameterError(msg)


def _star(center_weight, arms, branch=None):
    """Star around 'E0'; arms are weight lists from the center outwards."""
    ids = []
    weights = []
    edges = []
    counter = [0]

    def new_id():
        counter[0] += 1
        return f"E{counter[0]}"

    ids.append("E0")
    weights.append(center_weight)
    for arm in arms:
        prev = "E0"
        for w in arm:
            v = new_id()
            ids.append(v)
            weights.append(w)
            edges.append((prev, v))
            prev = v
    return DualGraph(ids, weights, edges)


def _rtp_graph(tag: FamilyTag) -> DualGraph:
    name, p = tag.name, tag.params
    if name == "A":
        _check(len(p) == 3 and 0 <= p[0] <= p[1] <= p[2], "A needs 0 <= l <= m <= n")
        l, m, n = p
        ids, weights, edges = [], [], []
        # m-arm, outermost first
        for k in range(m):
            ids.append(f"E{k+1}")
            weights.append(-2)
            if k:
                edges.append((f"E{k}", f"E{k+1}"))
        center = f"E{m+1}"
        ids.append(center)
        weights.append(-3)
        if m:
            edges.append((f"E{m}", center))
        # l-arm (branch), attachment end first
        prev = center
        for k in range(l):
            v = f"E{m+2+k}"
            ids.append(v)
            weights.append(-2)
            edges.append((prev, v))
            prev = v
        # n-arm, attachment end first
        prev = center
        for k in range(n):
            v = f"E{m+l+2+k}"
            ids.append(v)
            weights.append(-2)
            edges.append((prev, v))
            prev = v
        return DualGraph(ids, weights, edges)
    if name == "B":
        _check(len(p) == 2 and p[0] >= 0 and p[1] >= 3, "B needs m >= 0, n >= 3")
        m, n = p
        # arm of m, the -3 vertex, junction with a -2 tip, n-3 chain, end
        seq = [(-2)] * m + [-3, -2] + ["BRANCH"] + [-2] * (n - 3) + [-2]
        return _sequence_graph(seq)
    if name == "C":
        _check(len(p) == 2 and p[0] >= 0 and p[1] >= 4, "C needs m >= 0, n >= 4")
        m, n = p
        seq = [(-2)] * m + [-3] + [-2] * (n - 3) + [-2, "BRANCH"] + [-2]
        return _sequence_graph(seq)
    if name == "D":
        _check(len(p) == 1 and p[0] >= 0, "D needs n >= 0")
        n = p[0]
        seq = [(-2)] * n + [-3, -2, -2, "BRANCH", -2, -2]
        return _sequence_graph(seq)
    if name == "F":
        _check(len(p) == 1 and p[0] >= 0, "F needs n >= 0")
        n = p[0]
        seq = [(-2)] * n + [-3, -2, -2, -2, "BRANCH", -2, -2]
        return _sequence_graph(seq)
    if name == "H":
        n = p[0] if len(p) == 1 else -1
        _check(n >= 5, "H needs n >= 5")
        # chain of n (-2)s with the -3 attached two before the right end
        seq = [(-2)] * (n - 2) + [("BRANCH", -3), -2, -2]
        return _sequence_graph(seq)
    if name == "Gamma1":
        _check(not p, "Gamma1 takes no parameters")
        return _sequence_graph([-3, -2, -2, "BRANCH", -2, -2, -2])
    if name == "Gamma2":
        _check(not p, "Gamma2 takes no parameters")
        return _sequence_graph([-3, -2, -2, "BRANCH", -2, -2, -2, -2])
    if name == "Gamma3":
        _check(not p, "Gamma3 takes no parameters")
        return _sequence_graph([-3, -2, -2, -2, -2, "BRANCH", -2, -2])
    raise ParameterError(f"no graph for tag {tag}")


def _sequence_graph(seq):
    """Chain with optional single-vertex branches.

    Entries are weights; "BRANCH" attaches a -2 vertex to the previous
    chain vertex, ("BRANCH", w) attaches weight w.  Ids follow figure
    order: chain left to right, branches right after their attachment.
    """
    ids, weights, edges = [], [], []
    prev_chain = None
    k = 0
    for item in seq:
        if item == "BRANCH" or (isinstance(item, tuple) and item[0] == "BRANCH"):
            w = -2 if item == "BRANCH" else item[1]
            k += 1
            v = f"E{k}"
            ids.append(v)
            weights.append(w)
            edges.append((prev_chain, v))
        else:
            k += 1
            v = f"E{k}"
            ids.append(v)
            weights.append(item)
            if prev_chain is not None:
                edges.append((prev_chain, v))
            prev_chain = v
    return DualGraph(ids, weights, edges)


def _rdp_graph(tag: FamilyTag) -> DualGraph:
    name, p = tag.name, tag.params
    if name == "RDP-A":
        _check(len(p) == 1 and p[0] >= 1, "RDP-A needs n >= 1")
        ids, weights, edges = _chain_graph("E", [-2] * p[0])
        return DualGraph(ids, weights, edges)
    if name == "RDP-D":
        _check(len(p) == 1 and p[0] >= 4, "RDP-D needs n >= 4")
        n = p[0]
        return _star(-2, [[-2] * (n - 3), [-2], [-2]])
    _check(not p, f"{name} takes no parameters")
    if name == "RDP-E6":
        return _star(-2, [[-2, -2], [-2, -2], [-2]])
    if name == "RDP-E7":
        return _star(-2, [[-2, -2, -2], [-2, -2], [-2]])
    if name == "RDP-E8":
        return _star(-2, [[-2, -2, -2, -2], [-2, -2], [-2]])
    raise ParameterError(f"no graph for tag {tag}")


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


def _gamma_graph(i: int, b: int) -> DualGraph:
    _check(b >= 2, "central weight needs b >= 2")
    left, right, f_pos = _GAMMA_SHAPES[i]
    ids, weights, edges = [], [], []
    counter = [0]

    def new_id():
        counter[0] += 1
        return f"E{counter[0]}"

    left_ids = [new_id() for _ in left]
    for v, w in zip(left_ids, left):
        ids.append(v)
        weights.append(w)
    for a, bb in zip(left_ids, left_ids[1:]):
        edges.append((a, bb))
    ids.append("E0")
    weights.append(-b)
    if left_ids:
        edges.append((left_ids[-1], "E0"))
    tip = new_id()
    ids.append(tip)
    weights.append(-2)
    edges.append(("E0", tip))
    prev = "E0"
    for k, w in enumerate(right):
        v = "F" if f_pos == k else new_id()
        ids.append(v)
        weights.append(w)
        edges.append((prev, v))
        prev = v
    return DualGraph(ids, weights, edges)


def graph_catalog(tag) -> DualGraph:
    """The catalog graph for a tag (string or FamilyTag)."""
    if isinstance(tag, str):
        tag = parse_tag(tag)
    name = tag.name
    if name in ("A", "B", "C", "D", "F", "H", "Gamma1", "Gamma2", "Gamma3"):
        return _rtp_graph(tag)
    if name.startswith("RDP-"):
        return _rdp_graph(tag)
    if name == "cyclic":
        _check(len(tag.params) >= 1, "cyclic needs at least one weight")
        _check(all(b >= 2 for b in tag.params), "cyclic weights need b >= 2")
        ids, weights, edges = _chain_graph("E", [-b for b in tag.params])
        return DualGraph(ids, weights, edges)
    if name == "T22":
        _check(len(tag.params) >= 2, "T22 needs b plus at least one chain weight")
        b, rest = tag.params[0], tag.params[1:]
        _check(b >= 2 and all(x >= 2 for x in rest), "T22 weights need b >= 2")
        n = len(rest)
        ids = [f"E{n - k}" for k in range(n)] + ["E0", "U1", "U2"]
        weights = [-rest[n - 1 - k] for k in range(n)] + [-b, -2, -2]
        edges = [(f"E{k+1}", f"E{k+2}") for k in range(n - 1)]
        edges += [("E1", "E0"), ("E0", "U1"), ("E0", "U2")]
        return DualGraph(ids, weights, edges)
    if name.startswith("G") and name[1:].isascii() and name[1:].isdigit():
        i = int(name[1:])
        _check(1 <= i <= 15, "quotient star families are G1..G15")
        _check(len(tag.params) == 1, f"{name} needs the central weight b")
        return _gamma_graph(i, tag.params[0])
    if name == "EX-5.3":
        _check(not tag.params, "EX-5.3 takes no parameters")
        return _gamma_graph(10, 2)
    raise ParameterError(f"no graph catalog entry for tag {tag}")


def quotient_sweep_tags(b_max: int = 4, chain_len: int = 4, t22_len: int = 3):
    """Deterministic tag list for the quotient-singularity sweep."""
    tags = []
    rng = range(2, b_max + 1)
    for n in range(1, chain_len + 1):
        for combo in _products(rng, n):
            tags.append("cyclic:" + ",".join(map(str, combo)))
    for n in range(1, t22_len + 1):
        for b in rng:
            for combo in _products(rng, n):
                tags.append(f"T22:{b}," + ",".join(map(str, combo)))
    for i in range(1, 16):
        for b in rng:
            tags.append(f"G{i}:{b}")
    return tags


def _products(rng, n):
    import itertools

    return itertools.product(rng, repeat=n)
