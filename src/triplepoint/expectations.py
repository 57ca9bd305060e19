"""Compiled-in expected values for the report commands.

Closed forms for the residue and Ulrich-set sizes, plus the standard
parameter grids the verification sweeps run over.
"""

from __future__ import annotations

from .errors import ParameterError
from .presentations import FamilyTag


def _k_of_B(n: int) -> int:
    return (n + 1) // 2


def _k_of_H(n: int) -> int:
    return (n + 1) // 3


def residue_closed_form(tag: FamilyTag) -> int:
    name, p = tag.name, tag.params
    if name == "A":
        return p[0] + 1
    if name == "B":
        return min(_k_of_B(p[1]), p[0] + 1)
    if name == "C":
        return min(2, p[0] + 1)
    if name == "D":
        return min(2, p[0] + 1)
    if name == "F":
        return min(3, p[0] + 1)
    if name == "H":
        return _k_of_H(p[0])
    if name in ("Gamma1", "Gamma2", "Gamma3"):
        return 2
    if name == "EX-5.2":
        return 3
    raise ParameterError(f"no residue closed form for {tag}")


def ulrich_count_expected(tag: FamilyTag) -> int:
    name, p = tag.name, tag.params
    if name == "RDP-A":
        return (p[0] + 1) // 2
    if name == "RDP-D":
        n = p[0]
        return (n // 2 + 2) if n % 2 == 0 else ((n - 1) // 2 + 1)
    if name == "RDP-E6":
        return 2
    if name == "RDP-E7":
        return 3
    if name == "RDP-E8":
        return 2
    if name == "EX-5.3":
        return 1
    return residue_closed_form(tag)


def grid_tags(max_param: int = 4):
    """The triple-point verification grid: every family, parameters up to
    max_param (for H the step count k plays the parameter role)."""
    tags = []
    for l in range(0, max_param + 1):
        for m in range(l, max_param + 1):
            for n in range(m, max_param + 1):
                tags.append(FamilyTag("A", (l, m, n)))
    for m in range(0, max_param + 1):
        for n in range(3, max_param + 1):
            tags.append(FamilyTag("B", (m, n)))
    for m in range(0, max_param + 1):
        for n in range(4, max_param + 1):
            tags.append(FamilyTag("C", (m, n)))
    for n in range(0, max_param + 1):
        tags.append(FamilyTag("D", (n,)))
    for n in range(0, max_param + 1):
        tags.append(FamilyTag("F", (n,)))
    for k in range(2, max_param + 1):
        for n in (3 * k - 1, 3 * k, 3 * k + 1):
            tags.append(FamilyTag("H", (n,)))
    tags.append(FamilyTag("Gamma1", ()))
    tags.append(FamilyTag("Gamma2", ()))
    tags.append(FamilyTag("Gamma3", ()))
    return tags


def rdp_grid():
    tags = [FamilyTag("RDP-A", (n,)) for n in range(1, 8)]
    tags += [FamilyTag("RDP-D", (n,)) for n in range(4, 8)]
    tags += [FamilyTag("RDP-E6", ()), FamilyTag("RDP-E7", ()), FamilyTag("RDP-E8", ())]
    return tags


# Anti-nef cycles printed in the source for specific ideals, keyed by tag,
# in the graph catalog's vertex order.
PUBLISHED_TRACE_CYCLES = {
    "A:1,2,3": {"E1": 1, "E2": 2, "E3": 2, "E4": 1, "E5": 2, "E6": 2, "E7": 1},
    "EX-5.3": {"E1": 1, "E2": 2, "E0": 2, "E3": 1, "F": 1},
}
