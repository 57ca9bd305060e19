"""Catalog of ring presentations: determinantal and hypersurface models.

Every catalog entry is built by polynomial arithmetic on its ring's
variables: the defining matrix (the 2x3 Hilbert-Burch matrix of a triple
point, or the 2x4 matrix of EX-5.3), the hypersurface equation of a double
point, and the seed reductions are Python expressions that read like the
printed ones (``t**(n + 1) + z`` for t^{n+1} + z), so no text is parsed.
The defining ideal of a determinantal entry is the ideal of the 2x2 minors
of its matrix, and the canonical trace ideal of a 2x3 entry is the entry
ideal I_1 of the matrix plus the defining ideal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParameterError, ParseError, SearchFailureError, UnsupportedTypeError
from .ideals import IdealHandle, PresentedQuotient, minors
from .polyring import Ring

RTP_RING = Ring(("x", "y", "z", "t"))
RDP_RING = Ring(("x", "y", "z"))
QUOT5_RING = Ring(("z1", "z2", "z3", "z4", "z5"))

# The variables the catalog's matrices, equations and seeds are written in.
x, y, z, t = RTP_RING.gens()
z1, z2, z3, z4, z5 = QUOT5_RING.gens()
_RDP_GENS = RDP_RING.gens()

_RTP_FAMILIES = ("A", "B", "C", "D", "F", "H", "Gamma1", "Gamma2", "Gamma3")
_RDP_FAMILIES = ("RDP-A", "RDP-D", "RDP-E6", "RDP-E7", "RDP-E8")
_CATALOG = _RTP_FAMILIES + _RDP_FAMILIES + ("EX-5.2", "EX-5.3")
_PARAMS = re.compile("[0-9]+(?:,[0-9]+)*")

# The parameters of each catalog family that takes any: their names, and
# their bound as text and as a test (each is a non-negative integer by the
# tag grammar).  Every other catalog family takes none.
_PARAMETERS = {
    "A": ("l,m,n", "0 <= l <= m <= n", lambda l, m, n: l <= m <= n),
    "B": ("m,n", "n >= 3", lambda m, n: n >= 3),
    "C": ("m,n", "n >= 4", lambda m, n: n >= 4),
    "D": ("n", "n >= 0", lambda n: True),
    "F": ("n", "n >= 0", lambda n: True),
    "H": ("n", "n >= 5", lambda n: n >= 5),
    "RDP-A": ("n", "n >= 1", lambda n: n >= 1),
    "RDP-D": ("n", "n >= 4", lambda n: n >= 4),
}


@dataclass(frozen=True)
class FamilyTag:
    name: str
    params: tuple

    def __str__(self):
        if not self.params:
            return self.name
        return f"{self.name}:{','.join(str(p) for p in self.params)}"


@dataclass(frozen=True)
class RingPresentation:
    tag: FamilyTag
    quotient: PresentedQuotient
    matrix: tuple | None  # rows of polynomials when determinantal
    cm_type: int

    @property
    def ring(self):
        return self.quotient.ring


def parse_tag(text: str) -> FamilyTag:
    """``NAME`` or ``NAME:p1,...,pk``, each parameter ASCII digits only (no
    sign, space, underscore or other script, all of which ``int`` takes).
    A catalog family's parameters must meet its entry in ``_PARAMETERS``;
    other names (the graph-only families) are checked where they are built."""
    text = text.strip()
    if ":" in text:
        name, _, rest = text.partition(":")
        try:
            if not _PARAMS.fullmatch(rest):
                raise ValueError(rest)
            params = tuple(map(int, rest.split(",")))  # too many digits: ValueError
        except ValueError as exc:
            raise ParseError(f"bad parameters in tag {text!r}") from exc
    else:
        name, params = text, ()
    spec = _PARAMETERS.get(name)
    if spec is None:
        if params and name in _CATALOG:
            raise ParameterError(f"{name} takes no parameters")
    else:
        names, bound, holds = spec
        if len(params) != names.count(",") + 1 or not holds(*params):
            raise ParameterError(f"{name} takes {names} with {bound}")
    return FamilyTag(name, params)


def _rtp_matrix(tag: FamilyTag):
    name, p = tag.name, tag.params
    if name == "A":
        l, m, n = p
        return ((x, t ** (m + 1), t ** (n + 1) + z), (t ** (l + 1), y, z))
    if name == "B":
        m, n = p
        k = (n + 1) // 2
        if n % 2 == 1:  # n = 2k - 1
            return ((x, y, t**k + z * t), (t ** (m + 1), z, y))
        return ((x, y, z * t), (t ** (m + 1), z, y + t**k))
    if name == "C":
        m, n = p
        return ((x, y, t**2 + z ** (n - 1)), (t ** (m + 1), z, y))
    if name == "D":
        n = p[0]
        return ((x, y, z**2), (t ** (n + 1), z, y + t**2))
    if name == "F":
        n = p[0]
        return ((x, y, t**3 + z**2), (t ** (n + 1), z, y))
    if name == "H":
        n = p[0]
        k = (n + 1) // 3
        if n == 3 * k - 1:
            return ((x, y, z * t + t**k), (y, z, x))
        if n == 3 * k:
            return ((x, y, z * t), (y, z, x + t**k))
        return ((x, y, z * t), (y + t**k, z, x))
    if name == "Gamma1":
        return ((x, y, t**2), (y, z, x + z**2))
    if name == "Gamma2":
        return ((x, y, z**2), (y, z, x + t**2))
    if name == "Gamma3":
        return ((x, y, t**2 + z**3), (y, z, x))
    raise ParameterError(f"unknown RTP family {name!r}")


def _rdp_equation(tag: FamilyTag):
    name, p = tag.name, tag.params
    x, y, z = _RDP_GENS
    if name == "RDP-A":
        return z**2 + x**2 + y ** (p[0] + 1)
    if name == "RDP-D":
        return z**2 + x**2 * y + y ** (p[0] - 1)
    if name == "RDP-E6":
        return z**2 + x**3 + y**4
    if name == "RDP-E7":
        return z**2 + x**3 + x * y**3
    if name == "RDP-E8":
        return z**2 + x**3 + y**5
    raise ParameterError(f"unknown RDP family {name!r}")


def instantiate(tag) -> RingPresentation:
    """Build the catalog presentation for a tag (string or FamilyTag)."""
    if isinstance(tag, str):
        tag = parse_tag(tag)
    name = tag.name
    if name in _RTP_FAMILIES:
        M = _rtp_matrix(tag)
        defining = minors(M)
        quotient = PresentedQuotient(RTP_RING, defining)
        return RingPresentation(tag, quotient, M, 2)
    if name in _RDP_FAMILIES:
        defining = IdealHandle(RDP_RING, [_rdp_equation(tag)])
        return RingPresentation(tag, PresentedQuotient(RDP_RING, defining), None, 1)
    if name == "EX-5.2":
        M = ((x, y, z), (y, z, x**2 - t**3))
        return RingPresentation(tag, PresentedQuotient(RTP_RING, minors(M)), M, 2)
    if name == "EX-5.3":
        M = ((z1, z4, z2, z3**2), (z2, z3, z4, z5))
        return RingPresentation(tag, PresentedQuotient(QUOT5_RING, minors(M)), M, 3)
    raise ParameterError(f"unknown catalog tag {tag}")


def trace_ideal(pres: RingPresentation) -> IdealHandle:
    """Canonical trace ideal: entry ideal of the 2x3 matrix plus defining.

    This is the quotient's image of the entry ideal, cached there, so its
    basis is computed once per presentation.
    """
    if pres.cm_type != 2:
        raise UnsupportedTypeError(
            f"trace ideal via the 2x3 matrix needs CM type 2, not {pres.cm_type}"
        )
    entries = [e for row in pres.matrix for e in row]
    return pres.quotient.image(IdealHandle(pres.ring, entries))


def residue(pres: RingPresentation) -> int:
    return pres.quotient.colength(trace_ideal(pres))


def ring_multiplicity(pres: RingPresentation) -> int:
    """e0 of the ring: colength of a found 2-generated reduction of m, read
    off the finite algebra of m."""
    from .ulrich import find_reduction

    A = pres.quotient
    m = A.maximal_ideal()
    Q = find_reduction(A, m, maximal_reduction_seed(pres.tag))
    if Q is None:
        raise SearchFailureError(
            f"no 2-generated reduction of the maximal ideal found for {pres.tag}"
        )
    return A.algebra(m).colength(Q)


def published_reduction(tag: FamilyTag, i: int):
    """The reduction pair used in the source arguments for (x,y,z,t^i)."""
    name = tag.name
    if name == "A":
        return (t**i, x + y + z)
    if name in ("B", "C", "D", "F"):
        return (t**i, x + z)
    if name in ("H", "Gamma1", "Gamma2", "Gamma3"):
        return (t**i, z)
    if name == "EX-5.2":
        return (x, t**i)
    return None


def maximal_reduction_seed(tag: FamilyTag):
    """Seed reductions of the maximal ideal for the multiplicity search."""
    name = tag.name
    if name in _RTP_FAMILIES or name == "EX-5.2":
        pair = published_reduction(tag, 1)
        return (pair,)
    if name in _RDP_FAMILIES:
        return (_RDP_GENS[:2],)
    if name == "EX-5.3":
        return (
            (z1 + z3 + z5, z2 + z4),
            (z1 + z5, z2 + z3 + z4),
            (z1 - z5, z2 - z3 + z4),
        )
    return ()
