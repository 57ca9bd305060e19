"""Catalog presentations: printed generators, traces, residues."""

import json
import os

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from reference import (
    cofactor_minors,
    nearly_gorenstein_by_membership,
    nearly_gorenstein_expected,
    printed_equation,
    printed_matrix,
    printed_maximal_reduction_seed,
    printed_published_reduction,
    printed_rdp_list,
    read,
    rejected_by_membership,
)
from triplepoint.errors import (
    ExponentRangeError,
    ParameterError,
    ParseError,
    UnsupportedTypeError,
)
from triplepoint.expectations import grid_tags, residue_closed_form
from triplepoint.ideals import IdealHandle, PresentedQuotient, minors
from triplepoint.presentations import (
    RTP_RING,
    FamilyTag,
    RingPresentation,
    instantiate,
    maximal_reduction_seed,
    parse_tag,
    published_reduction,
    residue,
    ring_multiplicity,
    trace_ideal,
)
from triplepoint.ulrich import _rdp_listed, next_candidate_rejected_by_trace

R = RTP_RING
x, y, z, t = R.gens()

REFERENCE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "reference.json"
)

# Defining equations as printed for each family at small parameters
# (exponents substituted by hand from the general displays).
PRINTED = {
    "A:1,2,3": ["x*y - t^5", "x*z - t^6 - z*t^2", "y*z + y*t^4 - z*t^3"],
    "B:1,3": ["x*z - y*t^2", "x*y - t^4 - z*t^3", "y^2 - z*t^2 - z^2*t"],
    "B:1,4": ["x*z - y*t^2", "x*y + x*t^2 - z*t^3", "y^2 + y*t^2 - z^2*t"],
    "C:1,4": ["x*z - y*t^2", "x*y - t^4 - z^3*t^2", "y^2 - z*t^2 - z^4"],
    "D:1": ["x*z - y*t^2", "x*y + x*t^2 - z^2*t^2", "y^2 + y*t^2 - z^3"],
    "F:1": ["x*z - y*t^2", "x*y - t^5 - z^2*t^2", "y^2 - z*t^3 - z^3"],
    "H:5": ["x^2 - y*z*t - y*t^2", "x*y - z^2*t - z*t^2", "y^2 - x*z"],
    "H:6": ["x^2 + x*t^2 - y*z*t", "x*y - z^2*t + y*t^2", "y^2 - x*z"],
    "H:7": ["x^2 - y*z*t - z*t^3", "x*y - z^2*t", "y^2 - x*z + y*t^2"],
    "Gamma1": ["x^2 - y*t^2 + x*z^2", "x*y - z*t^2 + y*z^2", "y^2 - x*z"],
    "Gamma2": ["x^2 - y*z^2 + x*t^2", "x*y - z^3 + y*t^2", "y^2 - x*z"],
    "Gamma3": ["x^2 - y*t^2 - y*z^3", "x*y - z*t^2 - z^4", "y^2 - x*z"],
}


@pytest.mark.parametrize("tag", sorted(PRINTED))
def test_minors_reproduce_printed_generators(tag):
    pres = instantiate(tag)
    printed = IdealHandle(R, [read(R, g) for g in PRINTED[tag]])
    assert pres.quotient.defining.groebner() == printed.groebner()


# Every branch of the catalog: A up to 4; B with odd and even n; C, D and F;
# H with n = 0, 1, 2 mod 3; the Gamma rings; the examples; the double points
# with RDP-D of even and odd n.
CATALOG_BRANCHES = (
    [f"A:{l},{m},{n}" for l in range(5) for m in range(l, 5) for n in range(m, 5)]
    + ["B:0,3", "B:1,4", "B:2,5", "B:3,6", "C:0,4", "C:2,7", "D:0", "D:3", "F:0", "F:4"]
    + ["H:5", "H:6", "H:7", "H:8", "H:9", "H:10", "Gamma1", "Gamma2", "Gamma3"]
    + ["EX-5.2", "EX-5.3", "RDP-A:1", "RDP-A:4", "RDP-D:4", "RDP-D:5", "RDP-D:8"]
    + ["RDP-D:9", "RDP-E6", "RDP-E7", "RDP-E8"]
)


def _same_terms(built, text, ring):
    """Built polynomials against printed text, term for term."""
    assert [p.terms for p in built] == [read(ring, s).terms for s in text]


@pytest.mark.parametrize("text", CATALOG_BRANCHES)
def test_catalog_is_built_as_printed(text):
    tag = parse_tag(text)
    pres = instantiate(tag)
    ring = pres.ring
    if pres.matrix is None:
        assert len(pres.quotient.defining.gens) == 1
        _same_terms(pres.quotient.defining.gens, [printed_equation(tag)], ring)
        for (gens, seed), (gens_text, seed_text) in zip(
            _rdp_listed(tag), printed_rdp_list(tag), strict=True
        ):
            _same_terms(gens, gens_text, ring)
            _same_terms(seed, seed_text, ring)
    else:
        rows = printed_matrix(tag)
        for row, row_text in zip(pres.matrix, rows, strict=True):
            _same_terms(row, row_text, ring)
        expected = cofactor_minors([[read(ring, e) for e in row] for row in rows], 2)
        assert [g.terms for g in pres.quotient.defining.gens] == [g.terms for g in expected]
    for i in range(1, 5):
        pair, pair_text = published_reduction(tag, i), printed_published_reduction(tag, i)
        assert (pair is None) == (pair_text is None)
        if pair is not None:
            _same_terms(pair, pair_text, ring)
    for pair, pair_text in zip(
        maximal_reduction_seed(tag), printed_maximal_reduction_seed(tag), strict=True
    ):
        _same_terms(pair, pair_text, ring)


def test_instantiate_rdp_equations():
    for tag, text in (("RDP-E6", "z^2 + x^3 + y^4"), ("RDP-A:2", "z^2 + x^2 + y^3")):
        pres = instantiate(tag)
        assert pres.quotient.defining.gens == (read(pres.ring, text),)


def test_instantiate_h_branches():
    # n = 3k-1 with k = 2 picks the zt + t^k column
    assert instantiate("H:5").matrix[0][2] == z * t + t**2
    assert instantiate("H:6").matrix[1][2] == x + t**2
    assert instantiate("H:7").matrix[1][0] == y + t**2


def test_instantiate_bad_params():
    for tag in ("A:2,1,1", "B:1,2", "C:0,3", "H:4", "RDP-A:0", "RDP-D:3", "Z:1"):
        with pytest.raises(ParameterError):
            instantiate(tag)


@pytest.mark.parametrize(
    "tag,expected",
    [
        ("A:1,2,3", [x, y, z, t**2]),
        ("A:0,1,2", [x, y, z, t]),
        ("F:4", [x, y, z, t**3]),
        ("F:1", [x, y, z, t**2]),
        ("Gamma1", [x, y, z, t**2]),
        ("H:7", [x, y, z, t**2]),
        ("EX-5.2", [x, y, z, t**3]),
    ],
)
def test_trace_ideals(tag, expected):
    pres = instantiate(tag)
    assert trace_ideal(pres).groebner() == IdealHandle(R, expected).groebner()


def test_trace_rejects_other_cm_types():
    with pytest.raises(UnsupportedTypeError):
        trace_ideal(instantiate("RDP-E6"))
    with pytest.raises(UnsupportedTypeError):
        trace_ideal(instantiate("EX-5.3"))


def test_trace_invariant_under_matrix_symmetries():
    pres = instantiate("B:2,5")
    base = trace_ideal(pres)
    M = pres.matrix
    # swap rows, permute columns: entry ideal must not change
    swapped = [list(M[1]), list(M[0])]
    permuted = [[row[2], row[0], row[1]] for row in M]
    for variant in (swapped, permuted):
        entries = [e for row in variant for e in row]
        alt = IdealHandle(R, entries) + pres.quotient.defining
        assert alt.groebner() == (base + pres.quotient.defining).groebner()
    # and the defining ideal itself only changes by sign under these moves
    assert minors(swapped).groebner() == pres.quotient.defining.groebner()


@pytest.mark.parametrize(
    "tag,expected", [("A:1,2,3", 2), ("H:5", 2), ("H:8", 3), ("D:0", 1), ("B:3,6", 3)]
)
def test_residues(tag, expected):
    assert residue(instantiate(tag)) == expected


def _trace_verdict_presentations():
    """The CM-type-2 presentations of grid(6) and of every tag the benchmark's
    reference commands name, then one whose next candidate past the trace
    is the trace itself: J = (t^2) puts t^2 into (x, y, z, t^3) + J."""
    with open(REFERENCE, encoding="utf-8") as fh:
        commands = [c for pool in json.load(fh)["digests"].values() for c in pool]
    named = [c.split("--tag ")[1].split()[0] for c in commands if "--tag " in c]
    for text in dict.fromkeys([str(tag) for tag in grid_tags(6)] + named):
        pres = instantiate(text)
        if pres.cm_type == 2:
            yield pres
    quotient = PresentedQuotient(R, IdealHandle(R, [t**2]))
    yield RingPresentation(FamilyTag("doctored", ()), quotient, ((x, y, z, t**3),), 2)


def test_residue_one_iff_nearly_gorenstein_on_grid():
    # classify reads nearly Gorenstein (m <= tr) as ell(A/tr) = 1, since tr
    # lies in m; the reference decides it by membership in the ambient ring
    nearly = []
    for pres in _trace_verdict_presentations():
        assert (residue(pres) == 1) == nearly_gorenstein_by_membership(pres), pres.tag
        nearly.append(residue(pres) == 1)
    assert len(nearly) == 301 and nearly.count(True) == 58


def test_next_candidate_rejection_matches_ambient_membership():
    # the next candidate I lies inside tr, so classify reads "I does not
    # contain tr" as ell(A/I) != ell(A/tr); the reference decides it by
    # membership of tr's generators in I + J in the ambient ring
    rejected = []
    for pres in _trace_verdict_presentations():
        verdict = next_candidate_rejected_by_trace(pres)[1]
        assert verdict == rejected_by_membership(pres), pres.tag
        rejected.append(verdict)
    assert len(rejected) == 301 and rejected.count(False) == 1


def test_nearly_gorenstein_expected_small():
    for tag, expected in [
        ("A:0,1,2", True),
        ("A:1,1,1", False),
        ("B:0,3", True),
        ("B:1,3", False),
        ("C:0,4", True),
        ("D:0", True),
        ("F:0", True),
        ("Gamma2", False),
        ("H:6", False),
    ]:
        pres = instantiate(tag)
        assert (residue(pres) == 1) == nearly_gorenstein_by_membership(pres) == expected
        assert nearly_gorenstein_expected(parse_tag(tag)) == expected


@pytest.mark.parametrize(
    "tag,expected",
    [("A:0,0,0", 3), ("B:2,4", 3), ("RDP-A:3", 2), ("RDP-E8", 2), ("EX-5.3", 4)],
)
def test_ring_multiplicity(tag, expected):
    assert ring_multiplicity(instantiate(tag)) == expected


@pytest.mark.parametrize(
    "text", ["A:1,2,1_0", "A:+1,2,3", "A:-0,1,2", "D: 3", "A:\u0661,2,3", "D:" + "9" * 5000]
)
def test_parse_tag_takes_ascii_digits_only(text):
    with pytest.raises(ParseError):
        parse_tag(text)


# Family names joined to parameter texts drawn from characters that int()
# would read in part (signs, underscores, spaces, non-ASCII digits).
_TAG_TEXTS = st.one_of(
    st.text(max_size=16),
    st.builds(
        lambda name, sep, params: name + sep + params,
        st.sampled_from(["A", "B", "C", "D", "F", "H", "Gamma1", "EX-5.2", "EX-5.3",
                         "RDP-A", "RDP-D", "RDP-E7", "cyclic", ""]),
        st.sampled_from([":", "", " :"]),
        st.text(alphabet="0123456789,+-_ \u0661", max_size=12),
    ),
)


@seed(20261018)
@settings(max_examples=250, deadline=None, database=None)
@given(_TAG_TEXTS)
def test_tag_input_boundary_raises_only_input_errors(text):
    # a tag either builds its presentation or is refused as input (exit 2)
    try:
        instantiate(parse_tag(text))
    except (ParseError, ParameterError, ExponentRangeError):
        pass
