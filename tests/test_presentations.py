"""Catalog presentations: printed generators, traces, residues."""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from reference import (
    cofactor_minors,
    nearly_gorenstein_expected,
    printed_equation,
    printed_matrix,
    printed_maximal_reduction_seed,
    printed_published_reduction,
    printed_rdp_list,
)
from triplepoint.errors import (
    ExponentRangeError,
    ParameterError,
    ParseError,
    UnsupportedTypeError,
)
from triplepoint.expectations import grid_tags, residue_closed_form
from triplepoint.ideals import IdealHandle, minors
from triplepoint.presentations import (
    RTP_RING,
    instantiate,
    maximal_reduction_seed,
    nearly_gorenstein,
    parse_tag,
    published_reduction,
    residue,
    ring_multiplicity,
    trace_ideal,
)
from triplepoint.ulrich import _rdp_listed

R = RTP_RING

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
    printed = IdealHandle(R, PRINTED[tag])
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
    """Built polynomials against parsed text, term for term."""
    assert [p.terms for p in built] == [ring.polynomial(s).terms for s in text]


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
        expected = cofactor_minors([[ring.polynomial(e) for e in row] for row in rows], 2)
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
    rdp = instantiate("RDP-E6")
    assert rdp.quotient.defining.gens == (rdp.ring.polynomial("z^2 + x^3 + y^4"),)
    rdp = instantiate("RDP-A:2")
    assert rdp.quotient.defining.gens == (rdp.ring.polynomial("z^2 + x^2 + y^3"),)


def test_instantiate_h_branches():
    # n = 3k-1 with k = 2 picks the zt + t^k column
    assert instantiate("H:5").matrix[0][2] == R.polynomial("z*t + t^2")
    assert instantiate("H:6").matrix[1][2] == R.polynomial("x + t^2")
    assert instantiate("H:7").matrix[1][0] == R.polynomial("y + t^2")


def test_instantiate_bad_params():
    for tag in ("A:2,1,1", "B:1,2", "C:0,3", "H:4", "RDP-A:0", "RDP-D:3", "Z:1"):
        with pytest.raises(ParameterError):
            instantiate(tag)


@pytest.mark.parametrize(
    "tag,expected",
    [
        ("A:1,2,3", ["x", "y", "z", "t^2"]),
        ("A:0,1,2", ["x", "y", "z", "t"]),
        ("F:4", ["x", "y", "z", "t^3"]),
        ("F:1", ["x", "y", "z", "t^2"]),
        ("Gamma1", ["x", "y", "z", "t^2"]),
        ("H:7", ["x", "y", "z", "t^2"]),
        ("EX-5.2", ["x", "y", "z", "t^3"]),
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


def test_residue_one_iff_nearly_gorenstein_on_grid():
    for ftag in grid_tags(3):
        pres = instantiate(ftag)
        assert (residue(pres) == 1) == nearly_gorenstein(pres)


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
        assert nearly_gorenstein(instantiate(tag)) == expected
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
