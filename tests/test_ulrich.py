"""Ulrich certification: stability, verdicts, lists, the socle experiment."""

import ast
import inspect
import itertools

import pytest
from click.testing import CliRunner

from reference import (
    contains,
    is_good_on_every_row,
    power,
    product,
    quotient_dim,
    read,
    rejected_by_membership,
    socle_by_localized_colon,
    trace_shape_by_parsing,
)
from triplepoint import expectations, ideals, kernel, presentations, ulrich
from triplepoint.cli import main
from triplepoint.errors import ColengthBudgetError, ShapeError
from triplepoint.ideals import IdealHandle
from triplepoint.expectations import grid_tags
from triplepoint.polyring import Polynomial
from triplepoint.presentations import (
    RDP_RING,
    RTP_RING,
    instantiate,
    maximal_reduction_seed,
    published_reduction,
    residue,
    trace_ideal,
)
from triplepoint.ulrich import (
    classify_ulrich_set,
    find_reduction,
    good_check,
    gorenstein_quotient_experiment,
    next_candidate_rejected_by_trace,
    ulrich_check,
    verify_rdp_list,
)

R = RTP_RING
x, y, z, t = R.gens()


def _ideal(ring, texts):
    """The ideal of the printed generators ``texts`` in ``ring``."""
    return IdealHandle(ring, [read(ring, g) for g in texts])


@pytest.fixture(scope="module")
def a123():
    return instantiate("A:1,2,3")


def test_stability_published_pair(a123):
    A = a123.quotient
    J1 = IdealHandle(R, [x, y, z, t])
    Q1 = IdealHandle(R, [t, x + y + z])
    assert A.algebra(J1).spans(Q1) is True


def test_stability_trivial_q_equals_i(a123):
    A = a123.quotient
    Q = IdealHandle(R, [t, x + y + z])
    assert A.algebra(Q).spans(Q) is True


def test_stability_rejects_outsiders(a123):
    A = a123.quotient
    I = IdealHandle(R, [x, y, z, t**2])
    assert A.algebra(I).spans(IdealHandle(R, [t, x])) is None


def test_m_squared_good_but_not_ulrich(a123):
    # powers of the maximal ideal stay good but fail the Ulrich count
    A = a123.quotient
    m2 = power(IdealHandle(R, [x, y, z, t]), 2)
    seed = (t**2, (x + y + z) ** 2)
    cert = ulrich_check(A, m2, (seed,))
    assert cert.stable and cert.good is True
    assert cert.verdict == "good-not-ulrich"


def test_ulrich_check_computes_each_basis_once(monkeypatch):
    inputs = []
    original = ideals._groebner_terms

    def counted(gens, ring, assume_prefix=0):
        inputs.append((ring, tuple(map(tuple, gens)), assume_prefix))
        return original(gens, ring, assume_prefix)

    monkeypatch.setattr(ideals, "_groebner_terms", counted)
    A = instantiate("A:1,2,3").quotient
    I = IdealHandle(R, [x, y, z, t**2])
    cert = ulrich_check(A, I)
    assert cert.verdict == "ulrich"
    assert inputs
    assert len(set(inputs)) == len(inputs)


def test_parameter_ideal_is_not_good(a123):
    A = a123.quotient
    Q = IdealHandle(R, [t, x + y + z])
    assert A.algebra(Q).spans(Q) is True
    assert good_check(A, Q, Q) is False
    assert ulrich_check(A, Q).verdict == "not-good"


def test_ulrich_verdict_is_local(a123):
    # (x^2 - x, y, z, t) is m at the origin; its other zero, the surface
    # point (1, 0, 0, 0), must not spoil "good"
    A = a123.quotient
    I = IdealHandle(R, [x**2 - x, y, z, t])
    assert quotient_dim(A.image(I)) == 2
    cert = ulrich_check(A, I)
    assert (cert.e0, cert.mu, cert.length) == (3, 4, 1)
    assert cert.good is True and cert.verdict == "ulrich"


def test_good_check_localizes_before_the_colon(a123):
    A = a123.quotient
    I = IdealHandle(R, [x**2 - x, y, z, t])
    Q = IdealHandle(R, [t, (x**2 - x) * (1 - x) ** 2 + y + z])
    assert good_check(A, I, Q) is True
    # without localization the colon also counts the other zeros of Q + J
    assert A.colength(I) == 1 != quotient_dim(A.image(Q).colon(I))


def test_good_check_is_false_when_i_squared_is_not_in_q(a123):
    # Q : I contains I only when I^2 lies in Q, so neither colength shortcut
    # decides these: (x + y + z, t^2) : m is not m, yet the colon of the
    # larger Q + m^2 + J by m is m; and (x + z, y) : (x, y, z, t^3) is not
    # that ideal, yet has its colength
    A = a123.quotient
    m = IdealHandle(R, [x, y, z, t])
    Q = IdealHandle(R, [x + y + z, t**2])
    assert A.colength(Q) == 6 > A.colength(power(m, 2))
    assert quotient_dim(A.image(Q + power(m, 2)).colon(m)) == A.colength(m)
    assert good_check(A, m, Q) is False
    I = IdealHandle(R, [x, y, z, t**3])
    Q = IdealHandle(R, [x + z, y])
    assert quotient_dim(A.image(Q).colon(I)) == A.colength(I) == 3
    assert good_check(A, I, Q) is False


def test_good_check_after_e0_computes_no_basis(monkeypatch, a123):
    A = a123.quotient
    I = IdealHandle(R, [x, y, z, t**2])
    Q = ulrich_check(A, I).reduction  # e0 and "good" on I's algebra
    inputs = []
    original = ideals._groebner_terms

    def counted(gens, ring, assume_prefix=0):
        inputs.append((len(gens), assume_prefix))
        return original(gens, ring, assume_prefix)

    monkeypatch.setattr(ideals, "_groebner_terms", counted)
    assert good_check(A, I, Q) is True
    # the colon is linear algebra on the algebra the check built
    assert inputs == []


def test_good_rank_off_the_pivots_matches_the_rank_on_every_row(monkeypatch):
    # once I^2 lies in Q, s -> (s*g_j mod Q)_j is 0 on I, so its rank on the
    # l(A/I) monomials off I's pivots is its rank on all of B
    original = ideals.FiniteAlgebra.is_good
    verdicts = []

    def compared(B, Q):
        got = original(B, Q)
        assert got == is_good_on_every_row(B, Q), (B.minimal, Q)
        verdicts.append(got)
        return got

    monkeypatch.setattr(ideals.FiniteAlgebra, "is_good", compared)
    for tag in grid_tags(4):
        classify_ulrich_set(instantiate(tag))
    for tag in expectations.rdp_grid():
        verify_rdp_list(instantiate(tag))
    ranked = len(verdicts)
    # the not-good cases above: Q : I is A, or I^2 is not in Q
    A = instantiate("A:1,2,3").quotient
    m = IdealHandle(R, [x, y, z, t])
    Q = IdealHandle(R, [t, x + y + z])
    assert good_check(A, Q, Q) is False
    assert good_check(A, m, IdealHandle(R, [x + y + z, t**2])) is False
    assert good_check(A, IdealHandle(R, [x, y, z, t**3]), IdealHandle(R, [x + z, y])) is False
    I = IdealHandle(R, [x**2 - x, y, z, t])
    assert good_check(A, I, IdealHandle(R, [t, (x**2 - x) * (1 - x) ** 2 + y + z])) is True
    E7 = instantiate("RDP-E7").quotient
    I = _ideal(RDP_RING, ["x", "y^4", "z"])
    assert good_check(E7, I, _ideal(RDP_RING, ["x + y^4", "z"])) is False
    assert ranked > 150 and set(verdicts[:ranked]) == {True, False}


def test_e7_next_ideal_is_decided_locally():
    # Q = (x + y^4, z) is a reduction of (x, y^4, z) only at the origin:
    # the global quotient of Q + J has dimension 12, the local length is 7
    A = instantiate("RDP-E7").quotient
    I = _ideal(RDP_RING, ["x", "y^4", "z"])
    Q = _ideal(RDP_RING, ["x + y^4", "z"])
    assert A.image(power(I, 2)).groebner() != A.image(product(Q, I)).groebner()
    assert quotient_dim(A.image(Q)) == 12
    assert A.colength(Q) == 7
    assert good_check(A, I, Q) is False


def test_first_candidate_is_decided_at_the_origin():
    # the seed fails an ambient equality check but is a reduction at the
    # origin, so the span test accepts it before any later candidate is tried
    A = instantiate("RDP-E7").quotient
    I = _ideal(RDP_RING, ["x", "y^4", "z"])
    seed = (read(RDP_RING, "x + y^4"), RDP_RING.var("z"))
    Q = find_reduction(A, I, (seed,))
    assert Q is not None and Q.gens == seed


def test_find_reduction_seeded_and_unseeded():
    pres = instantiate("EX-5.2")
    A = pres.quotient
    J3 = IdealHandle(R, [x, y, z, t**3])
    seeded = find_reduction(A, J3, ((x, t**3),))
    assert seeded is not None and {str(g) for g in seeded.gens} == {"x", "t^3"}
    unseeded = find_reduction(A, J3)
    assert unseeded is not None and A.algebra(J3).spans(unseeded)


def test_find_reduction_h5():
    pres = instantiate("H:5")
    A = pres.quotient
    J1 = IdealHandle(R, [x, y, z, t])
    Q = find_reduction(A, J1)
    assert Q is not None and A.algebra(J1).spans(Q)


def test_certificate_values(a123):
    A = a123.quotient
    J2 = IdealHandle(R, [x, y, z, t**2])
    cert = ulrich_check(A, J2)
    assert cert.verdict == "ulrich"
    assert (cert.e0, cert.mu, cert.length) == (6, 4, 2)
    assert cert.stable and cert.good and cert.free_test
    assert cert.e0 == (cert.mu - 1) * cert.length


def test_non_candidate_fails_via_trace(a123):
    I, rejected = next_candidate_rejected_by_trace(a123)
    assert rejected
    assert [str(g) for g in I.gens] == ["x", "y", "z", "t^3"]


def test_maximal_ideal_is_ulrich_everywhere():
    for tag in ("B:0,3", "C:2,4", "Gamma3", "RDP-E6"):
        pres = instantiate(tag)
        ring = pres.ring
        m = IdealHandle(ring, list(ring.gens()))
        cert = ulrich_check(pres.quotient, m)
        assert cert.verdict == "ulrich", tag


def test_trace_shape(a123):
    # the local test puts the power on the last variable, t, and counts the
    # chain (x, y, z, t^k), k = 1..c, that it certifies
    for pres, shape in ((a123, (3, 2)), (instantiate("A:0,1,2"), (3, 1))):
        assert (pres.ring.n - 1, len(classify_ulrich_set(pres))) == shape
        assert trace_shape_by_parsing(pres) == shape


def test_trace_shape_agrees_with_the_parser():
    # the local test (the trace's colength c, then its containment in I_c's
    # finite algebra) reads the same (v, c) as parsing the trace's basis
    # element by element, on the grid, A:8,8,8 and EX-5.2, with v the last
    # variable
    tags = [str(t) for t in grid_tags(6)] + ["A:8,8,8", "EX-5.2"]
    shapes = {}
    for tag in tags:
        pres = instantiate(tag)
        shapes[tag] = (pres.ring.n - 1, len(classify_ulrich_set(pres)))
        assert shapes[tag] == trace_shape_by_parsing(pres), tag
    assert len(shapes) == 167
    assert shapes["EX-5.2"] == (3, 3)  # (x, y, z, t^3)
    assert shapes["A:0,0,0"] == (3, 1)  # the maximal ideal gives the last variable
    assert shapes["A:8,8,8"] == (3, 9)
    assert {c for _, c in shapes.values()} == set(range(1, 8)) | {9}


def _doctored(tag, entries):
    """The presentation of ``tag`` with the trace (entries) + J."""
    pres = instantiate(tag)

    class Doctored:
        ring = pres.ring
        quotient = pres.quotient
        matrix = (entries,)
        cm_type = 2
        tag = pres.tag

    return Doctored()


@pytest.mark.parametrize(
    "tag,entries,error,kind",
    [
        # not m-primary: these traces have infinite quotients
        ("Gamma1", (x + y,), ColengthBudgetError, "not a monomial"),
        ("Gamma1", (x, y, z), ColengthBudgetError, "does not involve every variable"),
        ("Gamma1", (x, y, t**2), ColengthBudgetError, "do not cover the complement"),
        # only the membership clause refuses these two: ell(A/I_c) = c
        ("Gamma1", (x * y, x**2, y**2, z, t), ShapeError, "x\\*y is not a pure power"),
        ("Gamma1", (x**2, y, z, t**2), ShapeError, "two higher pure powers"),
        # c = 0: no chain at all
        ("Gamma1", (R.one(),), ShapeError, "1 is not a pure power"),
        # only the length clause refuses it: c = 3 and tr lies in I_3, but
        # ell(A/I_3) = 2
        ("A:0,0,0", (x, y, z**2, t**2), ShapeError, "z\\*t is not a pure power"),
    ],
    ids=["non-monomial", "missing-variable", "missing-complement", "mixed-monomial",
         "two-powers", "unit-ideal", "short-chain"],
)
def test_trace_shape_error(tag, entries, error, kind):
    # the trace is (entries) + J: the parser names the way its basis fails,
    # and the local test refuses it with the named error
    pres = _doctored(tag, entries)
    with pytest.raises(ShapeError, match=kind):
        trace_shape_by_parsing(pres)
    with pytest.raises(error):
        classify_ulrich_set(pres)


def test_refutation_proves_no_containment():
    # on the short chain of A:0,0,0, c = 3 and ell(A/I_4) = 2: I_4 contains
    # the trace, so the rule must not refute it, as ell(A/I_4) != c would
    pres = _doctored("A:0,0,0", (x, y, z**2, t**2))
    I, rejected = next_candidate_rejected_by_trace(pres)
    assert [str(g) for g in I.gens] == ["x", "y", "z", "t^4"]
    assert rejected is False
    assert rejected_by_membership(pres) is False


def test_contains_is_membership_in_the_localized_ideal():
    # K <= I at the origin, read off I's frame, against membership in the
    # localized I + J, for the trace and each variable, over the chain of
    # grid(4) up to one past the trace
    seen = set()
    for tag in grid_tags(4):
        pres = instantiate(tag)
        A, ring, tr = pres.quotient, pres.ring, trace_ideal(pres)
        probes = [tr] + [IdealHandle(ring, [v]) for v in ring.gens()]
        for i in range(1, residue(pres) + 2):
            I = IdealHandle(ring, ulrich._family(ring, ring.n - 1, i))
            basis, _ = ideals._localize(ring, [list(g.terms) for g in A.image(I).groebner()])
            local = IdealHandle(ring, [Polynomial(ring, b) for b in basis])
            B = A.algebra(I)
            for K in probes:
                got = B.contains(K)
                assert got == all(contains(local, g) for g in K.gens), (tag, I, K)
                seen.add(got)
    assert seen == {True, False}


def test_the_verdict_layers_read_no_global_basis():
    # every verdict is decided at the origin, so the layers that reach one
    # read no reduced basis of the ambient ring (cli may print the trace's)
    for module in (ulrich, presentations):
        tree = ast.parse(inspect.getsource(module))
        reads = [n.lineno for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and n.attr == "groebner"]
        assert reads == [], (module.__name__, reads)


def test_classify_a123(a123):
    certs = classify_ulrich_set(a123)
    assert [str(g.ideal.gens[-1]) for g in certs] == ["t", "t^2"]
    assert all(c.verdict == "ulrich" for c in certs)


def test_classify_b14_two_ideals():
    certs = classify_ulrich_set(instantiate("B:1,4"))
    assert len(certs) == 2 and all(c.verdict == "ulrich" for c in certs)


def test_classify_gamma3():
    certs = classify_ulrich_set(instantiate("Gamma3"))
    assert len(certs) == 2 and all(c.verdict == "ulrich" for c in certs)


def test_classify_unseeded_matches_seeded():
    seeded = classify_ulrich_set(instantiate("C:1,4"), use_seeds=True)
    unseeded = classify_ulrich_set(instantiate("C:1,4"), use_seeds=False)
    assert [c.verdict for c in seeded] == [c.verdict for c in unseeded]
    assert [(c.e0, c.mu, c.length) for c in seeded] == [
        (c.e0, c.mu, c.length) for c in unseeded
    ]


def test_ulrich_implies_good_and_trace_containment():
    for tag in ("A:1,1,2", "B:1,3", "F:2", "Gamma2", "H:6"):
        pres = instantiate(tag)
        tr = trace_ideal(pres)
        for cert in classify_ulrich_set(pres):
            assert cert.verdict == "ulrich"
            assert cert.good is True
            img = pres.quotient.image(cert.ideal)
            assert all(contains(img, g) for g in tr.gens)


def test_certificate_invariance_under_units_and_order(a123):
    A = a123.quotient
    base = ulrich_check(A, IdealHandle(R, [x, y, z, t**2]))
    twisted = IdealHandle(
        R,
        [
            t**2 * (0, 1, 1),
            z * (2, 0, 1),
            y * (-1, 0, 1),
            x,
        ],
    )
    cert = ulrich_check(A, twisted)
    assert (cert.verdict, cert.e0, cert.mu, cert.length) == (
        base.verdict,
        base.e0,
        base.mu,
        base.length,
    )


def test_ex52_classification_without_rationality():
    pres = instantiate("EX-5.2")
    certs = classify_ulrich_set(pres)
    assert len(certs) == 3
    for i, cert in enumerate(certs, start=1):
        assert cert.verdict == "ulrich"
        assert cert.e0 == 3 * i and cert.length == i and cert.mu == 4


@pytest.mark.parametrize(
    "tag,count,has_next",
    [
        ("RDP-A:4", 2, True),
        ("RDP-A:5", 3, True),
        ("RDP-D:6", 5, False),
        ("RDP-D:7", 4, False),
        ("RDP-E6", 2, True),
        ("RDP-E7", 3, True),
        ("RDP-E8", 2, True),
    ],
)
def test_rdp_lists(tag, count, has_next):
    certs, nxt = verify_rdp_list(instantiate(tag))
    assert len(certs) == count
    assert all(c.verdict == "ulrich" for c in certs)
    if has_next:
        assert nxt is not None and nxt.verdict != "ulrich"
        assert nxt.stable  # refuted with a stable reduction in hand
    else:
        assert nxt is None


def test_rdp_d6_conjugate_pair_over_gaussian_field():
    certs, _ = verify_rdp_list(instantiate("RDP-D:6"))
    texts = {", ".join(str(g) for g in c.ideal.gens) for c in certs}
    assert any("i*y^2" in t for t in texts)


def test_socle_experiment():
    assert gorenstein_quotient_experiment(instantiate("A:1,2,3")) is True
    # nearly Gorenstein: quotient is the residue field
    assert gorenstein_quotient_experiment(instantiate("A:0,1,2")) is True
    assert gorenstein_quotient_experiment(instantiate("H:7")) is True


@pytest.mark.parametrize(
    "entries,gorenstein",
    [
        # k[x, y, z, t]/m^2: the socle m/m^2 has dimension 4
        (power(IdealHandle(R, [x, y, z, t]), 2).gens, False),
        # k[x, t]/(x^2, t^2): x*s and t*s share the monomial x*t, and only
        # x*t itself is in the socle
        ((x**2, y, z, t**2), True),
        # the global quotient k[x, t]/(x^2 - x, t^2) has two points and a
        # 2-dimensional socle; the local one at the origin is k[t]/(t^2)
        ((x**2 - x, y, z, t**2), True),
    ],
)
def test_socle_experiment_on_other_traces(a123, entries, gorenstein):
    class Doctored:
        ring = a123.ring
        quotient = a123.quotient
        matrix = (tuple(entries),)
        cm_type = 2

    assert gorenstein_quotient_experiment(Doctored()) is gorenstein
    assert (socle_by_localized_colon(Doctored()) == 1) is gorenstein


def test_socle_experiment_holds_on_the_grid():
    # whenever the trace is (x_1, ..., x_{n-1}, x_n^{c+1}), A/tr is
    # k[t]/(t^{c+1}), whose socle is one-dimensional
    checked = 0
    for tag in grid_tags(4):
        assert gorenstein_quotient_experiment(instantiate(tag)) is True, str(tag)
        checked += 1
    assert checked == 72


def test_socle_experiment_matches_the_localized_colon_on_grid_6():
    # two colengths against the colon of the localized trace, set as a basis
    tags = grid_tags(6)
    for tag in tags:
        pres = instantiate(tag)
        A, tr = pres.quotient, trace_ideal(pres)
        socle = A.colength(tr) - A.colength(tr.colon(A.maximal_ideal()))
        assert socle == socle_by_localized_colon(pres), str(tag)
        assert gorenstein_quotient_experiment(pres) is (socle == 1), str(tag)
    assert len(tags) == 165


def test_certificate_serialization(a123):
    cert = classify_ulrich_set(a123)[1]
    d = cert.to_json_dict()
    assert d["verdict"] == "ulrich"
    assert d["ideal"] == ["x", "y", "z", "t^2"]
    assert d["e0"] == 6 and d["mu"] == 4 and d["len"] == 2
    assert d["stable"] is True and d["good"] is True and d["freeTest"] is True


# -- the Nakayama span test of the reduction search -------------------------


def _span_audit_ideals(tag):
    """Listed and next ideals of an RDP tag, else (x, y, z, t^i) up to one
    past the trace."""
    pres = instantiate(tag)
    if pres.cm_type == 1:
        ideals_ = [gens for gens, _ in ulrich._rdp_listed(pres.tag)]
        nxt = ulrich._rdp_next(pres.tag)
        if nxt is not None:
            ideals_.append(nxt[0])
    else:
        ring = pres.ring
        ideals_ = [ulrich._family(ring, ring.n - 1, i) for i in range(1, residue(pres) + 2)]
    return pres, [IdealHandle(pres.ring, gens) for gens in ideals_]


def _candidate_polynomials(I, limit=None):
    """The search's candidate pairs for I, as pairs of polynomials."""
    pairs = itertools.islice(ulrich._candidate_pairs(len(I.gens)), limit)
    return [tuple(ulrich._combination(I.gens, c) for c in pair) for pair in pairs]


def _stream_length(n):
    """The number of candidate pairs the search draws for n >= 2 generators
    when no seed is given: pairs of generators, a sum of two with a third,
    and (n > 2) each generator with the sum of the others."""
    return 1 if n == 2 else n * (n - 1) ** 2 // 2 + n


@pytest.mark.parametrize("n", range(2, 11))
def test_candidate_stream_is_finite(n):
    pairs = list(ulrich._candidate_pairs(n))
    assert len(pairs) == len(set(pairs)) == _stream_length(n)


def test_unseeded_search_certifies_m_squared(a123):
    # m^2 has 10 generators, so 415 candidates; the first reduction among
    # them is the last: t^2 beside the sum of the other nine generators
    A = a123.quotient
    m2 = power(A.maximal_ideal(), 2)
    Q = find_reduction(A, m2)
    assert Q is not None and A.algebra(m2).spans(Q)
    assert Q.gens[0] == m2.gens[-1]


def _usable(A, I, limit):
    """The first ``limit`` candidates the search would send to a check."""
    img = A.image(I)
    out = []
    for q1, q2 in _candidate_polynomials(I):
        if q1 and q2 and contains(img, q1) and contains(img, q2):
            Q = IdealHandle(I.ring, [q1, q2])
            if len(Q.gens) == 2:
                out.append(Q)
                if len(out) == limit:
                    break
    return out


@pytest.mark.parametrize("tag", ["RDP-E7", "RDP-D:6", "H:5", "A:1,2,3"])
def test_span_test_agrees_with_both_checks(tag):
    # ambient equality QI + J = I^2 + J implies the span; for a parameter
    # ideal Q the local length witness holds exactly when the span does
    pres, ideals_ = _span_audit_ideals(tag)
    A = pres.quotient
    spans = stable = 0
    local_values = set()
    for I in ideals_:
        I_sq = power(I, 2)
        B = A.algebra(I)
        for Q in _usable(A, I, 30):
            spanned = B.spans(Q)
            spans += spanned
            if A.image(I_sq).groebner() == A.image(product(Q, I)).groebner():
                stable += 1
                assert spanned, (tag, I, Q)
            if quotient_dim(A.image(Q)) is not None:
                local = A.colength(I_sq) == A.colength(Q) + 2 * A.colength(I)
                assert spanned == local, (tag, I, Q)
                local_values.add(local)
    # none of the three tests is vacuous here
    assert 0 < stable <= spans and local_values == {True, False}


def _count_algebras(monkeypatch):
    """Record the ideal of every finite algebra built, keyed by the algebra."""
    built = {}
    original = ideals.FiniteAlgebra.__init__

    def counted(self, A, I):
        original(self, A, I)
        built[self] = I

    monkeypatch.setattr(ideals.FiniteAlgebra, "__init__", counted)
    return built


@pytest.mark.parametrize(
    "argv",
    [
        ("cross-check", "--tag", "A:1,2,3"),
        ("classify", "--tag", "RDP-D:6"),
    ],
)
def test_seeded_command_builds_one_algebra_per_ideal(monkeypatch, argv):
    built = _count_algebras(monkeypatch)
    res = CliRunner().invoke(main, list(argv))
    assert res.exit_code == 0, res.output
    ideals_ = [I.gens for I in built.values()]
    assert ideals_ and len(set(ideals_)) == len(ideals_)


def test_span_rejected_candidates_get_no_groebner_basis(monkeypatch):
    built = _count_algebras(monkeypatch)
    rejected = []
    original_spans = ideals.FiniteAlgebra.spans_combinations

    def spans(self, c1, c2):
        ok = original_spans(self, c1, c2)
        if ok is False:
            I = built[self]
            Q = IdealHandle(I.ring, [ulrich._combination(I.gens, c) for c in (c1, c2)])
            rejected.append((Q, I))
        return ok

    inputs = set()
    original_gb = ideals._groebner_terms

    def recorded(gens, ring, assume_prefix=0):
        inputs.add(tuple(map(tuple, gens)))
        return original_gb(gens, ring, assume_prefix)

    monkeypatch.setattr(ideals.FiniteAlgebra, "spans_combinations", spans)
    monkeypatch.setattr(ideals, "_groebner_terms", recorded)
    res = CliRunner().invoke(main, ["classify", "--tag", "A:1,2,3", "--seed-reductions", "off"])
    assert res.exit_code == 0, res.output
    assert len(built) >= 1 and rejected
    defining = instantiate("A:1,2,3").quotient.defining
    for Q, I in rejected:
        qi_image = product(Q, I) + defining
        assert tuple(tuple(g.terms) for g in qi_image.gens) not in inputs, Q


# -- the one-pass search ------------------------------------------------------


@pytest.mark.parametrize("tag", ["RDP-E7", "RDP-D:6", "H:5", "A:1,2,3"])
def test_frame_membership_is_membership_in_i_plus_j(tag):
    # membership in I + J at the origin: q is inside exactly when adding it
    # leaves the local length of A/I alone
    pres, ideals_ = _span_audit_ideals(tag)
    A = pres.quotient
    seen = set()
    ring = pres.ring
    for I in ideals_:
        B = A.algebra(I)
        length = A.colength(I)
        probes = [q for pair in _candidate_polynomials(I, 100) for q in pair]
        # candidates are combinations of I's generators; these may lie
        # outside I + J, or inside it only through m*I + J
        probes += list(ring.gens()) + [v * v for v in ring.gens()] + list(A.defining.gens)
        probes += [v * I.gens[0] + I.gens[-1] for v in ring.gens()]
        reference = _term_list_span_test(B, I)
        for q in filter(None, probes):
            Q = IdealHandle(ring, [q])
            got = B.spans(Q)
            assert got == reference(*Q.gens), (tag, I, q)
            inside = got is not None
            assert inside == (A.colength(I + Q) == length), (tag, I, q)
            seen.add(inside)
    assert seen == {True, False}


def _walks(monkeypatch, limit=None):
    """Wrap the candidate stream: one list of yielded pairs per walk, the
    stream cut after its first `limit` pairs when a limit is given."""
    walks = []
    original = ulrich._candidate_pairs

    def walked(n, seeds=()):
        walks.append([])
        for pair in itertools.islice(original(n, seeds), limit):
            walks[-1].append(tuple(map(str, pair)))
            yield pair

    monkeypatch.setattr(ulrich, "_candidate_pairs", walked)
    return walks


@pytest.mark.parametrize("limit", [3, 40, 400])
def test_search_walks_the_candidates_once(monkeypatch, limit):
    cases = [(tag, pres.quotient, I) for tag in ("RDP-E7", "A:1,2,3", "D:3")
             for pres, ideals_ in [_span_audit_ideals(tag)] for I in ideals_]
    walks = _walks(monkeypatch)
    full = []
    for tag, A, I in cases:
        del walks[:]
        Q = find_reduction(A, I)
        assert len(walks) == 1 and len(set(walks[0])) == len(walks[0]), (tag, I)
        # an exhausted search has walked the whole stream
        assert Q is not None or len(walks[0]) == _stream_length(len(I.gens)), (tag, I)
        full.append((Q, len(walks[0])))
    # both ends occur: exhausted searches, and found reductions
    assert {Q is not None for Q, _ in full} == {True, False}
    # on a stream cut after `limit` pairs the search finds the same reduction
    # when it lies within the cut, and nothing otherwise
    walks = _walks(monkeypatch, limit)
    lost = 0
    for (tag, A, I), (Q, drawn) in zip(cases, full):
        del walks[:]
        cut = find_reduction(A, I)
        assert len(walks) == 1 and len(walks[0]) == min(drawn, limit), (tag, I)
        want = Q.gens if Q is not None and drawn <= limit else None
        assert (None if cut is None else cut.gens) == want, (tag, I)
        lost += Q is not None and cut is None
    # only the shortest cut loses reductions
    assert (limit == 3) == (lost > 0)


def test_find_reduction_computes_no_colength(monkeypatch):
    def refused(self, ideal):
        raise AssertionError("colength called by the reduction search")

    cases = [("RDP-E7", ["x", "y^4", "z"]), ("A:1,2,3", ["x", "y", "z", "t^2"]),
             ("EX-5.3", None)]
    expected = []
    for tag, gens in cases:
        A = instantiate(tag).quotient
        I = _ideal(A.ring, gens) if gens else A.maximal_ideal()
        expected.append(find_reduction(A, I).gens)
    monkeypatch.setattr(ideals.PresentedQuotient, "colength", refused)
    for (tag, gens), want in zip(cases, expected):
        A = instantiate(tag).quotient
        I = _ideal(A.ring, gens) if gens else A.maximal_ideal()
        assert find_reduction(A, I).gens == want, tag


def _two_pass_reference(A, I):
    """The search as two walks over the candidates inside I + J: ambient
    equality QI + J = I^2 + J first, then the local length witness
    length(A/I^2) = length(A/Q) + 2*length(A/I)."""
    img = A.image(I)
    I_sq = power(I, 2)

    def ambient(Q):
        return A.image(I_sq).groebner() == A.image(product(Q, I)).groebner()

    def witness(Q):
        if quotient_dim(A.image(Q)) is None:
            return False  # no local length for an infinite global quotient
        return A.colength(I_sq) == A.colength(Q) + 2 * A.colength(I)

    for check in (ambient, witness):
        for q1, q2 in _candidate_polynomials(I):
            if q1 and q2 and contains(img, q1) and contains(img, q2):
                Q = IdealHandle(I.ring, [q1, q2])
                if check(Q):
                    return Q
    return None


@pytest.mark.parametrize(
    # E7's next ideal has a reduction only at the origin, and D:3's next
    # ideal exhausts the candidates
    "tag", ["RDP-A:7", "RDP-D:6", "RDP-E7", "A:1,2,3", "A:0,1,2", "B:1,4", "C:2,4", "D:3"]
)
def test_one_pass_matches_the_two_pass_reference(tag):
    pres, ideals_ = _span_audit_ideals(tag)
    A = pres.quotient
    for I in ideals_:
        want = _two_pass_reference(A, I)
        got = find_reduction(A, I)
        assert (got and got.gens) == (want and want.gens), (tag, I)


# -- certificates against the Groebner-basis formulas -------------------------


def _reference_values(A, cert):
    """(length, mu, e0, free_test, good) of a certificate by Groebner bases
    of each ideal: colengths of I, m*I, Q and I^2, and "good" by the colon
    in the localized Q."""
    I, Q = cert.ideal, cert.reduction
    length = A.colength(I)
    mu = A.colength(product(A.maximal_ideal(), I)) - length
    if Q is None:
        return length, mu, None, None, None
    free_test = A.colength(power(I, 2)) - length == mu * length
    img = A.image(Q)
    basis, _ = ideals._localize(A.ring, [list(g.terms) for g in img.groebner()])
    local = IdealHandle(A.ring, [Polynomial(A.ring, b) for b in basis])
    good = all(contains(local, g) for g in power(I, 2).gens)
    good = good and quotient_dim(local.colon(I)) == length
    return length, mu, A.colength(Q), free_test, good


def _reference_cases():
    for tag in grid_tags(3):
        pres = instantiate(tag)
        yield from ((pres.quotient, c) for c in classify_ulrich_set(pres))
    for tag in expectations.rdp_grid():
        pres = instantiate(tag)
        certs, nxt = verify_rdp_list(pres)
        yield from ((pres.quotient, c) for c in certs + ([nxt] if nxt else []))
    A = instantiate("A:1,2,3").quotient
    m2 = power(A.maximal_ideal(), 2)
    yield A, ulrich_check(A, m2, ((t**2, (x + y + z) ** 2),))
    yield A, ulrich_check(A, IdealHandle(R, [x**2 - x, y, z, t]))


def test_certificates_match_the_groebner_reference():
    verdicts, mixed = set(), set()
    for A, cert in _reference_cases():
        got = (cert.length, cert.mu, cert.e0, cert.free_test, cert.good)
        assert got == _reference_values(A, cert), (cert.tag, cert.ideal)
        verdicts.add(cert.verdict)
        # the finite algebra's basis: monomials only (normal forms read by
        # membership alone), or with non-monomial elements (some reduced)
        mixed.add(bool(A.algebra(cert.ideal)._polynomial_leads))
    assert verdicts == {"ulrich", "good-not-ulrich", "not-good"}
    assert mixed == {False, True}


# -- the span test in W's coordinates -----------------------------------------


def _eliminate_carrying(row, pivots, carried):
    """The earlier design's echelon step: the pivots map a key to (monic
    head, carried rows), and each multiple of a head subtracted from
    ``row`` is applied to its carried rows and subtracted from
    ``carried``.  Returns the reduced row and carried rows."""
    while row and row[0][0] in pivots:
        head, rows = pivots[row[0][0]]
        _, a, b, d = row[0]
        c = (-a, -b, d)
        row = kernel.add_terms(row, kernel.mono_mul_terms(head, 0, c))
        if rows:
            carried = [
                kernel.add_terms(w, kernel.mono_mul_terms(v, 0, c)) for w, v in zip(carried, rows)
            ]
    return row, carried


def _term_list_span_test(B, I):
    """The span test as the earlier design ran it, on term lists over B's
    standard monomials: I/L's echelon, each generator's pivot carrying its
    W-rows NF(g_i*g_j); NF(q) is decomposed over it, and the carried rows of
    the q must have rank dim W.  The test returns None when some q lies
    outside I at the origin (its NF is not decomposed)."""
    gens = [list(g.terms) for g in I.gens]
    n = len(gens)
    w_rows = [[B._nf(kernel.mul_terms(g, h, I.ring.kc)) for h in gens] for g in gens]
    frame = ideals._echelon(itertools.chain.from_iterable(B._rows[1:]))
    pivots = {k: (head, ()) for k, head in frame.items()}
    for i, row in enumerate(B._rows[0]):
        row, carried = _eliminate_carrying(row, pivots, w_rows[i])
        if row:
            c = kernel._sdiv(kernel.SONE, row[0][1:])
            pivots[row[0][0]] = (
                kernel.monic_terms(row), [kernel.mono_mul_terms(w, 0, c) for w in carried]
            )
    w_dim = len(ideals._echelon([w for rows in w_rows for w in rows]))
    decomposed = {}  # q's carried rows, or None outside I, for each q

    def spans(*qs):
        for q in qs:
            if q not in decomposed:
                row, carried = _eliminate_carrying(B._nf(list(q.terms)), pivots, [[]] * n)
                decomposed[q] = None if row else carried
        if any(decomposed[q] is None for q in qs):
            return None
        return len(ideals._echelon(w for q in qs for w in decomposed[q])) == w_dim

    return spans


def _chain_and_listed_ideals():
    """(quotient, ideal) for the trace chains of grid_tags(3) and the listed
    and next ideals of the double points."""
    for tag in grid_tags(3):
        pres = instantiate(tag)
        ring = pres.ring
        yield from ((pres.quotient, IdealHandle(ring, ulrich._family(ring, ring.n - 1, i)))
                    for i in range(1, residue(pres) + 1))
    for tag in expectations.rdp_grid():
        pres, ideals_ = _span_audit_ideals(str(tag))
        yield from ((pres.quotient, I) for I in ideals_)


def test_coefficient_vectors_agree_with_the_term_list_span_test():
    verdicts = set()
    checked = expected = 0
    for A, I in _chain_and_listed_ideals():
        B = A.algebra(I)
        spans = _term_list_span_test(B, I)
        # vectors over the minimal generators: y^2 of (x, y^2, z) is not
        # one in RDP-A:1, where y^2 = -x^2 - z^2
        gens = [I.gens[i] for i in B.minimal]
        pairs = list(ulrich._candidate_pairs(B.mu))
        expected += _stream_length(B.mu)
        q = {c: ulrich._combination(gens, c) for c in set(itertools.chain(*pairs))}
        for c1, c2 in pairs:
            q1, q2 = q[c1], q[c2]
            assert q1 and q2
            got = B.spans_combinations(c1, c2)
            assert got == spans(q1, q2), (I, c1, c2)
            verdicts.add(got)
            checked += 1
    assert verdicts == {True, False} and checked == expected


def _seeded_ideals():
    """(quotient, ideal, seed pairs) for every seed the commands try: the
    maximal ideal's seeds of each catalog ring, the published pair of each
    chain ideal (x, y, z, t^i) up to the trace, and the listed and next
    seeds of the double points; then ideals listed with a redundant
    generator (``_redundant_seeded_ideals``)."""
    tags = grid_tags(6) + ["EX-5.2", "EX-5.3"] + [f"RDP-A:{n}" for n in range(1, 17)]
    tags += [f"RDP-D:{n}" for n in range(4, 17)] + ["RDP-E6", "RDP-E7", "RDP-E8"]
    for tag in tags:
        pres = instantiate(tag)
        A, ring = pres.quotient, pres.ring
        yield A, A.maximal_ideal(), maximal_reduction_seed(pres.tag)
        if pres.cm_type == 1:
            for gens, seed in ulrich._rdp_listed(pres.tag):
                yield A, IdealHandle(ring, gens), (seed,)
            nxt = ulrich._rdp_next(pres.tag)
            if nxt is not None:
                yield A, IdealHandle(ring, nxt[0]), nxt[1]
        elif pres.cm_type == 2:
            for i in range(1, residue(pres) + 1):
                I = IdealHandle(ring, ulrich._family(ring, ring.n - 1, i))
                yield A, I, (published_reduction(pres.tag, i),)
    yield from _redundant_seeded_ideals()


def _redundant_seeded_ideals():
    """(quotient, ideal, seed pairs) for ideals listed with a redundant
    generator: a repeat, a sum of two generators, a multiple in m*I.  Each
    files a frame row with tags only.  A generator listed before the ones it
    is redundant over gives seeds vectors with entries other than 0 and 1, and
    each list holds a reduction written with mixed signs (q1 + q2, q1 - q2)."""
    A = instantiate("A:1,2,3").quotient
    s = x + y + z
    seeds = ((t, s), (s + t, s - t), (2 * t, 3 * s - x * y), (x, y), (x + y, z * t), (x * x, t * t))
    for gens in ([x, y, z, t, x], [x + y, x, y, z, t], [x * t, x, y, z, t], [x, y, z, t, y * z]):
        yield A, IdealHandle(R, gens), seeds
    seeds = ((t**2, s), (s + t**2, s - t**2), (t, x), (x, y), (x + t**2, y - z))
    for gens in ([x, y, z, t**2, x + t**2], [x + t**2, x, y, z, t**2], [x, y, z, t**2, x * t + y]):
        yield A, IdealHandle(R, gens), seeds
    A = instantiate("RDP-D:6").quotient
    u, v, w = RDP_RING.gens()
    plus = u + v**2 * (0, 1, 1)  # x + i*y^2
    seeds = ((plus, v**3), (plus + v**3, plus - v**3), (plus, w), (u, v**3))
    seeds += ((plus + w, v**3 * (0, 1, 1)),)
    for gens in ([plus, v**3, w, plus + w], [plus + v**3, plus, v**3, w], [plus, v**3, w, u * w]):
        yield A, IdealHandle(RDP_RING, gens), seeds


def test_seeds_agree_with_the_term_list_span_test():
    # a seed's vector is read off the tags the frame leaves on NF(q); the
    # earlier design carried W-rows on each pivot and decomposed NF(q) over
    # them.  Eleven ideals file frame rows with tags only: RDP-A:1's next
    # ideal (x, y^2, z), where y^2 = -x^2 - z^2, and the ten listed with a
    # redundant generator, which bring 54 of the 884 seeds
    verdicts, redundant = [], 0
    for A, I, seeds in _seeded_ideals():
        B = A.algebra(I)
        redundant += B.mu < len(I.gens)
        spans = _term_list_span_test(B, I)
        for pair in seeds:
            Q = IdealHandle(I.ring, pair)
            got = B.spans(Q)
            assert got == spans(*Q.gens), (I, pair)
            verdicts.append(got)
    assert len(verdicts) == 884 and set(verdicts) == {True, False, None} and redundant == 11


def test_rank_bound_skips_eliminations(monkeypatch):
    # rank [R1; R2] <= rank R1 + rank R2: a pair whose two echelons are too
    # small to reach dim W is rejected with no elimination
    candidates, eliminations = [], []
    original_spans = ideals.FiniteAlgebra.spans_combinations
    original_echelon = ideals._echelon

    def spans(self, c1, c2):
        ok = original_spans(self, c1, c2)
        candidates.append(ok)
        return ok

    def echelon(rows, pivots=None, stop=None):
        if pivots is not None:  # a pair's rows continuing the first echelon
            eliminations.append(stop)
        return original_echelon(rows, pivots, stop)

    monkeypatch.setattr(ideals.FiniteAlgebra, "spans_combinations", spans)
    monkeypatch.setattr(ideals, "_echelon", echelon)
    res = CliRunner().invoke(main, ["classify", "--tag", "A:1,2,3", "--seed-reductions", "off"])
    assert res.exit_code == 0, res.output
    assert True in candidates and 0 < len(eliminations) < len(candidates)
    # seeds take the same test: in m of A:1,2,3, dim W = 7, x's four rows
    # have rank at most 4 and x*y, in m*I, is the vector 0
    B = instantiate("A:1,2,3").quotient.algebra(IdealHandle(R, [x, y, z, t]))
    del eliminations[:]
    assert len(B._w_pivots) == 7 and B.spans(IdealHandle(R, [x, x * y])) is False
    assert not eliminations
    assert B.spans(IdealHandle(R, [t, x + y + z])) is True and eliminations


def test_seed_rows_form_no_products(monkeypatch, a123):
    # a seed's rows sum the cached coord(P_pj) over its vector, which the
    # frame's tags give, so the span test multiplies no polynomials
    A = a123.quotient
    I = A.maximal_ideal()
    B = A.algebra(I)

    def refused(*args):
        raise AssertionError("spans formed a product")

    monkeypatch.setattr(kernel, "mul_terms", refused)
    seed = maximal_reduction_seed(a123.tag)[0]
    assert B.spans(IdealHandle(R, seed)) is True
    assert B.spans(IdealHandle(R, [x, y])) is False


def test_seeds_share_the_candidates_vectors():
    # a seed whose vector is a sum of minimal generators is keyed as the
    # candidate tuple of those positions, so it finds that tuple's rows
    B = instantiate("A:1,2,3").quotient.algebra(IdealHandle(R, [x, y, z, t]))
    assert B.spans_combinations((3,), (0, 1, 2)) is True
    cached = dict(B._vectors)
    assert set(cached) == {(3,), (0, 1, 2)}
    assert B.spans(IdealHandle(R, [t, x + y + z])) is True and B._vectors == cached
    assert B.spans(IdealHandle(R, [t, x - y])) is False and (0, (1, -1, 0, 1)) in B._vectors


def test_zero_combinations_are_skipped(monkeypatch, a123):
    # x + (-x) = 0 cannot be formed: the candidates are sums over positions
    # among the mu = 3 minimal generators x, y + z, t, so each is nonzero
    A = a123.quotient
    I = IdealHandle(R, [x, -x, y + z, t])
    B = A.algebra(I)
    assert B.minimal == (0, 2, 3)
    vectors = []
    original = ideals.FiniteAlgebra.spans_combinations

    def spans(self, c1, c2):
        vectors.extend((c1, c2))
        return original(self, c1, c2)

    monkeypatch.setattr(ideals.FiniteAlgebra, "spans_combinations", spans)
    Q = find_reduction(A, I)
    assert [str(q) for q in Q.gens] == ["x + y + z", "t"] and B.spans(Q)
    assert vectors and all(c and set(c) <= {0, 1, 2} for c in vectors)


@pytest.mark.parametrize(
    "gens,minimal",
    [([x, -x, y, z, t], (0, 2, 3, 4)), ([z, t, x, y, -y], (0, 1, 2, 3))],
)
def test_redundant_generators_hide_no_reduction(a123, gens, minimal):
    # m written with a repeated generator: the candidates are formed over the
    # minimal generators the frame picks, so the search still finds the
    # published reduction (t, x + y + z) and m is certified Ulrich
    A = a123.quotient
    I = IdealHandle(R, gens)
    B = A.algebra(I)
    assert B.minimal == minimal and B.mu == 4
    Q = find_reduction(A, I)
    assert Q is not None and {str(q) for q in Q.gens} == {"t", "x + y + z"}
    assert B.spans(Q)
    assert ulrich_check(A, I).verdict == "ulrich"


def test_minimal_generators_keep_the_stream(a123):
    # a minimally generated ideal keeps every generator, so the candidates
    # are those of the generators as given
    A = a123.quotient
    for gens in ([x, y, z, t], [x, y, z, t**2], [x, y**2, z, t]):
        I = IdealHandle(R, gens)
        assert A.algebra(I).minimal == tuple(range(len(gens)))


@pytest.mark.parametrize(
    # a seeded E7 next ideal, the exhausted search of D:3's next ideal, and
    # seeds that fail before the stream reaches the combinations
    "tag,gens,seeds",
    [
        ("RDP-E7", ["x", "y^4", "z"], (("x", "z"), ("x + y^4", "z"))),
        ("D:3", ["x", "y", "z", "t^3"], ()),
        ("A:1,2,3", ["x", "y", "z", "t^2"], (("x", "y"), ("x^2", "t^2"), ("t", "x + y + z"))),
    ],
)
def test_search_draws_every_candidate_from_the_stream(monkeypatch, tag, gens, seeds):
    # the benchmark's tracer counts ulrich.candidates at _candidate_pairs, so
    # every candidate decided must be one drawn there, seeds included
    drawn, tried = [], []
    original = ulrich._candidate_pairs

    def counted(n, seeds=()):
        for pair in original(n, seeds):
            drawn.append(pair)
            yield pair

    def decided(name):
        method = getattr(ideals.FiniteAlgebra, name)

        def wrapper(self, *args):
            tried.append(args)
            return method(self, *args)

        monkeypatch.setattr(ideals.FiniteAlgebra, name, wrapper)

    monkeypatch.setattr(ulrich, "_candidate_pairs", counted)
    decided("spans")
    decided("spans_combinations")
    A = instantiate(tag).quotient
    ring = A.ring
    I = _ideal(ring, gens)
    seeds = tuple(tuple(read(ring, q) for q in pair) for pair in seeds)
    found = find_reduction(A, I, seeds)
    assert len(drawn) == len(tried) >= len(seeds)
    # an exhausted search draws the whole stream, and a found one no more
    total = len(seeds) + _stream_length(len(gens))
    assert len(tried) == total if found is None else len(tried) <= total


@pytest.mark.parametrize(
    "argv,built",
    [
        (("cross-check", "--tag", "A:1,2,3"), 2),  # m is the first chain ideal
        (("classify", "--tag", "A:1,2,3", "--seed-reductions", "off"), 2),
        (("classify", "--tag", "RDP-D:6"), 5),
        (("rdp-verify", "--tag", "RDP-E7"), 4),  # three listed and the next
    ],
)
def test_command_builds_each_algebra_once_and_keeps_one(monkeypatch, argv, built):
    algebras = _count_algebras(monkeypatch)
    kept = []
    original = ideals.PresentedQuotient.algebra

    def algebra(self, ideal):
        alg = original(self, ideal)
        kept.append(self._algebra)
        return alg

    monkeypatch.setattr(ideals.PresentedQuotient, "algebra", algebra)
    res = CliRunner().invoke(main, list(argv))
    assert res.exit_code == 0, res.output
    assert len(algebras) == built
    # the quotient holds the algebra it last handed out, and no other
    assert all(gens == algebras[alg].gens for gens, alg in kept)
