"""Classification, product-formula checks, decompositions, converse table."""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from sympy import Matrix

import freesum.cones
import freesum.freesums
import freesum.polytopes
from freesum import (
    AFFINE_FREE_SUM,
    FREE_SUM,
    GorensteinData,
    RationalPolytope,
    check_braun_multivariate,
    check_braun_univariate,
    classify_sum,
    cone_over,
    converse_search,
    decompose_sigma,
    decomposition_check,
    envelope_condition_check,
    gorenstein_affine_check,
    hull_union,
    lambda_p,
    sigma_cone,
)
from freesum.cones import _class_table
from freesum.errors import ClassificationError, InternalCheckError, PreconditionError
from freesum.linalg import qvec, rational_rank
from freesum.polytopes import interior_lattice_points_in_dilate, tagged_lattice_points
from freesum.series import ehrhart_series, series_mul

from conftest import (
    SPLIT_FAULTS,
    F,
    apply_one_minus_monomial,
    axis_seg,
    break_split,
    cone_slice,
    corpus_pairs,
    diamond,
    epsilon_project,
    first_difference,
    first_height_map,
    height_counts,
    height_map_series,
    interior_identity_by_heights,
    lattice_basis_of_span,
    oracle_lattice_points,
    poly,
    pos_hull_membership,
    segment,
    series_sub,
    sigma_cone_by_heights,
    specialize_to_univariate,
)


def cross_summands():
    j = poly(2, (0, 0), (1, 0))
    k = poly(2, (F(1, 2), -1), (F(1, 2), 1))
    return j, k


def test_hull_union_octahedron():
    octa = hull_union(diamond(3, (0, 1)), axis_seg(3, 2, -1, 1))
    assert len(octa.vertices) == 6


def test_hull_union_idempotent():
    d = diamond()
    assert hull_union(d, d).vertices == d.vertices


def test_hull_union_cross():
    j, k = cross_summands()
    hull = hull_union(j, k)
    assert set(hull.vertices) == {
        (F(0), F(0)),
        (F(1), F(0)),
        (F(1, 2), F(1)),
        (F(1, 2), F(-1)),
    }


def test_classify_octahedron_pair():
    w = classify_sum(diamond(3, (0, 1)), axis_seg(3, 2, -1, 1))
    assert w.kind == FREE_SUM
    assert w.intersection_point == (F(0), F(0), F(0))
    assert w.r == 1
    assert w.factor_exponent == (0, 0, 0, 1)


def test_classify_rejects_skew_lattice_pair():
    j = poly(2, (-1, 0), (1, 0))
    k = poly(2, (-1, -2), (1, 2))
    with pytest.raises(ClassificationError) as err:
        classify_sum(j, k)
    assert err.value.code == "not-complementary"


def test_classify_cross_affine():
    j, k = cross_summands()
    w = classify_sum(j, k)
    assert w.kind == AFFINE_FREE_SUM
    assert w.intersection_point == (F(1, 2), F(0))
    assert w.r == 2
    assert w.factor_exponent == (1, 0, 2)


def test_classify_matches_cone_span_criterion():
    # Equivalent affine criterion: the hull cone's saturated span lattice is
    # the sum of the summand cones' span lattices.
    pairs = [
        cross_summands(),
        (diamond(3, (0, 1)), axis_seg(3, 2, -1, 1)),
        (segment(-2, 3), None),
    ]
    j, k = cross_summands()
    w = classify_sum(j, k)
    hull = hull_union(j, k)
    n1 = j.dim + 1

    def cone_lattice_span(p):
        return lattice_basis_of_span([v + (F(1),) for v in p.vertices], n1)

    span_j, span_k, span_hull = (cone_lattice_span(p) for p in (j, k, hull))
    span_sum = lattice_basis_of_span(
        [qvec(v) for v in span_j.vectors] + [qvec(v) for v in span_k.vectors],
        n1,
    )
    joint_rows = list(span_j.vectors) + list(span_k.vectors)
    from freesum.linalg import canonical_basis

    generated = canonical_basis(joint_rows, n1)
    assert generated.vectors == span_hull.vectors
    assert span_sum.vectors == span_hull.vectors
    assert w.kind == AFFINE_FREE_SUM


def test_classify_spans_must_meet_in_point():
    j = poly(2, (0, 0), (1, 0))
    k = poly(2, (0, 0), (2, 0))
    with pytest.raises(ClassificationError) as err:
        classify_sum(j, k)
    assert err.value.code == "spans-intersect-in-flat"


def test_classify_disjoint_spans():
    j = poly(2, (0, 0), (1, 0))
    k = poly(2, (0, 1), (1, 1))
    with pytest.raises(ClassificationError) as err:
        classify_sum(j, k)
    assert err.value.code == "spans-disjoint"


def test_classify_intersection_outside():
    j = poly(2, (1, 0), (2, 0))
    k = poly(2, (0, -1), (0, 1))
    with pytest.raises(ClassificationError) as err:
        classify_sum(j, k)
    assert err.value.code == "intersection-point-outside"


def test_classify_point_summands():
    origin = poly(2, (0, 0))
    w = classify_sum(origin, origin)
    assert w.kind == FREE_SUM and w.r == 1


def test_braun_multivariate_octahedron():
    w = classify_sum(diamond(3, (0, 1)), axis_seg(3, 2, -1, 1))
    verdict = check_braun_multivariate(w, 8)
    assert verdict.holds_up_to_bound
    assert not verdict.residual.terms


def test_braun_multivariate_cross():
    j, k = cross_summands()
    verdict = check_braun_multivariate(classify_sum(j, k), 6)
    assert verdict.holds_up_to_bound
    assert verdict.factor_exponent == (1, 0, 2)


def test_braun_fails_for_twothirds_pair():
    a = axis_seg(2, 0, 0, F(2, 3))
    b = axis_seg(2, 1, 0, F(2, 3))
    verdict = check_braun_multivariate(classify_sum(a, b), 5)
    assert not verdict.holds_up_to_bound
    assert verdict.residual.terms
    assert set(verdict.residual.terms.values()) <= {1}
    by_height = specialize_to_univariate(verdict.residual)
    assert by_height.coefficients[3] == 1
    assert by_height.coefficients[:3] == (0, 0, 0)


def braun_by_series(witness, bound):
    """Braun verdict assembled from series, never from the pair table: sigma
    of the hull cone by direct enumeration minus (1 - z^(r*alpha(p))) times
    sigma_J * sigma_K.  Returns (holds, counterexample, residual)."""
    lhs = sigma_cone_by_heights(cone_over(hull_union(witness.j, witness.k)), bound)
    sigma_j, sigma_k = (sigma_cone_by_heights(cone_over(p), bound) for p in (witness.j, witness.k))
    product = series_mul(sigma_j, sigma_k)
    rhs = apply_one_minus_monomial(product, witness.factor_exponent)
    return lhs == rhs, first_difference(lhs, rhs), series_sub(lhs, rhs)


def assert_braun_matches_series(witness, bound):
    verdict = check_braun_multivariate(witness, bound)
    holds, counterexample, residual = braun_by_series(witness, bound)
    assert verdict.holds_up_to_bound == holds
    assert verdict.counterexample == counterexample
    assert verdict.residual == residual


# Every corpus pair that classifies, free and affine free sums alike.
CLASSIFIED_CORPUS = [pair for pair in corpus_pairs() if pair.modes]


@pytest.mark.parametrize("pair", CLASSIFIED_CORPUS, ids=lambda pair: pair.name)
def test_braun_table_matches_series_on_corpus(pair):
    witness = classify_sum(pair.a, pair.b)
    for bound in range(13):
        assert_braun_matches_series(witness, bound)


def sheared(draw, n):
    """A drawn unimodular shear of R^n (ones on the diagonal, entries in
    {-1, 0, 1} above it, rows reversed or not), as the map from a point list
    to the polytope spanned by its image."""
    shear = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            shear[i][j] = draw(st.integers(-1, 1))
    if draw(st.booleans()):
        shear.reverse()

    def image(pts):
        return poly(n, *(tuple(sum(a * x for a, x in zip(row, v)) for row in shear) for v in pts))

    return image


@st.composite
def free_sums(draw):
    """A free sum at the origin in R^2 or R^3: J in the span of the first m
    coordinate axes and K in the span of the others, each the hull of the
    origin and rational points (denominators up to 3), both mapped by one
    unimodular shear so the spans are no longer coordinate subspaces."""
    n = draw(st.sampled_from((2, 3)))
    m = draw(st.integers(1, n - 1))
    coord = st.builds(F, st.integers(-4, 4), st.integers(1, 3))

    def summand(axes):
        pts = [(0,) * n]
        for _ in range(draw(st.integers(1, 3))):
            values = iter([draw(coord) for _ in axes])
            pts.append(tuple(next(values) if i in axes else 0 for i in range(n)))
        return pts

    image = sheared(draw, n)
    return image(summand(range(m))), image(summand(range(m, n)))


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(free_sums(), st.integers(0, 6))
@example((axis_seg(2, 0, 0, F(2, 3)), axis_seg(2, 1, 0, F(2, 3))), 6)
@example((axis_seg(3, 0, F(-1, 3), F(3, 2)), poly(3, (0, 0, 0), (0, F(2, 3), F(1, 2)))), 5)
def test_braun_table_matches_series_on_free_sums(pair, bound):
    j, k = pair
    witness = classify_sum(j, k)
    assert witness.kind == FREE_SUM
    assert_braun_matches_series(witness, bound)


@st.composite
def affine_free_sums(draw):
    """An affine free sum in R^2 or R^3 through a point p with denominator
    r in {2, 3, 4}: p's fractional part sits in the first m coordinates or
    in the others, so r*Lambda^p is a product of lattices on the two
    coordinate blocks and the spans' lattices are complementary.  J is p
    plus the hull of the origin and rational points of the first block, K
    the same in the second, and one unimodular shear, as in ``free_sums``,
    moves both off the coordinate subspaces."""
    n = draw(st.sampled_from((2, 3)))
    m = draw(st.integers(1, n - 1))
    r = draw(st.integers(2, 4))
    coord = st.builds(F, st.integers(-2, 2), st.integers(1, 3))
    fractional = range(m) if draw(st.booleans()) else range(m, n)
    p = [F(draw(st.integers(-1, 1))) for _ in range(n)]
    for i in fractional:
        numerators = (1, r - 1) if i == fractional[0] else range(r)
        p[i] += F(draw(st.sampled_from(numerators)), r)

    def summand(axes):
        pts = [tuple(p)]
        for _ in range(draw(st.integers(1, 2))):
            values = iter([draw(coord) for _ in axes])
            pts.append(tuple(x + next(values) if i in axes else x for i, x in enumerate(p)))
        return pts

    image = sheared(draw, n)
    return image(summand(range(m))), image(summand(range(m, n)))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(affine_free_sums(), st.integers(0, 5))
@example((poly(2, (0, 0), (1, 0)), poly(2, (F(1, 2), -1), (F(1, 2), 1))), 5)
def test_braun_table_matches_series_on_affine_free_sums(pair, bound):
    j, k = pair
    witness = classify_sum(j, k)
    assert witness.kind == AFFINE_FREE_SUM and witness.r in (2, 3, 4)
    assert_braun_matches_series(witness, bound)


def test_braun_settles_integral_side_without_enumerating_the_other(monkeypatch):
    """With K = [-e3, e3] every least dilation on H*K is an integer, so each
    pair has low = high: the free-sum check reads the verdict off K's tags
    and never tags H*J, whose dilations are fractional (x + y <= 2 is a facet
    at lattice distance 2).  The verdict still equals the series oracle."""
    j = poly(3, (-1, -1, 0), (3, -1, 0), (-1, 3, 0))
    k = axis_seg(3, 2, -1, 1)
    real = freesum.cones.tagged_lattice_points
    den, points = real(j, 1)
    assert any(m % den for _, m in points)
    tagged = []

    def recording(p, bound):
        tagged.append((p, bound))
        return real(p, bound)

    monkeypatch.setattr(freesum.cones, "tagged_lattice_points", recording)
    witness = classify_sum(j, k)
    assert witness.kind == FREE_SUM
    for bound in range(5):
        tagged.clear()
        verdict = check_braun_multivariate.__wrapped__(witness, bound)
        assert tagged == [(k, bound)]
        holds, counterexample, residual = braun_by_series(witness, bound)
        assert verdict.holds_up_to_bound == holds
        assert verdict.counterexample == counterexample
        assert verdict.residual == residual


def test_braun_settles_integral_side_of_an_affine_sum(monkeypatch):
    """J the triangle (0,0,0), (1,0,0), (0,1,0) and K the segment from
    (1/3,1/3,-1/3) to (1/3,1/3,1/3) meet at p = (1/3,1/3,0), r = 3.  The kept
    points of H*3(K - p) are (0, 0, 3i), each with the integer least dilation
    3|i| in its class 0 mod 3, so every pair has low = high: only K is
    tagged, and the verdict still equals the series oracle."""
    j = poly(3, (0, 0, 0), (1, 0, 0), (0, 1, 0))
    k = poly(3, (F(1, 3), F(1, 3), F(-1, 3)), (F(1, 3), F(1, 3), F(1, 3)))
    witness = classify_sum(j, k)
    assert witness.kind == AFFINE_FREE_SUM and witness.r == 3
    real = freesum.cones.tagged_lattice_points
    tagged = []

    def recording(p, bound):
        tagged.append((p, bound))
        return real(p, bound)

    monkeypatch.setattr(freesum.cones, "tagged_lattice_points", recording)
    for bound in range(9):
        tagged.clear()
        _class_table(k, witness.intersection_point, 3, bound)
        walk_of_k = tagged[:]
        tagged.clear()
        verdict = check_braun_multivariate.__wrapped__(witness, bound)
        assert len(walk_of_k) == 1 and tagged == walk_of_k
        assert verdict.holds_up_to_bound
        holds, counterexample, residual = braun_by_series(witness, bound)
        assert holds and counterexample is None and not residual.terms


def test_braun_univariate_octahedron():
    verdict = check_braun_univariate(diamond(3, (0, 1)), axis_seg(3, 2, -1, 1), 8)
    assert verdict.series_holds and verdict.delta_holds
    assert verdict.delta_lhs == (1, 3, 3, 1)


def test_braun_univariate_twothirds_mismatch():
    a = axis_seg(2, 0, 0, F(2, 3))
    b = axis_seg(2, 1, 0, F(2, 3))
    verdict = check_braun_univariate(a, b, 8)
    assert not verdict.series_holds
    assert verdict.first_mismatch == (3, 6, 5)
    assert not verdict.delta_holds


def test_braun_univariate_rational_with_lattice_dual():
    # [-1/3, 1] has an integral dual, so both identities hold.
    a = axis_seg(2, 0, F(-1, 3), 1)
    b = axis_seg(2, 1, -1, 1)
    verdict = check_braun_univariate(a, b, 10)
    assert verdict.series_holds and verdict.delta_holds


def test_braun_univariate_top_polygon():
    # Non-reflexive lattice polygon with a lattice-polyhedron dual.
    top = poly(3, (-1, 0, 0), (1, 0, 0), (3, 1, 0), (-3, 1, 0))
    b = axis_seg(3, 2, -1, 1)
    verdict = check_braun_univariate(top, b, 8)
    assert verdict.series_holds and verdict.delta_holds


def test_decompose_sigma_matches_enumeration():
    j, k = axis_seg(2, 0, -2, 3), axis_seg(2, 1, -1, 1)
    heights = first_height_map(j, k, 8)
    direct = sigma_cone_by_heights(cone_over(hull_union(j, k)), 8)
    assert height_map_series(heights, 3, 8) == direct
    assert decompose_sigma(j, k, 8) == height_counts(heights, 8)


def test_decompose_sigma_single_layer_is_braun_product():
    p = axis_seg(2, 0, -1, 1)
    k = axis_seg(2, 1, 0, F(2, 3))
    heights = first_height_map(p, k, 6)
    total = height_map_series(heights, 3, 6)
    w = classify_sum(p, k)
    product = series_mul(
        sigma_cone_by_heights(cone_over(p), 6), sigma_cone_by_heights(cone_over(k), 6)
    )
    assert total == apply_one_minus_monomial(product, w.factor_exponent)
    assert decompose_sigma(p, k, 6) == height_counts(heights, 6)


def test_decompose_sigma_where_braun_fails():
    a = axis_seg(2, 0, 0, F(2, 3))
    b = axis_seg(2, 1, 0, F(2, 3))
    heights = first_height_map(a, b, 5)
    direct = sigma_cone_by_heights(cone_over(hull_union(a, b)), 5)
    assert height_map_series(heights, 3, 5) == direct
    assert not check_braun_multivariate(classify_sum(a, b), 5).holds_up_to_bound
    assert decompose_sigma(a, b, 5) == height_counts(heights, 5)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(free_sums(), st.integers(0, 6))
@example((axis_seg(2, 0, 0, F(2, 3)), axis_seg(2, 1, 0, F(2, 3))), 6)
def test_decompose_sigma_counts_match_the_oracle(pair, bound):
    """The per-height counts equal the histogram of the pointwise
    first-height map, whose series is the hull cone's, walked height by
    height; so does the CLI's term count, sum c_T * (H + 1 - T)."""
    j, k = pair
    heights = first_height_map(j, k, bound)
    direct = sigma_cone_by_heights(cone_over(hull_union(j, k)), bound)
    assert height_map_series(heights, j.dim + 1, bound) == direct
    counts = decompose_sigma(j, k, bound)
    assert counts == height_counts(heights, bound)
    assert sum(c * (bound + 1 - t) for t, c in enumerate(counts)) == len(direct.terms)


@pytest.mark.parametrize(
    "pair",
    [pair for pair in corpus_pairs() if "decompose" in pair.modes],
    ids=lambda pair: pair.name,
)
def test_decompose_sigma_lists_no_hull_point(monkeypatch, pair):
    """A passing decomposition reads the summands' tagged walks and only
    the counting walk of the hull: no walk lists a point of the hull."""
    hull = hull_union(pair.a, pair.b)
    real, walks = freesum.polytopes._walk, []

    def recording(p, num, q, den=0, points=True):
        walks.append((p, points))
        return real(p, num, q, den, points)

    monkeypatch.setattr(freesum.polytopes, "_walk", recording)
    tagged_lattice_points.cache_clear()
    ehrhart_series.cache_clear()
    counts = decompose_sigma(pair.a, pair.b, 7)
    assert counts == height_counts(first_height_map(pair.a, pair.b, 7), 7)
    assert (hull, False) in walks and (hull, True) not in walks


def test_converse_table_rows():
    rows = [
        (diamond(3, (0, 1)), axis_seg(3, 2, -1, 1), (True, True, True)),
        (axis_seg(2, 0, 0, F(2, 3)), axis_seg(2, 1, 0, F(2, 3)), (False, False, False)),
        (axis_seg(2, 0, -2, 3), axis_seg(2, 1, -1, 1), (False, True, True)),
    ]
    for a, b, expected in rows:
        report = converse_search(a, b, 10)
        assert (
            report.dual_p_lattice,
            report.dual_q_lattice,
            report.braun_holds_up_to_bound,
        ) == expected


def test_converse_failure_has_counterexample():
    report = converse_search(axis_seg(2, 0, 0, F(2, 3)), axis_seg(2, 1, 0, F(2, 3)), 10)
    assert report.counterexample is not None
    exp, lhs, rhs = report.counterexample
    assert lhs == 1 and rhs == 0


def test_envelope_condition_cross():
    j, _ = cross_summands()
    assert envelope_condition_check(j, (F(1, 2), F(0)), 6).holds


def test_envelope_condition_quarter_segment_witness():
    result = envelope_condition_check(segment(F(1, 4), F(3, 4)), (F(1, 2),), 6)
    assert not result.holds
    assert result.witness == (F(1, 2), F(2))


def test_envelope_condition_diamond():
    assert envelope_condition_check(diamond(), (F(0), F(0)), 6).holds


def test_envelope_condition_soundness_for_braun():
    # Whenever the envelope condition holds, the product formula must hold.
    pairs = [
        cross_summands(),
        (diamond(3, (0, 1)), axis_seg(3, 2, -1, 1)),
        (axis_seg(2, 0, 0, F(2, 3)), axis_seg(2, 1, 0, F(2, 3))),
        (
            poly(2, (0, 0), (1, 0)),
            poly(2, (F(1, 3), -1), (F(1, 3), 1)),
        ),
    ]
    for j, k in pairs:
        w = classify_sum(j, k)
        condition = envelope_condition_check(j, w.intersection_point, 8)
        verdict = check_braun_multivariate(w, 8)
        if condition.holds:
            assert verdict.holds_up_to_bound


def test_gorenstein_affine_cross():
    j, k = cross_summands()
    verdict = gorenstein_affine_check(j, k, 8)
    assert verdict.holds_up_to_bound
    assert verdict.factor_exponent == (1, 0, 2)


def test_gorenstein_affine_center_mismatch():
    j = poly(2, (0, 0), (1, 0))
    k = poly(2, (F(1, 3), -1), (F(1, 3), 1))
    with pytest.raises(PreconditionError) as err:
        gorenstein_affine_check(j, k, 6)
    assert err.value.code == "gorenstein-center-mismatch"
    # The raw affine check at the actual intersection point fails instead.
    w = classify_sum(j, k)
    assert not envelope_condition_check(j, w.intersection_point, 6).holds
    assert not check_braun_multivariate(w, 6).holds_up_to_bound


def test_gorenstein_affine_reduces_to_reflexive_case():
    verdict = gorenstein_affine_check(diamond(3, (0, 1)), axis_seg(3, 2, -1, 1), 6)
    assert verdict.holds_up_to_bound
    assert verdict.factor_exponent == (0, 0, 0, 1)


def test_gorenstein_affine_triangle():
    tri = poly(3, (0, 0, 0), (1, 0, 0), (0, 1, 0))
    k = RationalPolytope.from_points(
        3, [(F(1, 3), F(1, 3), -1), (F(1, 3), F(1, 3), 1)]
    )
    verdict = gorenstein_affine_check(tri, k, 7)
    assert verdict.holds_up_to_bound
    assert verdict.factor_exponent == (1, 1, 0, 3)


def test_gorenstein_interior_identity_failure_names_its_first_point(monkeypatch):
    """Given the false data "index 1, center 0" for J = [-1, 2] x {0}, the
    point (1, 0, 1) is interior to cone(J), but (1, 0, 0) is not in the cone.
    It is the first failing point, by height and then lex order; at H = 0
    the cone holds only the origin, and the identity holds."""
    j, k = poly(2, (-1, 0), (2, 0)), poly(2, (0, -1), (0, 1))
    data = GorensteinData(1, (0, 0), (0, 0))
    monkeypatch.setattr(freesum.freesums, "gorenstein_data", lambda p: data)
    with pytest.raises(InternalCheckError, match=r"interior identity fails at \(1, 0, 1\) "):
        gorenstein_affine_check(j, k, 4)
    assert gorenstein_affine_check(j, k, 0).holds_up_to_bound


@st.composite
def centered_lattice_polytopes(draw):
    """A lattice polytope P of dimension 1 to 3 in R^n, n <= 3, so flats in
    R^3 occur, with a point c of denominator at most 3 in its relative
    interior: c = y/s for an interior lattice point y of s*P, s <= 3."""
    n = draw(st.integers(1, 3))
    count = draw(st.integers(2, 5))
    points = [tuple(draw(st.integers(-2, 2)) for _ in range(n)) for _ in range(count)]
    p = poly(n, *points)
    assume(p.affine_dim >= 1)
    s = draw(st.integers(1, 3))
    interior = interior_lattice_points_in_dilate(p, s)
    assume(interior)
    y = draw(st.sampled_from(interior))
    return p, tuple(F(x, s) for x in y)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(centered_lattice_polytopes(), st.integers(0, 5))
@example((poly(2, (-1, 0), (2, 0)), (F(0), F(0))), 4)
@example((poly(2, (0, 0), (1, 0)), (F(1, 2), F(0))), 5)
@example((poly(3, (0, 0, 0), (1, 0, 0), (0, 1, 0)), (F(1, 3), F(1, 3), F(0))), 5)
@example((poly(1, (-2,), (-1,)), (F(-5, 3),)), 1)
def test_gorenstein_interior_check_matches_the_per_height_loop(case, bound):
    """The class-table reading of the interior identity at a center c of
    denominator r, posed as Gorenstein data (r, r*c, c) with the point {c}
    as second summand, against the per-height loop: the check holds iff the
    loop finds no failing point, and otherwise names the loop's first one.
    The examples hold (the unit segment and the triangle at their true
    centers) and fail (J = [-1, 2] x {0} at 0).  [-2, -1] at -5/3 holds at
    H = 1 but fails at height 2, past the bound."""
    p, c = case
    r = math.lcm(*(x.denominator for x in c))
    data = GorensteinData(r, tuple(int(r * x) for x in c), c)
    expected = interior_identity_by_heights(p, data.interior_point + (r,), bound)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(freesum.freesums, "gorenstein_data", lambda q: data)
        if expected is None:
            verdict = gorenstein_affine_check(p, poly(p.dim, c), bound)
            assert verdict.factor_exponent == data.interior_point + (r,)
        else:
            with pytest.raises(InternalCheckError) as err:
                gorenstein_affine_check(p, poly(p.dim, c), bound)
            assert str(err.value) == (
                f"interior identity fails at {expected} for the Gorenstein summand"
            )


def test_braun_specialization_commutes():
    from freesum import ehrhart_series
    from freesum.series import poly_mul

    pairs = [
        (diamond(3, (0, 1)), axis_seg(3, 2, -1, 1)),
        (axis_seg(2, 0, 0, F(2, 3)), axis_seg(2, 1, 0, F(2, 3))),
        (axis_seg(2, 0, -2, 3), axis_seg(2, 1, -1, 1)),
    ]
    bound = 7
    for a, b in pairs:
        w = classify_sum(a, b)
        hull = hull_union(a, b)
        lhs = sigma_cone(cone_over(hull), bound)
        assert specialize_to_univariate(lhs).coefficients == ehrhart_series(hull, bound).coefficients
        product = series_mul(sigma_cone(cone_over(a), bound), sigma_cone(cone_over(b), bound))
        rhs = apply_one_minus_monomial(product, w.factor_exponent)
        ea = ehrhart_series(a, bound).coefficients
        eb = ehrhart_series(b, bound).coefficients
        conv = poly_mul(list(ea), list(eb))[: bound + 1]
        shift = w.factor_exponent[-1]
        expected = tuple(
            conv[t] - (conv[t - shift] if t >= shift else 0) for t in range(bound + 1)
        )
        assert specialize_to_univariate(rhs).coefficients == expected


def test_decomposition_check_octahedron():
    w = classify_sum(diamond(3, (0, 1)), axis_seg(3, 2, -1, 1))
    report = decomposition_check(w.j, w.k, w.intersection_point, 6)
    assert not report.violations
    assert report.points_checked > 100


def test_decomposition_check_affine_cross():
    j, k = cross_summands()
    w = classify_sum(j, k)
    report = decomposition_check(w.j, w.k, w.intersection_point, 6)
    assert not report.violations


def test_decomposition_check_point_summands():
    origin = poly(2, (0, 0))
    w = classify_sum(origin, origin)
    report = decomposition_check(w.j, w.k, w.intersection_point, 5)
    assert not report.violations
    assert report.points_checked == 6


def test_decomposition_check_forced_counterexample():
    j = poly(2, (-1, 0), (1, 0))
    k = poly(2, (-1, -2), (1, 2))
    report = decomposition_check(j, k, (F(0), F(0)), 3)
    assert ((1, 1, 1), 0) in report.violations
    cone_hull = cone_over(hull_union(j, k))
    assert cone_hull.contains((1, 1, 1))


def third_skew_summands():
    """J = [p, p + e1] and K = [p, p + (1/2, 3)] through p = (1/3, 0), r = 3:
    r*Lambda^p is Z x 3Z, in which (1, 0) and (1, 6) generate a sublattice of
    index 2, so the pair is not complementary."""
    return poly(2, (F(1, 3), 0), (F(4, 3), 0)), poly(2, (F(1, 3), 0), (F(5, 6), 3))


def test_decomposition_check_violations_step_by_r():
    """The hull points of one offset v = 3z - t*(1, 0) lie at the heights t =
    least, least + 3, ... of its class, so an offset with no split fails at
    each of them: v = (2, 3) at heights 1 and 4, and no point is reported at
    a height off its class."""
    j, k = third_skew_summands()
    report = decomposition_check(j, k, (F(1, 3), F(0)), 4)
    hull = hull_union(j, k)
    assert report.points_checked == sum(len(oracle_lattice_points(hull, t)) for t in range(5))
    assert report.points_checked == 56 and len(report.violations) == 22
    heights = {}
    for (x, y, t), splits in report.violations:
        assert splits == 0 and cone_over(hull).contains((x, y, t))
        heights.setdefault((3 * x - t, 3 * y), []).append(t)
    assert heights.pop((2, 3)) == [1, 4]
    assert all(len(ts) == 1 for ts in heights.values())


@pytest.mark.parametrize(
    "pair", [pair for pair in corpus_pairs() if "affine" in pair.modes], ids=lambda pair: pair.name
)
def test_envelope_check_reuses_the_braun_walk(pair):
    """The envelope check of J at p reads J's class table, the one the Braun
    check builds whenever K's table does not settle the verdict, as on every
    affine corpus pair at height 7: after the Braun check has tagged K and
    J, the envelope check tags nothing new."""
    tagged_lattice_points.cache_clear()
    check_braun_multivariate.cache_clear()
    witness = classify_sum(pair.a, pair.b)
    before = tagged_lattice_points.cache_info().misses
    check_braun_multivariate(witness, 7)
    after = tagged_lattice_points.cache_info().misses
    assert after - before == 2  # K, then J
    envelope_condition_check(pair.a, witness.intersection_point, 7)
    assert tagged_lattice_points.cache_info().misses == after


@pytest.mark.parametrize("fault", sorted(SPLIT_FAULTS))
def test_decompose_sigma_names_broken_split(monkeypatch, fault):
    j, k, point, splits = break_split(monkeypatch, fault)
    with pytest.raises(InternalCheckError) as err:
        decompose_sigma(j, k, 1)
    assert f"at {point}: {splits} splits, direct coefficient 1" in str(err.value)


def test_decompose_sigma_raises_where_no_listed_point_fails(monkeypatch):
    """J = {0} and K = [0, 2*e2] have the hull K.  With the origin dropped
    from the listed points of K, and so of the hull, every listed hull point
    has its one split and the pointwise check names no point; the hull's
    counting walk still counts the origin, and the count check raises."""
    j, k = poly(2, (0, 0)), axis_seg(2, 1, 0, 2)
    assert hull_union(j, k) == k
    real = freesum.cones.tagged_lattice_points

    def faulty(p, bound):
        den, points = real(p, bound)
        return (den, points[1:]) if p == k else (den, points)

    monkeypatch.setattr(freesum.cones, "tagged_lattice_points", faulty)
    with pytest.raises(InternalCheckError, match="enumeration in counts"):
        decompose_sigma(j, k, 0)


def test_decomposition_check_requires_point_in_both_summands():
    j = poly(2, (0, 0), (2, 0))
    k = poly(2, (3, -1), (3, 1))
    for first, second in ((j, k), (k, j)):
        with pytest.raises(PreconditionError) as err:
            decomposition_check(first, second, (F(1), F(0)), 4)
        assert err.value.code == "point-not-in-summand"


@st.composite
def split_cases(draw):
    """Summands through a common rational point p: two segments in R^2 along
    independent integer directions, whose lattices may or may not be
    complementary, or a polygon in a plane of R^3 and a segment transverse to
    it.  p is an endpoint of a segment when its backward reach is zero."""
    n = draw(st.sampled_from((2, 3)))
    q = draw(st.integers(1, 3))
    p = tuple(F(draw(st.integers(-q, q)), q) for _ in range(n))
    dirs = [tuple(draw(st.integers(-2, 2)) for _ in range(n)) for _ in range(n)]
    assume(rational_rank(dirs) == n)
    back = st.sampled_from((F(0), F(1, 2), F(1)))
    ahead = st.sampled_from((F(1, 2), F(1), F(3, 2)))

    def at(*steps):
        return tuple(x + sum(c * d[i] for c, d in steps) for i, x in enumerate(p))

    def seg(d):
        return poly(n, at((-draw(back), d)), at((draw(ahead), d)))

    if n == 2:
        return seg(dirs[0]), seg(dirs[1]), p
    a, b = dirs[0], dirs[1]
    corners = [
        at((draw(ahead), a)),
        at((draw(ahead), b)),
        at((-draw(ahead), a), (-draw(ahead), b)),
    ]
    if draw(st.booleans()):
        corners.append(at((1, a), (1, b)))
    return poly(n, *corners), seg(dirs[2]), p


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(split_cases(), st.integers(0, 3))
@example((poly(2, (0, 0), (1, 0)), poly(2, (F(1, 2), -1), (F(1, 2), 1)), (F(1, 2), F(0))), 5)
@example((axis_seg(2, 0, 0, F(2, 3)), axis_seg(2, 1, -1, 1), (F(0), F(0))), 5)
@example((poly(2, (0, 0), (1, 0)), poly(2, (F(1, 3), -1), (F(1, 3), 1)), (F(1, 3), F(0))), 5)
@example((poly(2, (-1, 0), (1, 0)), poly(2, (-1, -2), (1, 2)), (F(0), F(0))), 3)
@example((*third_skew_summands(), (F(1, 3), F(0))), 4)
@example(
    (
        poly(3, (-1, -1, 0), (F(3, 2), 0, 0), (0, F(4, 3), 0)),
        poly(3, (-1, 1, -1), (2, -2, 2)),
        (F(0), F(0), F(0)),
    ),
    2,
)
def test_decomposition_check_matches_bruteforce(case, bound):
    """Candidate-splitting route against literal envelope enumeration.

    The brute-force side projects every lattice point of cone(J) (heights up
    to T + r - 1), deduplicates, and counts translates containing each hull
    point via the generator representation of cone(K).  For a free sum at the
    origin the pointwise first-height map counts the same splits, and none
    off the hull cone, and ``decompose_sigma``'s counts are its histogram.
    """
    j, k, p = case
    cone_j = cone_over(j)
    hull_cone = cone_over(hull_union(j, k))
    r = lambda_p(p).r
    candidates = set()
    for t in range(bound + r):
        for pt in cone_slice(cone_j, t):
            candidates.add(epsilon_project(cone_j, pt, p))
    gens_k = [v + (F(1),) for v in k.vertices]
    in_cone_k = pos_hull_membership(gens_k)
    # z - x lies in cone(K) only if it lies in span(cone(K)), that is if
    # N z = N x for rows N that cut the span out: bucket the candidates by N x.
    normals = [tuple(F(int(a.p), int(a.q)) for a in v) for v in Matrix(gens_k).nullspace()]

    def span_class(x):
        return tuple(sum(a * b for a, b in zip(row, x)) for row in normals)

    buckets = {}
    for x in candidates:
        buckets.setdefault(span_class(x), []).append(x)
    report = decomposition_check(j, k, p, bound)
    decomposed = None
    if not any(p):
        try:
            if classify_sum(j, k).kind == FREE_SUM:
                decomposed = first_height_map(j, k, bound)
                assert decompose_sigma(j, k, bound) == height_counts(decomposed, bound)
        except ClassificationError:
            pass
    expected_violations = []
    counts = {}
    checked = 0
    for t in range(bound + 1):
        for z in cone_slice(hull_cone, t):
            checked += 1
            zq = qvec(z)
            # cone(K) has no point of negative height, so a candidate above z
            # is never counted.
            count = sum(
                1
                for x in buckets.get(span_class(zq), ())
                if x[-1] <= t and in_cone_k(tuple(a - b for a, b in zip(zq, x)))
            )
            if count != 1:
                expected_violations.append((z, count))
            if count:
                counts[tuple(z)] = count
    assert report.points_checked == checked
    if decomposed is not None:
        assert dict(height_map_series(decomposed, j.dim + 1, bound).terms) == counts
    assert sorted(v[0] for v in report.violations) == sorted(
        v[0] for v in expected_violations
    )
