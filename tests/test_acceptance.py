"""Acceptance suite: one test per release criterion, each printing a verdict line.

Expected values are frozen from independent oracles (brute-force counting,
convex-combination membership, literal envelope projection) or from closed
forms reproduced term by term.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from freesum import (
    RationalPolytope,
    apply_one_minus_monomial,
    check_braun_multivariate,
    classify_sum,
    cone_over,
    decompose_sigma,
    decomposition_check,
    delta_polynomial,
    dual_denominator,
    embed_at_height_one,
    envelope_condition_check,
    halfspace_rep,
    hull_union,
    is_lattice_polyhedron,
    lattice_points_in_dilate,
    llenv_points,
    polar_dual,
    series_mul,
    shifted_envelope_lattice_points,
    sigma_cone,
)
from freesum.errors import ClassificationError
from freesum.polytopes import lattice_points_in_scaled
from freesum.series import TruncatedSeries, poly_mul

from conftest import (
    F,
    axis_seg,
    corpus_pairs,
    diamond,
    epsilon_project,
    geometric_series,
    indicator_series,
    oracle_count_dilate,
    poly,
    rind_contains,
    segment,
    specialize_to_univariate,
)


def _report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {message}")


def _oracle_delta(p: RationalPolytope, bound: int = 8):
    """Numerator coefficients from brute-force dilate counts only."""
    counts = [oracle_count_dilate(p, k) for k in range(bound + 1)]
    den = 1  # all criterion-1 polytopes are lattice polytopes
    power = p.affine_dim + 1
    factor = [0] * (den * power + 1)
    import math

    for j in range(power + 1):
        factor[den * j] = (-1) ** j * math.comb(power, j)
    prod = poly_mul(counts, factor)[: bound + 1]
    assert all(c == 0 for c in prod[den * power + 1 :])
    coeffs = prod[: den * power + 1]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def test_criterion_1_octahedron_factorization():
    dia = diamond()
    seg = segment(-1, 1)
    octa = hull_union(diamond(3, (0, 1)), axis_seg(3, 2, -1, 1))
    d_dia = _oracle_delta(dia)
    d_seg = _oracle_delta(seg)
    d_oct = _oracle_delta(octa)
    assert d_dia == (1, 2, 1)
    assert d_seg == (1, 1)
    assert d_oct == (1, 3, 3, 1)
    # Production route agrees with the counting oracle.
    assert delta_polynomial(dia, 8).coefficients == d_dia
    assert delta_polynomial(seg, 8).coefficients == d_seg
    assert delta_polynomial(octa, 8).coefficients == d_oct
    product = poly_mul(list(d_dia), list(d_seg))
    assert tuple(product) == d_oct
    _report(1, "octahedron numerator factorizes as (1+2t+t^2)(1+t) = 1+3t+3t^2+t^3")


def test_criterion_2_affine_cross_example():
    j = poly(2, (0, 0), (1, 0))
    k = poly(2, (F(1, 2), -1), (F(1, 2), 1))
    bound = 8
    sigma_j = sigma_cone(cone_over(j), bound)
    closed_j = series_mul(
        geometric_series((0, 0, 1), 3, bound), geometric_series((1, 0, 1), 3, bound)
    )
    assert sigma_j == closed_j
    sigma_k = sigma_cone(cone_over(k), bound)
    numerator = TruncatedSeries(
        3, bound, {(0, 0, 0): 1, (1, -1, 2): 1, (1, 0, 2): 1, (1, 1, 2): 1}
    )
    closed_k = series_mul(
        numerator,
        series_mul(
            geometric_series((1, -2, 2), 3, bound), geometric_series((1, 2, 2), 3, bound)
        ),
    )
    assert sigma_k == closed_k
    witness = classify_sum(j, k)
    assert witness.factor_exponent == (1, 0, 2)
    verdict = check_braun_multivariate(witness, bound)
    assert verdict.holds_up_to_bound and not verdict.residual.terms
    _report(2, "cross example: closed forms match to height 8 and (1 - z1 z3^2) factor holds")


def test_criterion_3_wide_interval_envelopes():
    seg = segment(-2, 3)
    assert dual_denominator(seg) == 6
    bound = 10
    strata = {i: shifted_envelope_lattice_points(seg, i, bound) for i in range(6)}
    assert strata[1] == [] and strata[5] == []
    assert all(strata[i] for i in (0, 2, 3, 4))
    cone = cone_over(seg)
    rind = [
        pt
        for t in range(bound + 1)
        for pt in cone.lattice_points_at_height(t)
        if rind_contains(seg, pt)
    ]
    layered = [set(v) for v in strata.values()]
    violations = []
    for pt in rind:
        hits = sum(1 for layer in layered if pt in layer)
        if hits != 1:
            violations.append((pt, hits))
    assert violations == []
    covered = set().union(*layered)
    assert covered == set(rind)
    _report(3, "interval [-2,3]: layers 1 and 5 empty, rind partitioned with zero violations")


def _free_sum_pairs():
    pairs = []
    for entry in corpus_pairs():
        try:
            witness = classify_sum(entry.a, entry.b)
        except ClassificationError:
            continue
        if witness.kind == "free_sum":
            pairs.append((entry.name, entry.a, entry.b, witness))
    return pairs


def test_criterion_4_decomposition_oracle_equivalence():
    started = time.time()
    pairs = _free_sum_pairs()
    assert len(pairs) >= 12
    denominators = set()
    for name, a, b, _ in pairs:
        total = decompose_sigma(a, b, 10)
        direct = sigma_cone(cone_over(hull_union(a, b)), 10)
        assert total == direct, f"decomposition mismatch for {name}"
        denominators.add(dual_denominator(a))
    assert {1, 2, 3, 6} <= denominators
    elapsed = time.time() - started
    assert elapsed < 60
    _report(
        4,
        f"{len(pairs)} decompositions equal enumeration at height 10 "
        f"(dual denominators {sorted(denominators)}, {elapsed:.1f}s)",
    )


def test_criterion_5_converse_table():
    started = time.time()
    pairs = _free_sum_pairs()
    held, failed = 0, 0
    for name, a, b, witness in pairs:
        lattice_side = is_lattice_polyhedron(polar_dual(a)) or is_lattice_polyhedron(
            polar_dual(b)
        )
        verdict = check_braun_multivariate(witness, 10)
        if lattice_side:
            assert verdict.holds_up_to_bound, f"{name}: lattice dual but formula failed"
            assert not verdict.residual.terms
            held += 1
        else:
            assert not verdict.holds_up_to_bound, f"{name}: no lattice dual but no failure"
            assert verdict.residual.terms
            assert not verdict.residual.has_negative_coefficient()
            failed += 1
    assert held >= 1 and failed >= 1
    # Pinned witness pair: first discrepancy of [0,2/3] + [0,2/3] at height 3.
    a = axis_seg(2, 0, 0, F(2, 3))
    b = axis_seg(2, 1, 0, F(2, 3))
    verdict = check_braun_multivariate(classify_sum(a, b), 10)
    heights = specialize_to_univariate(verdict.residual).coefficients
    assert heights[:4] == (0, 0, 0, 1)
    hull_counts = [len(lattice_points_in_dilate(hull_union(a, b), t)) for t in range(4)]
    assert hull_counts[3] == 6
    product = poly_mul(
        [len(lattice_points_in_dilate(a, t)) for t in range(4)],
        [len(lattice_points_in_dilate(b, t)) for t in range(4)],
    )[:4]
    rhs3 = product[3] - product[2]
    assert rhs3 == 5
    elapsed = time.time() - started
    assert elapsed < 60
    _report(
        5,
        f"converse table over {len(pairs)} pairs ({held} hold, {failed} fail, "
        f"witness 6 vs 5 at height 3, {elapsed:.1f}s)",
    )


def test_criterion_6_rejected_pair_counterexample():
    j = poly(2, (-1, 0), (1, 0))
    k = poly(2, (-1, -2), (1, 2))
    try:
        classify_sum(j, k)
        raise AssertionError("pair should have been rejected")
    except ClassificationError as err:
        assert err.code == "not-complementary"
    hull_cone = cone_over(hull_union(j, k))
    assert hull_cone.contains((1, 1, 1))
    report = decomposition_check(j, k, (F(0), F(0)), 2)
    assert ((1, 1, 1), 0) in report.violations
    _report(6, "skew pair rejected; (1,1,1) lies in the hull cone but in no translate")


def test_criterion_7_quarter_segment_envelope_failure():
    p = segment(F(1, 4), F(3, 4))
    recentered = p.dilate(2).translate((-1,))
    assert recentered.vertices == ((F(-1, 2),), (F(1, 2),))
    dual = polar_dual(recentered)
    assert dual.vertex_functionals == ((F(-2),), (F(2),))
    assert is_lattice_polyhedron(dual)
    result = envelope_condition_check(p, (F(1, 2),), 6)
    assert not result.holds
    assert result.witness == (F(1, 2), F(2))
    _report(7, "quarter segment: recentered dual is the lattice interval yet (1/2,2) breaks the envelope condition")


# --- criterion 8: property suites over the corpus plus random polygons -----


def _random_polygon(rng: random.Random) -> RationalPolytope:
    """Random rational polygon with denominators <= 4, coordinates in [-3,3],
    containing the origin."""
    while True:
        points = [(F(0), F(0))]
        for _ in range(rng.randint(2, 4)):
            coords = []
            for _ in range(2):
                den = rng.choice((1, 2, 3, 4))
                coords.append(Fraction(rng.randint(-2 * den, 2 * den), den))
            points.append(tuple(coords))
        p = RationalPolytope.from_points(2, points)
        if p.affine_dim == 2:
            return p


def _embed_polygon(p: RationalPolytope) -> RationalPolytope:
    return RationalPolytope.from_points(3, [v + (F(0),) for v in p.vertices])


def _ambient_facets(p: RationalPolytope):
    rep = halfspace_rep(p)
    assert rep.span_basis.vectors == ((1, 0), (0, 1))
    return rep.one_facets


def _strata_and_sigma(p: RationalPolytope, bound: int):
    """One-pass minimal-height scan: sigma terms plus envelope layers."""
    phis = _ambient_facets(p)
    d = dual_denominator(p)
    sigma_terms: dict = {}
    layers: dict[int, set] = {i: set() for i in range(d)}
    for t in range(bound + 1):
        for y in lattice_points_in_scaled(p, Fraction(t)):
            point = y + (t,)
            sigma_terms[point] = 1
            lam = max(
                [Fraction(0)] + [sum(a * b for a, b in zip(phi, y)) for phi in phis]
            )
            gap = t - lam
            if gap < 1:
                scaled = gap * d
                if scaled.denominator == 1:
                    layers[int(scaled)].add(point)
    return sigma_terms, layers


def _check_idempotence(p: RationalPolytope, rng: random.Random) -> None:
    cone = cone_over(p)
    generators = [embed_at_height_one(v) for v in p.vertices]
    direction = (F(0),) * p.dim
    samples = [pt for t in range(3) for pt in cone.lattice_points_at_height(t)]
    for _ in range(5):
        weights = [Fraction(rng.randint(0, 3), rng.randint(1, 3)) for _ in generators]
        mixed = tuple(
            sum(w * g[i] for w, g in zip(weights, generators))
            for i in range(p.dim + 1)
        )
        samples.append(mixed)
    for x in samples:
        once = epsilon_project(cone, x, direction)
        assert epsilon_project(cone, once, direction) == once


def _check_envelope_equivalence(p: RationalPolytope, bound: int) -> None:
    # Lattice-envelope integrality is equivalent to the height-monomial identity.
    cone = cone_over(p)
    flags = llenv_points(cone, (F(0),) * p.dim, bound)
    all_lattice = all(flag for _, flag in flags)
    sigma_terms, layers = _strata_and_sigma(p, bound)
    sigma = TruncatedSeries(p.dim + 1, bound, sigma_terms)
    lhs = apply_one_minus_monomial(sigma, (0,) * p.dim + (1,))
    rhs = indicator_series(p.dim + 1, bound, layers[0])
    assert all_lattice == (lhs == rhs)


def _check_layer_sum(p: RationalPolytope, bound: int) -> None:
    sigma_terms, layers = _strata_and_sigma(p, bound)
    sigma = TruncatedSeries(p.dim + 1, bound, sigma_terms)
    lhs = apply_one_minus_monomial(sigma, (0,) * p.dim + (1,))
    total = TruncatedSeries(p.dim + 1, bound, {})
    for pts in layers.values():
        if pts:  # most layers are empty when the dual denominator is large
            total = total + indicator_series(p.dim + 1, bound, pts)
    assert lhs == total


def _check_envelope_properties_general(p: RationalPolytope, bound: int) -> None:
    """Same two properties through the membership-based operations."""
    cone = cone_over(p)
    zero = (F(0),) * p.dim
    all_lattice = all(flag for _, flag in llenv_points(cone, zero, bound))
    sigma = sigma_cone(cone, bound)
    lhs = apply_one_minus_monomial(sigma, (0,) * p.dim + (1,))
    rhs = indicator_series(
        p.dim + 1, bound, shifted_envelope_lattice_points(p, 0, bound)
    )
    assert all_lattice == (lhs == rhs)
    d = dual_denominator(p)
    total = TruncatedSeries(p.dim + 1, bound, {})
    for i in range(d):
        total = total + indicator_series(
            p.dim + 1, bound, shifted_envelope_lattice_points(p, i, bound)
        )
    assert lhs == total


def test_criterion_8_property_suites():
    started = time.time()
    rng = random.Random(2024)
    bound = 8

    corpus_polytopes = []
    classified_pairs = []
    for entry in corpus_pairs():
        try:
            witness = classify_sum(entry.a, entry.b)
        except ClassificationError:
            continue
        classified_pairs.append((entry.a, entry.b, witness))
        if entry.a.contains((F(0),) * entry.a.dim):
            corpus_polytopes.append(entry.a)

    polygons = [_random_polygon(rng) for _ in range(50)]
    random_pairs = []
    for index, polygon in enumerate(polygons):
        j = _embed_polygon(polygon)
        if index % 2 == 0:
            k = axis_seg(3, 2, -1, 1)
        else:
            k = axis_seg(3, 2, 0, F(2, 3))
        random_pairs.append((j, k, classify_sum(j, k)))

    for p in corpus_polytopes + polygons:
        _check_idempotence(p, rng)
    for polygon in polygons:
        _check_envelope_equivalence(polygon, bound)
        _check_layer_sum(polygon, bound)
    for p in corpus_polytopes:
        _check_envelope_properties_general(p, bound)
    # The one-pass scan and the membership route must agree on a sample of
    # random polygons with small dual denominator.
    cross_checked = 0
    for polygon in polygons:
        if cross_checked >= 5 or dual_denominator(polygon) > 8:
            continue
        _check_envelope_properties_general(polygon, bound)
        cross_checked += 1
    seen_failures = 0
    for j, k, witness in classified_pairs + random_pairs:
        report = decomposition_check(witness.j, witness.k, witness.intersection_point, bound)
        assert not report.violations, f"split violation: {report.violations[:3]}"
        verdict = check_braun_multivariate(witness, bound)
        assert not verdict.residual.has_negative_coefficient()
        if not verdict.holds_up_to_bound:
            seen_failures += 1
    assert seen_failures >= 1
    elapsed = time.time() - started
    assert elapsed < 300
    _report(
        8,
        f"properties hold over {len(classified_pairs)} corpus pairs and 50 random polygons "
        f"({seen_failures} expected product failures, {elapsed:.1f}s)",
    )
