"""Truncated series arithmetic, counting series, numerator polynomials."""

from __future__ import annotations

from fractions import Fraction

import pytest

from freesum import (
    TruncatedSeries,
    cone_over,
    delta_polynomial,
    ehrhart_series,
    shifted_envelope_lattice_points,
    sigma_cone,
)
from freesum.errors import InputError, TruncationError
from freesum.series import poly_divmod, poly_mul, poly_pow, series_mul

from conftest import (
    F,
    apply_one_minus_monomial,
    diamond,
    first_difference,
    geometric_series,
    poly,
    segment,
    series_one,
    series_sub,
    specialize_to_univariate,
)


def octahedron():
    pts = []
    for axis in range(3):
        for sign in (1, -1):
            v = [0, 0, 0]
            v[axis] = sign
            pts.append(tuple(v))
    return poly(3, *pts)


def test_sigma_unit_segment_cone():
    s = sigma_cone(cone_over(poly(2, (0, 0), (1, 0))), 3)
    expected = {
        (a, 0, t): 1 for t in range(4) for a in range(t + 1)
    }
    assert s.terms == expected


def test_sigma_matches_closed_form_first_summand():
    # 1 / ((1 - z3)(1 - z1 z3)) expanded by geometric series.
    s = sigma_cone(cone_over(poly(2, (0, 0), (1, 0))), 8)
    closed = series_mul(geometric_series((0, 0, 1), 3, 8), geometric_series((1, 0, 1), 3, 8))
    assert s == closed


def test_sigma_matches_closed_form_second_summand():
    # Four-term numerator over two geometric factors.
    k = poly(2, (F(1, 2), -1), (F(1, 2), 1))
    s = sigma_cone(cone_over(k), 8)
    numerator = TruncatedSeries(
        3, 8, {(0, 0, 0): 1, (1, -1, 2): 1, (1, 0, 2): 1, (1, 1, 2): 1}
    )
    closed = series_mul(
        numerator,
        series_mul(geometric_series((1, -2, 2), 3, 8), geometric_series((1, 2, 2), 3, 8)),
    )
    assert s == closed


def test_sigma_height_zero():
    s = sigma_cone(cone_over(diamond()), 0)
    assert s == series_one(3, 0)


def test_sigma_coefficients_are_zero_one():
    for p in [diamond(), segment(F(1, 4), F(3, 4)), poly(2, (0, 0), (F(3, 2), 0))]:
        s = sigma_cone(cone_over(p), 6)
        assert set(s.terms.values()) <= {1}


def test_series_mul_identity():
    s = sigma_cone(cone_over(diamond()), 4)
    assert series_mul(s, series_one(3, 4)) == s


def test_series_mul_hand_expansion():
    a = TruncatedSeries(2, 2, {(0, 0): 1, (1, 1): 1})
    b = TruncatedSeries(2, 2, {(0, 0): 1, (-1, 1): 1})
    product = series_mul(a, b)
    assert product.terms == {(0, 0): 1, (1, 1): 1, (-1, 1): 1, (0, 2): 1}


def test_series_mul_rejects_mismatched_arity():
    a = series_one(2, 3)
    b = series_one(3, 3)
    with pytest.raises(InputError):
        series_mul(a, b)


def test_apply_one_minus_monomial_basics():
    one = series_one(2, 3)
    s = apply_one_minus_monomial(one, (0, 1))
    assert s.terms == {(0, 0): 1, (0, 1): -1}
    with pytest.raises(InputError):
        apply_one_minus_monomial(one, (1, 0))


def test_series_difference_oracle():
    a = TruncatedSeries(2, 2, {(0, 0): 1, (1, 1): 2})
    b = TruncatedSeries(2, 2, {(0, 0): 1, (-1, 1): 1})
    assert series_sub(a, b).terms == {(1, 1): 2, (-1, 1): -1}
    assert first_difference(a, b) == ((-1, 1), 0, 1)
    assert first_difference(a, a) is None


def test_one_minus_height_monomial_is_envelope_indicator():
    # For the reflexive interval the surviving support is the cone boundary.
    seg = segment(-1, 1)
    s = apply_one_minus_monomial(sigma_cone(cone_over(seg), 3), (0, 1))
    assert s.terms == {(0, 0): 1, (1, 1): 1, (-1, 1): 1, (2, 2): 1, (-2, 2): 1, (3, 3): 1, (-3, 3): 1}
    assert set(s.terms) == set(shifted_envelope_lattice_points(seg, 0, 3))


def test_specialize_diamond():
    s = sigma_cone(cone_over(diamond()), 2)
    assert specialize_to_univariate(s).coefficients == (1, 5, 13)


def test_specialize_constant():
    assert specialize_to_univariate(series_one(3, 4)).coefficients == (1, 0, 0, 0, 0)


def test_specialize_quarter_segment():
    s = sigma_cone(cone_over(segment(F(1, 4), F(3, 4))), 4)
    assert specialize_to_univariate(s).coefficients == (1, 0, 1, 2, 3)


def test_ehrhart_two_routes_agree():
    shapes = [
        octahedron(),
        diamond(),
        segment(F(1, 4), F(3, 4)),
        poly(2, (0, 0), (F(2, 3), 0), (0, F(2, 3))),
        poly(1, (0,)),
    ]
    for p in shapes:
        direct = ehrhart_series(p, 6)
        via_sigma = specialize_to_univariate(sigma_cone(cone_over(p), 6))
        assert direct.coefficients == via_sigma.coefficients


def test_ehrhart_octahedron():
    assert ehrhart_series(octahedron(), 2).coefficients == (1, 7, 25)


def test_ehrhart_point():
    assert ehrhart_series(poly(2, (0, 0)), 5).coefficients == (1,) * 6


def test_ehrhart_twothirds():
    assert ehrhart_series(segment(0, F(2, 3)), 3).coefficients == (1, 1, 2, 3)


def test_delta_diamond():
    delta = delta_polynomial(diamond(), 8)
    assert delta.coefficients == (1, 2, 1)
    assert (delta.den, delta.power) == (1, 3)


def test_delta_octahedron_factorizes():
    assert delta_polynomial(octahedron(), 8).coefficients == (1, 3, 3, 1)


def test_delta_reflexive_segment():
    assert delta_polynomial(segment(-1, 1), 8).coefficients == (1, 1)


def test_delta_rational_segment_reconstructs():
    seg = segment(0, F(2, 3))
    delta = delta_polynomial(seg, 12)
    # Re-expand delta / (1 - t^3)^2 and compare with the counting series.
    expansion = [0] * 13
    for shift in range(0, 13, 3):
        for j, c in enumerate(delta.coefficients):
            if shift + j <= 12:
                expansion[shift + j] += c * (shift // 3 + 1)
    # (1 - t^3)^{-2} has coefficient (m+1) at t^{3m}.
    assert tuple(expansion) == ehrhart_series(seg, 12).coefficients


def test_delta_truncation_guard():
    with pytest.raises(TruncationError):
        delta_polynomial(diamond(), 3)


def test_sigma_cone_terms_read_only():
    seg = segment(-1, 1)
    s = sigma_cone(cone_over(seg), 3)
    expected = dict(s.terms)
    assert expected[(0, 0)] == 1
    with pytest.raises(TypeError):
        s.terms[(0, 0)] = 5
    again = sigma_cone(cone_over(seg), 3)
    assert again is s
    assert dict(again.terms) == expected
    assert again.terms == expected


def test_series_owns_its_terms():
    d = {(0, 0): 1}
    s = TruncatedSeries(2, 3, d)
    d[(0, 0)] = 5
    d[(1, 9)] = 2
    assert s.coefficient((0, 0)) == 1
    assert s.terms == {(0, 0): 1}
    assert all(e[-1] <= s.height_bound for e in s.terms)


def test_poly_divmod_exact():
    a = poly_mul([1, 2, 1], [1, 0, -1])
    q, r = poly_divmod(a, [1, 0, -1])
    assert not r
    assert [Fraction(x) for x in (1, 2, 1)] == q
    q2, r2 = poly_divmod([1, 1], [1, -1])
    assert r2
    assert poly_pow([1, 1], 2) == [1, 2, 1]
