"""Envelope layers and shifted cones read off least dilations, against box scans.

The production path enumerates one integer dilate and tags each point with
its least dilation.  The oracles below are the scans it replaced: a layer is
the difference of the (t - i/d)- and (t - (i+1)/d)-dilates, and the cone
shifted down by i/d holds the points of the (t + i/d)-dilate at height t.
Segments and polygons containing the origin are drawn with d <= 12, H <= 4.

The one-pass ``decompose_sigma`` is compared with the sum over the d layers
of each layer's indicator series times that of the shifted cone, the layers
from ``shifted_envelope_lattice_points`` and the shifted cones from the box
scan, on polygons with d <= 60.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from freesum import (
    RationalPolytope,
    TruncatedSeries,
    check_braun_multivariate,
    classify_sum,
    decompose_sigma,
    decomposition_check,
    dual_denominator,
    ehrhart_series,
    shifted_envelope_lattice_points,
    shifted_envelope_nonempty,
)
from freesum.errors import InputError, PreconditionError
from freesum.polytopes import lattice_points_in_scaled, tagged_lattice_points
from freesum.series import series_mul

from conftest import F, height_map_series, indicator_series, min_dilation, poly

small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def polytopes_with_origin(draw):
    """Segments in R^1 or R^2 and polygons in R^2, the origin in each: either
    as one of the points, or on the segment from a point v to -c*v."""
    n = draw(st.integers(1, 2))
    count = draw(st.integers(1, 2 if n == 1 else 4))
    points = [tuple(draw(small) for _ in range(n)) for _ in range(count)]
    if draw(st.booleans()):
        points.append((Fraction(0),) * n)
    else:
        c = draw(st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3))
        points.append(tuple(-c * x for x in points[0]))
    p = RationalPolytope.from_points(n, points)
    assume(dual_denominator(p) <= 12)
    return p


def oracle_layer(p: RationalPolytope, index: int, bound: int) -> list:
    d = dual_denominator(p)
    out = []
    for t in range(bound + 1):
        lam_here = Fraction(t) - Fraction(index, d)
        if lam_here < 0:
            continue
        here = set(lattice_points_in_scaled(p, lam_here))
        lam_next = Fraction(t) - Fraction(index + 1, d)
        if lam_next >= 0:
            here -= set(lattice_points_in_scaled(p, lam_next))
        out.extend(y + (t,) for y in here)
    return sorted(out)


def oracle_shifted_cone(p: RationalPolytope, index: int, den: int, bound: int) -> list:
    return sorted(
        y + (t,)
        for t in range(bound + 1)
        for y in lattice_points_in_scaled(p, t + Fraction(index, den))
    )


layer_settings = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@layer_settings
@given(polytopes_with_origin(), st.integers(0, 4))
def test_layers_match_dilate_differences(p, bound):
    d = dual_denominator(p)
    for index in range(d):
        assert shifted_envelope_lattice_points(p, index, bound) == oracle_layer(p, index, bound)


@layer_settings
@given(polytopes_with_origin(), st.integers(0, 4))
def test_least_dilation_is_on_the_dual_grid(p, bound):
    d = dual_denominator(p)
    den, tagged = tagged_lattice_points(p, bound)
    for y, lam in ((y, Fraction(m, den)) for y, m in tagged):
        assert lam == min_dilation(p, y)
        assert (d * lam).denominator == 1
        assert y in lattice_points_in_scaled(p, lam)
        assert lam == 0 or y not in lattice_points_in_scaled(p, lam - Fraction(1, d))


def test_dilation_helpers_require_origin():
    p = poly(2, (1, 0), (2, 1))
    with pytest.raises(PreconditionError):
        tagged_lattice_points(p, 2)


def test_tagged_walk_rejects_negative_heights():
    """A negative height is an input error, as for ``lattice_points_in_scaled``,
    also where it reaches the tagged walk through its readers and in
    ``ehrhart_series``."""
    seg = poly(1, (-1,), (2,))
    with pytest.raises(InputError):
        tagged_lattice_points(seg, -1)
    with pytest.raises(InputError):
        decompose_sigma(poly(2, (-1, 0), (2, 0)), poly(2, (0, -1), (0, 1)), -1)
    with pytest.raises(InputError):
        shifted_envelope_nonempty(seg, F(1, 2), 1, F(-1, 2))
    with pytest.raises(InputError):
        shifted_envelope_lattice_points(seg, 0, -1)
    for bound in (-1, -2):
        with pytest.raises(InputError, match="nonnegative"):
            ehrhart_series(seg, bound)
    free = classify_sum(poly(2, (-1, 0), (2, 0)), poly(2, (0, -1), (0, 1)))
    affine = classify_sum(poly(2, (0, 0), (1, 0)), poly(2, (F(1, 2), -1), (F(1, 2), 1)))
    for witness in (free, affine):
        with pytest.raises(InputError):
            check_braun_multivariate(witness, -1)
        with pytest.raises(InputError):
            decomposition_check(witness.j, witness.k, witness.intersection_point, -1)


@st.composite
def free_sums_at_origin(draw):
    """(J, K): a polygon J in the plane z = 0 of R^3 containing the origin,
    d(J) <= 60, and the segment K = [-s*u, t*u], u = (a, b, 1), whose
    lattice is complementary to that of the plane."""
    quarter = st.fractions(min_value=-2, max_value=2, max_denominator=4)
    points = [(draw(quarter), draw(quarter), 0) for _ in range(draw(st.integers(3, 5)))]
    j = RationalPolytope.from_points(3, points)
    assume(j.contains((0, 0, 0)))
    assume(dual_denominator(j) <= 60)
    u = (draw(st.integers(-2, 2)), draw(st.integers(-2, 2)), 1)
    s = draw(st.fractions(min_value=0, max_value=2, max_denominator=3))
    t = draw(st.fractions(min_value=F(1, 3), max_value=2, max_denominator=3))
    k = RationalPolytope.from_points(3, [tuple(-s * x for x in u), tuple(t * x for x in u)])
    return j, k


def layered_assembly(j: RationalPolytope, k: RationalPolytope, bound: int) -> TruncatedSeries:
    """Sum over i < d(J) of the i-th envelope layer of cone(J) times cone(K)
    shifted down by i/d(J), as indicator series."""
    d = dual_denominator(j)
    total = TruncatedSeries(4, bound, {})
    for i in range(d):
        envelope = indicator_series(4, bound, shifted_envelope_lattice_points(j, i, bound))
        shifted = indicator_series(4, bound, oracle_shifted_cone(k, i, d, bound))
        total = total + series_mul(envelope, shifted)
    return total


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(free_sums_at_origin(), st.integers(0, 4))
def test_one_pass_decompose_matches_layer_sum(pair, bound):
    j, k = pair
    heights = decompose_sigma(j, k, bound)
    assert height_map_series(heights, 4, bound) == layered_assembly(j, k, bound)
