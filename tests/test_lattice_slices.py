"""Lattice points of rational dilates, enumerated in lattice coordinates,
against a box scan with convex-combination membership.

Polytopes live in dimensions 1-3 on flats of every dimension, skew to the
axes, with rational vertices; affine hulls off the origin miss the lattice
at some factors.  Factors have denominators 1-7 and include 0.  The factor
is capped so that the oracle's box stays small.

The tagged walk of H*P, for P containing the origin in dimensions 1-4, is
checked the same way, each tag against ``_least_dilation``, and the series
built from it against the per-height oracle; the counting walk's tags are
the tagged walk's.  The walk's prefix bounds, the facet rows of each
coordinate projection of the vertices, are checked to be facets of that
projection and to cut it out, against the convex hull of the projected
vertices.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from freesum import RationalPolytope, cone_over, sigma_cone
from freesum.linalg import rational_rank
from freesum.polytopes import (
    _slice_frame,
    cone_hrep,
    lattice_points_in_scaled,
    lattice_tags,
    tagged_lattice_points,
)

from conftest import (
    F,
    _least_dilation,
    oracle_lattice_points,
    poly,
    pos_hull_membership,
    sigma_cone_by_heights,
)

BOX_CAP = 400

small = st.fractions(min_value=-1, max_value=1, max_denominator=3)
spread = st.fractions(min_value=-2, max_value=2, max_denominator=3)


def box_size(p: RationalPolytope, factor) -> int:
    size = 1
    for j in range(p.dim):
        coords = [factor * v[j] for v in p.vertices]
        size *= max(0, math.floor(max(coords)) - math.ceil(min(coords)) + 1)
    return size


@st.composite
def slices(draw):
    """(P, factor): corners on the flat through a rational base point along
    k integer directions, and a factor q/den with den in 1-7 whose box holds
    at most BOX_CAP candidates."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, n))
    base = tuple(draw(small) for _ in range(n))
    dirs = [tuple(draw(st.integers(-2, 2)) for _ in range(n)) for _ in range(k)]
    corners = [base]
    for _ in range(draw(st.integers(1, 5))):
        coeffs = [draw(spread) for _ in dirs]
        corners.append(
            tuple(b + sum(c * d[j] for c, d in zip(coeffs, dirs)) for j, b in enumerate(base))
        )
    p = RationalPolytope.from_points(n, corners)
    den = draw(st.integers(1, 7))
    top = 0
    while top < 4 * den and box_size(p, Fraction(top + 1, den)) <= BOX_CAP:
        top += 1
    return p, Fraction(draw(st.integers(0, top)), den)


def cross(n: int) -> RationalPolytope:
    return poly(n, *[tuple(s * (i == j) for j in range(n)) for i in range(n) for s in (1, -1)])


skew_segment = poly(3, (0, 0, 0), (5, 5, 5))
simplex_plane = poly(3, (1, 0, 0), (0, 1, 0), (0, 0, 1))
half_plane = poly(3, (F(1, 2), 0, 0), (0, F(1, 2), 0), (0, 0, F(1, 2)))
off_line = poly(2, (F(1, 3), 0), (F(1, 3), 2))


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(slices())
@example((skew_segment, F(0)))
@example((skew_segment, F(7, 5)))
@example((skew_segment, F(2, 7)))
@example((simplex_plane, F(1, 2)))
@example((simplex_plane, F(2)))
@example((simplex_plane, F(7, 3)))
@example((half_plane, F(4)))
@example((half_plane, F(5)))
@example((half_plane, F(4, 3)))
@example((off_line, F(3)))
@example((off_line, F(6, 5)))
def test_slices_match_box_scan(case):
    p, factor = case
    assert lattice_points_in_scaled(p, factor) == oracle_lattice_points(p, factor)


def test_skew_segment_at_sixteen():
    assert lattice_points_in_scaled(skew_segment, 16) == tuple((i, i, i) for i in range(81))


@st.composite
def tagged_cases(draw):
    """(P, H): P spanned by points on a flat through the origin along k
    integer directions in R^n, n = 1-4 (lower dimensional when k < n or the
    directions are dependent), with the origin among the points or inside
    the segment from the first point v to -c*v; H in 0-6, capped so that the
    oracle's box holds at most 4 * BOX_CAP candidates."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    reach = 2 if n < 4 else 1
    dirs = [tuple(draw(st.integers(-reach, reach)) for _ in range(n)) for _ in range(k)]
    coeffs = st.lists(small, min_size=k, max_size=k)
    points = [
        tuple(sum(c * d[j] for c, d in zip(coeff, dirs)) for j in range(n))
        for coeff in draw(st.lists(coeffs, min_size=k, max_size=k + 2))
    ]
    if draw(st.booleans()):
        points.append((F(0),) * n)
    else:
        c = draw(st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3))
        points.append(tuple(-c * x for x in points[0]))
    p = RationalPolytope.from_points(n, points)
    top = 0
    while top < 6 and box_size(p, top + 1) <= 4 * BOX_CAP:
        top += 1
    return p, draw(st.integers(0, top))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tagged_cases())
@example((poly(3, (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)), 3))
@example((poly(3, (0, 0, 0), (F(3, 2), 0, 0), (0, F(4, 3), 0), (0, 0, 1)), 4))
@example((poly(4, (0, 0, 0, 0), (2, 1, 0, 0), (0, 1, 1, 0), (-1, 0, 1, 1), (1, -1, 0, 1)), 2))
@example((poly(3, (-1, 1, -1), (2, -2, 2)), 3))
@example((poly(2, (0, 0)), 4))
@example((cross(5), 2))
def test_tags_are_least_dilations(case):
    """Every point of the tagged walk comes with den * lambda(y), and the
    points are the box scan's; the series read off the tags is the one
    enumerated height by height."""
    p, height = case
    den, tagged = tagged_lattice_points(p, height)
    assert tuple(y for y, _ in tagged) == oracle_lattice_points(p, height)
    hrep = cone_hrep(p)
    assert [F(m, den) for _, m in tagged] == [_least_dilation(hrep, y) for y, _ in tagged]
    assert sigma_cone(cone_over(p), height) == sigma_cone_by_heights(cone_over(p), height)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tagged_cases())
@example((poly(3, (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)), 3))
@example((poly(4, (0, 0, 0, 0), (2, 1, 0, 0), (0, 1, 1, 0), (-1, 0, 1, 1), (1, -1, 0, 1)), 2))
@example((poly(3, (-1, 1, -1), (2, -2, 2)), 3))
@example((poly(2, (0, 0)), 4))
@example((poly(2, (1, 0), (-1, 0)), 0))
def test_counting_walk_tags_match_the_listing_walk(case):
    """The counting walk gives the listing walk's den and its tags as a
    multiset, flats off the coordinate axes included."""
    p, height = case
    den, tagged = tagged_lattice_points(p, height)
    count_den, tags = lattice_tags(p, height)
    assert count_den == den
    assert sorted(tags) == sorted(m for _, m in tagged)


@st.composite
def solids(draw):
    """(P, probes): a full-dimensional polytope in R^3 or R^4, spanned by
    n + 1 to n + 3 points with coordinates in [-2, 2] of denominator 1-3,
    and rational probe points around it: each vertex, a midpoint of two
    vertices, and points of the bounding box."""
    n = draw(st.integers(3, 4))
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    points = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=n + 3, unique=True))
    p = RationalPolytope.from_points(n, points)
    assume(p.affine_dim == n)
    probes = list(p.vertices)
    probes += [tuple((a + b) / 2 for a, b in zip(u, v)) for u, v in zip(p.vertices, p.vertices[1:])]
    box = st.fractions(min_value=-2, max_value=2, max_denominator=4)
    probes += draw(st.lists(st.tuples(*[box] * n), min_size=10, max_size=20))
    return p, probes


cyclic5 = poly(5, *[tuple(t**e for e in range(1, 6)) for t in range(8)])


def around(p: RationalPolytope) -> list:
    """Probes of P: its vertices, the midpoints of every two of them, and
    each vertex pushed away from the centroid, 2v - c, which is outside P."""
    vs = p.vertices
    c = tuple(sum(x) / len(vs) for x in zip(*vs))
    probes = list(vs) + [tuple((a + b) / 2 for a, b in zip(u, v)) for i, u in enumerate(vs) for v in vs[i + 1 :]]
    return probes + [tuple(2 * a - b for a, b in zip(v, c)) for v in vs]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(solids())
@example((poly(3, (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)),
          [(F(1, 2), F(1, 2), 0), (F(1, 2), F(2, 3), 0), (F(-1, 3), F(-2, 3), F(1, 2))]))
@example((cross(4), around(cross(4)) + [(F(1, 3), F(1, 3), F(1, 3), 0), (F(1, 2), F(1, 3), F(1, 4), 0)]))
@example((cyclic5, around(cyclic5)))
def test_prefix_bounds_cut_out_the_projections(case):
    """For P full-dimensional z = x.  Each projection row of level j is a
    facet of the projection of P on z_0..z_j: its last nonzero coefficient
    is on z_j, every projected vertex satisfies it, and it is tight at j + 1
    affinely independent ones.  A prefix (z_0, ..., z_j) passes the rows of
    levels 0..j, each at its exact right-hand side, iff it is the
    projection of a point of P."""
    p, probes = case
    frame = _slice_frame(p)

    def last(c):
        return max((i for i, a in enumerate(c) if a), default=-1)

    def value(c, c0, z):
        return sum(a * x for a, x in zip(c, z)) + c0

    for j in range(p.dim - 1):
        projected = sorted({v[: j + 1] for v in p.vertices})
        rows = [(c[: j + 1], c0) for c, c0 in frame.projections if last(c) <= j]
        level = [(c, c0) for c, c0 in rows if last(c) == j]
        assert level, j
        for c, c0 in level:
            assert max(value(c, c0, v) for v in projected) == 0, (j, c, c0)
            tight = [v for v in projected if value(c, c0, v) == 0]
            assert rational_rank([[a - b for a, b in zip(v, tight[0])] for v in tight]) == j, (j, c, c0)
        member = pos_hull_membership([v + (1,) for v in projected])
        for probe in probes:
            prefix = probe[: j + 1]
            passes = all(value(c, c0, prefix) <= 0 for c, c0 in rows)
            assert passes == member(prefix + (1,)), (j, prefix)
