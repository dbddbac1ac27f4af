"""The facet scan against the Caratheodory oracle on generated point sets.

Point sets live in dimensions 1-3 on flats of every dimension, skew to the
axes, with interior points, midpoints and duplicates mixed in.  Vertices,
membership, facet functionals and the polar dual are each compared with
what ``in_convex_hull`` / ``in_pos_hull`` decide by subset search.  The
scan's equations of the affine hull are compared with sympy's null space
and with the tests' saturation oracle, in dimensions 1-4.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from sympy import Matrix

import freesum.polytopes
from freesum import RationalPolytope, halfspace_rep, polar_dual
from freesum.errors import InputError
from freesum.linalg import in_pos_hull, qvec
from freesum.polytopes import (
    _AFFINE_DATA,
    _AFFINE_DATA_SIZE,
    _affine_data,
    _facet_scan,
    cone_hrep,
    lattice_points_in_scaled,
)

from conftest import in_convex_hull, lattice_basis_of_span

small = st.fractions(min_value=-2, max_value=2, max_denominator=3)


def midpoint(a, b):
    return tuple((x + y) / 2 for x, y in zip(a, b))


@st.composite
def point_sets(draw):
    """(dim, points): corners on the flat of k integer directions (lower
    dimensional when they are dependent or the corners few), plus
    midpoints (a duplicate when both ends agree) and maybe the centroid,
    optionally recentred at one of the points so the origin lies in P."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, n))
    base = tuple(draw(small) for _ in range(n))
    dirs = [tuple(draw(st.integers(-2, 2)) for _ in range(n)) for _ in range(k)]
    corners = []
    for _ in range(draw(st.integers(1, 6))):
        coeffs = [draw(small) for _ in dirs]
        corners.append(
            tuple(b + sum(c * d[j] for c, d in zip(coeffs, dirs)) for j, b in enumerate(base))
        )
    index = st.integers(0, len(corners) - 1)
    points = corners + [
        midpoint(corners[i], corners[j])
        for i, j in draw(st.lists(st.tuples(index, index), max_size=3))
    ]
    if draw(st.booleans()):
        points.append(tuple(sum(xs) / len(corners) for xs in zip(*corners)))
    centre = draw(st.none() | st.integers(0, len(points) - 1))
    if centre is not None:
        shift = points[centre]
        points = [tuple(x - s for x, s in zip(pt, shift)) for pt in points]
    return n, [tuple(Fraction(x) for x in pt) for pt in points]


def oracle_vertices(points):
    """Points of the set not in the convex hull of the others, sorted."""
    unique = sorted(set(points))
    return tuple(
        pt for i, pt in enumerate(unique) if not in_convex_hull(pt, unique[:i] + unique[i + 1 :])
    )


def probes(points):
    """Midpoints (inside) and reflections (often outside) of the points."""
    out = []
    for a in points[:4]:
        for b in points[:4]:
            out += [midpoint(a, b), tuple(2 * x - y for x, y in zip(a, b))]
    return out


kernel_settings = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@kernel_settings
@given(point_sets(), st.booleans())
def test_vertices_match_caratheodory_pruning(case, use_midpoint):
    dim, points = case
    p = RationalPolytope.from_points(dim, points)
    assert p.vertices == oracle_vertices(points)
    verts = list(p.vertices)
    extra = midpoint(verts[0], verts[1]) if use_midpoint and len(verts) > 1 else verts[-1]
    with pytest.raises(InputError):
        RationalPolytope(dim, tuple(verts + [extra]))
    for q in probes(points):
        assert p.contains(q) == in_convex_hull(q, verts)


@kernel_settings
@given(point_sets())
def test_polar_dual_matches_caratheodory_pruning(case):
    dim, points = case
    p = RationalPolytope.from_points(dim, points)
    origin = (Fraction(0),) * dim
    if not in_convex_hull(origin, p.vertices):
        return
    rep = halfspace_rep(p)
    if rep.span_basis.rank == 0:
        assert polar_dual(p).vertex_functionals == ((),)
        return
    rays = [
        r for i, r in enumerate(rep.zero_facets)
        if not in_pos_hull(r, rep.zero_facets[:i] + rep.zero_facets[i + 1 :])
    ]
    lifted_rays = [r + (0,) for r in rays]
    verts = [
        phi
        for i, phi in enumerate(rep.one_facets)
        if not in_pos_hull(
            phi + (1,),
            [other + (1,) for j, other in enumerate(rep.one_facets) if j != i] + lifted_rays,
        )
    ]
    dual = polar_dual(p)
    assert dual.vertex_functionals == tuple(verts)
    assert dual.ray_functionals == tuple(rays)
    # The functionals cut out P inside lin(P): the same verdict as the oracle
    # on points of the span.
    for q in probes(points) + [tuple(x / 2 for x in q) for q in points]:
        coords = rep.span_basis.coordinates(q)
        inside = all(
            sum(a * b for a, b in zip(phi, coords)) <= 1 for phi in rep.one_facets
        ) and all(sum(a * b for a, b in zip(psi, coords)) <= 0 for psi in rep.zero_facets)
        assert inside == in_convex_hull(q, p.vertices)


@st.composite
def flats(draw):
    """(dim, points): 1-7 points of Q^n, n in 1..4, with denominators
    dividing q <= 3, on the flat through a base point along k integer
    directions, k in 0..n (a single point when k = 0)."""
    n = draw(st.integers(1, 4))
    q = draw(st.integers(1, 3))
    coefficient = st.integers(-2 * q, 2 * q).map(lambda a: Fraction(a, q))
    base = [draw(coefficient) for _ in range(n)]
    dirs = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(draw(st.integers(0, n)))]
    points = []
    for _ in range(draw(st.integers(1, 7))):
        coeffs = [draw(coefficient) for _ in dirs]
        offsets = [sum(c * d[j] for c, d in zip(coeffs, dirs)) for j in range(n)]
        points.append(tuple(map(operator.add, base, offsets)))
    return n, points


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(flats(), st.lists(small, min_size=4, max_size=4), small.filter(lambda f: f > 0))
def test_span_rows_are_the_affine_hulls_integer_equations(case, shift, factor):
    """On P, a translate, a dilate and a recentring of P at its vertex
    centroid, ``cone_hrep(P).span_rows`` are n - d primitive integer rows
    that vanish on every (v, 1) and span sympy's null space of the
    homogenized vertices; with the origin in P, ``halfspace_rep`` has the
    saturation oracle's basis of lin(P)."""
    dim, points = case
    p = RationalPolytope.from_points(dim, points)
    centroid = [-sum(xs) / len(p.vertices) for xs in zip(*p.vertices)]
    for q in (p, p.translate(shift[:dim]), p.dilate(factor), p.translate(centroid).dilate(factor)):
        rows = cone_hrep(q).span_rows
        gens = [v + (1,) for v in q.vertices]
        d = Matrix([[a - b for a, b in zip(v, q.vertices[0])] for v in q.vertices]).rank()
        assert len(rows) == dim - d
        for row in rows:
            assert all(type(a) is int for a in row) and math.gcd(*row) == 1
            assert all(sum(a * b for a, b in zip(row, g)) == 0 for g in gens)
        nullspace = [list(v) for v in Matrix(gens).nullspace()]
        assert len(nullspace) == len(rows)
        if rows:
            assert Matrix(list(rows)).rank() == Matrix(list(rows) + nullspace).rank() == len(rows)
        if in_convex_hull((Fraction(0),) * dim, q.vertices):
            assert halfspace_rep(q).span_basis == lattice_basis_of_span(q.vertices, dim)


@kernel_settings
@given(
    point_sets(),
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    small.filter(lambda f: f > 0),
    st.integers(0, 3),
)
def test_translate_and_dilate_move_the_lattice_points(case, shift, factor, t):
    """The integer points of t*(P + s), s integral, are those of t*P shifted
    by t*s, and those of t*(f*P) are those of (f*t)*P."""
    dim, points = case
    p = RationalPolytope.from_points(dim, points)
    shift = shift[:dim]
    moved = [tuple(a + t * b for a, b in zip(y, shift)) for y in lattice_points_in_scaled(p, t)]
    assert lattice_points_in_scaled(p.translate(shift), t) == tuple(moved)
    assert lattice_points_in_scaled(p.dilate(factor), t) == lattice_points_in_scaled(p, factor * t)


@kernel_settings
@given(point_sets())
def test_from_points_scans_once(case):
    """``from_points`` stores the data of its pruned vertex tuple from its
    one scan; that data equals a fresh scan of the vertices."""
    dim, points = case
    _AFFINE_DATA.clear()
    scans = []
    real = freesum.polytopes._facet_scan

    def counted(pts):
        scans.append(pts)
        return real(pts)

    freesum.polytopes._facet_scan = counted
    try:
        p = RationalPolytope.from_points(dim, points)
    finally:
        freesum.polytopes._facet_scan = real
    assert len(scans) == 1
    assert _affine_data(p.vertices) == _facet_scan(p.vertices)


def test_affine_data_cache_is_bounded():
    """Past its bound the cache drops its oldest entry, and a scan after the
    eviction gives the data it held."""
    _AFFINE_DATA.clear()
    segments = [((Fraction(k),), (Fraction(k + 1, 2),)) for k in range(_AFFINE_DATA_SIZE + 10)]
    first = _affine_data(segments[0])
    for pts in segments[1:]:
        _affine_data(pts)
    assert len(_AFFINE_DATA) == _AFFINE_DATA_SIZE
    assert segments[0] not in _AFFINE_DATA
    assert segments[-1] in _AFFINE_DATA
    assert _facet_scan(segments[0]) == first
    assert _affine_data(segments[0]) == first
    assert len(_AFFINE_DATA) == _AFFINE_DATA_SIZE


def test_cyclic_polytope_facets_follow_gale_evenness():
    """The cyclic 3-polytope on (k, k^2, k^3), k = -12..11: all 24 points are
    vertices, and its 44 facets are the triples that Gale's evenness
    condition gives for odd dimension, {0, j, j+1} and {i, i+1, 23}
    (Ziegler, Lectures on Polytopes, 0.7)."""
    points = [(k, k * k, k**3) for k in range(-12, 12)]
    p = RationalPolytope.from_points(3, points)
    assert p.vertices == tuple(qvec(pt) for pt in points)
    gale = {frozenset((0, j, j + 1)) for j in range(1, 23)}
    gale |= {frozenset((i, i + 1, 23)) for i in range(22)}
    assert len(gale) == 44
    tight = set()
    for row in cone_hrep(p).facet_rows:
        values = [sum(a * b for a, b in zip(row, pt + (1,))) for pt in points]
        assert all(v <= 0 for v in values)
        tight.add(frozenset(i for i, v in enumerate(values) if v == 0))
    assert tight == gale
    # The origin is vertex 12 (k = 0): the facets through it give the dual's
    # rays, the others its vertices.
    dual = polar_dual(p)
    through_origin = sum(12 in facet for facet in gale)
    assert len(dual.ray_functionals) == through_origin == 4
    assert len(dual.vertex_functionals) == 44 - through_origin
