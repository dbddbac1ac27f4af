"""The facet scan against the Caratheodory oracle on generated point sets.

Point sets live in dimensions 1-3 on flats of every dimension, skew to the
axes, with interior points, midpoints and duplicates mixed in.  Vertices,
membership, facet functionals and the polar dual are each compared with
what ``in_convex_hull`` / ``in_pos_hull`` decide by subset search.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from freesum import RationalPolytope, halfspace_rep, polar_dual
from freesum.errors import InputError
from freesum.linalg import in_convex_hull, in_pos_hull
from freesum.polytopes import _affine_data, _facet_scan

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


@kernel_settings
@given(point_sets(), st.lists(small, min_size=3, max_size=3), small.filter(lambda f: f > 0))
def test_translate_and_dilate_move_the_scan(case, shift, factor):
    """The facet data ``translate`` and ``dilate`` derive from their source
    equal a fresh scan of the moved vertices."""
    dim, points = case
    p = RationalPolytope.from_points(dim, points)
    shift = shift[:dim]
    for moved in (p.translate(shift), p.dilate(factor), p.dilate(factor).translate(shift)):
        assert _affine_data(moved.vertices) == _facet_scan(moved.vertices)
