"""Polytope representations, duals, classification, and point enumeration."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from freesum import (
    RationalPolytope,
    denominator,
    dual_denominator,
    gorenstein_data,
    halfspace_rep,
    interior_lattice_points_in_dilate,
    is_lattice_polyhedron,
    is_reflexive,
    lattice_points_in_dilate,
    polar_dual,
)
from freesum.errors import InputError, PreconditionError
from freesum.linalg import qvec

from conftest import F, diamond, in_convex_hull, min_dilation, oracle_count_dilate, poly, segment


def test_vertex_irredundancy_enforced():
    with pytest.raises(InputError):
        RationalPolytope(1, ((F(0),), (F(2),), (F(1),)))


def test_from_points_prunes():
    p = RationalPolytope.from_points(1, [(0,), (2,), (1,)])
    assert p.vertices == ((F(0),), (F(2),))


def test_denominator_examples():
    assert denominator(poly(2, (0, 0), (1, 0), (0, 1), (1, 1))) == 1
    assert denominator(segment(F(1, 4), F(3, 4))) == 4
    assert denominator(poly(2, (F(1, 2), 0), (0, F(1, 3)))) == 6


def test_halfspace_rep_interval():
    rep = halfspace_rep(segment(-2, 3))
    assert rep.span_basis.vectors == ((1,),)
    assert rep.one_facets == ((F(-1, 2),), (F(1, 3),))
    assert rep.zero_facets == ()


def test_halfspace_rep_origin_on_boundary():
    rep = halfspace_rep(segment(0, 1))
    assert rep.one_facets == ((F(1),),)
    assert rep.zero_facets == ((-1,),)


def test_halfspace_rep_diamond():
    rep = halfspace_rep(diamond())
    assert sorted(rep.one_facets) == [
        (F(-1), F(-1)),
        (F(-1), F(1)),
        (F(1), F(-1)),
        (F(1), F(1)),
    ]
    assert rep.zero_facets == ()


def test_halfspace_rep_requires_origin():
    with pytest.raises(PreconditionError):
        halfspace_rep(segment(F(1, 4), F(3, 4)))


def test_halfspace_membership_roundtrip():
    rng = random.Random(5)
    shapes = [
        diamond(),
        poly(2, (0, 0), (1, 0), (0, 1)),
        poly(2, (-1, 0), (1, 0), (3, 1), (-3, 1)),
        poly(2, (0, 0), (F(2, 3), 0), (0, F(2, 3))),
    ]
    for p in shapes:
        rep = halfspace_rep(p)
        for v in p.vertices:
            coords = rep.span_basis.coordinates(v)
            assert all(
                sum(a * b for a, b in zip(phi, coords)) <= 1 for phi in rep.one_facets
            )
            assert all(
                sum(a * b for a, b in zip(psi, coords)) <= 0 for psi in rep.zero_facets
            )
        # Each facet is tight on at least dim(P) affinely independent vertices.
        d = rep.span_basis.rank
        for phi in rep.one_facets:
            tight = [
                v
                for v in p.vertices
                if sum(a * b for a, b in zip(phi, rep.span_basis.coordinates(v))) == 1
            ]
            assert len(tight) >= d
        # Random rational points classified identically by both routes.
        for _ in range(30):
            pt = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(2))
            via_hull = in_convex_hull(pt, p.vertices)
            assert p.contains(pt) == via_hull


def test_polar_dual_interval():
    dual = polar_dual(segment(-2, 3))
    assert dual.vertex_functionals == ((F(-1, 2),), (F(1, 3),))
    assert dual.ray_functionals == ()


def test_polar_dual_unbounded():
    dual = polar_dual(segment(0, 1))
    assert dual.vertex_functionals == ((F(1),),)
    assert dual.ray_functionals == ((-1,),)


def test_polar_dual_top_polygon_is_lattice():
    top = poly(2, (-1, 0), (1, 0), (3, 1), (-3, 1))
    dual = polar_dual(top)
    assert is_lattice_polyhedron(dual)
    assert dual.ray_functionals != ()


def test_polar_dual_involution_on_reflexives():
    for p in [diamond(), segment(-1, 1), poly(2, (1, 0), (0, 1), (-1, -1))]:
        assert is_reflexive(p)
        dual = polar_dual(p)
        assert dual.ray_functionals == ()
        back = polar_dual(
            RationalPolytope.from_points(p.dim, [qvec(v) for v in dual.vertex_functionals])
        )
        assert set(back.vertex_functionals) == set(p.vertices)


def test_is_lattice_polyhedron_examples():
    assert is_lattice_polyhedron(polar_dual(diamond())) is True
    assert is_lattice_polyhedron(polar_dual(segment(-2, 3))) is False
    assert is_lattice_polyhedron(polar_dual(segment(0, F(2, 3)))) is False


def test_dual_denominator_examples():
    assert dual_denominator(segment(-2, 3)) == 6
    assert dual_denominator(diamond()) == 1
    assert dual_denominator(poly(2, (0, 0), (1, 0), (0, 1))) == 1
    assert dual_denominator(segment(0, F(2, 3))) == 2
    assert dual_denominator(segment(0, F(3, 2))) == 3


def test_is_reflexive_examples():
    assert is_reflexive(diamond()) is True
    assert is_reflexive(segment(-1, 1)) is True
    assert is_reflexive(segment(F(1, 4), F(3, 4))) is False
    assert is_reflexive(segment(0, 1)) is False
    assert is_reflexive(poly(1, (0,))) is True


def test_gorenstein_segment():
    data = gorenstein_data(poly(2, (0, 0), (1, 0)))
    assert data is not None
    assert data.index == 2
    assert data.interior_point == (1, 0)
    assert data.center == (F(1, 2), F(0))


def test_gorenstein_reflexive_is_index_one():
    data = gorenstein_data(diamond())
    assert data.index == 1
    assert data.interior_point == (0, 0)


def test_gorenstein_triangle():
    data = gorenstein_data(poly(2, (0, 0), (1, 0), (0, 1)))
    assert data.index == 3
    assert data.interior_point == (1, 1)
    shifted = poly(2, (-1, -1), (2, -1), (-1, 2))
    assert is_reflexive(shifted)


def test_gorenstein_interior_uniqueness():
    data = gorenstein_data(poly(2, (0, 0), (1, 0), (0, 1)))
    assert interior_lattice_points_in_dilate(poly(2, (0, 0), (1, 0), (0, 1)), data.index) == [
        data.interior_point
    ]


def test_not_gorenstein():
    # First interior dilate of [0,1]x[0,3] has three interior points.
    box = poly(2, (0, 0), (1, 0), (0, 3), (1, 3))
    assert gorenstein_data(box) is None


def test_gorenstein_requires_lattice_polytope():
    with pytest.raises(PreconditionError):
        gorenstein_data(segment(0, F(2, 3)))


def test_lattice_points_diamond():
    pts = lattice_points_in_dilate(diamond(), 1)
    assert pts == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]


def test_lattice_points_quarter_segment():
    quarter = segment(F(1, 4), F(3, 4))
    assert lattice_points_in_dilate(quarter, 1) == []
    assert lattice_points_in_dilate(quarter, 2) == [(1,)]


def test_lattice_points_zero_dilate():
    assert lattice_points_in_dilate(diamond(), 0) == [(0, 0)]
    assert lattice_points_in_dilate(segment(F(1, 4), F(3, 4)), 0) == [(0,)]


def test_counts_match_bruteforce_oracle():
    shapes = [
        diamond(),
        poly(2, (0, 0), (F(2, 3), 0), (0, F(2, 3))),
        poly(2, (-1, 0), (1, 0), (3, 1), (-3, 1)),
        segment(F(1, 4), F(3, 4)),
        poly(2, (F(-1, 2), F(-1, 3)), (F(3, 2), 0), (0, F(5, 4))),
    ]
    for p in shapes:
        for k in range(6):
            assert len(lattice_points_in_dilate(p, k)) == oracle_count_dilate(p, k)


def test_min_dilation_examples():
    assert min_dilation(segment(-2, 3), (2,)) == F(2, 3)
    assert min_dilation(segment(-2, 3), (0,)) == 0
    assert min_dilation(segment(0, 1), (-1,)) is None
    assert min_dilation(segment(-2, 3), (-2,)) == 1


def test_min_dilation_off_span():
    p = poly(2, (0, 0), (1, 0))
    assert min_dilation(p, (0, 1)) is None
    assert min_dilation(p, (3, 0)) == 3
