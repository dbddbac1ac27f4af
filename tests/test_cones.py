"""Cones, directional projections, envelopes, shifts, and the refined lattice."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from freesum import (
    cone_over,
    embed_at_height_one,
    lambda_p,
    lattice_points_in_dilate,
    llenv_points,
    shifted_envelope_lattice_points,
    shifted_envelope_nonempty,
)
from freesum.errors import InputError, PreconditionError
from freesum.linalg import in_pos_hull, qvec

from conftest import (
    F,
    diamond,
    epsilon_project,
    lambda_p_basis_vectors,
    poly,
    rind_contains,
    segment,
)


def generators(p):
    return tuple(embed_at_height_one(v) for v in p.vertices)


def test_cone_over_point():
    p = poly(2, (0, 0))
    cone = cone_over(p)
    assert generators(p) == ((F(0), F(0), F(1)),)
    assert cone.contains((0, 0, 5))
    assert not cone.contains((0, 0, -1))
    assert not cone.contains((1, 0, 1))


def test_cone_over_unit_segment():
    p = poly(2, (0, 0), (1, 0))
    cone = cone_over(p)
    assert set(generators(p)) == {(F(0), F(0), F(1)), (F(1), F(0), F(1))}
    assert cone.contains((F(1, 2), 0, 1))
    assert not cone.contains((2, 0, 1))


def test_cone_generator_halfspace_agreement():
    rng = random.Random(23)
    shapes = [diamond(), poly(2, (0, 0), (F(2, 3), 0), (0, F(3, 2))), segment(F(1, 4), F(3, 4))]
    for p in shapes:
        cone = cone_over(p)
        gens = generators(p)
        for _ in range(40):
            pt = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(p.dim)) + (
                Fraction(rng.randint(0, 4)),
            )
            assert cone.contains(pt) == in_pos_hull(pt, gens)


def test_epsilon_vertical():
    cone = cone_over(segment(-2, 3))
    assert epsilon_project(cone, (2, 4), (F(0),)) == (F(2), F(2, 3))
    assert epsilon_project(cone, (0, 0), (F(0),)) == (F(0), F(0))


def test_epsilon_directional_quarter_segment():
    cone = cone_over(segment(F(1, 4), F(3, 4)))
    assert epsilon_project(cone, (1, 3), (F(1, 2),)) == (F(1, 2), F(2))


def test_epsilon_rejects_outside_point():
    cone = cone_over(segment(0, 1))
    with pytest.raises(PreconditionError):
        epsilon_project(cone, (-1, 1), (F(0),))


def test_epsilon_rejects_direction_outside():
    cone = cone_over(segment(0, 1))
    with pytest.raises(PreconditionError):
        epsilon_project(cone, (0, 1), (F(2),))


def test_epsilon_idempotent_samples():
    cone = cone_over(diamond())
    for pt in [(1, 1, 2), (0, 0, 3), (F(1, 2), F(1, 3), 1), (-2, 0, 2)]:
        first = epsilon_project(cone, pt, (F(0), F(0)))
        assert epsilon_project(cone, first, (F(0), F(0))) == first


def test_llenv_quarter_segment_contains_paper_witness():
    cone = cone_over(segment(F(1, 4), F(3, 4)))
    pts = llenv_points(cone, (F(1, 2),), 3)
    flagged = dict(pts)
    assert flagged[(F(1, 2), F(2))] is False
    assert flagged[(F(0), F(0))] is True


def test_llenv_reflexive_all_lattice():
    cone = cone_over(diamond())
    pts = llenv_points(cone, (F(0), F(0)), 2)
    assert pts and all(flag for _, flag in pts)


def test_llenv_height_zero():
    cone = cone_over(diamond())
    assert llenv_points(cone, (F(0), F(0)), 0) == [((F(0), F(0), F(0)), True)]


def check_llenv_against_projection(p, direction, height_bound):
    """``llenv_points`` lists exactly the projections ``epsilon_project``
    gives of the cone's lattice points up to the bound, with their flags."""
    cone = cone_over(p)
    expected = {}
    for t in range(height_bound + 1):
        for y in lattice_points_in_dilate(p, t):
            proj = epsilon_project(cone, qvec(y) + (F(t),), direction)
            expected[proj] = all(c.denominator == 1 for c in proj)
    assert dict(llenv_points(cone, direction, height_bound)) == expected


def test_llenv_matches_pointwise_projection():
    check_llenv_against_projection(segment(0, F(3, 2)), (F(0),), 4)


def test_llenv_matches_projection_capped_by_several_facets():
    """A quadrilateral with the direction point inside: each of its four
    facets caps the drop of some lattice points, so taking any cap other
    than the least one moves those projections."""
    quad = poly(2, (-1, -1), (2, -1), (1, 2), (-1, 1))
    direction = (F(1, 3), F(1, 4))
    cone = cone_over(quad)
    ap = qvec(direction) + (F(1),)
    capping = [h for h in cone.hrep.facet_rows if sum(a * b for a, b in zip(h, ap)) < 0]
    assert len(capping) == 4
    check_llenv_against_projection(quad, direction, 3)


def test_shifted_envelopes_wide_interval():
    seg = segment(-2, 3)
    sizes = {i: len(shifted_envelope_lattice_points(seg, i, 10)) for i in range(6)}
    assert sizes[1] == 0 and sizes[5] == 0
    assert all(sizes[i] > 0 for i in (0, 2, 3, 4))


def test_shifted_envelope_reflexive_single_layer():
    pts = shifted_envelope_lattice_points(segment(-1, 1), 0, 3)
    assert set(pts) == {(0, 0), (-1, 1), (1, 1), (-2, 2), (2, 2), (-3, 3), (3, 3)}


def test_shifted_envelope_rejects_bad_index():
    with pytest.raises(InputError):
        shifted_envelope_lattice_points(segment(-1, 1), 1, 3)


def test_rind_examples():
    seg = segment(-2, 3)
    assert rind_contains(seg, (0, 0))
    assert rind_contains(seg, (3, 1))
    assert not rind_contains(seg, (0, 2))
    assert not rind_contains(seg, (7, 1))


def test_rind_partition_matches_strata():
    # Every rind lattice point lies on exactly one shifted envelope layer.
    seg = segment(-2, 3)
    cone = cone_over(seg)
    strata = [set(shifted_envelope_lattice_points(seg, i, 8)) for i in range(6)]
    rind = set()
    for t in range(9):
        for pt in cone.lattice_points_at_height(t):
            if rind_contains(seg, pt):
                rind.add(pt)
    assert set().union(*strata) == rind
    for a, b in itertools.combinations(strata, 2):
        assert not (a & b)


def test_strata_shift_bijection_onto_projected_envelope():
    # Shifting layer i down by i/d reproduces the projected lattice envelope,
    # with integral projections exactly from layer zero.
    from freesum import dual_denominator

    shapes = [segment(-2, 3), segment(0, F(2, 3)), diamond(), segment(0, F(3, 2))]
    bound = 8
    for p in shapes:
        cone = cone_over(p)
        d = dual_denominator(p)
        projected = dict(llenv_points(cone, (F(0),) * p.dim, bound))
        mapped = {}
        for i in range(d):
            shift = F(i, d)
            for pt in shifted_envelope_lattice_points(p, i, bound):
                key = qvec(pt[:-1]) + (pt[-1] - shift,)
                assert key not in mapped
                mapped[key] = i == 0
        assert mapped == projected


def test_lattice_dual_iff_envelope_projections_integral():
    # Dual integrality is equivalent to the projected envelope being lattice.
    from freesum import is_lattice_polyhedron, polar_dual

    shapes = [
        diamond(),
        segment(-2, 3),
        segment(0, F(2, 3)),
        segment(0, F(1, 2)),
        segment(F(-1, 3), 1),
        poly(2, (0, 0), (1, 0), (0, 1)),
        poly(2, (-1, 0), (1, 0), (3, 1), (-3, 1)),
        segment(0, F(3, 2)),
    ]
    for p in shapes:
        lattice_dual = is_lattice_polyhedron(polar_dual(p))
        for bound in (4, 8):
            flags = llenv_points(cone_over(p), (F(0),) * p.dim, bound)
            assert lattice_dual == all(flag for _, flag in flags)


def test_lambda_p_half():
    lam = lambda_p((F(1, 2), F(0)))
    assert lam.r == 2
    assert lam.contains((F(1, 2), F(0)))
    assert lam.contains((F(1, 2), F(7)))
    assert not lam.contains((F(1, 4), F(0)))
    assert not lam.contains((F(0), F(1, 2)))


def test_lambda_p_integral_point():
    lam = lambda_p((F(2), F(-1)))
    assert lam.r == 1
    assert lambda_p_basis_vectors(lam) == ((F(1), F(0)), (F(0), F(1)))


def in_cosets(p, v) -> bool:
    """Membership in the union of the shifted copies Z^n - k*p, k < den(p)."""
    r = math.lcm(*(x.denominator for x in p))
    return any(all((x + k * pi).denominator == 1 for x, pi in zip(v, p)) for k in range(r))


def test_lambda_p_third_cosets():
    lam = lambda_p((F(1, 3), F(0)))
    assert lam.contains((F(1, 3), F(0)))
    assert not lam.contains((F(1, 6), F(0)))
    # Membership agrees with the union-of-cosets characterization on a grid.
    for a in range(-6, 7):
        for b in range(-6, 7):
            v = (F(a, 3), F(b, 3))
            assert lam.contains(v) == in_cosets(lam.point, v)


def test_shift_search_zero_shift():
    result = shifted_envelope_nonempty(segment(-2, 3), F(0), 1)
    assert result.nonempty and result.witness is not None
    assert result.witness[-1].denominator == 1


def test_shift_search_third():
    result = shifted_envelope_nonempty(segment(-2, 3), F(1, 3), 1)
    assert result.nonempty and result.exact
    x, h = result.witness
    assert x.denominator == 1 and h.denominator == 1


def test_shift_search_sixth_empty():
    # Envelope layers 1 and 5 of [-2,3] carry no lattice points.
    for sign in (1, -1):
        result = shifted_envelope_nonempty(segment(-2, 3), F(1, 6), sign)
        assert not result.nonempty
        assert result.exact


def test_shift_search_fifth_empty():
    for sign in (1, -1):
        result = shifted_envelope_nonempty(segment(-2, 3), F(1, 5), sign, height_bound=30)
        assert not result.nonempty
        assert result.exact


def test_shift_search_symmetry():
    # Nonemptiness is symmetric in the sign of the shift.
    rng = random.Random(31)
    shapes = [segment(-2, 3), segment(0, F(2, 3)), diamond(), poly(2, (0, 0), (1, 0), (0, 1))]
    for p in shapes:
        for _ in range(8):
            rho = Fraction(rng.randint(0, 9), rng.randint(1, 6))
            plus = shifted_envelope_nonempty(p, rho, 1)
            minus = shifted_envelope_nonempty(p, rho, -1)
            if plus.exact and minus.exact:
                assert plus.nonempty == minus.nonempty
