"""Cones, directional projections, envelopes, shifts, and the refined lattice."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from freesum import (
    cone_over,
    lambda_p,
    lattice_points_in_dilate,
    llenv_points,
    shifted_envelope_lattice_points,
    shifted_envelope_nonempty,
)
from freesum.cones import _class_table
from freesum.errors import InputError, PreconditionError
from freesum.linalg import in_pos_hull, qvec
from freesum.polytopes import cone_hrep

from conftest import (
    F,
    _least_dilation,
    cone_slice,
    diamond,
    epsilon_project,
    lambda_p_basis_vectors,
    llenv_points_by_fractions,
    oracle_lattice_points,
    poly,
    rind_contains,
    segment,
)


def generators(p):
    return tuple(v + (F(1),) for v in p.vertices)


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


@st.composite
def envelope_cases(draw):
    """(J, p, H): J spanned by 1-4 points of R^n, n = 1-3, with coordinates
    in [-2, 2] of denominator 1 or 2, so the origin may or may not lie in J;
    p = (w_1 v_1 + ... ) / q, a weighted average of the points with integer
    weights summing to q = 2-4, so den(p) divides q; H in 0-4."""
    n = draw(st.integers(1, 3))
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    points = draw(
        st.lists(st.tuples(*[coord] * n), min_size=1, max_size=4, unique=True)
    )
    q = draw(st.integers(2, 4))
    weights = [0] * len(points)
    for _ in range(q):
        weights[draw(st.integers(0, len(points) - 1))] += 1
    p = tuple(sum(w * v[j] for w, v in zip(weights, points)) / q for j in range(n))
    return poly(n, *points), p, draw(st.integers(0, 4))


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(envelope_cases())
@example((segment(F(1, 4), F(3, 4)), (F(1, 2),), 3))
@example((poly(2, (-1, -1), (2, -1), (1, 2), (-1, 1)), (F(1, 3), F(1, 4)), 3))
@example((poly(2, (1, 0), (2, 1), (1, 2)), (F(4, 3), F(1)), 4))
@example((poly(3, (0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)), (F(1, 2), F(1, 2), F(1, 4)), 3))
def test_llenv_matches_fraction_form(case):
    """The integer projections, read off J's class table at p, equal the
    Fraction form, which walks the cone height by height."""
    j, p, bound = case
    cone = cone_over(j)
    assert llenv_points(cone, p, bound) == llenv_points_by_fractions(cone, p, bound)


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
        for pt in cone_slice(cone, t):
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


def in_lambda_p(lam, v) -> bool:
    """Membership in Lambda^p through residues: r*v is integral and its
    residue mod r is that of some c*r*p."""
    w = tuple(lam.r * x for x in qvec(v))
    if any(x.denominator != 1 for x in w):
        return False
    rp = tuple(int(lam.r * x) for x in lam.point)
    residues = {tuple(c * x % lam.r for x in rp) for c in range(lam.r)}
    return tuple(int(x) % lam.r for x in w) in residues


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(F, st.integers(-40, 40), st.integers(1, 12)), min_size=1, max_size=4))
@example([F(1, 12), F(5, 6), F(-7, 4), F(2, 3)])
def test_lambda_p_classes_match_the_residues(p):
    """Each basis row b of r*Lambda^p is c*r*p mod r for one c mod r, and
    ``classes`` holds -c mod r, read here off the residues of the multiples
    of r*p."""
    lam = lambda_p(p)
    r = lam.r
    rp = tuple(int(r * x) for x in lam.point)
    classes = {tuple(c * x % r for x in rp): -c % r for c in range(r)}
    assert len(classes) == r
    assert lam.classes == tuple(classes[tuple(x % r for x in b)] for b in lam.scaled_basis.vectors)


def test_lambda_p_half():
    lam = lambda_p((F(1, 2), F(0)))
    assert lam.r == 2
    assert in_lambda_p(lam, (F(1, 2), F(0)))
    assert in_lambda_p(lam, (F(1, 2), F(7)))
    assert not in_lambda_p(lam, (F(1, 4), F(0)))
    assert not in_lambda_p(lam, (F(0), F(1, 2)))


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
    assert in_lambda_p(lam, (F(1, 3), F(0)))
    assert not in_lambda_p(lam, (F(1, 6), F(0)))
    # Membership agrees with the union-of-cosets characterization on a grid.
    for a in range(-6, 7):
        for b in range(-6, 7):
            v = (F(a, 3), F(b, 3))
            assert in_lambda_p(lam, v) == in_cosets(lam.point, v)


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


def test_class_table_walks_only_points_of_the_lattice(walk_seam):
    """For r > 1 the class table tags r*(Q - p) in coordinates of a basis of
    r*Lambda^p: each walked point is kept, so the walk of the unit cube at p
    = (1/97, 0, 0) to height 4 meets about r*H^3 = 6208 points, not the 59M
    integer points of 4*97*(Q - p).  At r = 6 the table is the oracle's: the
    integer points v of 2*6*(Q - p) in 6*Lambda^p, each with lambda'(v) and
    the least height s >= lambda'(v) at which v/r + s*p is integral.  A
    second call reads the cached table and walks nothing."""
    cube = poly(3, *itertools.product((0, 1), repeat=3))
    walked = []

    def recording(real):
        def walk(q, bound, points=False):
            walked.append(real(q, bound, points))
            return walked[-1]

        return walk

    walk_seam(recording)
    for p, r, bound in (((F(1, 2), F(1, 3), F(0)), 6, 2), ((F(1, 97), F(0), F(0)), 97, 4)):
        walked.clear()
        den, table = _class_table(cube, p, bound)
        assert len(walked) == 1 and len(walked[0][1]) == len(table) <= r * (bound + 1) ** 3
        assert [v for v, _, _ in table] == sorted(v for v, _, _ in table)
        assert _class_table(cube, p, bound) == (den, table) and len(walked) == 1
    p, r, bound = (F(1, 2), F(1, 3), F(0)), 6, 2
    shifted = cube.translate(tuple(-x for x in p)).dilate(r)
    lam = lambda_p(p)
    expected = []
    for v in oracle_lattice_points(shifted, bound):
        if in_lambda_p(lam, tuple(F(x, r) for x in v)):
            dilation = _least_dilation(cone_hrep(shifted), v)
            least = next(
                s
                for s in itertools.count(math.ceil(dilation))
                if all((x + s * r * c) % r == 0 for x, c in zip(v, p))
            )
            expected.append((v, dilation, least))
    den, table = _class_table(cube, p, bound)
    assert [(v, F(m, den), least) for v, m, least in table] == expected


@pytest.mark.parametrize(
    "p", [(0, 0), (F(1, 2), 0), (F(1, 3), F(2, 3))], ids=["origin", "r2", "r3"]
)
def test_class_table_is_tuples_all_the_way_down(p):
    """The cached table shares no mutable state: the table, its list of
    entries, each entry and each offset are tuples, at r = 1 and r > 1."""
    square = poly(2, (-1, -1), (2, -1), (2, 2), (-1, 2))
    table = _class_table(square, p, 3)
    den, entries = table
    assert type(table) is tuple and type(entries) is tuple and type(den) is int
    assert entries and all(type(entry) is tuple and len(entry) == 3 for entry in entries)
    assert all(type(v) is tuple for v, _, _ in entries)
