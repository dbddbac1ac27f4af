"""Lattice points of rational dilates, enumerated in lattice coordinates,
against a box scan with convex-combination membership.

Polytopes live in dimensions 1-3 on flats of every dimension, skew to the
axes, with rational vertices; affine hulls off the origin miss the lattice
at some factors.  Factors have denominators 1-7 and include 0.  The factor
is capped so that the oracle's box stays small.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from freesum import RationalPolytope
from freesum.polytopes import lattice_points_in_scaled

from conftest import F, oracle_lattice_points, poly

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
