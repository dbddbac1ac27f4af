"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns plain vertex lists of
``Fraction``; the caller writes them as the JSON the ``freesum`` CLI reads.
Draws outside a workload's stated band are rejected and drawn again, so the
band fixes the size of the work while the seed picks the instance.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from exact import dual_vertices, facets, lcm_denominator, origin_interior


def convex_hull_2d(points):
    """Vertices of the convex hull of planar points, counter-clockwise."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def rational_polygon(rng: random.Random, d_band: tuple[int, int]):
    """Polygon with vertex denominators <= 4, the origin interior and a dual
    denominator d(J) inside ``d_band``; returns (vertices, d)."""
    lo, hi = d_band
    while True:
        count = rng.randint(4, 6)
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(count))
        points = []
        for theta in angles:
            radius = rng.uniform(1.5, 2.0)
            q = rng.randint(1, 4)
            points.append(
                (
                    Fraction(round(radius * math.cos(theta) * q), q),
                    Fraction(round(radius * math.sin(theta) * q), q),
                )
            )
        hull = convex_hull_2d(points)
        if len(hull) < 3 or not origin_interior(hull):
            continue
        d = lcm_denominator(dual_vertices(hull))
        if lo <= d <= hi:
            return hull, d


def skew_segment(rng: random.Random):
    """Segment [-u, 2u] with u = (a, b, 1) and |a*b| = 4.

    The last coordinate of u is one, so Z*u is complementary to the lattice
    of the plane z = 0 and the pair with a polygon in that plane is a free
    sum at the origin.  Fixing |a*b| and the factor 2 keeps the bounding box
    of every dilate the same size, so the seed changes the direction of the
    segment but not the number of box candidates its enumeration scans.
    """
    a, b = rng.choice(((1, 4), (2, 2), (4, 1)))
    u = (a * rng.choice((-1, 1)), b * rng.choice((-1, 1)), 1)
    return [tuple(Fraction(-x) for x in u), tuple(Fraction(2 * x) for x in u)]


def _sphere_points(norm: int, dim: int):
    r = math.isqrt(norm)
    grid = range(-r, r + 1)
    return [p for p in itertools.product(grid, repeat=dim) if sum(x * x for x in p) == norm]


# Squared radii with at least 24 lattice points on the circle or sphere, and
# radii close to each other so that coordinate sizes vary little by seed.
# Lattice points on a circle or sphere are in convex position, so every
# drawn point is a vertex and the vertex count is exactly the one asked for.
CIRCLE_NORMS = (325, 425)
SPHERE_NORMS = (21, 26, 29, 30)


def lattice_polytope(rng: random.Random, dim: int, vertex_count: int):
    """Simplicial lattice polytope with exactly ``vertex_count`` vertices, all
    on one circle (dim 2) or sphere (dim 3), with the origin interior.

    Simplicial fixes the facet count (2V - 4 in dimension 3), which sets the
    cost of the dual: without it the seed alone changes that cost twofold.
    """
    norms = CIRCLE_NORMS if dim == 2 else SPHERE_NORMS
    while True:
        pool = _sphere_points(rng.choice(norms), dim)
        if len(pool) < vertex_count:
            continue
        verts = [tuple(Fraction(x) for x in v) for v in sorted(rng.sample(pool, vertex_count))]
        rows = facets(verts)
        if rows and all(c > 0 for _, c in rows) and all(
            sum(1 for v in verts if sum(x * y for x, y in zip(a, v)) == c) == dim for a, c in rows
        ):
            return verts
