"""Shared builders and independent oracles for the test suite.

Oracles deliberately avoid the production code paths they check: membership
goes through convex-combination solvability on vertices, counts through raw
box scans, and lattice splittings through explicit pair enumeration.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import freesum.freesums
from freesum import RationalPolytope
from freesum.corpus import CorpusPair
from freesum.jsonio import parse_polytope
from freesum.linalg import LatticeBasis, invert_rational, qvec, rational_rank


CORPUS_FILE = Path(__file__).resolve().parent.parent / "corpus" / "standard.json"


def corpus_pairs() -> list[CorpusPair]:
    """The pairs of the bundled corpus file, in file order."""
    config = json.loads(CORPUS_FILE.read_text())
    return [
        CorpusPair(e["name"], parse_polytope(e["a"]), parse_polytope(e["b"]), tuple(e["modes"]))
        for e in config["pairs"]
    ]


def F(a, b=1):
    return Fraction(a, b)


def poly(dim, *points) -> RationalPolytope:
    return RationalPolytope.from_points(dim, points)


def segment(lo, hi) -> RationalPolytope:
    return poly(1, (lo,), (hi,))


def axis_seg(dim, axis, lo, hi) -> RationalPolytope:
    a = [0] * dim
    b = [0] * dim
    a[axis], b[axis] = lo, hi
    return poly(dim, tuple(a), tuple(b))


def diamond(dim=2, axes=(0, 1)) -> RationalPolytope:
    pts = []
    for axis in axes:
        for sign in (1, -1):
            v = [0] * dim
            v[axis] = sign
            pts.append(tuple(v))
    return poly(dim, *pts)


# Faults in the tagged points of K = [-e2, e2] at height 1, as the one-pass
# decomposition reads them: the change to the list, the hull point whose split
# it breaks, and the number of splits counted there.
SPLIT_FAULTS = {
    "missing": (lambda pts: tuple(pt for pt in pts if pt[0] != (0, -1)), (0, -1, 1), 0),
    "double": (lambda pts: pts + tuple(pt for pt in pts if pt[0] == (0, 1)), (0, 1, 1), 2),
}


def break_split(monkeypatch, fault):
    """Free sum J = [-e1, e1], K = [-e2, e2] in R^2 whose K points, as
    ``decompose_sigma`` reads them, carry the named fault.  Returns J, K, the
    broken hull point and its split count."""
    change, point, splits = SPLIT_FAULTS[fault]
    j, k = axis_seg(2, 0, -1, 1), axis_seg(2, 1, -1, 1)
    real = freesum.freesums.lattice_points_with_dilation

    def faulty(p, bound):
        points = real(p, bound)
        return change(points) if p == k else points

    monkeypatch.setattr(freesum.freesums, "lattice_points_with_dilation", faulty)
    return j, k, point, splits


def oracle_lattice_points(p: RationalPolytope, factor) -> tuple:
    """Integer points of factor*P, in lex order, by box scan +
    convex-combination membership: pt is in the hull of the scaled vertices
    iff (pt, 1) is in the cone over them at height 1."""
    scaled = [tuple(factor * x for x in v) for v in p.vertices]
    lo = [math.ceil(min(v[j] for v in scaled)) for j in range(p.dim)]
    hi = [math.floor(max(v[j] for v in scaled)) for j in range(p.dim)]
    box = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
    member = pos_hull_membership([v + (1,) for v in scaled])
    return tuple(pt for pt in box if member(pt + (1,)))


def pos_hull_membership(generators):
    """Membership test for the cone of nonnegative combinations of the
    generators, the same conic Caratheodory decision as ``in_pos_hull`` with
    the per-cone work done once: the span rank d, and for each independent
    d-subset the inverse of d independent rows of its columns.  A point is in
    the cone iff some subset's coefficients are nonnegative and reproduce it
    (a point off the span is reproduced by none)."""
    gens = [g for g in map(qvec, generators) if any(g)]
    d = rational_rank(gens)
    solvers = []
    for subset in itertools.combinations(gens, d) if gens else ():
        if rational_rank(subset) != d:
            continue
        cols = [[g[i] for g in subset] for i in range(len(subset[0]))]
        rows: list[int] = []
        for i in range(len(cols)):
            if rational_rank([cols[r] for r in rows + [i]]) > len(rows):
                rows.append(i)
        solvers.append((subset, rows, invert_rational([cols[r] for r in rows])))

    def member(point) -> bool:
        point = qvec(point)
        if not any(point):
            return True
        for subset, rows, inverse in solvers:
            coeffs = [sum(a * point[r] for a, r in zip(row, rows)) for row in inverse]
            if any(c < 0 for c in coeffs):
                continue
            if all(sum(c * g[i] for c, g in zip(coeffs, subset)) == x for i, x in enumerate(point)):
                return True
        return False

    return member


def oracle_count_dilate(p: RationalPolytope, k: int) -> int:
    """Count lattice points of k*P by box scan + convex-combination membership."""
    return len(oracle_lattice_points(p, k))


def oracle_lattice_members(basis: LatticeBasis, bound: int):
    """All basis-lattice points with coefficients in [-bound, bound]."""
    if basis.rank == 0:
        return {(0,) * basis.ambient_dim}
    coeff_space = itertools.product(*(range(-bound, bound + 1) for _ in range(basis.rank)))
    out = set()
    for coeffs in coeff_space:
        pt = tuple(
            sum(c * v[j] for c, v in zip(coeffs, basis.vectors))
            for j in range(basis.ambient_dim)
        )
        out.add(pt)
    return out


def oracle_complementary(
    target: LatticeBasis, a: LatticeBasis, b: LatticeBasis, box: int = 3, coeff: int = 24
) -> bool:
    """Brute-force complementarity: unique splitting of every target point of
    the joint span inside a small box."""
    span_rows = list(a.vectors) + list(b.vectors)
    pts_a = oracle_lattice_members(a, coeff)
    pts_b = oracle_lattice_members(b, coeff)
    n = target.ambient_dim
    for raw in itertools.product(range(-box, box + 1), repeat=n):
        if not target.contains(raw):
            continue
        coords = qvec(raw)
        # Restrict to points of the joint span.
        from freesum.linalg import rational_rank

        if span_rows:
            if rational_rank(span_rows + [coords]) != rational_rank(span_rows):
                continue
        elif any(coords):
            continue
        splits = 0
        for u in pts_a:
            v = tuple(x - y for x, y in zip(raw, u))
            if v in pts_b:
                splits += 1
                if splits > 1:
                    return False
        if splits != 1:
            return False
    return True
