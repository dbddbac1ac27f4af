"""Shared builders and independent oracles for the test suite.

Oracles deliberately avoid the production code paths they check: membership
goes through convex-combination solvability on vertices, counts through raw
box scans, and lattice splittings through explicit pair enumeration.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import freesum.freesums
from freesum import RationalPolytope, TruncatedSeries, UnivariateSeries, cone_over
from freesum.corpus import CorpusPair
from freesum.errors import PreconditionError
from freesum.jsonio import format_point, parse_polytope
from freesum.linalg import LatticeBasis, in_pos_hull, invert_rational, qvec, rational_rank


CORPUS_FILE = Path(__file__).resolve().parent.parent / "corpus" / "standard.json"


def corpus_pairs() -> list[CorpusPair]:
    """The pairs of the bundled corpus file, in file order."""
    config = json.loads(CORPUS_FILE.read_text())
    return [
        CorpusPair(e["name"], parse_polytope(e["a"]), parse_polytope(e["b"]), tuple(e["modes"]))
        for e in config["pairs"]
    ]


def format_polytope(p: RationalPolytope) -> dict:
    """The JSON form that ``parse_polytope`` reads."""
    return {"dim": p.dim, "vertices": [format_point(v) for v in p.vertices]}


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


def standard_lattice(n: int) -> LatticeBasis:
    return LatticeBasis(n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def series_one(num_vars: int, height_bound: int) -> TruncatedSeries:
    return TruncatedSeries(num_vars, height_bound, {(0,) * num_vars: 1})


def indicator_series(num_vars: int, height_bound: int, points) -> TruncatedSeries:
    """Series with coefficient one at each given integer point."""
    return TruncatedSeries(num_vars, height_bound, {tuple(pt): 1 for pt in points})


def geometric_series(exp, num_vars: int, height_bound: int) -> TruncatedSeries:
    """Expansion of 1/(1 - z^exp) for an exponent of positive height."""
    assert exp[-1] > 0
    terms = {}
    j = 0
    while j * exp[-1] <= height_bound:
        terms[tuple(j * x for x in exp)] = 1
        j += 1
    return TruncatedSeries(num_vars, height_bound, terms)


def specialize_to_univariate(s: TruncatedSeries) -> UnivariateSeries:
    """Sum the coefficients of each height slice."""
    coeffs = [0] * (s.height_bound + 1)
    for e, c in s.terms.items():
        coeffs[e[-1]] += c
    return UnivariateSeries(s.height_bound, tuple(coeffs))


def lambda_p_basis_vectors(lam) -> tuple:
    """The basis of Lambda^p itself: the rows of ``lam.scaled_basis`` over r."""
    return tuple(tuple(Fraction(x, lam.r) for x in row) for row in lam.scaled_basis.vectors)


def rind_contains(p: RationalPolytope, x) -> bool:
    """Membership in cone(P) minus its translate by the last basis vector."""
    cone = cone_over(p)
    x = qvec(x)
    below = x[:-1] + (x[-1] - 1,)
    return cone.contains(x) and not cone.contains(below)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def epsilon_project(cone, x, p) -> tuple:
    """Project x to the p-lower envelope of the cone: subtract the largest
    multiple of alpha(p) = (p, 1) that stays in the cone.  Each facet row h
    has h.y <= 0 on the cone, so a row with h.alpha(p) < 0 caps the multiple
    at (h.x)/(h.alpha(p)); a row with h.alpha(p) >= 0 caps nothing."""
    x, ap = qvec(x), qvec(p) + (Fraction(1),)
    if not cone.contains(x):
        raise PreconditionError("point must lie in the cone", "point-not-in-cone")
    if not cone.contains(ap):
        raise PreconditionError("direction point must lie in the cone", "direction-not-in-cone")
    caps = [_dot(h, x) / _dot(h, ap) for h in cone.hrep.facet_rows if _dot(h, ap) < 0]
    if not caps:
        raise PreconditionError("direction is not bounded by the cone", "direction-unbounded")
    lam = min(caps)
    return tuple(a - lam * b for a, b in zip(x, ap))


def in_convex_hull(point, points) -> bool:
    """Exact membership of ``point`` in the convex hull of ``points``."""
    lifted = [qvec(p) + (Fraction(1),) for p in points]
    return in_pos_hull(qvec(point) + (Fraction(1),), lifted)


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


def _basis_solvers(generators) -> list:
    """The per-cone work of conic Caratheodory, done once: the span rank d of
    the nonzero generators, and for each independent d-subset the inverse of
    d independent rows of its columns."""
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
    return solvers


def _nonnegative_coefficients(solver, point):
    """The point's coefficients on the solver's subset, or None unless they
    are nonnegative and reproduce it (a point off the span is reproduced by
    none)."""
    subset, rows, inverse = solver
    coeffs = [sum(a * point[r] for a, r in zip(row, rows)) for row in inverse]
    if any(c < 0 for c in coeffs):
        return None
    if all(sum(c * g[i] for c, g in zip(coeffs, subset)) == x for i, x in enumerate(point)):
        return coeffs
    return None


def pos_hull_membership(generators):
    """Membership test for the cone of nonnegative combinations of the
    generators, the same conic Caratheodory decision as ``in_pos_hull``: a
    point is in the cone iff some independent subset carries it with
    nonnegative coefficients."""
    solvers = _basis_solvers(generators)

    def member(point) -> bool:
        point = qvec(point)
        if not any(point):
            return True
        return any(_nonnegative_coefficients(s, point) is not None for s in solvers)

    return member


@functools.lru_cache(maxsize=256)
def _vertex_solvers(p: RationalPolytope) -> list:
    return _basis_solvers(p.vertices)


def min_dilation(p: RationalPolytope, point):
    """Least lambda >= 0 with the point in lambda*P, None when there is none,
    for P containing the origin.  Then y is in lambda*P iff y = sum c_i v_i
    over the vertices with c >= 0 and sum c_i <= lambda.  The least sum is a
    linear program over c >= 0, so it is reached at a basic solution, carried
    by independent vertices that extend to an independent d-subset."""
    point = qvec(point)
    if not any(point):
        return Fraction(0)
    coefficients = (_nonnegative_coefficients(s, point) for s in _vertex_solvers(p))
    return min((sum(c) for c in coefficients if c is not None), default=None)


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
