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
import operator
from fractions import Fraction
from pathlib import Path

import pytest

import freesum.cones
from freesum import RationalPolytope, TruncatedSeries, UnivariateSeries, cone_over
from freesum.corpus import CorpusPair
from freesum.errors import InputError, PreconditionError
from freesum.jsonio import format_point, parse_polytope
from freesum.linalg import (
    LatticeBasis,
    canonical_basis,
    clear_denominators,
    in_pos_hull,
    integer_kernel,
    invert_rational,
    primitive_vector,
    qvec,
    rational_rank,
)
from freesum.polytopes import _cone_member, lattice_points_in_dilate, lattice_tags


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


def apply_one_minus_monomial(s: TruncatedSeries, exp) -> TruncatedSeries:
    """Multiply by (1 - z^exp); the exponent must have positive height."""
    exp = tuple(int(x) for x in exp)
    if len(exp) != s.num_vars:
        raise InputError("exponent arity mismatch")
    if exp[-1] <= 0:
        raise InputError("monomial must have positive height")
    out = dict(s.terms)
    for e, c in s.terms.items():
        shifted = tuple(x + y for x, y in zip(e, exp))
        if shifted[-1] <= s.height_bound:
            out[shifted] = out.get(shifted, 0) - c
    return TruncatedSeries(s.num_vars, s.height_bound, {e: c for e, c in out.items() if c})


def series_sub(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """a - b, truncated at the lower of the two bounds."""
    return a + TruncatedSeries(b.num_vars, b.height_bound, {e: -c for e, c in b.terms.items()})


def first_difference(a: TruncatedSeries, b: TruncatedSeries):
    """(e, a_e, b_e) at the lex-smallest exponent e where the series differ, or None."""
    if a.num_vars != b.num_vars:
        raise InputError("series variable counts differ")
    for e in sorted(a.terms.keys() | b.terms.keys()):
        if a.coefficient(e) != b.coefficient(e):
            return e, a.coefficient(e), b.coefficient(e)
    return None


def specialize_to_univariate(s: TruncatedSeries) -> UnivariateSeries:
    """Sum the coefficients of each height slice."""
    coeffs = [0] * (s.height_bound + 1)
    for e, c in s.terms.items():
        coeffs[e[-1]] += c
    return UnivariateSeries(s.height_bound, tuple(coeffs))


def lambda_p_basis_vectors(lam) -> tuple:
    """The basis of Lambda^p itself: the rows of ``lam.scaled_basis`` over r."""
    return tuple(tuple(Fraction(x, lam.r) for x in row) for row in lam.scaled_basis.vectors)


def cone_slice(cone, t: int) -> list:
    """The lattice points (y, t) of the cone at the integer height t >= 0."""
    return [y + (t,) for y in lattice_points_in_dilate(cone.base, t)]


def interior_identity_by_heights(p: RationalPolytope, shift, height_bound: int):
    """The first lattice point of cone(P) up to the bound, by height and then
    in lex order, that lies in the relative interior of the cone but not in
    its translate by ``shift``, or in the translate but not in the interior;
    None if there is none.  Each slice is walked on its own and each point gets both
    membership tests: the oracle of the Gorenstein check's interior identity."""
    cone = cone_over(p)
    for t in range(height_bound + 1):
        for pt in cone_slice(cone, t):
            interior = _cone_member(cone.hrep, pt, strict=True)
            translated = _cone_member(cone.hrep, tuple(a - b for a, b in zip(pt, shift)))
            if interior != translated:
                return pt
    return None


def rind_contains(p: RationalPolytope, x) -> bool:
    """Membership in cone(P) minus its translate by the last basis vector."""
    cone = cone_over(p)
    x = qvec(x)
    below = x[:-1] + (x[-1] - 1,)
    return cone.contains(x) and not cone.contains(below)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _least_dilation(hrep, point) -> Fraction | None:
    """Least lambda >= 0 with the point in lambda*P, None off pos(P), read off
    the rows of ``hrep = cone_hrep(P)`` when the origin is in P: then the
    span rows cut out lin(P) x R and each facet row (c, -c0) has c0 >= 0, so
    the point y needs c.y <= lambda*c0.  The oracle of the walk's tags."""
    if any(_dot(row, point) for row in hrep.span_rows):
        return None
    lam = Fraction(0)
    for row in hrep.facet_rows:
        value = _dot(row, point)
        if value > lam * -row[-1]:
            if not row[-1]:
                return None
            lam = Fraction(value, -row[-1])
    return lam


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


def llenv_points_by_fractions(cone, p, height_bound: int) -> list:
    """The Fraction form of ``llenv_points``: each lattice point of the cone
    up to the bound, walked height by height, drops by the least facet cap
    (h.x)/(h.alpha(p)) taken as a Fraction, and the projections are
    deduplicated as Fraction vectors, each flagged when it is integral."""
    ap = qvec(p) + (Fraction(1),)
    ap_int = clear_denominators(ap)
    scale = math.lcm(*(c.denominator for c in ap))
    rows = [(h, _dot(h, ap_int)) for h in cone.hrep.facet_rows if _dot(h, ap_int) < 0]
    seen = {}
    for t in range(height_bound + 1):
        for pt in cone_slice(cone, t):
            lam = min(Fraction(scale * _dot(h, pt), d) for h, d in rows)
            proj = tuple(a - lam * b for a, b in zip(map(Fraction, pt), ap))
            if proj not in seen:
                seen[proj] = all(c.denominator == 1 for c in proj)
    return sorted(seen.items())


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


@pytest.fixture
def walk_seam(monkeypatch):
    """Patches the listing walk under the class tables: ``walk_seam(wrap)``
    replaces ``cones.lattice_tags`` by ``wrap(real)``.  The cached tables
    are cleared on setup and teardown, so every table of the test is built
    on its own walk and none built on a patched walk outlives the test."""
    real = freesum.cones.lattice_tags
    freesum.cones._class_table.cache_clear()
    yield lambda wrap: monkeypatch.setattr(freesum.cones, "lattice_tags", wrap(real))
    freesum.cones._class_table.cache_clear()


def break_split(walk_seam, fault):
    """Free sum J = [-e1, e1], K = [-e2, e2] in R^2 whose K points, as
    ``decompose_sigma`` reads them, carry the named fault.  Returns J, K, the
    broken hull point and its split count."""
    change, point, splits = SPLIT_FAULTS[fault]
    j, k = axis_seg(2, 0, -1, 1), axis_seg(2, 1, -1, 1)

    def faulty(real):
        def walk(p, bound, points=False):
            den, found = real(p, bound, points)
            return (den, change(found)) if p == k else (den, found)

        return walk

    walk_seam(faulty)
    return j, k, point, splits


def sigma_cone_by_heights(cone, height_bound: int) -> TruncatedSeries:
    """The cone's series walked one height at a time, each slice t*P
    enumerated on its own: the oracle for the first-height maps."""
    terms = {}
    for t in range(height_bound + 1):
        for pt in cone_slice(cone, t):
            terms[pt] = 1
    return TruncatedSeries(cone.ambient_dim, height_bound, terms)


def first_height_map(j: RationalPolytope, k: RationalPolytope, height_bound: int) -> dict:
    """The first-height map z -> h(z) of the hull cone of a free sum J + K
    at the origin, built pointwise: each pair (y, w) of integer points of
    H*J and H*K, with their tags, maps y + w to ceil(lambda_J(y) +
    lambda_K(w)) when that is at most H, and no z may be reached twice.
    The oracle of ``decompose_sigma``, whose counts are this map's
    histogram (``height_counts``)."""
    (den_j, tagged_j), (den_k, tagged_k) = (
        lattice_tags(q, height_bound, points=True) for q in (j, k)
    )
    den = math.lcm(den_j, den_k)
    heights = {}
    for y, a in tagged_j:
        for w, b in tagged_k:
            low = -(-(a * (den // den_j) + b * (den // den_k)) // den)
            if low <= height_bound:
                z = tuple(map(operator.add, y, w))
                assert z not in heights, f"{z} has two splits"
                heights[z] = low
    return heights


def height_counts(heights, height_bound: int) -> tuple:
    """(c_0, ..., c_H): how many points of a first-height map have each height."""
    counts = [0] * (height_bound + 1)
    for h in heights.values():
        counts[h] += 1
    return tuple(counts)


def height_map_series(heights, num_vars: int, height_bound: int) -> TruncatedSeries:
    """The series of a first-height map z -> h: coefficient 1 at (z, T) for
    h <= T <= H."""
    return TruncatedSeries(
        num_vars,
        height_bound,
        {z + (t,): 1 for z, h in heights.items() for t in range(h, height_bound + 1)},
    )


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
    d independent rows of its columns, as an integer matrix over a positive
    common denominator."""
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
        inverse = invert_rational([cols[r] for r in rows])
        scale = math.lcm(*(x.denominator for row in inverse for x in row))
        scaled = [[int(x * scale) for x in row] for row in inverse]
        solvers.append((subset, rows, scaled, scale))
    return solvers


def _nonnegative_coefficients(solver, point):
    """The point's coefficients on the solver's subset, or None unless they
    are nonnegative and reproduce it (a point off the span is reproduced by
    none).  They are found scaled by the solver's denominator, one at a
    time, so a negative one ends the test."""
    subset, rows, inverse, scale = solver
    coeffs = []
    for row in inverse:
        c = sum(a * point[r] for a, r in zip(row, rows))
        if c < 0:
            return None
        coeffs.append(c)
    if all(sum(c * g[i] for c, g in zip(coeffs, subset)) == scale * x for i, x in enumerate(point)):
        return [Fraction(c) / scale for c in coeffs]
    return None


def pos_hull_membership(generators):
    """Membership test for the cone of nonnegative combinations of the
    generators, the same conic Caratheodory decision as ``in_pos_hull``: a
    point is in the cone iff some independent subset carries it with
    nonnegative coefficients.  Scaling a generator or the point by a
    positive number keeps the answer, so both are made integral first."""
    solvers = _basis_solvers(map(clear_denominators, generators))

    def member(point) -> bool:
        point = clear_denominators(point)
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


def lattice_contains(basis: LatticeBasis, point) -> bool:
    """Whether the integer point lies in the lattice the basis spans: its
    rational coordinates in the basis exist and are integers."""
    coords = basis.coordinates(point)
    return coords is not None and all(c.denominator == 1 for c in coords)


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


def lattice_basis_of_span(vectors, ambient_dim: int) -> LatticeBasis:
    """Canonical basis of (span of ``vectors``) intersected with Z^ambient_dim,
    the saturation of the lattice the rational vectors generate: the integer
    kernel of the integer kernel of the primitive generators."""
    rows = [r for r in map(primitive_vector, vectors) if any(r)]
    if not rows:
        return LatticeBasis(ambient_dim, ())
    complement = integer_kernel(rows, ambient_dim)
    return canonical_basis(integer_kernel(complement, ambient_dim), ambient_dim)


def hermite_complementary(target: LatticeBasis, a, b) -> bool:
    """Complementarity by Hermite forms: saturate span(a) and span(b) in
    coordinates of ``target``, and compare the lattice the two saturated
    bases generate with the saturation of their joint span, as canonical
    bases."""

    def saturated(rows) -> list:
        coords = [target.coordinates(v) for v in rows]
        return list(lattice_basis_of_span(coords, target.rank).vectors)

    joint = saturated(a) + saturated(b)
    if rational_rank(joint) != len(joint):
        return False
    generated = canonical_basis(joint, target.rank)
    return generated.vectors == lattice_basis_of_span(joint, target.rank).vectors


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
        if not lattice_contains(target, raw):
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
