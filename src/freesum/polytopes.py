"""Rational polytopes: exact facet descriptions, polar duals, lattice points.

A polytope is stored by its irredundant vertex list in Q^n.  Each point set
gets one facet scan (``_affine_data``), and every geometric view reads from
it: the vertex test, the integer cone description used for membership and
enumeration, the facet functionals relative to the linear span, and the
polar dual.  ``translate`` and ``dilate`` move the scan with the polytope.
Lattice points of a dilate are enumerated in integer coordinates of its
affine lattice (``_slice_frame``), on plain ints, with no candidate that
fails a facet.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .errors import InconclusiveError, InputError, PreconditionError
from .linalg import (
    IntMatrix,
    LatticeBasis,
    QVector,
    Vector,
    clear_denominators,
    hnf,
    invert_rational,
    lattice_basis_of_span,
    primitive_vector,
    qvec,
    rational_nullspace,
    rational_rank,
)
from .records import frozen


@frozen
class RationalPolytope:
    """Convex hull of finitely many rational points, stored by its vertices."""

    dim: int
    vertices: tuple[QVector, ...]

    def __post_init__(self):
        if not self.vertices:
            raise InputError("a polytope needs at least one vertex")
        for v in self.vertices:
            if len(v) != self.dim:
                raise InputError("vertex dimension mismatch")
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("vertex list has duplicates")
        for v, is_vertex in zip(self.vertices, _affine_data(self.vertices)[2]):
            if not is_vertex:
                raise InputError(f"vertex list is redundant at {v}")

    @classmethod
    def from_points(cls, dim: int, points) -> RationalPolytope:
        """Polytope spanned by arbitrary rational points; redundancy is pruned."""
        pts = tuple(sorted({qvec(p) for p in points}))
        if not pts:
            raise InputError("a polytope needs at least one point")
        if any(len(p) != dim for p in pts):
            raise InputError("vertex dimension mismatch")
        is_vertex = _affine_data(pts)[2]
        return cls(dim, tuple(p for p, keep in zip(pts, is_vertex) if keep))

    @property
    def affine_dim(self) -> int:
        return len(direction_basis(self))

    def translate(self, shift) -> RationalPolytope:
        shift = qvec(shift)
        if len(shift) != self.dim:
            raise InputError("shift dimension mismatch")
        return self._image(Fraction(1), shift)

    def dilate(self, factor) -> RationalPolytope:
        factor = Fraction(factor)
        if factor <= 0:
            raise InputError("dilation factor must be positive")
        return self._image(factor, (Fraction(0),) * self.dim)

    def _image(self, factor: Fraction, shift: QVector) -> RationalPolytope:
        """Image under x -> factor*x + shift, with its facet data moved from
        this polytope's instead of scanned again: coordinates relative to v0
        are unchanged, the basis scales by the factor, the facet normals by
        its inverse, and each offset moves by the new normal applied to the
        shift."""
        vertices = tuple(tuple(factor * a + s for a, s in zip(v, shift)) for v in self.vertices)
        _, basis, is_vertex, ambient = _affine_data(self.vertices)
        facets = []
        for c, c0 in ambient:
            c = tuple(a / factor for a in c)
            facets.append((c, c0 + sum(a * s for a, s in zip(c, shift))))
        basis = tuple(tuple(factor * a for a in b) for b in basis)
        _AFFINE_DATA.setdefault(vertices, (vertices[0], basis, is_vertex, tuple(facets)))
        return RationalPolytope(self.dim, vertices)

    def contains(self, point) -> bool:
        point = qvec(point)
        if len(point) != self.dim:
            raise InputError("point dimension mismatch")
        return _cone_member(cone_hrep(self), point + (Fraction(1),))


@frozen
class HalfspaceRep:
    """Facet description of P inside lin(P): phi(a) <= 1 and psi(a) <= 0.

    Functionals are coordinate vectors with respect to the dual basis of
    ``span_basis``, the canonical basis of the saturated lattice of lin(P).
    """

    span_basis: LatticeBasis
    one_facets: tuple[QVector, ...]
    zero_facets: tuple[Vector, ...]


@frozen
class DualPolyhedron:
    """Vertices and recession-cone generators of the polar dual of P."""

    vertex_functionals: tuple[QVector, ...]
    ray_functionals: tuple[Vector, ...]


@frozen
class GorensteinData:
    index: int
    interior_point: Vector
    center: QVector


@frozen
class ConeHRep:
    """Integer description of the homogenization cone of P in R^(n+1).

    The cone over P is ``{x : span_rows @ x = 0, facet_rows @ x <= 0}``.
    """

    dim: int
    span_rows: tuple[Vector, ...]
    facet_rows: tuple[Vector, ...]


def denominator(p: RationalPolytope) -> int:
    """Smallest k >= 1 such that k*P has integer vertices."""
    dens = [x.denominator for v in p.vertices for x in v]
    return math.lcm(*dens) if dens else 1


def _facets_full_dim(points: list[QVector], d: int) -> list[tuple[Vector, int]]:
    """Irredundant facets of a full-dimensional hull in R^d.

    Returns primitive integer pairs (c, c0) with the polytope contained in
    ``c . x <= c0`` and each hyperplane spanned by d affinely independent
    input points.
    """
    if d == 0:
        return []
    seen: dict[tuple, tuple[Vector, int]] = {}
    for subset in itertools.combinations(points, d):
        rows = [list(x) + [Fraction(-1)] for x in subset]
        null = rational_nullspace(rows, d + 1)
        if len(null) != 1:
            continue
        normal = null[0]
        sides = [sum(c * x for c, x in zip(normal[:d], p)) - normal[d] for p in points]
        if all(s <= 0 for s in sides):
            pass
        elif all(s >= 0 for s in sides):
            normal = tuple(-x for x in normal)
        else:
            continue
        key = primitive_vector(normal)
        seen[key] = (key[:d], key[d])
    return sorted(seen.values())


_AFFINE_DATA: dict[tuple[QVector, ...], tuple] = {}


def _affine_data(points: tuple[QVector, ...]):
    """The facet scan of conv(points), run once per point set.

    Returns (v0, direction_basis_rows, is_vertex, ambient_facets).  A point
    is a vertex iff the normals of the facets tight at it have rank equal to
    the affine dimension d (for d = 0 every point passes).  Ambient facets
    are rational pairs (c, c0) with conv(points) = {x in aff : c.x <= c0}.
    ``translate`` and ``dilate`` store the moved data of their image here
    instead of scanning again.
    """
    data = _AFFINE_DATA.get(points)
    if data is None:
        data = _AFFINE_DATA[points] = _facet_scan(points)
    return data


def _facet_scan(points: tuple[QVector, ...]):
    """The uncached body of ``_affine_data``."""
    v0 = points[0]
    # Row-reduce the directions to a rational basis of the direction space.
    basis: list[QVector] = []
    for v in points[1:]:
        dv = tuple(a - b for a, b in zip(v, v0))
        if rational_rank(basis + [dv]) > len(basis):
            basis.append(qvec(dv))
    d = len(basis)
    n = len(v0)
    gram = [[sum(x * y for x, y in zip(u, w)) for w in basis] for u in basis]
    ginv = invert_rational(gram)
    coord_map = [
        tuple(sum(ginv[i][k] * basis[k][j] for k in range(d)) for j in range(n))
        for i in range(d)
    ]

    def coords(point: QVector) -> QVector:
        delta = tuple(a - b for a, b in zip(point, v0))
        return tuple(sum(m * x for m, x in zip(row, delta)) for row in coord_map)

    point_coords = [coords(v) for v in points]
    facets = _facets_full_dim(point_coords, d)
    is_vertex = tuple(
        rational_rank([c for c, c0 in facets if sum(a * b for a, b in zip(c, x)) == c0]) == d
        for x in point_coords
    )
    ambient = []
    for c, c0 in facets:
        c_amb = tuple(sum(Fraction(c[i]) * coord_map[i][j] for i in range(d)) for j in range(n))
        offset = Fraction(c0) + sum(a * b for a, b in zip(c_amb, v0))
        ambient.append((c_amb, offset))
    return v0, tuple(basis), is_vertex, tuple(ambient)


def direction_basis(p: RationalPolytope) -> tuple[QVector, ...]:
    """Rational basis of the direction space of the affine hull of P."""
    return _affine_data(p.vertices)[1]


@functools.lru_cache(maxsize=1024)
def cone_hrep(p: RationalPolytope) -> ConeHRep:
    """Integer halfspace description of the cone over P at height one."""
    n = p.dim
    gens = [v + (Fraction(1),) for v in p.vertices]
    span_rows = tuple(primitive_vector(z) for z in rational_nullspace(gens, n + 1))
    _, _, _, ambient = _affine_data(p.vertices)
    if not ambient:
        # A single point: one halfspace cutting the ray out of its line.
        facet_rows: tuple[Vector, ...] = (tuple(-x for x in primitive_vector(gens[0])),)
    else:
        facet_rows = tuple(primitive_vector(c + (-c0,)) for c, c0 in ambient)
    return ConeHRep(n + 1, span_rows, facet_rows)


def _cone_member(hrep: ConeHRep, point: QVector) -> bool:
    w = clear_denominators(point)
    if any(sum(a * b for a, b in zip(row, w)) != 0 for row in hrep.span_rows):
        return False
    return all(sum(a * b for a, b in zip(row, w)) <= 0 for row in hrep.facet_rows)


def _cone_member_strict(hrep: ConeHRep, point: QVector) -> bool:
    """Relative-interior membership in the homogenization cone."""
    w = clear_denominators(point)
    if any(sum(a * b for a, b in zip(row, w)) != 0 for row in hrep.span_rows):
        return False
    return all(sum(a * b for a, b in zip(row, w)) < 0 for row in hrep.facet_rows)


def lattice_points_in_scaled(p: RationalPolytope, factor) -> tuple[Vector, ...]:
    """Integer points of ``factor * P`` for a rational factor >= 0, in lex order."""
    lam = Fraction(factor)
    if lam < 0:
        raise InputError("dilation factor must be nonnegative")
    return _lattice_points_in_scaled(p, lam)


@frozen
class _SliceFrame:
    """Integer coordinates adapted to the slices of the cone over P.

    With A the span rows of ``cone_hrep(p)`` and U unimodular such that
    ``A U = [L | 0]``, L lower triangular, y = U x splits x into r fixed
    coordinates, solved from ``L x = -a0 * lam`` on the slice at height lam,
    and k free ones (k the affine dimension).  ``columns`` are the columns of
    U; each facet row h becomes ``(h U[:, :r], h U[:, r:], h0)``.  ``lo`` and
    ``hi`` bound the first k - 1 free coordinates of the vertices.
    """

    lower: tuple[Vector, ...]
    span_consts: tuple[int, ...]
    columns: tuple[Vector, ...]
    facets: tuple[tuple[Vector, Vector, int], ...]
    lo: tuple[Fraction, ...]
    hi: tuple[Fraction, ...]


@functools.lru_cache(maxsize=1024)
def _slice_frame(p: RationalPolytope) -> _SliceFrame:
    hrep = cone_hrep(p)
    n = p.dim
    r = len(hrep.span_rows)
    if r:
        # Row HNF of A^T: h = u A^T, so A u^T = h^T and U = u^T.
        h, u = hnf(IntMatrix.from_rows(list(zip(*(row[:n] for row in hrep.span_rows)))))
        columns = u.entries
        lower = tuple(tuple(h.entries[j][i] for j in range(i + 1)) for i in range(r))
        inverse = invert_rational(columns)
        # x = U^-1 v, and U^-1 is the transpose of u^-1.
        free_coords = [
            tuple(sum(inverse[j][c] * v[j] for j in range(n)) for c in range(r, n))
            for v in p.vertices
        ]
    else:
        columns = IntMatrix.identity(n).entries
        lower = ()
        free_coords = list(p.vertices)
    facets = []
    for row in hrep.facet_rows:
        pulled = tuple(sum(a * b for a, b in zip(row, col)) for col in columns)
        facets.append((pulled[:r], pulled[r:], row[n]))
    k = n - r
    lo = tuple(min(x[j] for x in free_coords) for j in range(k - 1))
    hi = tuple(max(x[j] for x in free_coords) for j in range(k - 1))
    return _SliceFrame(
        lower, tuple(row[n] for row in hrep.span_rows), columns, tuple(facets), lo, hi
    )


@functools.lru_cache(maxsize=4096)
def _lattice_points_in_scaled(p: RationalPolytope, lam: Fraction) -> tuple[Vector, ...]:
    """Project and lift in the coordinates of ``_slice_frame``: the fixed
    coordinates by exact division, the first k - 1 free ones over the vertex
    bounds, the last one over the exact interval the facet rows leave."""
    frame = _slice_frame(p)
    q, num = lam.denominator, lam.numerator
    # Forward substitution in L (q x) = -a0 * num; a remainder means the
    # slice's affine hull holds no lattice point.
    fixed: list[int] = []
    for row, a0 in zip(frame.lower, frame.span_consts):
        rest = -a0 * num - q * sum(a * b for a, b in zip(row, fixed))
        pivot = q * row[len(fixed)]
        if rest % pivot:
            return ()
        fixed.append(rest // pivot)
    # Facet rows on the free coordinates z: g . z <= b, with b floored
    # because g . z is an integer; ordered by the sign of their last
    # coefficient, which bounds the last coordinate above or below or not.
    upper, below, level = [], [], []
    for f, g, h0 in frame.facets:
        b = (-h0 * num) // q - sum(a * x for a, x in zip(f, fixed))
        if g and g[-1] > 0:
            upper.append((g, b))
        elif g and g[-1] < 0:
            below.append((g, b))
        else:
            level.append((g, b))
    rows = upper + below + level
    n_up, n_bounded = len(upper), len(upper) + len(below)
    last = [abs(g[-1]) for g, _ in rows[:n_bounded]]
    prefix_coeffs = list(zip(*(g[:-1] for g, _ in rows)))
    ranges = [
        range(math.ceil(lam * a), math.floor(lam * b) + 1) for a, b in zip(frame.lo, frame.hi)
    ]
    r = len(fixed)
    out: list[Vector] = []
    if r == p.dim:
        # No free coordinate: the point fixed by the span rows, if it fits.
        if all(b >= 0 for _, b in rows):
            out.append(())
        stack = []
    else:
        # Depth first over prefixes, in lex order; rems[i] is b_i minus
        # the prefix's share of g_i . z.
        stack = [((), [b for _, b in rows])]
    while stack:
        prefix, rems = stack.pop()
        j = len(prefix)
        if j < len(ranges):
            stack.extend(
                (prefix + (z,), [rem - a * z for rem, a in zip(rems, prefix_coeffs[j])])
                for z in reversed(ranges[j])
            )
            continue
        if any(rem < 0 for rem in rems[n_bounded:]):
            continue
        top = min(rem // c for rem, c in zip(rems[:n_up], last))
        bot = -min(rem // c for rem, c in zip(rems[n_up:n_bounded], last[n_up:]))
        out.extend(prefix + (z,) for z in range(bot, top + 1))
    if not r:
        # U is the identity and the loop order is already lex.
        return tuple(out)
    base = [sum(x * col[j] for x, col in zip(fixed, frame.columns)) for j in range(p.dim)]
    free_rows = [tuple(col[j] for col in frame.columns[r:]) for j in range(p.dim)]
    return tuple(
        sorted(
            tuple(c + sum(a * x for a, x in zip(row, z)) for c, row in zip(base, free_rows))
            for z in out
        )
    )


def lattice_points_in_dilate(p: RationalPolytope, k: int) -> list[Vector]:
    """All integer points of k*P, k a nonnegative integer, in lex order."""
    if k < 0:
        raise InputError("dilation parameter must be nonnegative")
    return list(lattice_points_in_scaled(p, Fraction(k)))


def interior_lattice_points_in_dilate(p: RationalPolytope, k: int) -> list[Vector]:
    """Integer points in the relative interior of k*P."""
    hrep = cone_hrep(p)
    pts = lattice_points_in_scaled(p, Fraction(k))
    return [y for y in pts if _cone_member_strict(hrep, qvec(y) + (Fraction(k),))]


def _require_origin(p: RationalPolytope) -> None:
    if not p.contains((Fraction(0),) * p.dim):
        raise PreconditionError("the origin must lie in the polytope", "origin-not-in-polytope")


@functools.lru_cache(maxsize=1024)
def halfspace_rep(p: RationalPolytope) -> HalfspaceRep:
    """Facet functionals of P relative to lin(P); requires the origin in P.

    Read off the facet rows of ``cone_hrep``: with the origin in P, lin(P) is
    the affine hull, so each row (c, -c0) restricted to the span basis gives
    c.b <= c0, normalized to right-hand side 1 when c0 > 0.
    """
    _require_origin(p)
    span_basis = lattice_basis_of_span(p.vertices, p.dim)
    if span_basis.rank == 0:
        return HalfspaceRep(span_basis, (), ())
    one: list[QVector] = []
    zero: list[Vector] = []
    for row in cone_hrep(p).facet_rows:
        c, c0 = row[:-1], -row[-1]
        cb = [sum(a * b for a, b in zip(c, vec)) for vec in span_basis.vectors]
        if c0 > 0:
            one.append(tuple(Fraction(x, c0) for x in cb))
        else:
            zero.append(primitive_vector(cb))
    return HalfspaceRep(span_basis, tuple(sorted(one)), tuple(sorted(zero)))


@functools.lru_cache(maxsize=1024)
def polar_dual(p: RationalPolytope) -> DualPolyhedron:
    """Polar dual of P relative to lin(P), as vertices plus recession rays."""
    rep = halfspace_rep(p)
    if rep.span_basis.rank == 0:
        # The dual of the origin polytope is the single zero functional.
        return DualPolyhedron(((),), ())
    # P* = conv(one_facets) + pos(zero_facets), and no generator is redundant:
    # if phi lay in conv(other phis) + pos(psis), then phi(a) <= 1 would follow
    # from the other inequalities, and likewise psi(a) <= 0 for a ray psi in
    # the cone of the others.  The facets of P are irredundant, so every
    # facet with c0 > 0 is a vertex of P* and every facet with c0 = 0 is an
    # extreme ray of its recession cone (Ziegler, Lectures on Polytopes, 2.3).
    return DualPolyhedron(rep.one_facets, rep.zero_facets)


def is_lattice_polyhedron(dual: DualPolyhedron) -> bool:
    """Whether every dual vertex is integral on the saturated lattice of lin(P)."""
    return all(x.denominator == 1 for phi in dual.vertex_functionals for x in phi)


def dual_denominator(p: RationalPolytope) -> int:
    """Denominator of the polar dual: lcm of dual vertex coordinate denominators."""
    dual = polar_dual(p)
    dens = [x.denominator for phi in dual.vertex_functionals for x in phi]
    return math.lcm(*dens) if dens else 1


def is_reflexive(p: RationalPolytope) -> bool:
    """Lattice polytope with the origin interior and a lattice polytope dual."""
    if denominator(p) != 1:
        return False
    origin = (Fraction(0),) * p.dim
    if not p.contains(origin):
        return False
    rep = halfspace_rep(p)
    if rep.zero_facets:
        return False
    dual = polar_dual(p)
    return not dual.ray_functionals and is_lattice_polyhedron(dual)


def gorenstein_data(p: RationalPolytope, index_bound: int = 64) -> GorensteinData | None:
    """Gorenstein index data of a lattice polytope, or None if not Gorenstein.

    Scans dilation factors upward for the first dilate with an interior
    lattice point; the polytope is Gorenstein iff that point is unique and
    recentering the dilate there gives a reflexive polytope.
    """
    if denominator(p) != 1:
        raise PreconditionError("Gorenstein data requires a lattice polytope", "not-lattice-polytope")
    for k in range(1, index_bound + 1):
        interior = interior_lattice_points_in_dilate(p, k)
        if not interior:
            continue
        if len(interior) > 1:
            return None
        m = interior[0]
        shifted = p.dilate(k).translate([-x for x in m])
        if is_reflexive(shifted):
            center = tuple(Fraction(x, k) for x in m)
            return GorensteinData(k, m, center)
        return None
    raise InconclusiveError(f"no interior lattice point in dilates up to {index_bound}")


def _least_dilation(hrep: ConeHRep, point) -> Fraction | None:
    """Least lambda >= 0 with the point in lambda*P, None off pos(P), when the
    origin is in P: then the span rows of ``hrep`` cut out lin(P) x R and each
    facet row (c, -c0) has c0 >= 0, so the point y needs c.y <= lambda*c0.
    The running maximum is kept as the ratio num/den of plain numbers."""
    if any(sum(a * b for a, b in zip(row, point)) for row in hrep.span_rows):
        return None
    num, den = 0, 1
    for row in hrep.facet_rows:
        value = sum(a * b for a, b in zip(row, point))
        if value * den > num * -row[-1]:
            if not row[-1]:
                return None
            num, den = value, -row[-1]
    return Fraction(num, den)


def min_dilation(p: RationalPolytope, point) -> Fraction | None:
    """Least lambda >= 0 with the point in lambda*P; None when outside pos(P).

    Requires the origin in P.  For an integer point y of pos(P), the value
    times dual_denominator(p) is an integer.
    """
    _require_origin(p)
    point = qvec(point)
    if len(point) != p.dim:
        raise InputError("point dimension mismatch")
    return _least_dilation(cone_hrep(p), point)


@functools.lru_cache(maxsize=512)
def lattice_points_with_dilation(p: RationalPolytope, bound) -> tuple[tuple[Vector, Fraction], ...]:
    """Pairs (y, min_dilation(p, y)) over the integer points y of bound*P, in
    lex order, for a rational bound >= 0; requires the origin in P."""
    _require_origin(p)
    hrep = cone_hrep(p)
    return tuple((y, _least_dilation(hrep, y)) for y in lattice_points_in_scaled(p, bound))
