"""Rational polytopes: exact facet descriptions, polar duals, lattice points.

A polytope is stored by its irredundant vertex list in Q^n.  Each point set
gets one facet scan (``_affine_data``), on ints, and every geometric view
reads from it: the vertex test, the integer equations of the affine hull,
the integer cone description used for membership and enumeration, the
saturated lattice of lin(P), the facet functionals relative to it, and the
polar dual.  ``from_points`` keeps the scan for the vertices it returns,
and ``translate`` and ``dilate`` move it with the polytope.
Lattice points of a dilate are enumerated in integer coordinates of its
affine lattice (``_slice_frame``), on plain ints, with no candidate that
fails a facet and, by Fourier-Motzkin bounds, no prefix empty over the
reals; for P containing the origin it can tag each point with its least
dilation, as an integer (``tagged_lattice_points``).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from itertools import repeat

from .errors import InconclusiveError, InputError, PreconditionError
from .linalg import (
    IntMatrix,
    LatticeBasis,
    QVector,
    Vector,
    _det,
    _echelon,
    _hnf_rows,
    canonical_basis,
    clear_denominators,
    hnf,
    integer_kernel,
    primitive_vector,
    qvec,
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
        for v, is_vertex in zip(self.vertices, _affine_data(self.vertices)[1]):
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
        basis, is_vertex, facets, equations = _affine_data(pts)
        vertices = tuple(p for p, keep in zip(pts, is_vertex) if keep)
        if len(vertices) < len(pts):
            # The vertices span the same hull: same facets, basis, equations.
            _store(vertices, (basis, (True,) * len(vertices), facets, equations))
        return cls(dim, vertices)

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
        this polytope's instead of scanned again: the direction space, and
        with it the basis, is unchanged, and a facet row or equation (c, c0)
        on c.x + c0 becomes (c, factor*c0 - c.shift), made primitive."""
        vertices = tuple(tuple(factor * a + s for a, s in zip(v, shift)) for v in self.vertices)
        basis, is_vertex, rows, equations = _affine_data(self.vertices)

        def move(row):
            offset = factor * row[-1] - sum(map(operator.mul, row, shift))
            return primitive_vector(row[:-1] + (offset,))

        moved = tuple(sorted(map(move, rows))), tuple(map(move, equations))
        _store(vertices, (basis, is_vertex, *moved))
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


_AFFINE_DATA: dict[tuple[QVector, ...], tuple] = {}
_AFFINE_DATA_SIZE = 4096


def _store(points: tuple[QVector, ...], data: tuple) -> None:
    """Keep the facet data of a point set, evicting the oldest entry past
    ``_AFFINE_DATA_SIZE``."""
    _AFFINE_DATA[points] = data
    if len(_AFFINE_DATA) > _AFFINE_DATA_SIZE:
        del _AFFINE_DATA[next(iter(_AFFINE_DATA))]


def _affine_data(points: tuple[QVector, ...]):
    """The facet scan of conv(points), run once per point set.

    Returns (direction_basis_rows, is_vertex, facet_rows, equations).  The
    basis is the reduced row echelon form of the direction space with each
    row made primitive.  The equations are primitive integer rows e, one
    per free column of the basis, with aff(points) = {x : e . (x, 1) = 0}.
    Each facet row h is primitive and integral, zero off the basis's pivot
    columns and the last entry, with conv(points) =
    {x in aff : h . (x, 1) <= 0}.  A point is a vertex iff the facets tight
    at it have normals of rank equal to the affine dimension d (for d = 0
    every point passes).  ``from_points``, ``translate`` and ``dilate``
    store the data of the polytope they build instead of scanning again.
    """
    data = _AFFINE_DATA.get(points)
    if data is None:
        data = _facet_scan(points)
        _store(points, data)
    return data


def _cofactors(rows: list[list[int]]) -> tuple[int, ...]:
    """Signed maximal minors of a (d-1) x d integer matrix: a normal of the
    rows' span, zero when they are dependent."""
    return tuple(
        (-1) ** j * _det([row[:j] + row[j + 1 :] for row in rows]) for j in range(len(rows) + 1)
    )


def _facet_scan(points: tuple[QVector, ...]):
    """The uncached body of ``_affine_data``, on the points scaled by their
    common denominator, as ints.  Points of the affine hull are fixed by
    their pivot coordinates, so the hull is a full-dimensional polytope in
    those d coordinates: each facet is spanned by d of the points, with the
    cofactors of their differences as normal and every point on one side.
    The equation of a free column c is the kernel vector a of the basis
    with a_c = l, l the lcm of the pivot entries, which clears a_pivot(i) =
    -l * red[i][c] / red[i][pivot(i)], and the row (scale * a, -a . pts[0])."""
    scale = math.lcm(*(x.denominator for v in points for x in v))
    pts = [[x.numerator * (scale // x.denominator) for x in v] for v in points]
    red, pivots = _echelon([[a - b for a, b in zip(v, pts[0])] for v in pts[1:]])
    d = len(pivots)
    n, lcm = len(pts[0]), math.lcm(*(row[c] for row, c in zip(red, pivots)))
    equations = []
    for c in [c for c in range(n) if c not in pivots]:
        a = [0] * n
        a[c] = lcm
        for row, pc in zip(red, pivots):
            a[pc] = -(lcm // row[pc]) * row[c]
        offset = -sum(map(operator.mul, a, pts[0]))
        equations.append(primitive_vector([scale * x for x in a] + [offset]))
    coords = [[v[c] for c in pivots] for v in pts]
    facets = set()
    for subset in itertools.combinations(coords, d) if d else ():
        x0 = subset[0]
        normal = _cofactors([[a - b for a, b in zip(x, x0)] for x in subset[1:]])
        if not any(normal):
            continue
        sides = [sum(a * b for a, b in zip(normal, x)) for x in coords]
        level = sum(a * b for a, b in zip(normal, x0))
        if max(sides) == level:
            facets.add(primitive_vector(normal + (-level,)))
        elif min(sides) == level:
            facets.add(primitive_vector(tuple(-a for a in normal) + (level,)))
    is_vertex = tuple(
        rational_rank([f[:-1] for f in facets if sum(a * b for a, b in zip(f, x)) == -f[-1]]) == d
        for x in coords
    )
    rows = []
    for f in facets:
        row = [0] * n + [f[-1]]
        for c, a in zip(pivots, f):
            row[c] = scale * a
        rows.append(primitive_vector(row))
    return tuple(tuple(row) for row in red[:d]), is_vertex, tuple(sorted(rows)), tuple(equations)


def direction_basis(p: RationalPolytope) -> tuple[Vector, ...]:
    """Integer basis of the direction space of the affine hull of P."""
    return _affine_data(p.vertices)[0]


@functools.lru_cache(maxsize=1024)
def cone_hrep(p: RationalPolytope) -> ConeHRep:
    """Integer halfspace description of the cone over P at height one: the
    scan's equations of the affine hull are its span rows."""
    _, _, facet_rows, span_rows = _affine_data(p.vertices)
    if not facet_rows:
        # A single point: one halfspace cutting the ray out of its line.
        facet_rows = (tuple(-x for x in primitive_vector(p.vertices[0] + (1,))),)
    return ConeHRep(p.dim + 1, span_rows, facet_rows)


def _cone_member(hrep: ConeHRep, point, strict: bool = False) -> bool:
    """Membership in the homogenization cone; ``strict`` asks for its
    relative interior, every facet value negative (an integer at most -1)."""
    w = clear_denominators(point)
    if any(sum(a * b for a, b in zip(row, w)) != 0 for row in hrep.span_rows):
        return False
    return all(sum(a * b for a, b in zip(row, w)) + strict <= 0 for row in hrep.facet_rows)


def lattice_points_in_scaled(p: RationalPolytope, factor) -> tuple[Vector, ...]:
    """Integer points of ``factor * P`` for a rational factor >= 0, in lex order."""
    lam = Fraction(factor)
    if lam < 0:
        raise InputError("dilation factor must be nonnegative")
    return _walk(p, lam.numerator, lam.denominator)


@frozen
class _SliceFrame:
    """Integer coordinates adapted to the slices of the cone over P.

    With A the span rows of ``cone_hrep(p)`` and U unimodular such that
    ``A U = [L | 0]``, L lower triangular, y = U x splits x into r fixed
    coordinates, solved from ``L x = -a0 * lam`` on the slice at height lam,
    and k free ones z.  ``columns`` are the columns of U; each facet row h
    becomes ``(h U[:, :r], h U[:, r:], h0)``.  The rows on z are the facets,
    then the Fourier-Motzkin rows (``derived``: facet multipliers, gcd);
    ``steps[j]`` holds their z_j coefficients, and ``bounds[j]`` the indices
    and |coefficients| of those whose last nonzero one, on z_j, is positive,
    then negative.
    """

    lower: tuple[Vector, ...]
    span_consts: tuple[int, ...]
    columns: tuple[Vector, ...]
    facets: tuple[tuple[Vector, Vector, int], ...]
    derived: tuple[tuple[Vector, int], ...]
    steps: tuple[Vector, ...]
    bounds: tuple
    z0: tuple[Fraction, Fraction]


def _last_nonzero(v) -> int:
    return max((i for i, a in enumerate(v) if a), default=-1)


def _projected_rows(rows: list[Vector], k: int) -> list[tuple[Vector, Vector]]:
    """Fourier-Motzkin elimination of z_{k-1}, ..., z_2 from g . z <= b
    (Schrijver, Theory of Linear and Integer Programming, 12.2): the new rows
    (c, mu), c = sum mu_i g_i made primitive, whose last nonzero coefficient
    is on z_1..z_{k-2}; with the facets they cut out each projection of the
    slice.  After s eliminations a row combining more than s + 1 facets is
    redundant (Chernikov's rule) and is dropped."""
    system = [(g, tuple(int(i == j) for j in range(len(rows)))) for i, g in enumerate(rows)]
    out = []
    for j in range(k - 1, 1, -1):
        above, below = ([row for row in system if s * row[0][j] > 0] for s in (1, -1))
        system = [row for row in system if not row[0][j]]
        for (gp, mp), (gn, mn) in itertools.product(above, below):
            mu = tuple(-gn[j] * x + gp[j] * y for x, y in zip(mp, mn))
            if len(mu) - mu.count(0) <= k - j + 1:
                row = primitive_vector(tuple(-gn[j] * x + gp[j] * y for x, y in zip(gp, gn)) + mu)
                system.append((row[:k], row[k:]))
                out.append(system[-1])
    return [row for row in out if _last_nonzero(row[0]) > 0]


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
        # The Hermite form of the unimodular u is the identity, so its
        # transform is u^-1; x = U^-1 v, and U^-1 is the transpose of u^-1.
        _, inverse = _hnf_rows(columns, n)
        first = [sum(inverse[j][r] * v[j] for j in range(n)) for v in p.vertices] if r < n else [0]
    else:
        columns = IntMatrix.identity(n).entries
        lower = ()
        first = [v[0] if n else 0 for v in p.vertices]
    facets = []
    for row in hrep.facet_rows:
        pulled = tuple(sum(a * b for a, b in zip(row, col)) for col in columns)
        facets.append((pulled[:r], pulled[r:], row[n]))
    k, rows = n - r, [g for _, g, _ in facets]
    derived = _projected_rows(rows, k)
    gcds = [math.gcd(*c) for c, _ in derived]
    rows += [tuple(a // d for a in c) for (c, _), d in zip(derived, gcds)]
    picks = [[(i, g[j]) for i, g in enumerate(rows) if _last_nonzero(g) == j] for j in range(k)]
    bounds = tuple(
        tuple(tuple(zip(*[(i, abs(a)) for i, a in pick if s * a > 0])) for s in (1, -1))
        for pick in picks
    )
    steps = tuple(tuple(row[j] for row in rows) for j in range(k - 1))
    derived = tuple((mu, d) for (_, mu), d in zip(derived, gcds))
    consts = tuple(row[n] for row in hrep.span_rows)
    z0 = (min(first), max(first))  # the exact projection of P on z_0
    return _SliceFrame(lower, consts, columns, tuple(facets), derived, steps, bounds, z0)


def _walk(p: RationalPolytope, num: int, q: int, den: int = 0) -> tuple:
    """Integer points of (num/q)*P in lex order, by project and lift in the
    coordinates of ``_slice_frame``: the fixed ones by exact division, z_0
    over the vertex range, each later z_j over the interval its bounding
    rows leave after the prefix.  With ``den`` > 0 (q = 1, the origin in P,
    den a multiple of each facet constant c0_F) a point y comes as (y, den *
    lambda(y)): a facet's remainder at height num is its slack s_F, and den
    * lambda(y) = max over c0_F > 0 of den/c0_F * (num*c0_F - s_F)."""
    frame = _slice_frame(p)
    # Forward substitution in L (q x) = -a0 * num; a remainder means the
    # slice's affine hull holds no lattice point.
    fixed: list[int] = []
    for row, a0 in zip(frame.lower, frame.span_consts):
        rest = -a0 * num - q * sum(a * b for a, b in zip(row, fixed))
        pivot = q * row[len(fixed)]
        if rest % pivot:
            return ()
        fixed.append(rest // pivot)
    # Rows on z: g . z <= b, b floored because g . z is an integer.
    rhs = [(-h0 * num) // q - sum(a * x for a, x in zip(f, fixed)) for f, _, h0 in frame.facets]
    rhs += [sum(m * b for m, b in zip(mu, rhs)) // d for mu, d in frame.derived]
    r, k, hd = len(fixed), p.dim - len(fixed), num * den
    # The tag lines on the last coordinate, one per slope: (facets, den/c0_F).
    slopes: dict[int, list[tuple[int, int]]] = {}
    for i, (_, g, h0) in enumerate(frame.facets):
        if den and h0:
            slopes.setdefault(den // -h0 * (g[-1] if k else 0), []).append((i, den // -h0))
    slopes = [(b, *zip(*rows)) for b, rows in slopes.items()]
    # No free coordinate: the point the span rows fix, if it fits (0 if tagged).
    out, tags = ([()], [0]) if not k and all(b >= 0 for b in rhs) else ([], [])
    # Depth first over prefixes, in lex order; rems[i] is row i's bound
    # minus the prefix's share of it.
    stack = [((), rhs)] if k else []
    while stack:
        prefix, rems = stack.pop()
        j = len(prefix)
        if j or k == 1:
            (up, up_c), (down, down_c) = frame.bounds[j]
            bot = -min(map(operator.floordiv, map(rems.__getitem__, down), down_c))
            zs = range(bot, min(map(operator.floordiv, map(rems.__getitem__, up), up_c)) + 1)
        else:
            zs = range(math.ceil(num * frame.z0[0] / q), math.floor(num * frame.z0[1] / q) + 1)
        if j < k - 1:
            step = frame.steps[j]
            stack.extend((prefix + (z,), [c - a * z for c, a in zip(rems, step)]) for z in zs[::-1])
            continue
        out.extend(map(prefix.__add__, zip(zs)))
        if den and zs:
            lines = []
            for b, ii, es in slopes:
                s = hd - min(map(operator.mul, es, map(rems.__getitem__, ii)))
                lines.append(range(s + b * zs[0], s + b * zs.stop, b) if b else repeat(s, len(zs)))
            tags.extend(map(max, *lines) if len(lines) > 1 else lines[0])
    if r:
        # x = U y, y the fixed coordinates followed by z.
        rows = list(zip(*frame.columns))
        out = [tuple(sum(map(operator.mul, row, (*fixed, *z))) for row in rows) for z in out]
    if den:
        out = zip(out, tags)
    # With no span rows U is the identity and the loop order is already lex.
    return tuple(sorted(out)) if r else tuple(out)


def lattice_points_in_dilate(p: RationalPolytope, k: int) -> list[Vector]:
    """All integer points of k*P, k a nonnegative integer, in lex order."""
    if k < 0:
        raise InputError("dilation parameter must be nonnegative")
    return list(lattice_points_in_scaled(p, Fraction(k)))


def interior_lattice_points_in_dilate(p: RationalPolytope, k: int) -> list[Vector]:
    """Integer points in the relative interior of k*P."""
    hrep = cone_hrep(p)
    return [y for y in lattice_points_in_dilate(p, k) if _cone_member(hrep, y + (k,), strict=True)]


def _require_origin(p: RationalPolytope) -> None:
    if not _cone_member(cone_hrep(p), (0,) * p.dim + (1,)):
        raise PreconditionError("the origin must lie in the polytope", "origin-not-in-polytope")


def halfspace_rep(p: RationalPolytope) -> HalfspaceRep:
    """Facet functionals of P relative to lin(P); requires the origin in P.

    Read off ``cone_hrep``: with the origin in P, lin(P) is the affine hull,
    so its lattice is the integer kernel of the span rows' normals, and each
    facet row (c, -c0) restricted to the span basis gives c.b <= c0,
    normalized to right-hand side 1 when c0 > 0.
    """
    _require_origin(p)
    hrep = cone_hrep(p)
    normals = [row[:-1] for row in hrep.span_rows]
    span_basis = canonical_basis(integer_kernel(normals, p.dim), p.dim)
    if span_basis.rank == 0:
        return HalfspaceRep(span_basis, (), ())
    one: list[QVector] = []
    zero: list[Vector] = []
    for row in hrep.facet_rows:
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


@functools.lru_cache(maxsize=512)
def tagged_lattice_points(p: RationalPolytope, height: int) -> tuple[int, tuple]:
    """(den, pairs): the integer points y of height*P in lex order, each with
    the integer den * lambda(y), lambda(y) the least dilation of P holding y,
    den the lcm of the positive facet constants; the origin must be in P."""
    if height < 0:
        raise InputError("dilation factor must be nonnegative")
    _require_origin(p)
    den = math.lcm(*(-row[-1] for row in cone_hrep(p).facet_rows if row[-1]))
    return den, _walk(p, height, 1, den)
