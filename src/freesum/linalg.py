"""Exact integer and rational linear algebra on plain tuples.

Everything here is exact: integer vectors are tuples of ``int``, rational
vectors are tuples of ``fractions.Fraction``.  No floating point is used
anywhere.  The scale is small (ambient dimensions <= 5, a few dozen
vectors), so the algorithms favour clarity and exactness over asymptotics.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import InputError
from .records import frozen

Vector = tuple[int, ...]
QVector = tuple[Fraction, ...]


def qvec(values) -> QVector:
    """Coerce a sequence of numbers into a tuple of Fractions."""
    return tuple(Fraction(x) for x in values)


def clear_denominators(v) -> Vector:
    """Smallest positive integer multiple of ``v`` that is integral."""
    v = qvec(v)
    scale = math.lcm(*(x.denominator for x in v)) if v else 1
    return tuple(int(x * scale) for x in v)


def primitive_vector(v) -> Vector:
    """Integer vector spanning the same ray as ``v``, with coprime entries."""
    w = clear_denominators(v)
    g = math.gcd(*w) if w else 0
    if g == 0:
        return w
    return tuple(x // g for x in w)


# ---------------------------------------------------------------------------
# Integer matrices and normal forms
# ---------------------------------------------------------------------------


@frozen
class IntMatrix:
    """Dense integer matrix; ``entries`` holds the rows."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise InputError("matrix entries inconsistent with declared shape")

    @classmethod
    def from_rows(cls, rows) -> IntMatrix:
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, rows)

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def __mul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise InputError("matrix product shape mismatch")
        prod = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*other.entries))
            for row in self.entries
        )
        return IntMatrix(self.rows, other.cols, prod)

    def det(self) -> int:
        if self.rows != self.cols:
            raise InputError("determinant of a non-square matrix")
        d = rational_det([qvec(r) for r in self.entries])
        return int(d)


def _row_sub(a: list[list[int]], i: int, j: int, q: int) -> None:
    if q:
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]


def _col_sub(a: list[list[int]], i: int, j: int, q: int) -> None:
    if q:
        for row in a:
            row[i] -= q * row[j]


def hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form.

    Returns ``(h, u)`` with ``h = u * m``, ``u`` unimodular, pivots of ``h``
    positive with strictly increasing pivot columns, and every entry above a
    pivot reduced into ``[0, pivot)``.  Zero rows sink to the bottom.
    """
    a = [list(r) for r in m.entries]
    u = [list(r) for r in IntMatrix.identity(m.rows).entries]
    pivot_row = 0
    for col in range(m.cols):
        while True:
            live = [r for r in range(pivot_row, m.rows) if a[r][col] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda r: abs(a[r][col]))
            r0 = live[0]
            for r in live[1:]:
                q = a[r][col] // a[r0][col]
                _row_sub(a, r, r0, q)
                _row_sub(u, r, r0, q)
        live = [r for r in range(pivot_row, m.rows) if a[r][col] != 0]
        if not live:
            continue
        r0 = live[0]
        a[pivot_row], a[r0] = a[r0], a[pivot_row]
        u[pivot_row], u[r0] = u[r0], u[pivot_row]
        if a[pivot_row][col] < 0:
            a[pivot_row] = [-x for x in a[pivot_row]]
            u[pivot_row] = [-x for x in u[pivot_row]]
        for r in range(pivot_row):
            q = a[r][col] // a[pivot_row][col]
            _row_sub(a, r, pivot_row, q)
            _row_sub(u, r, pivot_row, q)
        pivot_row += 1
    return IntMatrix.from_rows(a), IntMatrix.from_rows(u)


def snf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form.

    Returns ``(u, d, v)`` with ``d = u * m * v`` diagonal, diagonal entries
    nonnegative with ``d[i] | d[i+1]``, and ``u``, ``v`` unimodular.
    """
    a = [list(r) for r in m.entries]
    nr, nc = m.rows, m.cols
    u = [list(r) for r in IntMatrix.identity(nr).entries]
    v = [list(r) for r in IntMatrix.identity(nc).entries]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for mat in (a, v):
            for row in mat:
                row[i], row[j] = row[j], row[i]

    def clear_at(t: int) -> None:
        while True:
            candidates = [
                (abs(a[r][c]), r, c)
                for r in range(t, nr)
                for c in range(t, nc)
                if a[r][c] != 0
            ]
            if not candidates:
                return
            _, r, c = min(candidates)
            if r != t:
                swap_rows(t, r)
            if c != t:
                swap_cols(t, c)
            dirty = False
            for r in range(nr):
                if r != t and a[r][t] != 0:
                    q = a[r][t] // a[t][t]
                    _row_sub(a, r, t, q)
                    _row_sub(u, r, t, q)
                    dirty = dirty or a[r][t] != 0
            for c in range(nc):
                if c != t and a[t][c] != 0:
                    q = a[t][c] // a[t][t]
                    _col_sub(a, c, t, q)
                    _col_sub(v, c, t, q)
                    dirty = dirty or a[t][c] != 0
            if not dirty and all(a[r][t] == 0 for r in range(nr) if r != t) and all(
                a[t][c] == 0 for c in range(nc) if c != t
            ):
                return

    size = min(nr, nc)
    for t in range(size):
        clear_at(t)
    for t in range(size):
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
    # Repair the divisibility chain: whenever d_t does not divide d_{t+1},
    # fold column t+1 into column t and re-eliminate from position t.
    t = 0
    while t + 1 < size:
        dt, dn = a[t][t], a[t + 1][t + 1]
        if dt != 0 and dn % dt != 0:
            _col_sub(a, t, t + 1, -1)
            _col_sub(v, t, t + 1, -1)
            for s in range(t, size):
                clear_at(s)
            for s in range(size):
                if a[s][s] < 0:
                    a[s] = [-x for x in a[s]]
                    u[s] = [-x for x in u[s]]
            t = max(t - 1, 0)
        else:
            t += 1
    return IntMatrix.from_rows(u), IntMatrix.from_rows(a), IntMatrix.from_rows(v)


def integer_kernel(rows: list[Vector], ncols: int) -> list[Vector]:
    """Basis of ``{x in Z^ncols : row . x = 0 for every row}``.

    The returned vectors generate the full (saturated) kernel lattice.
    """
    if not rows:
        return [tuple(r) for r in IntMatrix.identity(ncols).entries]
    m = IntMatrix.from_rows(rows)
    _, d, v = snf(m)
    rank = sum(1 for i in range(min(d.rows, d.cols)) if d.entries[i][i] != 0)
    cols = list(zip(*v.entries))
    return [tuple(c) for c in cols[rank:]]


# ---------------------------------------------------------------------------
# Rational Gaussian elimination
# ---------------------------------------------------------------------------


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    a = [list(r) for r in rows]
    pivots: list[int] = []
    pr = 0
    ncols = len(a[0]) if a else 0
    for col in range(ncols):
        pivot = next((r for r in range(pr, len(a)) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[pr], a[pivot] = a[pivot], a[pr]
        inv = a[pr][col]
        a[pr] = [x / inv for x in a[pr]]
        for r in range(len(a)):
            if r != pr and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[pr])]
        pivots.append(col)
        pr += 1
    return a, pivots


def rational_rank(rows) -> int:
    rows = [list(qvec(r)) for r in rows]
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0
    _, pivots = _rref(rows)
    return len(pivots)


def solve_linear(rows, rhs) -> QVector | None:
    """One exact solution ``x`` of ``rows @ x = rhs``, or None if inconsistent.

    Free variables, if any, are set to zero.
    """
    rows = [list(qvec(r)) for r in rows]
    rhs = list(qvec(rhs))
    if len(rows) != len(rhs):
        raise InputError("system shape mismatch")
    ncols = len(rows[0]) if rows else 0
    aug = [row + [b] for row, b in zip(rows, rhs)]
    if not aug:
        return ()
    red, pivots = _rref(aug)
    for row in red:
        if all(x == 0 for x in row[:ncols]) and row[ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        if col == ncols:
            return None
        x[col] = red[i][ncols]
    return tuple(x)


def rational_nullspace(rows, ncols: int) -> list[QVector]:
    """Basis of the rational solution space of ``rows @ x = 0``."""
    rows = [list(qvec(r)) for r in rows if any(Fraction(x) != 0 for x in r)]
    if not rows:
        return [qvec([1 if i == j else 0 for j in range(ncols)]) for i in range(ncols)]
    red, pivots = _rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for i, col in enumerate(pivots):
            x[col] = -red[i][f]
        basis.append(tuple(x))
    return basis


def rational_det(rows) -> Fraction:
    a = [list(qvec(r)) for r in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


def invert_rational(rows) -> list[QVector]:
    """Exact inverse of a square rational matrix, as a list of rows."""
    a = [list(qvec(r)) for r in rows]
    n = len(a)
    aug = [a[i] + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    red, pivots = _rref(aug)
    if pivots != list(range(n)):
        raise InputError("matrix is singular")
    return [tuple(row[n:]) for row in red]


# ---------------------------------------------------------------------------
# Lattice bases
# ---------------------------------------------------------------------------


@frozen
class LatticeBasis:
    """Basis of a sublattice of Z^ambient_dim, rows in canonical HNF."""

    ambient_dim: int
    vectors: tuple[Vector, ...]

    def __post_init__(self):
        for v in self.vectors:
            if len(v) != self.ambient_dim:
                raise InputError("basis vector has wrong dimension")
        if self.vectors and rational_rank(self.vectors) != len(self.vectors):
            raise InputError("basis vectors must be linearly independent")

    @classmethod
    def standard(cls, n: int) -> LatticeBasis:
        return cls(n, tuple(tuple(r) for r in IntMatrix.identity(n).entries))

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def coordinates(self, point) -> QVector | None:
        """Rational coordinates of ``point`` in this basis, or None if off-span."""
        point = qvec(point)
        if len(point) != self.ambient_dim:
            raise InputError("point has wrong dimension")
        if not self.vectors:
            return () if all(x == 0 for x in point) else None
        cols = [list(col) for col in zip(*self.vectors)]
        return solve_linear(cols, point)

    def contains(self, point) -> bool:
        """Whether ``point`` lies in the lattice spanned by this basis."""
        coords = self.coordinates(point)
        return coords is not None and all(c.denominator == 1 for c in coords)

    def point_from_coordinates(self, coords) -> QVector:
        coords = qvec(coords)
        point = [Fraction(0)] * self.ambient_dim
        for c, vec in zip(coords, self.vectors):
            for i, x in enumerate(vec):
                point[i] += c * x
        return tuple(point)


def canonical_basis(rows, ambient_dim: int) -> LatticeBasis:
    """HNF-canonical LatticeBasis for the lattice generated by integer rows."""
    rows = [tuple(int(x) for x in r) for r in rows]
    if not rows:
        return LatticeBasis(ambient_dim, ())
    h, _ = hnf(IntMatrix.from_rows(rows))
    nonzero = tuple(r for r in h.entries if any(r))
    return LatticeBasis(ambient_dim, nonzero)


def lattice_basis_of_span(vectors, ambient_dim: int) -> LatticeBasis:
    """Canonical basis of (span of ``vectors``) intersected with Z^ambient_dim.

    This is the saturation of the lattice generated by the (rational) input
    vectors: computed as the integer kernel of the integer kernel of the
    primitive generators.
    """
    rows = [primitive_vector(v) for v in vectors]
    rows = [r for r in rows if any(r)]
    if not rows:
        return LatticeBasis(ambient_dim, ())
    complement = integer_kernel(rows, ambient_dim)
    saturated = integer_kernel(complement, ambient_dim)
    return canonical_basis(saturated, ambient_dim)


def complementary_in(target: LatticeBasis, a: LatticeBasis, b: LatticeBasis) -> bool:
    """Whether sublattices ``a`` and ``b`` are complementary inside ``target``.

    True iff the concatenation of the two bases generates exactly the set of
    ``target`` points lying in the span of ``a`` and ``b`` together, i.e. the
    spans meet trivially and every such target point splits uniquely as a sum.
    Raises InputError when ``a`` or ``b`` is not contained in ``target``.
    """
    if not (target.ambient_dim == a.ambient_dim == b.ambient_dim):
        raise InputError("ambient dimension mismatch")
    coords_a = [target.coordinates(v) for v in a.vectors]
    coords_b = [target.coordinates(v) for v in b.vectors]
    for c in coords_a + coords_b:
        if c is None or any(x.denominator != 1 for x in c):
            raise InputError("sublattice is not contained in the target lattice")
    joint = coords_a + coords_b
    if rational_rank(joint) != a.rank + b.rank:
        return False
    k = target.rank
    generated = canonical_basis([tuple(int(x) for x in c) for c in joint], k)
    saturated = lattice_basis_of_span(joint, k)
    return generated.vectors == saturated.vectors


# ---------------------------------------------------------------------------
# Conic and convex membership
# ---------------------------------------------------------------------------
#
# A reference oracle, independent of the facet scan in ``polytopes``: the
# tests check the production path against it, and no module of the package
# calls it.


def in_pos_hull(point, generators) -> bool:
    """Exact membership of ``point`` in the cone of nonnegative combinations.

    Decided by conic Caratheodory: the point is in the cone iff some linearly
    independent subset of generators, of size equal to the span dimension,
    expresses it with nonnegative coefficients.
    """
    point = qvec(point)
    gens = [qvec(g) for g in generators]
    gens = [g for g in gens if any(g)]
    if all(x == 0 for x in point):
        return True
    if not gens:
        return False
    d = rational_rank(gens)
    if rational_rank(gens + [point]) != d:
        return False
    n = len(point)
    for subset in itertools.combinations(gens, d):
        if rational_rank(subset) != d:
            continue
        cols = [[subset[j][i] for j in range(d)] for i in range(n)]
        coeffs = solve_linear(cols, point)
        if coeffs is not None and all(c >= 0 for c in coeffs):
            return True
    return False


def in_convex_hull(point, points) -> bool:
    """Exact membership of ``point`` in the convex hull of ``points``."""
    point = qvec(point)
    lifted = [qvec(p) + (Fraction(1),) for p in points]
    return in_pos_hull(point + (Fraction(1),), lifted)
