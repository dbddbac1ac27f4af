"""Exact integer and rational linear algebra on plain tuples.

Everything here is exact and no floating point is used anywhere.  Integer
vectors are tuples of ``int``; rational vectors may mix ``int`` and
``fractions.Fraction``.  Elimination runs on integers: each rational row is
scaled by the lcm of its denominators and reduced fraction-free, and
Fractions are built only for the values a function returns.  The scale is
small (ambient dimensions <= 5, a few dozen vectors).
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
    return tuple(x if type(x) is Fraction else Fraction(x) for x in values)


def clear_denominators(v) -> Vector:
    """Smallest positive integer multiple of ``v`` that is integral."""
    if all(type(x) is int for x in v):
        return tuple(v)
    v = qvec(v)
    scale = math.lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (scale // x.denominator) for x in v)


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
    a, u = _hnf_rows(m.entries, m.cols)
    return _matrix(a, m.cols), _matrix(u, m.rows)


def _matrix(rows: list[list[int]], ncols: int) -> IntMatrix:
    return IntMatrix(len(rows), ncols, tuple(map(tuple, rows)))


def _identity_rows(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _hnf_rows(rows, ncols: int) -> tuple[list[list[int]], list[list[int]]]:
    """The body of ``hnf`` on lists of integer rows."""
    a = [list(r) for r in rows]
    nrows = len(a)
    u = _identity_rows(nrows)
    pivot_row = 0
    for col in range(ncols):
        while True:
            live = [r for r in range(pivot_row, nrows) if a[r][col] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda r: abs(a[r][col]))
            r0 = live[0]
            for r in live[1:]:
                q = a[r][col] // a[r0][col]
                _row_sub(a, r, r0, q)
                _row_sub(u, r, r0, q)
        live = [r for r in range(pivot_row, nrows) if a[r][col] != 0]
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
    return a, u


def snf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form.

    Returns ``(u, d, v)`` with ``d = u * m * v`` diagonal, diagonal entries
    nonnegative with ``d[i] | d[i+1]``, and ``u``, ``v`` unimodular.  No
    module of the package calls it (lattice saturation takes kernels from
    Hermite forms), so it is not exported; it stays because the benchmark's
    tracer wraps it.
    """
    a = [list(r) for r in m.entries]
    nr, nc = m.rows, m.cols
    u = _identity_rows(nr)
    v = _identity_rows(nc)

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
    return _matrix(u, nr), _matrix(a, nc), _matrix(v, nc)


def integer_kernel(rows: list[Vector], ncols: int) -> list[Vector]:
    """Basis of ``{x in Z^ncols : row . x = 0 for every row}``.

    The returned vectors generate the full (saturated) kernel lattice: with
    ``h = u A^T`` the Hermite form of the transposed rows, they are the rows
    of the unimodular ``u`` at the zero rows of ``h``.
    """
    if not rows:
        return [tuple(r) for r in _identity_rows(ncols)]
    h, u = _hnf_rows(list(zip(*rows)), len(rows))
    return [tuple(ur) for hr, ur in zip(h, u) if not any(hr)]


# ---------------------------------------------------------------------------
# Fraction-free Gaussian elimination
# ---------------------------------------------------------------------------


def _echelon(rows) -> tuple[list[Vector], list[int]]:
    """Fraction-free Gauss-Jordan elimination of rational rows, each first
    scaled to a primitive integer row.

    A row is eliminated against the pivot row by cross-multiplying, as in
    Bareiss's integer-preserving elimination (Math. Comp. 22, 1968), and then
    divided by its gcd rather than by the previous pivot, so every entry
    stays an integer and small.  Returns the rows and the pivot columns: row
    i has a positive entry at ``pivots[i]`` and zeros at the other pivot
    columns, so row i divided by that entry is row i of the reduced row
    echelon form; the rows after the pivot rows are zero.  Every row is
    primitive, so the pivot rows depend only on the row space.
    """
    a = [primitive_vector(row) for row in rows]
    pivots: list[int] = []
    ncols = len(a[0]) if a else 0
    for col in range(ncols):
        pr = len(pivots)
        pivot = next((r for r in range(pr, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        a[pr], a[pivot] = a[pivot], a[pr]
        prow = a[pr]
        p = prow[col]
        for r, row in enumerate(a):
            f = row[col]
            if f and r != pr:
                row = [p * x - f * y for x, y in zip(row, prow)]
                g = math.gcd(*row)
                a[r] = [x // g for x in row] if g else row
        pivots.append(col)
    for r, col in enumerate(pivots):
        if a[r][col] < 0:
            a[r] = [-x for x in a[r]]
    return a, pivots


def rational_rank(rows) -> int:
    return len(_echelon(rows)[1])


def solve_linear(rows, rhs) -> QVector | None:
    """One exact solution ``x`` of ``rows @ x = rhs``, or None if inconsistent.

    Free variables, if any, are set to zero.
    """
    if len(rows) != len(rhs):
        raise InputError("system shape mismatch")
    if not rows:
        return ()
    ncols = len(rows[0])
    red, pivots = _echelon([list(row) + [b] for row, b in zip(rows, rhs)])
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for row, col in zip(red, pivots):
        x[col] = Fraction(row[ncols], row[col])
    return tuple(x)


def invert_rational(rows) -> list[QVector]:
    """Exact inverse of a square rational matrix, as a list of rows."""
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    red, pivots = _echelon(aug)
    if pivots != list(range(n)):
        raise InputError("matrix is singular")
    return [tuple(Fraction(x, row[i]) for x in row[n:]) for i, row in enumerate(red)]


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

    @property
    def rank(self) -> int:
        return len(self.vectors)

    def coordinates(self, point) -> QVector | None:
        """Rational coordinates of ``point`` in this basis, or None if off-span."""
        if len(point) != self.ambient_dim:
            raise InputError("point has wrong dimension")
        if not self.vectors:
            return () if all(x == 0 for x in point) else None
        cols = [list(col) for col in zip(*self.vectors)]
        return solve_linear(cols, point)


def canonical_basis(rows, ambient_dim: int) -> LatticeBasis:
    """HNF-canonical LatticeBasis for the lattice generated by integer rows."""
    h, _ = _hnf_rows([[int(x) for x in r] for r in rows], ambient_dim)
    return LatticeBasis(ambient_dim, tuple(tuple(r) for r in h if any(r)))


def _det(m: list[list[int]]) -> int:
    """Determinant of a small square integer matrix, by cofactor expansion."""
    if len(m) <= 1:
        return m[0][0] if m else 1
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return sum(
        (-1) ** j * a * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j, a in enumerate(m[0])
        if a
    )


def _saturation_index(rows: list[Vector], ncols: int) -> int:
    """Gcd of the maximal minors of integer rows: the index of their lattice
    in its saturation, 0 when the rows are dependent."""
    minors = itertools.combinations(range(ncols), len(rows))
    return math.gcd(*(_det([[row[c] for c in cols] for row in rows]) for cols in minors))


def complementary_in(target: LatticeBasis, a, b) -> bool:
    """Whether the lattices Sat(a) = span(a) n target and Sat(b), for rational
    rows a and b, are complementary: the spans meet in 0 and Sat(a) + Sat(b)
    is all of Sat(a u b).  Let I(rows) be the gcd of the maximal minors of
    the rows in coordinates of ``target``, cleared to primitive integer rows:
    the index of their lattice in its saturation, 0 for dependent rows.  As
    I(a u b) = [Sat(a u b) : Sat(a) + Sat(b)] * I(a) * I(b), the test is
    I(a u b) = I(a) * I(b) > 0.  A row off the span of ``target`` raises."""
    rows = [target.coordinates(v) for v in (*a, *b)]
    if None in rows:
        raise InputError("row is not in the span of the target lattice")
    rows = [primitive_vector(c) for c in rows]
    k, split = target.rank, len(a)
    joint, index_a, index_b = (_saturation_index(r, k) for r in (rows, rows[:split], rows[split:]))
    return joint > 0 and joint == index_a * index_b


# ---------------------------------------------------------------------------
# Conic and convex membership
# ---------------------------------------------------------------------------
#
# A reference oracle, independent of the facet scan in ``polytopes``: the
# tests check the production path against it, and no module of the package
# calls it.  It stays here rather than in the tests because the benchmark's
# tracer wraps it.


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
