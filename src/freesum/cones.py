"""Cones over polytopes in R^(n+1): projections, lower envelopes, shifts,
and the refined lattice r*Lambda^p of a rational point p, r = den(p).

The cone over P is the set of nonnegative multiples of P embedded at height
one.  Directional projections travel along ``alpha(p) = (p, 1)``; the
vertical case is ``p = 0``.  For p in P, the lattice points (x, s) of
cone(P) with offset v = r*(x - s*p), a point of r*Lambda^p, are those at
the heights s >= lambda'(v) in v's class mod r, lambda' the least dilation
in r*(P - p).  One walk of the points of r*Lambda^p in H*r(P - p), in a
basis of that lattice, tagged with den * lambda' (``lattice_tags``), gives
the class table (``_class_table``), with the basis classes of
``lambda_p``: the one cached listing of a cone's lattice points.
``llenv_points`` and the split, Braun and Gorenstein checks of ``freesums``
read it at p; ``lattice_points_by_height``, the shifted envelope layers,
the shifted-envelope search and ``decompose_sigma`` read it at the origin.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from .errors import InputError, PreconditionError
from .linalg import (
    LatticeBasis,
    QVector,
    Vector,
    _hnf_rows,
    invert_rational,
    qvec,
)
from .polytopes import (
    ConeHRep,
    RationalPolytope,
    _cone_member,
    cone_hrep,
    denominator,
    dual_denominator,
    halfspace_rep,
    lattice_points_in_scaled,
    lattice_tags,
)
from .records import frozen


@frozen
class ConeOverPolytope:
    """Cone over a rational polytope, described by halfspaces.

    ``hrep`` is the integer description of the base polytope's cone: its
    ``facet_rows`` h cut the cone out of its span as ``h . x <= 0``.
    """

    base: RationalPolytope
    hrep: ConeHRep

    @property
    def ambient_dim(self) -> int:
        return self.base.dim + 1

    def contains(self, point) -> bool:
        point = qvec(point)
        if len(point) != self.ambient_dim:
            raise InputError("point dimension mismatch")
        return _cone_member(self.hrep, point)

    def lattice_points_by_height(self, height_bound: int) -> list[tuple[Vector, range]]:
        """Pairs (y, heights): every integer y of some slice up to the bound,
        with the heights t at which (y, t) is in the cone.  For a base with
        the origin they run from ceil(lambda(y)) up, read off the class table
        of H*P at the origin; other bases are walked one slice at a time."""
        ts = range(height_bound + 1)
        if self.contains((0,) * self.base.dim + (1,)):
            _, table = _class_table(self.base, (0,) * self.base.dim, height_bound)
            return [(y, ts[least:]) for y, _, least in table]
        return [(y, ts[t : t + 1]) for t in ts for y in lattice_points_in_scaled(self.base, t)]


def cone_over(p: RationalPolytope) -> ConeOverPolytope:
    """The cone over P with its integer halfspace description."""
    return ConeOverPolytope(p, cone_hrep(p))


def llenv_points(cone: ConeOverPolytope, p, height_bound: int) -> list[tuple[QVector, bool]]:
    """Projections along alpha(p) of the cone's lattice points with height
    <= bound, p in the base J, read off J's class table at p, in lex order.

    A lattice point (x, s) drops to the envelope at the least dilation
    lambda'(v) of its offset v = r*(x - s*p) in r*(J - p), so its projection
    is (lambda'(v)*p + v/r, lambda'(v)), one for each v whose least height
    is at most the bound.  It is flagged True when it is a lattice point,
    that is when lambda'(v) is that least height.
    """
    if height_bound < 0:
        raise InputError("height bound must be nonnegative")
    p = qvec(p)
    if len(p) + 1 != cone.ambient_dim:
        raise InputError("direction dimension mismatch")
    if not cone.contains(p + (Fraction(1),)):
        raise PreconditionError("direction point must lie in the cone", "direction-not-in-cone")
    den, table = _class_table(cone.base, p, height_bound)
    r = lambda_p(p).r
    rp = tuple(int(r * x) for x in p)
    # The projection of v is (m*r*p + den*v, m*r) over den*r, m = den * lambda'(v).
    out = sorted(
        (tuple(m * a + den * b for a, b in zip(rp, v)) + (m * r,), m == least * den)
        for v, m, least in table
        if least <= height_bound
    )
    scale = den * r
    return [(tuple(Fraction(a, scale) for a in vec), flag) for vec, flag in out]


def shifted_envelope_lattice_points(
    p: RationalPolytope, index: int, height_bound: int
) -> list[Vector]:
    """Integer points on the index-th shifted lower envelope, height <= bound.

    These are the lattice points lying in the cone shifted up by
    index/d but not in the cone shifted up by (index+1)/d, where d is the
    denominator of the polar dual.  As d times the least dilation of an
    integer point y is an integer, (y, t) is such a point exactly when t is
    that least dilation plus index/d.
    """
    d = dual_denominator(p)
    if not 0 <= index <= d - 1:
        raise InputError(f"shift index must be in [0, {d - 1}]")
    den, table = _class_table(p, (0,) * p.dim, height_bound)
    # t = m/den + index/d; d divides den, as den * lambda is an integer.
    out = []
    for y, m, _ in table:
        t, rest = divmod(m + index * (den // d), den)
        if not rest and t <= height_bound:
            out.append(y + (t,))
    return sorted(out)


@frozen
class LambdaP:
    """The refinement of Z^n generated by the standard basis and a point p.

    Stored through the integer lattice r * Lambda^p, where r = den(p), with
    the class -c mod r of each basis row b = c*r*p (mod r) in ``classes``.
    """

    point: QVector
    r: int
    scaled_basis: LatticeBasis
    classes: tuple[int, ...]


def lambda_p(p) -> LambdaP:
    """Lattice generated by the standard basis vectors together with p.  The
    Hermite form of the rows r*e_j and r*p has the basis in its first n rows,
    and its transform u makes row i sum_j u[i][j] * row_j = u[i][n]*r*p mod r,
    of class -u[i][n] mod r (unique, as r*p has order r mod r)."""
    return _lambda_p(qvec(p))


@functools.lru_cache(maxsize=1024)
def _lambda_p(p: QVector) -> LambdaP:
    n = len(p)
    r = math.lcm(*(x.denominator for x in p)) if p else 1
    rows = [[r * (i == j) for j in range(n)] for i in range(n)] + [[int(r * x) for x in p]]
    h, u = _hnf_rows(rows, n)
    basis = LatticeBasis(n, tuple(map(tuple, h[:n])))
    return LambdaP(p, r, basis, tuple(-row[n] % r for row in u[:n]))


@functools.lru_cache(maxsize=512)
def _class_table(q: RationalPolytope, p: QVector, height_bound: int) -> tuple[int, tuple]:
    """(den, ((v, m, least), ...)): the points v of r*Lambda^p in H*r(Q - p),
    r = den(p), in lex order, with m = den * lambda'(v) from the tagged walk
    (``lattice_tags``) and least the least s >= lambda'(v) in v's class
    sigma(v) = -c mod r, where v = c*r*p (mod r).  At r = 1 every integer
    point is kept, least = ceil(lambda').  For r > 1 the walk runs in
    coordinates u of the basis rows b of r*Lambda^p, v = u.b, in which
    lambda' is unchanged and sigma(v) = u.sigma(b) mod r: about r*H^n*vol(Q)
    points, where H*r(Q - p) holds r^n*H^n*vol(Q) integer points.  Cached:
    the one listing of a cone's lattice points, all tuples, shared by all."""
    refinement = lambda_p(p)
    r = refinement.r
    if r == 1:
        q = q.translate(tuple(-x for x in p)) if any(p) else q
        den, tagged = lattice_tags(q, height_bound, points=True)
        return den, tuple((v, m, -(-m // den)) for v, m in tagged)
    basis, sigmas = refinement.scaled_basis.vectors, refinement.classes
    inverse = tuple(zip(*invert_rational(basis)))
    shifted = [[r * (a - c) for a, c in zip(w, p)] for w in q.vertices]
    image = tuple(tuple(sum(map(operator.mul, w, col)) for col in inverse) for w in shifted)
    den, tagged = lattice_tags(RationalPolytope(q.dim, image), height_bound, points=True)
    table, columns = [], tuple(zip(*basis))
    for u, m in tagged:
        least, sigma = -(-m // den), sum(map(operator.mul, u, sigmas))
        v = tuple(sum(map(operator.mul, u, column)) for column in columns)
        table.append((v, m, least + (sigma - least) % r))
    return den, tuple(sorted(table))


@frozen
class ShiftSearchResult:
    """Outcome of looking for lattice points on a shifted lower envelope."""

    nonempty: bool
    witness: QVector | None
    exact: bool
    searched_height: Fraction | None


def _congruence_solvable(coeffs: Vector, modulus: int, rhs: int) -> bool:
    g = math.gcd(*coeffs, modulus) if coeffs else modulus
    if g == 0:
        return rhs == 0
    return rhs % g == 0


def shifted_envelope_nonempty(
    p: RationalPolytope, rho, sign: int, height_bound=None
) -> ShiftSearchResult:
    """Decide whether the lower envelope of cone(P), shifted vertically by
    sign*rho, contains an integer point.

    Facet-by-facet congruence tests give an exact emptiness verdict; when
    some congruence is solvable, a bounded scan produces a witness, falling
    back to an inexact ``empty up to H`` verdict if none shows up.
    """
    if sign not in (1, -1):
        raise InputError("sign must be +1 or -1")
    rho = Fraction(rho)
    s = sign * rho
    n = p.dim
    if height_bound is None:
        height_bound = 4 * rho.denominator * denominator(p) * (n + 1)
    height_bound = Fraction(height_bound)
    if height_bound < 0:
        raise InputError("dilation factor must be nonnegative")
    rep = halfspace_rep(p)
    if rep.span_basis.rank == 0:
        if s.denominator == 1:
            witness = (Fraction(0),) * n + (s,)
            return ShiftSearchResult(True, witness, True, None)
        return ShiftSearchResult(False, None, True, None)

    solvable = False
    for phi in rep.one_facets:
        q = math.lcm(*(c.denominator for c in phi))
        coeffs = tuple(int(c * q) * s.denominator for c in phi)
        if _congruence_solvable(coeffs, q * s.denominator, -s.numerator * q):
            solvable = True
            break
    if not solvable:
        return ShiftSearchResult(False, None, True, None)

    den, table = _class_table(p, (0,) * n, math.ceil(height_bound))
    limit, modulus = math.floor(height_bound * den), den * s.denominator
    for y, m, _ in table:
        # lambda = m/den is at most the bound, and lambda + s is an integer.
        if m <= limit and (m * s.denominator + s.numerator * den) % modulus == 0:
            witness = qvec(y) + (Fraction(m, den) + s,)
            return ShiftSearchResult(True, witness, True, height_bound)
    return ShiftSearchResult(False, None, False, height_bound)
