"""Cones over polytopes in R^(n+1): projections, lower envelopes, shifts.

The cone over P is the set of nonnegative multiples of P embedded at height
one.  Directional projections travel along ``alpha(p) = (p, 1)``; the
vertical case is ``p = 0``.  For P containing the origin, the shifted lower
envelopes of cone(P) are read off one enumeration of an integer dilate, each
point tagged with its least dilation (``lattice_points_with_dilation``).
``decompose_sigma`` reads the same tags in one pass;
``shifted_envelope_lattice_points`` lists a single layer.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import InputError, PreconditionError
from .linalg import (
    LatticeBasis,
    QVector,
    Vector,
    canonical_basis,
    clear_denominators,
    qvec,
)
from .polytopes import (
    ConeHRep,
    RationalPolytope,
    _cone_member,
    _cone_member_strict,
    cone_hrep,
    denominator,
    dual_denominator,
    halfspace_rep,
    lattice_points_in_scaled,
    lattice_points_with_dilation,
)
from .records import frozen


def embed_at_height_one(point) -> QVector:
    """The affine embedding a -> (a, 1) into R^(n+1)."""
    return qvec(point) + (Fraction(1),)


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

    def contains_interior(self, point) -> bool:
        """Relative interior membership."""
        return _cone_member_strict(self.hrep, point)

    def lattice_points_at_height(self, height) -> list[Vector]:
        """Integer points of the cone slice at a rational height >= 0."""
        height = Fraction(height)
        if height < 0 or height.denominator != 1:
            return []
        t = (height.numerator,)
        return [y + t for y in lattice_points_in_scaled(self.base, height)]


@functools.lru_cache(maxsize=1024)
def cone_over(p: RationalPolytope) -> ConeOverPolytope:
    """The cone over P with its integer halfspace description."""
    return ConeOverPolytope(p, cone_hrep(p))


def llenv_points(cone: ConeOverPolytope, p, height_bound: int) -> list[tuple[QVector, bool]]:
    """Projections of the cone's lattice points with height <= bound.

    Each envelope point is flagged True when it is itself a lattice point;
    the list is deduplicated and lexicographically sorted.
    """
    if height_bound < 0:
        raise InputError("height bound must be nonnegative")
    ap = embed_at_height_one(p)
    if len(ap) != cone.ambient_dim:
        raise InputError("direction dimension mismatch")
    if not cone.contains(ap):
        raise PreconditionError("direction point must lie in the cone", "direction-not-in-cone")
    # Each facet h with h.alpha(p) < 0 caps the multiple of alpha(p) that a
    # point can drop by at (h.x)/(h.alpha(p)).
    ap_int = clear_denominators(ap)
    rows = []
    for h in cone.hrep.facet_rows:
        d = sum(a * b for a, b in zip(h, ap_int))
        if d < 0:
            rows.append((h, d))
    if not rows:
        raise PreconditionError(
            "projection direction is not bounded by the cone", "direction-unbounded"
        )
    scale = math.lcm(*(c.denominator for c in ap))
    seen: dict[QVector, bool] = {}
    for t in range(height_bound + 1):
        for pt in cone.lattice_points_at_height(t):
            lam = min(
                Fraction(scale * sum(a * b for a, b in zip(h, pt)), d) for h, d in rows
            )
            proj = tuple(a - lam * b for a, b in zip(map(Fraction, pt), ap))
            if proj not in seen:
                seen[proj] = all(c.denominator == 1 for c in proj)
    return sorted(seen.items())


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
    if height_bound < 0:
        return []
    shift = Fraction(index, d)
    out = []
    for y, lam in lattice_points_with_dilation(p, height_bound):
        t = lam + shift
        if t.denominator == 1 and t <= height_bound:
            out.append(y + (int(t),))
    return sorted(out)


@frozen
class LambdaP:
    """The refinement of Z^n generated by the standard basis and a point p.

    Stored through the integer lattice r * Lambda^p, where r = den(p).
    """

    point: QVector
    r: int
    scaled_basis: LatticeBasis

    def contains(self, v) -> bool:
        v = qvec(v)
        w = tuple(self.r * x for x in v)
        if any(x.denominator != 1 for x in w):
            return False
        return self.scaled_basis.contains(tuple(int(x) for x in w))


def lambda_p(p) -> LambdaP:
    """Lattice generated by the standard basis vectors together with p."""
    p = qvec(p)
    n = len(p)
    r = math.lcm(*(x.denominator for x in p)) if p else 1
    rows = [tuple(r if i == j else 0 for j in range(n)) for i in range(n)]
    rows.append(tuple(int(r * x) for x in p))
    return LambdaP(p, r, canonical_basis(rows, n))


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
    rep = halfspace_rep(p)
    n = p.dim
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

    if height_bound is None:
        height_bound = 4 * rho.denominator * denominator(p) * (n + 1)
    height_bound = Fraction(height_bound)
    for y, lam in lattice_points_with_dilation(p, height_bound):
        if (lam + s).denominator == 1:
            witness = qvec(y) + (lam + s,)
            return ShiftSearchResult(True, witness, True, height_bound)
    return ShiftSearchResult(False, None, False, height_bound)
