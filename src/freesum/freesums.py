"""Free sums and affine free sums of rational polytopes.

Classification runs the lattice-complementarity criterion: the two summands
must meet in a single rational point p, and the direction-space lattices of
the recentered summands must be complementary inside the refined lattice
generated by the standard basis and p.  The point p solves both summands'
integer equations of their affine hulls, the span rows ``cone_hrep`` reads
off the facet scan.  Complementarity is one integer identity, I(J u K) =
I(J) * I(K) > 0, for I the gcd of the maximal minors of the direction
rows in coordinates of r*Lambda^p, r = den(p): the index of their lattice in
its saturation.  The product-formula checks compare truncated generating
functions coefficient by coefficient.  Both sides are read off one table of
pairs of tagged lattice points: for an affine free sum through p, the points
v of H*r(J - p) in r*Lambda^p, each in the class sigma(v) mod r of the
heights s at which v/r + s*p is integral, and those of H*r(K - p) (for a
free sum, p = 0 and r = 1, the points of H*J and H*K), the class tables
of ``cones``, which owns r*Lambda^p and caches each table, so the checks
of one summand at one p and height share one walk.
``check_braun_multivariate`` reads the residual off the pairs for both
kinds.  The split check (``_split_check``) compares each pair's low with
the least height of its offset in the hull's own class table at p:
``decomposition_check`` reports it at any p, and ``decompose_sigma``, at
p = 0, runs it only where per-height counts differ.
``gorenstein_affine_check`` reads the interior identity of a Gorenstein
summand off its class table at the center.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter

from .cones import (
    _class_table,
    cone_over,
    lambda_p,
    llenv_points,
)
from .errors import (
    ClassificationError,
    InputError,
    InternalCheckError,
    PreconditionError,
)
from .linalg import (
    QVector,
    Vector,
    complementary_in,
    qvec,
    rational_rank,
    solve_linear,
)
from .polytopes import (
    RationalPolytope,
    cone_hrep,
    denominator,
    direction_basis,
    gorenstein_data,
    is_lattice_polyhedron,
    polar_dual,
)
from .records import frozen
from .series import (
    TruncatedSeries,
    delta_polynomial,
    ehrhart_denominator,
    ehrhart_series,
    poly_mul,
)

FREE_SUM = "free_sum"
AFFINE_FREE_SUM = "affine_free_sum"


@frozen
class FreeSumWitness:
    """Evidence that conv(J u K) is a (possibly affine) free sum: J and K meet
    in the one point p = ``intersection_point``, r = den(p), and the direction
    rows of J and K have saturation indices I(J u K) = I(J) * I(K) > 0 in
    coordinates of r*Lambda^p, so they cut complementary lattices out of it."""

    j: RationalPolytope
    k: RationalPolytope
    kind: str
    intersection_point: QVector
    r: int

    @property
    def factor_exponent(self) -> tuple[int, ...]:
        """Exponent r*alpha(p) of the monomial in the product formula."""
        return tuple(int(self.r * x) for x in self.intersection_point) + (self.r,)


@frozen
class BraunVerdict:
    holds_up_to_bound: bool
    height_bound: int
    factor_exponent: tuple[int, ...]
    counterexample: tuple[tuple[int, ...], int, int] | None
    residual: TruncatedSeries


@frozen
class EnvelopeCondition:
    holds: bool
    witness: QVector | None


@frozen
class DecompositionReport:
    points_checked: int
    violations: tuple[tuple[tuple[int, ...], int], ...]


@frozen
class ConverseReport:
    dual_p_lattice: bool
    dual_q_lattice: bool
    braun_holds_up_to_bound: bool
    height_bound: int
    counterexample: tuple[tuple[int, ...], int, int] | None


@frozen
class UnivariateBraunVerdict:
    series_holds: bool
    first_mismatch: tuple[int, int, int] | None
    delta_holds: bool
    delta_lhs: tuple[int, ...]


@functools.lru_cache(maxsize=512)
def hull_union(j: RationalPolytope, k: RationalPolytope) -> RationalPolytope:
    """Convex hull of the union, with redundant generators pruned."""
    if j.dim != k.dim:
        raise InputError("summands must share an ambient dimension")
    return RationalPolytope.from_points(j.dim, j.vertices + k.vertices)


@functools.lru_cache(maxsize=512)
def classify_sum(j: RationalPolytope, k: RationalPolytope) -> FreeSumWitness:
    """Classify conv(J u K) as a free sum or affine free sum.

    Raises ClassificationError when the affine spans fail to meet in a single
    rational point of both summands, or when the recentered span lattices are
    not complementary.
    """
    if j.dim != k.dim:
        raise InputError("summands must share an ambient dimension")
    # The affine spans meet where both summands' equations e . (x, 1) = 0 hold.
    equations = cone_hrep(j).span_rows + cone_hrep(k).span_rows
    p = solve_linear([e[:-1] for e in equations], [-e[-1] for e in equations])
    if p is None:
        raise ClassificationError("affine spans do not intersect", "spans-disjoint")
    dirs_j = direction_basis(j)
    dirs_k = direction_basis(k)
    if rational_rank(dirs_j + dirs_k) != len(dirs_j) + len(dirs_k):
        raise ClassificationError(
            "affine spans intersect in more than a point", "spans-intersect-in-flat"
        )
    if not (j.contains(p) and k.contains(p)):
        raise ClassificationError(
            "intersection point of the affine spans is not in both summands",
            "intersection-point-outside",
        )
    refinement = lambda_p(p)
    if not complementary_in(refinement.scaled_basis, dirs_j, dirs_k):
        raise ClassificationError(
            "recentered span lattices are not complementary", "not-complementary"
        )
    kind = FREE_SUM if all(x == 0 for x in p) else AFFINE_FREE_SUM
    return FreeSumWitness(j, k, kind, p, refinement.r)


def envelope_condition_check(j: RationalPolytope, p, height_bound: int) -> EnvelopeCondition:
    """Whether every projected lattice point of cone(J) along alpha(p) is integral.

    This is the hypothesis of the product formula; the witness, when the
    check fails, is the lex-smallest non-lattice projection found.
    """
    p = qvec(p)
    if not j.contains(p):
        raise PreconditionError("projection point must lie in the summand", "point-not-in-summand")
    points = llenv_points(cone_over(j), p, height_bound)
    witness = next((point for point, is_lattice in points if not is_lattice), None)
    return EnvelopeCondition(witness is None, witness)


def _settled(table: tuple[int, tuple]) -> bool:
    """Whether each point's least height in its class is its least dilation."""
    den, points = table
    return all(least * den == m for _, m, least in points)


def _pairs(table_j: tuple[int, tuple], table_k: tuple[int, tuple], r: int, height_bound: int):
    """(y, w, low, high) for each pair of the two class tables with low <= H:
    low the least T >= lambda'_J(y) + lambda'_K(w) in the class of high, and
    high = least(y) + least(w).  K is sorted by its tag, so the loop over K
    for one y stops at the first w that no height reaches."""
    (den_j, points_j), (den_k, points_k) = table_j, table_k
    den = math.lcm(den_j, den_k)
    scale_j, scale_k = den // den_j, den // den_k
    points_k = sorted((m * scale_k, w, least) for w, m, least in points_k)
    for y, m, least_y in points_j:
        a = m * scale_j
        for b, w, least_w in points_k:
            low = -((-a - b) // den)
            if low > height_bound:
                break
            high = least_y + least_w
            low += (high - low) % r
            if low <= height_bound:
                yield y, w, low, high


@functools.lru_cache(maxsize=512)
def check_braun_multivariate(witness: FreeSumWitness, height_bound: int) -> BraunVerdict:
    """Compare sigma of the hull cone with the one-minus-monomial product.

    Both sides are read off the pairs of class tables (``_class_table``) of
    r*(J - p) and r*(K - p), r = den(p); for a free sum (p = 0, r = 1) these
    are the tagged points of H*J and H*K themselves.
    - A lattice point (x, s) of cone(J) is x = s*p + a with a in s*(J - p),
      that is s >= lambda'_J(a), lambda' the least dilation in J - p (and of
      v = r*a in r*(J - p)).  The offset v = r*x - s*r*p lies in r*Lambda^p
      and in the span of J - p.  Conversely such a v is v = c*r*p (mod r)
      for exactly one c mod r, as r*p has order r mod r, and x = s*p + v/r
      is integral iff s is in the class sigma(v) = -c mod r.  K is the same.
    - Classification makes the spans independent and their lattices
      complementary in r*Lambda^p, so every lattice point (z, T) of either
      side is z = T*p + (v + w)/r for exactly one pair (v, w) of the tables,
      with T in the class sigma(v) + sigma(w).  Let low be the least T in
      that class with T >= lambda'_J(v) + lambda'_K(w), and high = s_min(v)
      + t_min(w), each the least value in its class at or above its lambda'.
    - conv(J u K) - p is the free sum of J - p and K - p, whose least
      dilations add, so the hull cone holds (z, T) iff lambda'_J +
      lambda'_K <= T, that is iff low <= T (the split check,
      ``_split_check``, checks it against the hull's own class table).
    - sigma_J * sigma_K has coefficient #{(s, t): s >= s_min(v), t >=
      t_min(w), s + t = T, both in their classes} there; times (1 -
      z^(r*alpha(p))), which moves T by r and keeps (v, w), that is [high <=
      T].  So the residual at (z, T) is [low <= T < high], 0 or 1.
    - low <= high, both in one class, and high < lambda'_J + lambda'_K + 2r
      <= low + 2r, so high - low is 0 or r: a pair adds 1 to the residual at
      T = low iff low < high and low <= H, at the exponent ((T*r*p + v +
      w)/r, T).  The counterexample, the lex-smallest exponent where the
      sides differ, is the least such exponent, where the hull has 1 and the
      product 0.  With r = 1 this is low = ceil(lambda_J + lambda_K) and high
      = ceil(lambda_J) + ceil(lambda_K).
    A pair with low <= H has both lambda' at most H, so the points of
    H*r(J - p) and H*r(K - p) hold every pair that counts.  If every point of
    one table has an integer lambda' in its own class, then low = high for
    every pair and the residual is zero, so K is tagged first and H*r(J - p)
    is not enumerated when K settles it.  A negative height bound raises in
    the tables' walk (``lattice_tags``).

    Cached, like ``sigma_cone``: the verdict is frozen and its residual is a
    read-only series, so callers share no mutable state."""
    p, r = witness.intersection_point, witness.r
    rp = witness.factor_exponent[:-1]
    table_k = _class_table(witness.k, p, height_bound)
    terms: dict[tuple[int, ...], int] = {}
    if not _settled(table_k):
        table_j = _class_table(witness.j, p, height_bound)
        if not _settled(table_j):
            for v, w, low, high in _pairs(table_j, table_k, r, height_bound):
                if low < high:
                    key = tuple((low * c + a + b) // r for c, a, b in zip(rp, v, w)) + (low,)
                    terms[key] = terms.get(key, 0) + 1
    residual = TruncatedSeries(witness.j.dim + 1, height_bound, terms)
    counterexample = (min(terms), 1, 0) if terms else None
    return BraunVerdict(
        not terms, height_bound, witness.factor_exponent, counterexample, residual
    )


def _series_mismatch(j: RationalPolytope, k: RationalPolytope, r: int, height_bound: int):
    """The least (t, lhs, rhs) at which Braun's identity Ehr_(J+K) = (1 -
    t^r) * Ehr_J * Ehr_K fails up to H, or None.  It is the product formula
    at z = 1, and each residual coefficient is 0 or 1, so it holds iff the
    multivariate verdict holds: the cached counting series of the hull, J
    and K check the pair tables of ``check_braun_multivariate``."""
    lhs = ehrhart_series(hull_union(j, k), height_bound).coefficients
    product = poly_mul(*(ehrhart_series(q, height_bound).coefficients for q in (j, k)))
    rhs = [product[t] - (product[t - r] if t >= r else 0) for t in range(height_bound + 1)]
    return next(((t, lhs[t], rhs[t]) for t in range(height_bound + 1) if lhs[t] != rhs[t]), None)


def check_braun_univariate(
    p: RationalPolytope, q: RationalPolytope, height_bound: int
) -> UnivariateBraunVerdict:
    """Braun's formula Ehr_(P+Q) = (1 - t) Ehr_P Ehr_Q on the counting series
    up to the height bound, and as delta_hull D_P D_Q = (1 - t) D_hull delta_P
    delta_Q, each series delta / D with D = (1 - t^den)^power.  Each delta is
    complete, so ``delta_holds`` decides the formula for every T."""
    witness = classify_sum(p, q)
    if witness.kind != FREE_SUM:
        raise PreconditionError(
            "univariate product formula applies to free sums at the origin",
            "not-a-free-sum-at-origin",
        )
    mismatch = _series_mismatch(p, q, 1, height_bound)
    delta_p, delta_q, delta_hull = (
        delta_polynomial(x, denominator(x) * (x.affine_dim + 2)) for x in (p, q, hull_union(p, q))
    )
    d_p, d_q, d_hull = (ehrhart_denominator(d.den, d.power) for d in (delta_p, delta_q, delta_hull))
    # Every delta starts with 1 and every D leads with +-1: no trailing zeros.
    lhs = poly_mul(delta_hull.coefficients, poly_mul(d_p, d_q))
    rhs = poly_mul(poly_mul([1, -1], d_hull), poly_mul(delta_p.coefficients, delta_q.coefficients))
    return UnivariateBraunVerdict(mismatch is None, mismatch, lhs == rhs, delta_hull.coefficients)


def decompose_sigma(
    p: RationalPolytope, k: RationalPolytope, height_bound: int
) -> tuple[int, ...]:
    """The counts c_0..c_H of the hull cone's first heights h(z), whose
    series up to H has sum c_T*(H + 1 - T) terms, [h(z) <= T] at (z, T).

    With d the dual denominator of P, an integer point y of H*P lies on
    exactly one envelope layer of cone(P): at height t = ceil(lambda(y)),
    shifted by the gap i/d = t - lambda(y), lambda the least dilation.  It
    pairs with the points (w, s) of cone(K) shifted down by that gap, s >=
    lambda_K(w) - i/d, that is t + s >= lambda(y) + lambda_K(w).  So the
    pair (y, w) maps y + w to its low, ceil(lambda(y) + lambda_K(w)): c_T =
    #{(a, b) : ceil((a + b)/den) = T} over the tags of H*P and H*K on a
    common den, read off their class tables at the origin, the Braun
    check's.

    The hull's counts are the first differences of its counting series
    (``ehrhart_series``, one counting walk, shared with the Braun
    cross-check).  The spans are
    independent, so (y, w) -> y + w is injective, and y + w lies in
    low*conv(P u K): the pairs with low <= T inject into the hull points
    with h <= T.  Equal counts up to H make each map onto, so a hull point
    z is y + w for a pair with low <= h(z), its only pair: low = h(z), and
    equal counts are the split check.  A mismatch raises, as equality holds
    for every free sum, at the lex-smallest (z, T) ``_split_check`` finds, if any.
    """
    witness = classify_sum(p, k)
    if witness.kind != FREE_SUM:
        raise PreconditionError(
            "the shifted-envelope decomposition applies to free sums at the origin",
            "not-a-free-sum-at-origin",
        )
    tables = [_class_table(q, (0,) * p.dim, height_bound) for q in (p, k)]
    den = math.lcm(*(d for d, _ in tables))
    hist_p, hist_k = (Counter(m * (den // d) for _, m, _ in table) for d, table in tables)
    counts = [0] * (height_bound + 1)
    for a, n_a in hist_p.items():
        for b, n_b in hist_k.items():
            low = -((-a - b) // den)
            if low <= height_bound:
                counts[low] += n_a * n_b
    ehr = ehrhart_series(hull_union(p, k), height_bound).coefficients
    if counts != [e - d for d, e in zip((0, *ehr), ehr)]:
        faults = _split_check(p, k, (0,) * p.dim, height_bound)[1]
        at = "at {}: {} splits, direct coefficient {}".format(*faults[0]) if faults else "in counts"
        raise InternalCheckError(
            f"shifted-envelope decomposition disagrees with enumeration {at}"
        )
    return tuple(counts)


def converse_search(
    p: RationalPolytope, q: RationalPolytope, height_bound: int
) -> ConverseReport:
    """Tabulate dual-lattice status of both summands against the product check.

    A lattice-polyhedron dual on either side upgrades a bounded ``holds``
    verdict to a guarantee, so observing a counterexample in that situation
    raises instead of reporting.
    """
    witness = classify_sum(p, q)
    dual_p = is_lattice_polyhedron(polar_dual(p))
    dual_q = is_lattice_polyhedron(polar_dual(q))
    verdict = check_braun_multivariate(witness, height_bound)
    if (dual_p or dual_q) and not verdict.holds_up_to_bound:
        raise InternalCheckError(
            "product formula failed although a summand has a lattice-polyhedron dual"
        )
    return ConverseReport(
        dual_p, dual_q, verdict.holds_up_to_bound, height_bound, verdict.counterexample
    )


def gorenstein_affine_check(
    p: RationalPolytope, k: RationalPolytope, height_bound: int
) -> BraunVerdict:
    """Product formula at the canonical interior center c of a Gorenstein summand.

    Also re-verifies up to the height bound that the interior of cone(P) is
    cone(P) + (r*c, r), r the index, on P's class table at c, which the Braun
    check walks too.  A lattice point (x, s) = (s*c + v/r, s) of cone(P) has
    s = least(v), least + r, ..., where least - r < lambda'(v) <= least.  As
    c is interior, (x, s) is interior iff lambda'(v) < s, and in the
    translate iff lambda'(v) <= s - r: the two differ only at s = least, when
    lambda'(v) < least, that is when the tag is not den * least.  It raises
    at the least (least, v) over those v, which is the least (least, x), as x
    = least*c + v/r: the point a walk by height and then lex order meets first.
    """
    data = gorenstein_data(p)
    if data is None:
        raise PreconditionError("first summand is not Gorenstein", "not-gorenstein")
    witness = classify_sum(p, k)
    if qvec(witness.intersection_point) != qvec(data.center):
        raise PreconditionError(
            "intersection point differs from the Gorenstein center",
            "gorenstein-center-mismatch",
        )
    if witness.r != data.index:
        raise InternalCheckError("Gorenstein index differs from the center denominator")
    r, rc = witness.r, witness.factor_exponent[:-1]
    den, table = _class_table(p, witness.intersection_point, height_bound)
    faults = [(least, v) for v, m, least in table if m < den * least and least <= height_bound]
    if faults:
        least, v = min(faults)
        point = tuple((least * c + a) // r for c, a in zip(rc, v)) + (least,)
        raise InternalCheckError(f"interior identity fails at {point} for the Gorenstein summand")
    return check_braun_multivariate(witness, height_bound)


def _split_check(j: RationalPolytope, k: RationalPolytope, p, height_bound: int):
    """(checked, faults) of the split check through p, r = den(p), for J
    and K whose spans from p are independent: each pair (``_pairs``) of the
    class tables of J and K at p maps its offset v = y + w to its low, and
    the hull cone's lattice points up to H, checked in all, are read off the
    hull's class table, z = t*p + v/r at t = least, least + r, ... <= H.
    faults lists in lex order each (z + (t,), splits, coefficient) where the
    number of pairs of offset v with low <= t is not the hull cone's
    coefficient, 0 or 1."""
    r = lambda_p(p).r
    tables = [_class_table(q, p, height_bound) for q in (j, k, hull_union(j, k))]
    found = _pairs(*tables[:2], r, height_bound)
    pairs = [(tuple(map(operator.add, y, w)), low) for y, w, low, _ in found]
    lows = dict(pairs)
    direct = {v: least for v, _, least in tables[2][1] if least <= height_bound}
    checked = sum((height_bound - least) // r + 1 for least in direct.values())
    faults = []
    if len(pairs) > len(lows) or lows != direct:
        splits_of: dict[Vector, list[int]] = {}
        for v, low in pairs:
            splits_of.setdefault(v, []).append(low)
        rp = tuple(int(r * x) for x in p)
        for v in splits_of.keys() | direct.keys():
            least, v_lows = direct.get(v), splits_of.get(v, ())
            # The heights of offset v form one class mod r.
            for t in range((v_lows[0] if least is None else least) % r, height_bound + 1, r):
                splits = sum(low <= t for low in v_lows)
                coefficient = int(least is not None and least <= t)
                if splits != coefficient:
                    point = tuple((t * c + a) // r for c, a in zip(rp, v)) + (t,)
                    faults.append((point, splits, coefficient))
        faults.sort()
    return checked, faults


def decomposition_check(
    j: RationalPolytope, k: RationalPolytope, p, height_bound: int
) -> DecompositionReport:
    """Existence and uniqueness of the split z = x + y over the hull cone.

    A lattice point (z, t) of cone(conv(J u K)) up to the height bound has
    the offset v = r*(z - t*p) in r*Lambda^p, r = den(p), split as v = y + w
    along the independent spans of J - p and K - p.  It passes when y, and
    so w, lies in r*Lambda^p and t is at least the low of the pair (y, w) of
    the class tables at p: then x = (y/r + mu*p, mu), mu = lambda'_J(y), is
    the one candidate on the projected lattice envelope of cone(J) with z - x
    in cone(K).  Every v has its pair iff the direction rows have saturation
    indices I(J u K) = I(J) * I(K) in r*Lambda^p (``complementary_in``).
    The violations are the points (z, t), in lex order, each with its number
    of splits, 0 at a hull point that fails.  Requires p in both summands and
    a nonnegative height bound.
    """
    p = qvec(p)
    if height_bound < 0:
        raise InputError("height bound must be nonnegative")
    for q, which in ((j, "first"), (k, "second")):
        if not q.contains(p):
            message = f"projection point must lie in the {which} summand"
            raise PreconditionError(message, "point-not-in-summand")
    basis = direction_basis(j) + direction_basis(k)
    if rational_rank(basis) != len(basis):
        raise PreconditionError("direction spaces intersect nontrivially", "spans-intersect-in-flat")
    checked, faults = _split_check(j, k, p, height_bound)
    return DecompositionReport(checked, tuple((point, splits) for point, splits, _ in faults))
