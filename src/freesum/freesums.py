"""Free sums and affine free sums of rational polytopes.

Classification runs the lattice-complementarity criterion: the two summands
must meet in a single rational point p, and the direction-space lattices of
the recentered summands must be complementary inside the refined lattice
generated by the standard basis and p.  The product-formula checks compare
truncated generating functions coefficient by coefficient.  For a free sum
both sides are read off one table of the tagged lattice points of H*J and
H*K: ``check_braun_multivariate`` reads the residual off it, and the split
check is ``decompose_sigma``'s comparison of it with direct enumeration;
``decomposition_check`` is the per-point form, which also covers affine free
sums.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .cones import (
    LambdaP,
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
    LatticeBasis,
    QVector,
    Vector,
    canonical_basis,
    complementary_in,
    invert_rational,
    lattice_basis_of_span,
    qvec,
    rational_rank,
    solve_linear,
)
from .polytopes import (
    RationalPolytope,
    _least_dilation,
    cone_hrep,
    denominator,
    direction_basis,
    gorenstein_data,
    is_lattice_polyhedron,
    lattice_points_with_dilation,
    polar_dual,
)
from .records import frozen
from .series import (
    TruncatedSeries,
    apply_one_minus_monomial,
    delta_polynomial,
    ehrhart_series,
    poly_divmod,
    poly_mul,
    poly_pow,
    series_mul,
    sigma_cone,
)

FREE_SUM = "free_sum"
AFFINE_FREE_SUM = "affine_free_sum"


@frozen
class FreeSumWitness:
    """Evidence that conv(J u K) is a (possibly affine) free sum.

    The two sublattice bases live inside ``target``; for affine sums all
    three are scaled by r = den(p) so they are honest integer lattices.
    """

    j: RationalPolytope
    k: RationalPolytope
    kind: str
    intersection_point: QVector
    r: int
    sublattice_j: LatticeBasis
    sublattice_k: LatticeBasis
    target: LatticeBasis

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
    delta_rhs: tuple[Fraction, ...] | None


@functools.lru_cache(maxsize=1024)
def hull_union(j: RationalPolytope, k: RationalPolytope) -> RationalPolytope:
    """Convex hull of the union, with redundant generators pruned."""
    if j.dim != k.dim:
        raise InputError("summands must share an ambient dimension")
    return RationalPolytope.from_points(j.dim, j.vertices + k.vertices)


def _span_cap_lattice(directions, lattice: LatticeBasis) -> LatticeBasis:
    """Canonical basis of span(directions) intersected with the given lattice."""
    coords = [lattice.coordinates(v) for v in directions]
    saturated = lattice_basis_of_span(coords, lattice.rank)
    rows = [lattice.point_from_coordinates(c) for c in saturated.vectors]
    return canonical_basis([tuple(int(x) for x in r) for r in rows], lattice.ambient_dim)


def _split_lattices(
    j: RationalPolytope, k: RationalPolytope, p: QVector
) -> tuple[LambdaP, LatticeBasis, LatticeBasis]:
    """The refinement Lambda^p, stored scaled by r = den(p), and the lattices
    of the direction spaces of J and K inside r*Lambda^p."""
    refinement = lambda_p(p)
    target = refinement.scaled_basis
    return (
        refinement,
        _span_cap_lattice(direction_basis(j), target),
        _span_cap_lattice(direction_basis(k), target),
    )


@functools.lru_cache(maxsize=512)
def classify_sum(j: RationalPolytope, k: RationalPolytope) -> FreeSumWitness:
    """Classify conv(J u K) as a free sum or affine free sum.

    Raises ClassificationError when the affine spans fail to meet in a single
    rational point of both summands, or when the recentered span lattices are
    not complementary.
    """
    if j.dim != k.dim:
        raise InputError("summands must share an ambient dimension")
    n = j.dim
    dirs_j = direction_basis(j)
    dirs_k = direction_basis(k)
    v0, w0 = j.vertices[0], k.vertices[0]
    columns = list(dirs_j) + [tuple(-x for x in d) for d in dirs_k]
    rows = [[col[i] for col in columns] for i in range(n)]
    rhs = [a - b for a, b in zip(w0, v0)]
    sol = solve_linear(rows, rhs) if columns else (None if any(rhs) else ())
    if sol is None:
        raise ClassificationError("affine spans do not intersect", "spans-disjoint")
    if rational_rank(list(dirs_j) + list(dirs_k)) != len(dirs_j) + len(dirs_k):
        raise ClassificationError(
            "affine spans intersect in more than a point", "spans-intersect-in-flat"
        )
    p = tuple(
        v + sum(sol[i] * dirs_j[i][t] for i in range(len(dirs_j)))
        for t, v in enumerate(v0)
    )
    if not (j.contains(p) and k.contains(p)):
        raise ClassificationError(
            "intersection point of the affine spans is not in both summands",
            "intersection-point-outside",
        )
    refinement, sub_j, sub_k = _split_lattices(j, k, p)
    target = refinement.scaled_basis
    if not complementary_in(target, sub_j, sub_k):
        raise ClassificationError(
            "recentered span lattices are not complementary", "not-complementary"
        )
    kind = FREE_SUM if all(x == 0 for x in p) else AFFINE_FREE_SUM
    return FreeSumWitness(j, k, kind, p, refinement.r, sub_j, sub_k, target)


def envelope_condition_check(j: RationalPolytope, p, height_bound: int) -> EnvelopeCondition:
    """Whether every projected lattice point of cone(J) along alpha(p) is integral.

    This is the hypothesis of the product formula; the witness, when the
    check fails, is the lex-smallest non-lattice projection found.
    """
    p = qvec(p)
    if not j.contains(p):
        raise PreconditionError("projection point must lie in the summand", "point-not-in-summand")
    points = llenv_points(cone_over(j), p, height_bound)
    for point, is_lattice in points:
        if not is_lattice:
            return EnvelopeCondition(False, point)
    return EnvelopeCondition(True, None)


def _pair_table(
    points_j: tuple[tuple[Vector, Fraction], ...], points_k: tuple[tuple[Vector, Fraction], ...]
) -> tuple[int, list[tuple[Vector, int]], list[tuple[int, Vector]]]:
    """The tagged integer points of H*J and H*K (``lattice_points_with_dilation``)
    with their least dilations as integers over one common denominator den:
    (den, [(y, a)], [(b, w)]), J in lex order and K sorted by b, so a loop
    over K for one y can stop at the first w that no height reaches."""
    den = math.lcm(*(lam.denominator for _, lam in points_j + points_k))
    scaled_j = [(y, lam.numerator * (den // lam.denominator)) for y, lam in points_j]
    scaled_k = sorted((lam.numerator * (den // lam.denominator), w) for w, lam in points_k)
    return den, scaled_j, scaled_k


@functools.lru_cache(maxsize=512)
def check_braun_multivariate(witness: FreeSumWitness, height_bound: int) -> BraunVerdict:
    """Compare sigma of the hull cone with the one-minus-monomial product.

    For a free sum both sides are read off the pairs of tagged points that
    ``_pair_table`` prepares.  Classification makes span(J) and span(K)
    independent, with complementary lattices, so every lattice point (z, T)
    that either side counts splits uniquely as z = y + w with y and w
    integer points of the two spans.  Let low = ceil(lambda_J(y) +
    lambda_K(w)) and high = ceil(lambda_J(y)) + ceil(lambda_K(w)), lambda
    the least dilations.
    - The hull cone holds (z, T) iff lambda_J(y) + lambda_K(w) <= T, that is
      iff low <= T (the argument of ``decompose_sigma``, which checks it
      against direct enumeration).
    - sigma_J * sigma_K has coefficient #{(s, t): s >= ceil(lambda_J(y)),
      t >= ceil(lambda_K(w)), s + t = T} there, since y lies in s*J iff
      s >= lambda_J(y); times (1 - z_{n+1}) that is [high <= T].
    - low <= high, so the residual at (z, T) is [low <= T < high], 0 or 1.
      The counterexample, the lex-smallest exponent where the sides differ,
      is (y + w, low) for the lex-smallest y + w with low < high and low <= H,
      where the hull has 1 and the product 0.
    A pair with low <= H has both least dilations at most H, so the points
    of H*J and H*K hold every pair that counts.  If every least dilation on
    one side is an integer, low = high for every pair and the residual is
    zero, so K is tagged first and H*J is not enumerated when K settles it.

    Affine free sums (p != 0) are the one remaining branch: they enumerate
    the hull cone and multiply sigma_J * sigma_K by (1 - z^(r*alpha(p)))
    with ``series_mul`` until an affine table matches that path.

    Cached, like ``sigma_cone``: the verdict is frozen and its residual is a
    read-only series, so callers share no mutable state."""
    if witness.kind == FREE_SUM:
        if height_bound < 0:
            raise InputError("height bound must be nonnegative")
        points_k = lattice_points_with_dilation(witness.k, height_bound)
        points_j = ()
        if any(lam.denominator > 1 for _, lam in points_k):
            points_j = lattice_points_with_dilation(witness.j, height_bound)
        if all(lam.denominator == 1 for _, lam in points_j):
            points_j = ()  # low = high for every pair: no pair counts
        den, scaled_j, scaled_k = _pair_table(points_j, points_k)
        terms: dict[tuple[int, ...], int] = {}
        for y, a in scaled_j:
            ceil_a = -(-a // den)
            for b, w in scaled_k:
                low = -((-a - b) // den)
                if low > height_bound:
                    break
                high = min(ceil_a - (-b // den), height_bound + 1)
                if low < high:
                    base = tuple(u + v for u, v in zip(y, w))
                    for t in range(low, high):
                        key = base + (t,)
                        terms[key] = terms.get(key, 0) + 1
        residual = TruncatedSeries(witness.j.dim + 1, height_bound, terms)
        counterexample = (min(terms), 1, 0) if terms else None
        return BraunVerdict(
            not terms, height_bound, witness.factor_exponent, counterexample, residual
        )
    hull = hull_union(witness.j, witness.k)
    lhs = sigma_cone(cone_over(hull), height_bound)
    product = series_mul(
        sigma_cone(cone_over(witness.j), height_bound),
        sigma_cone(cone_over(witness.k), height_bound),
    )
    rhs = apply_one_minus_monomial(product, witness.factor_exponent)
    residual = lhs - rhs
    difference = lhs.first_difference(rhs)
    counterexample = None
    if difference is not None:
        counterexample = (difference[0], difference[1], difference[2])
    return BraunVerdict(
        difference is None, height_bound, witness.factor_exponent, counterexample, residual
    )


def check_braun_univariate(
    p: RationalPolytope, q: RationalPolytope, height_bound: int
) -> UnivariateBraunVerdict:
    """Check the counting-series product formula and its numerator identity."""
    witness = classify_sum(p, q)
    if witness.kind != FREE_SUM:
        raise PreconditionError(
            "univariate product formula applies to free sums at the origin",
            "not-a-free-sum-at-origin",
        )
    hull = hull_union(p, q)
    lhs = ehrhart_series(hull, height_bound).coefficients
    ep = ehrhart_series(p, height_bound).coefficients
    eq = ehrhart_series(q, height_bound).coefficients
    product = poly_mul(list(ep), list(eq))[: height_bound + 1]
    rhs = tuple(
        product[t] - (product[t - 1] if t >= 1 else 0) for t in range(height_bound + 1)
    )
    mismatch = next(
        ((t, lhs[t], rhs[t]) for t in range(height_bound + 1) if lhs[t] != rhs[t]), None
    )

    dim_p, dim_q = p.affine_dim, q.affine_dim
    den_p, den_q = denominator(p), denominator(q)
    lcm = math.lcm(den_p, den_q)
    delta_p = delta_polynomial(p, den_p * (dim_p + 2))
    delta_q = delta_polynomial(q, den_q * (dim_q + 2))
    dim_sum = dim_p + dim_q
    delta_hull = delta_polynomial(hull, lcm * (dim_sum + 2))

    def one_minus_t_power(e: int) -> list[int]:
        poly = [0] * (e + 1)
        poly[0], poly[e] = 1, -1
        return poly

    numerator = poly_mul([1, -1], poly_pow(one_minus_t_power(lcm), dim_sum + 1))
    numerator = poly_mul(numerator, poly_mul(list(delta_p.coefficients), list(delta_q.coefficients)))
    quotient, remainder = poly_divmod(numerator, poly_pow(one_minus_t_power(den_p), dim_p + 1))
    delta_rhs: tuple[Fraction, ...] | None = None
    delta_holds = False
    if not remainder:
        quotient, remainder = poly_divmod(quotient, poly_pow(one_minus_t_power(den_q), dim_q + 1))
        if not remainder:
            while len(quotient) > 1 and quotient[-1] == 0:
                quotient.pop()
            delta_rhs = tuple(quotient)
            delta_holds = delta_rhs == tuple(Fraction(c) for c in delta_hull.coefficients)
    return UnivariateBraunVerdict(
        mismatch is None, mismatch, delta_holds, delta_hull.coefficients, delta_rhs
    )


def decompose_sigma(
    p: RationalPolytope, k: RationalPolytope, height_bound: int
) -> TruncatedSeries:
    """Assemble sigma of the hull cone from the shifted lower envelopes of
    cone(P) and the copies of cone(K) shifted down, in one pass, and check it
    against direct enumeration of the hull cone.

    With d the dual denominator of P, an integer point y of H*P lies on
    exactly one envelope layer: at height t = ceil(lambda(y)), shifted by
    the gap i/d = t - lambda(y), lambda the least dilation.  It pairs with
    the points (w, s) of cone(K) shifted down by that gap, those with
    s >= lambda_K(w) - i/d, which is t + s >= lambda(y) + lambda_K(w).  So
    the pair (y, w) adds one to every term (y + w, T) with
    ceil(lambda(y) + lambda_K(w)) <= T <= H, and lambda_K(w) <= H.

    The check is the split check.  Classification makes span(P) and span(K)
    independent, so a hull point (z, T) has at most one real split z = y + w,
    and (y, w) is counted there iff it is integral and lambda(y) +
    lambda_K(w) <= T: ``decomposition_check``'s pass condition at p = 0.
    Each counted pair lies in cone(P) + cone(K), inside the hull cone.  So the
    counts equal the enumeration iff no hull point lacks its split or has
    two; a mismatch raises, since equality holds for every free sum.
    """
    witness = classify_sum(p, k)
    if witness.kind != FREE_SUM:
        raise PreconditionError(
            "the shifted-envelope decomposition applies to free sums at the origin",
            "not-a-free-sum-at-origin",
        )
    den, scaled_p, scaled_k = _pair_table(
        lattice_points_with_dilation(p, height_bound), lattice_points_with_dilation(k, height_bound)
    )
    terms: dict[tuple[int, ...], int] = {}
    for y, a in scaled_p:
        for b, w in scaled_k:
            low = -((-a - b) // den)
            if low > height_bound:
                break
            base = tuple(u + v for u, v in zip(y, w))
            for t in range(low, height_bound + 1):
                key = base + (t,)
                terms[key] = terms.get(key, 0) + 1
    total = TruncatedSeries(p.dim + 1, height_bound, terms)
    direct = sigma_cone(cone_over(hull_union(p, k)), height_bound)
    if total != direct:
        exp, splits, expected = total.first_difference(direct)
        raise InternalCheckError(
            f"shifted-envelope decomposition disagrees with enumeration at {exp}: "
            f"{splits} splits, direct coefficient {expected}"
        )
    return total


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
    """Product formula at the canonical interior center of a Gorenstein summand.

    Also re-verifies, point by point up to the height bound, that the
    interior lattice points of cone(P) are exactly the lattice points of the
    cone translated by index * alpha(center).
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
    cone_p = cone_over(p)
    shift = tuple(Fraction(x) for x in data.interior_point) + (Fraction(data.index),)
    for t in range(height_bound + 1):
        for pt in cone_p.lattice_points_at_height(t):
            interior = cone_p.contains_interior(pt)
            translated = cone_p.contains(tuple(a - b for a, b in zip(map(Fraction, pt), shift)))
            if interior != translated:
                raise InternalCheckError(
                    f"interior identity fails at {pt} for the Gorenstein summand"
                )
    return check_braun_multivariate(witness, height_bound)


def decomposition_check(
    j: RationalPolytope, k: RationalPolytope, p, height_bound: int
) -> DecompositionReport:
    """Existence and uniqueness of the split z = x + y over the hull cone.

    For every lattice point z = (z', t) of cone(conv(J u K)) up to the height
    bound, the offset v = r*(z' - t*p), r = den(p), is split in integer
    coordinates of the lattices of the two direction spaces inside
    r*Lambda^p.  z passes when the split is integral and the least dilations
    of its two parts in the recentred summands r*(J - p) and r*(K - p) add up
    to at most t: then x = (a_J/r + mu*p, mu), with a_J the J part and mu its
    least dilation, is the one candidate on the projected lattice envelope of
    cone(J) with z - x in cone(K).  Exactly-one is structural once the
    direction spans meet trivially.  Requires p in both summands.
    """
    p = qvec(p)
    n = j.dim
    if not j.contains(p):
        raise PreconditionError("projection point must lie in the first summand", "point-not-in-summand")
    if not k.contains(p):
        raise PreconditionError(
            "projection point must lie in the second summand", "point-not-in-summand"
        )
    refinement, sub_j, sub_k = _split_lattices(j, k, p)
    basis = sub_j.vectors + sub_k.vectors
    if rational_rank(basis) != len(basis):
        raise PreconditionError("direction spaces intersect nontrivially", "spans-intersect-in-flat")
    r = refinement.r
    rp = tuple(int(r * x) for x in p)
    # Rows of the left inverse (B^T B)^-1 B^T of the basis columns B that give
    # the J coordinates, cleared to integers by their common denominator den.
    gram_inv = invert_rational([[sum(a * b for a, b in zip(u, w)) for w in basis] for u in basis])
    left = [
        [sum(g * w[i] for g, w in zip(row, basis)) for i in range(n)]
        for row in gram_inv[: sub_j.rank]
    ]
    den = math.lcm(*(x.denominator for row in left for x in row))
    left = [[int(den * x) for x in row] for row in left]
    # Least dilations in J - p are r times those in r*(J - p).
    hrep_j = cone_hrep(j.translate(tuple(-x for x in p)))
    hrep_k = cone_hrep(k.translate(tuple(-x for x in p)))
    cone_h = cone_over(hull_union(j, k))

    violations = []
    checked = 0
    for t in range(height_bound + 1):
        for z in cone_h.lattice_points_at_height(t):
            checked += 1
            # With p in J and K, z'/t lies in p + span(J - p) + span(K - p)
            # for t > 0 (and z = 0 at t = 0), so v always lies in the span of
            # the two blocks and only the J coordinates are needed.
            v = [r * a - t * b for a, b in zip(z, rp)]
            y = [sum(a * b for a, b in zip(row, v)) for row in left]
            if any(c % den for c in y):
                violations.append((z, 0))
                continue
            # The two parts scaled by den; least dilations scale along.
            a_j = [sum(c * w[i] for c, w in zip(y, sub_j.vectors)) for i in range(n)]
            lam_j = _least_dilation(hrep_j, a_j)
            lam_k = _least_dilation(hrep_k, [den * a - b for a, b in zip(v, a_j)])
            if lam_j is None or lam_k is None or lam_j + lam_k > den * r * t:
                violations.append((z, 0))
    return DecompositionReport(checked, tuple(violations))
