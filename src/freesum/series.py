"""Truncated multivariate Laurent series and Ehrhart-style univariate data.

A series is complete for every monomial whose last exponent (the height) is
between 0 and the truncation bound; the first n exponents may be negative.
Coefficients are exact integers.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

from .cones import ConeOverPolytope, cone_over
from .errors import InputError, InternalCheckError, TruncationError
from .polytopes import RationalPolytope, denominator
from .records import frozen

Exponent = tuple[int, ...]


def _pruned(terms: dict[Exponent, int]) -> dict[Exponent, int]:
    return {e: c for e, c in terms.items() if c != 0}


@frozen
class TruncatedSeries:
    """Sparse exponent-to-coefficient map, complete up to the height bound.

    ``terms`` is a read-only view of a copy of the mapping it was built from,
    so neither the caller's mapping nor a series returned by a cache can be
    changed through it.
    """

    num_vars: int
    height_bound: int
    terms: Mapping[Exponent, int]

    def __post_init__(self):
        object.__setattr__(self, "terms", MappingProxyType(dict(self.terms)))
        for e in self.terms:
            if len(e) != self.num_vars:
                raise InputError("exponent arity mismatch")
            if not 0 <= e[-1] <= self.height_bound:
                raise InputError("exponent height outside the truncation window")

    def coefficient(self, exp) -> int:
        return self.terms.get(tuple(exp), 0)

    def has_negative_coefficient(self) -> bool:
        return any(c < 0 for c in self.terms.values())

    def _check_compatible(self, other: TruncatedSeries) -> None:
        if self.num_vars != other.num_vars:
            raise InputError("series variable counts differ")

    # No package module adds series; bench/tracer.py wraps this by name.
    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check_compatible(other)
        bound = min(self.height_bound, other.height_bound)
        out: dict[Exponent, int] = {}
        for e, c in list(self.terms.items()) + list(other.terms.items()):
            if e[-1] <= bound:
                out[e] = out.get(e, 0) + c
        return TruncatedSeries(self.num_vars, bound, _pruned(out))


@frozen
class UnivariateSeries:
    height_bound: int
    coefficients: tuple[int, ...]

    def __post_init__(self):
        if len(self.coefficients) != self.height_bound + 1:
            raise InputError("univariate series length mismatch")

    def coefficient(self, k: int) -> int:
        return self.coefficients[k]


@frozen
class DeltaPolynomial:
    """Numerator of the Ehrhart series over (1 - t^den)^power."""

    coefficients: tuple[int, ...]
    den: int
    power: int


@functools.lru_cache(maxsize=512)
def sigma_cone(cone: ConeOverPolytope, height_bound: int) -> TruncatedSeries:
    """Generating function of the cone's lattice points up to the height bound,
    from ``lattice_points_by_height``: one walk when the base has the origin."""
    if height_bound < 0:
        raise InputError("height bound must be nonnegative")
    points = cone.lattice_points_by_height(height_bound)
    terms = {y + (t,): 1 for y, heights in points for t in heights}
    return TruncatedSeries(cone.ambient_dim, height_bound, terms)


# No package module multiplies series; bench/tracer.py wraps this by name.
def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Exact product, computed slice by slice in the height grading."""
    if a.num_vars != b.num_vars:
        raise InputError("series variable counts differ")
    bound = min(a.height_bound, b.height_bound)
    slices_a: dict[int, list[tuple[Exponent, int]]] = {}
    for e, c in a.terms.items():
        slices_a.setdefault(e[-1], []).append((e, c))
    slices_b: dict[int, list[tuple[Exponent, int]]] = {}
    for e, c in b.terms.items():
        slices_b.setdefault(e[-1], []).append((e, c))
    out: dict[Exponent, int] = {}
    for ta, items_a in slices_a.items():
        for tb, items_b in slices_b.items():
            if ta + tb > bound:
                continue
            for ea, ca in items_a:
                for eb, cb in items_b:
                    key = tuple(x + y for x, y in zip(ea, eb))
                    out[key] = out.get(key, 0) + ca * cb
    return TruncatedSeries(a.num_vars, bound, _pruned(out))


def ehrhart_series(p: RationalPolytope, height_bound: int) -> UnivariateSeries:
    """Counting series of lattice points in integer dilates, counted off the
    height ranges of ``lattice_points_by_height`` by a difference array."""
    if height_bound < 0:
        raise InputError("height bound must be nonnegative")
    steps = [0] * (height_bound + 2)
    for _, heights in cone_over(p).lattice_points_by_height(height_bound):
        steps[heights.start] += 1
        steps[heights.stop] -= 1
    return UnivariateSeries(height_bound, tuple(itertools.accumulate(steps[:-1])))


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_pow(a, k: int):
    out = [1]
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def poly_divmod(a, b):
    """Exact division of coefficient lists over the rationals."""
    rem = [Fraction(x) for x in a]
    div = [Fraction(x) for x in b]
    while div and div[-1] == 0:
        div.pop()
    if not div:
        raise InputError("division by the zero polynomial")
    quot = [Fraction(0)] * max(len(rem) - len(div) + 1, 0)
    for i in range(len(rem) - len(div), -1, -1):
        factor = rem[i + len(div) - 1] / div[-1]
        quot[i] = factor
        if factor:
            for j, y in enumerate(div):
                rem[i + j] -= factor * y
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def delta_polynomial(p: RationalPolytope, height_bound: int) -> DeltaPolynomial:
    """Numerator polynomial of the Ehrhart series.

    Requires the truncation to reach one full period beyond the maximal
    possible numerator degree so the vanishing of the tail is actually
    checked rather than assumed.
    """
    den = denominator(p)
    power = p.affine_dim + 1
    degree_cap = den * power
    if height_bound < degree_cap + den:
        raise TruncationError(
            f"need height bound of at least {degree_cap + den} for this polytope"
        )
    ehr = ehrhart_series(p, height_bound).coefficients
    factor = [0] * (degree_cap + 1)
    for j in range(power + 1):
        factor[den * j] = (-1) ** j * math.comb(power, j)
    prod = poly_mul(list(ehr), factor)[: height_bound + 1]
    if any(c != 0 for c in prod[degree_cap + 1 :]):
        raise InternalCheckError("nonvanishing tail in the numerator computation")
    coeffs = prod[: degree_cap + 1]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return DeltaPolynomial(tuple(coeffs), den, power)
