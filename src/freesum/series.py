"""Truncated multivariate Laurent series and Ehrhart-style univariate data.

A series is complete for every monomial whose last exponent (the height) is
between 0 and the truncation bound; the first n exponents may be negative.
Coefficients are exact integers.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from collections.abc import Mapping
from types import MappingProxyType

from .cones import ConeOverPolytope, _class_table
from .errors import InputError, InternalCheckError, TruncationError
from .polytopes import RationalPolytope, denominator, lattice_points_in_scaled, lattice_tags
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
    """Generating function of the cone's lattice points up to the height bound.
    For a base with the origin each y of the class table of H*P at the origin
    (``cones._class_table``) is in the cone at the heights ceil(lambda(y)) up;
    other bases are walked one slice at a time."""
    if height_bound < 0:
        raise InputError("height bound must be nonnegative")
    base, ts = cone.base, range(height_bound + 1)
    if cone.contains((0,) * base.dim + (1,)):
        _, table = _class_table(base, (0,) * base.dim, height_bound)
        terms = {y + (t,): 1 for y, _, least in table for t in ts[least:]}
    else:
        terms = {y + (t,): 1 for t in ts for y in lattice_points_in_scaled(base, t)}
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


@functools.lru_cache(maxsize=512)
def ehrhart_series(p: RationalPolytope, height_bound: int) -> UnivariateSeries:
    """Counting series of lattice points in integer dilates.  With the origin
    in P it is the running sum of the first heights ceil(lambda(y)) of the
    counting walk (``lattice_tags``) of H*P; other polytopes are walked once
    per dilate.  Cached: the split check and the Braun cross-check share
    the hull's series."""
    if height_bound < 0:
        raise InputError("height bound must be nonnegative")
    if p.contains((0,) * p.dim):
        den, tags = lattice_tags(p, height_bound)
        firsts = [0] * (height_bound + 1)
        for m, n_m in Counter(tags).items():
            firsts[-(-m // den)] += n_m
        counts = itertools.accumulate(firsts)
    else:
        counts = (len(lattice_points_in_scaled(p, t)) for t in range(height_bound + 1))
    return UnivariateSeries(height_bound, tuple(counts))


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def ehrhart_denominator(den: int, power: int) -> list[int]:
    """Coefficients of (1 - t^den)^power, the denominator of an Ehrhart
    series whose numerator is a ``DeltaPolynomial`` with this den and power."""
    out = [0] * (den * power + 1)
    for j in range(power + 1):
        out[den * j] = (-1) ** j * math.comb(power, j)
    return out


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
    prod = poly_mul(ehr, ehrhart_denominator(den, power))[: height_bound + 1]
    if any(c != 0 for c in prod[degree_cap + 1 :]):
        raise InternalCheckError("nonvanishing tail in the numerator computation")
    coeffs = prod[: degree_cap + 1]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return DeltaPolynomial(tuple(coeffs), den, power)
