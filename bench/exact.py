"""Exact rational geometry used to generate benchmark inputs and check outputs.

This is an oracle kept apart from ``freesum``: it never imports the package,
so a defect in the program cannot hide itself from the checks.  Facets are
found by brute force over vertex subsets, which is fine for the handful of
vertices the benchmark generates.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def det(rows) -> Fraction:
    m = [list(map(Fraction, row)) for row in rows]
    n = len(m)
    out = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            out = -out
        out *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return out


def facets(vertices) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    """Facets ``(a, c)`` with ``a . x <= c`` of a full-dimensional polytope
    in R^n spanned by the given points; ``a`` is scaled so that its first
    nonzero entry has absolute value one.  Empty when the points span less
    than R^n."""
    pts = [tuple(map(Fraction, v)) for v in vertices]
    n = len(pts[0])
    found = set()
    for subset in itertools.combinations(pts, n):
        diffs = [[a - b for a, b in zip(v, subset[0])] for v in subset[1:]]
        normal = [
            (-1) ** i * det([row[:i] + row[i + 1 :] for row in diffs]) for i in range(n)
        ]
        if not any(normal):
            continue
        c = sum(a * b for a, b in zip(normal, subset[0]))
        values = [sum(a * b for a, b in zip(normal, v)) for v in pts]
        if all(v <= c for v in values):
            sign = 1
        elif all(v >= c for v in values):
            sign = -1
        else:
            continue
        scale = sign * abs(next(x for x in normal if x != 0))
        found.add((tuple(x / scale for x in normal), c / scale))
    return sorted(found)


def dual_vertices(vertices) -> list[tuple[Fraction, ...]]:
    """Vertices of the polar dual ``{phi : phi . x <= 1 on P}``.

    Requires a full-dimensional P with the origin in its interior, where each
    facet ``a . x <= c`` (so ``c > 0``) gives the dual vertex ``a / c``.
    """
    rows = facets(vertices)
    if not rows or any(c <= 0 for _, c in rows):
        raise ValueError("polytope must be full-dimensional with the origin interior")
    return sorted(tuple(x / c for x in a) for a, c in rows)


def origin_interior(vertices) -> bool:
    rows = facets(vertices)
    return bool(rows) and all(c > 0 for _, c in rows)


def lcm_denominator(points) -> int:
    return math.lcm(*(x.denominator for p in points for x in p))
