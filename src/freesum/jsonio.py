"""JSON codecs for the CLI contract.

Rationals travel as strings "p/q" (or "p" when the denominator is one);
polytopes as {"dim": n, "vertices": [["1/2", "0"], ...]}.  Formatting is
deterministic: keys sorted by the emitter, lists in lexicographic order.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import InputError
from .linalg import QVector
from .polytopes import DualPolyhedron, RationalPolytope
from .series import TruncatedSeries, UnivariateSeries


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise InputError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational: {value!r}") from exc
    raise InputError(f"not a rational: {value!r}")


def format_rational(x) -> str:
    return str(Fraction(x))


def parse_point(values) -> QVector:
    if not isinstance(values, (list, tuple)):
        raise InputError("a point must be an array of rationals")
    return tuple(parse_rational(v) for v in values)


def format_point(point) -> list[str]:
    return [format_rational(x) for x in point]


def parse_polytope(obj) -> RationalPolytope:
    if not isinstance(obj, dict) or "dim" not in obj or "vertices" not in obj:
        raise InputError('a polytope needs "dim" and "vertices" fields')
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
        raise InputError("polytope dimension must be a nonnegative integer")
    vertices = obj["vertices"]
    if not isinstance(vertices, list) or not vertices:
        raise InputError("polytope vertices must be a nonempty array")
    points = []
    for v in vertices:
        pt = parse_point(v)
        if len(pt) != dim:
            raise InputError("vertex length disagrees with the declared dimension")
        points.append(pt)
    return RationalPolytope.from_points(dim, points)


def load_json(path: str):
    """The decoded contents of a JSON file; an unreadable or malformed file
    raises InputError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def load_polytope(path: str) -> RationalPolytope:
    return parse_polytope(load_json(path))


def format_series(s: TruncatedSeries) -> dict:
    terms = [
        {"coef": str(s.terms[e]), "exp": list(e)} for e in sorted(s.terms)
    ]
    return {"T": s.height_bound, "terms": terms}


def format_univariate(s: UnivariateSeries) -> dict:
    return {
        "coefficients": [str(c) for c in s.coefficients],
        "height_bound": s.height_bound,
    }


def format_dual(d: DualPolyhedron) -> dict:
    return {
        "ray_functionals": [format_point(r) for r in d.ray_functionals],
        "vertex_functionals": [format_point(v) for v in d.vertex_functionals],
    }


def dumps(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ": "), indent=1)
