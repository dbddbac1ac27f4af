"""Bundled corpus of summand pairs and the batch verification runner.

The standard corpus covers dual denominators 1, 2, 3 and 6 for the first
summand, ambient dimensions up to three, affine pairs meeting at non-lattice
points, and one deliberately rejected pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ClassificationError, FreesumError, InputError, InternalCheckError
from .freesums import (
    FREE_SUM,
    check_braun_multivariate,
    classify_sum,
    converse_search,
    decompose_sigma,
    envelope_condition_check,
)
from .jsonio import format_point, format_polytope, parse_polytope
from .polytopes import RationalPolytope, dual_denominator


@dataclass(frozen=True)
class CorpusPair:
    name: str
    a: RationalPolytope
    b: RationalPolytope
    modes: tuple[str, ...]


def axis_segment(dim: int, axis: int, lo, hi) -> RationalPolytope:
    """Segment [lo, hi] along a coordinate axis of R^dim."""
    lo, hi = Fraction(lo), Fraction(hi)
    a = tuple(lo if i == axis else Fraction(0) for i in range(dim))
    b = tuple(hi if i == axis else Fraction(0) for i in range(dim))
    return RationalPolytope.from_points(dim, [a, b])


def embed_in(dim: int, axes: tuple[int, ...], points) -> RationalPolytope:
    """Embed low-dimensional points into R^dim along the given axes."""
    embedded = []
    for pt in points:
        full = [Fraction(0)] * dim
        for axis, value in zip(axes, pt):
            full[axis] = Fraction(value)
        embedded.append(tuple(full))
    return RationalPolytope.from_points(dim, embedded)


DIAMOND = ((1, 0), (-1, 0), (0, 1), (0, -1))
TOP_POLYGON = ((-1, 0), (1, 0), (3, 1), (-3, 1))
TRIANGLE = ((0, 0), (1, 0), (0, 1))

FREE_MODES = ("braun", "decompose", "converse")
AFFINE_MODES = ("braun", "affine")


def standard_corpus() -> tuple[CorpusPair, ...]:
    half = Fraction(1, 2)
    two_thirds = Fraction(2, 3)
    three_halves = Fraction(3, 2)
    pairs = [
        CorpusPair(
            "octahedron",
            embed_in(3, (0, 1), DIAMOND),
            axis_segment(3, 2, -1, 1),
            FREE_MODES,
        ),
        CorpusPair(
            "top-polygon+segment",
            embed_in(3, (0, 1), TOP_POLYGON),
            axis_segment(3, 2, -1, 1),
            FREE_MODES,
        ),
        CorpusPair(
            "triangle+segment",
            embed_in(3, (0, 1), TRIANGLE),
            axis_segment(3, 2, -1, 1),
            FREE_MODES,
        ),
        CorpusPair(
            "skew-segments",
            RationalPolytope.from_points(2, [(0, 0), (1, 1)]),
            RationalPolytope.from_points(2, [(0, 0), (1, 0)]),
            FREE_MODES,
        ),
        CorpusPair(
            "halfseg+reflexive",
            axis_segment(2, 0, 0, half),
            axis_segment(2, 1, -1, 1),
            FREE_MODES,
        ),
        CorpusPair(
            "thirdseg+reflexive",
            axis_segment(2, 0, Fraction(-1, 3), 1),
            axis_segment(2, 1, -1, 1),
            FREE_MODES,
        ),
        CorpusPair(
            "twothirds+reflexive",
            axis_segment(2, 0, 0, two_thirds),
            axis_segment(2, 1, -1, 1),
            FREE_MODES,
        ),
        CorpusPair(
            "twothirds+twothirds",
            axis_segment(2, 0, 0, two_thirds),
            axis_segment(2, 1, 0, two_thirds),
            FREE_MODES,
        ),
        CorpusPair(
            "threehalves+reflexive",
            axis_segment(2, 0, 0, three_halves),
            axis_segment(2, 1, -1, 1),
            FREE_MODES,
        ),
        CorpusPair(
            "threehalves+threehalves",
            axis_segment(2, 0, 0, three_halves),
            axis_segment(2, 1, 0, three_halves),
            FREE_MODES,
        ),
        CorpusPair(
            "wide+reflexive",
            axis_segment(2, 0, -2, 3),
            axis_segment(2, 1, -1, 1),
            FREE_MODES,
        ),
        CorpusPair(
            "wide+twothirds",
            axis_segment(2, 0, -2, 3),
            axis_segment(2, 1, 0, two_thirds),
            FREE_MODES,
        ),
        CorpusPair(
            "wide+diamond",
            axis_segment(3, 0, -2, 3),
            embed_in(3, (1, 2), DIAMOND),
            FREE_MODES,
        ),
        CorpusPair(
            "diamond+twothirds",
            embed_in(3, (0, 1), DIAMOND),
            axis_segment(3, 2, 0, two_thirds),
            FREE_MODES,
        ),
        CorpusPair(
            "affine-half-cross",
            RationalPolytope.from_points(2, [(0, 0), (1, 0)]),
            RationalPolytope.from_points(2, [(half, -1), (half, 1)]),
            AFFINE_MODES,
        ),
        CorpusPair(
            "affine-third-cross",
            RationalPolytope.from_points(2, [(0, 0), (1, 0)]),
            RationalPolytope.from_points(2, [(Fraction(1, 3), -1), (Fraction(1, 3), 1)]),
            AFFINE_MODES,
        ),
        CorpusPair(
            "affine-gorenstein-triangle",
            embed_in(3, (0, 1), TRIANGLE),
            RationalPolytope.from_points(
                3, [(Fraction(1, 3), Fraction(1, 3), -1), (Fraction(1, 3), Fraction(1, 3), 1)]
            ),
            AFFINE_MODES,
        ),
        CorpusPair(
            "affine-quarter-segment",
            RationalPolytope.from_points(2, [(Fraction(1, 4), 0), (Fraction(3, 4), 0)]),
            RationalPolytope.from_points(2, [(half, -1), (half, 1)]),
            AFFINE_MODES,
        ),
        CorpusPair(
            "rejected-skew-lattice",
            RationalPolytope.from_points(2, [(-1, 0), (1, 0)]),
            RationalPolytope.from_points(2, [(-1, -2), (1, 2)]),
            (),
        ),
    ]
    return tuple(pairs)


def standard_config(height: int = 10) -> dict:
    """JSON-serializable configuration mirroring the bundled corpus."""
    return {
        "height": height,
        "pairs": [
            {
                "a": format_polytope(pair.a),
                "b": format_polytope(pair.b),
                "modes": list(pair.modes),
                "name": pair.name,
            }
            for pair in standard_corpus()
        ],
    }


def _run_pair(pair: CorpusPair, height: int) -> dict:
    report: dict = {"name": pair.name, "height_bound": height}
    try:
        witness = classify_sum(pair.a, pair.b)
    except ClassificationError as exc:
        report["classification"] = "rejected"
        report["error_code"] = exc.code
        return report
    report["classification"] = witness.kind
    report["p"] = format_point(witness.intersection_point)
    report["r"] = witness.r
    results: dict = {}
    for mode in pair.modes:
        if mode == "braun":
            verdict = check_braun_multivariate(witness, height)
            results["braun"] = {
                "factor_exponent": list(verdict.factor_exponent),
                "holds_up_to_bound": verdict.holds_up_to_bound,
                "residual_nonnegative": not verdict.residual.has_negative_coefficient(),
                "counterexample": (
                    None
                    if verdict.counterexample is None
                    else {
                        "exp": list(verdict.counterexample[0]),
                        "lhs": verdict.counterexample[1],
                        "rhs": verdict.counterexample[2],
                    }
                ),
            }
        elif mode == "decompose":
            # Raises unless every hull point has exactly one split.
            decompose_sigma(pair.a, pair.b, height)
            results["decompose"] = {
                "dual_denominator": dual_denominator(pair.a),
                "matches_enumeration": True,
                "split_violations": 0,
            }
        elif mode == "converse":
            conv = converse_search(pair.a, pair.b, height)
            results["converse"] = {
                "dual_a_lattice": conv.dual_p_lattice,
                "dual_b_lattice": conv.dual_q_lattice,
                "braun_holds_up_to_bound": conv.braun_holds_up_to_bound,
            }
        elif mode == "affine":
            condition = envelope_condition_check(
                pair.a, witness.intersection_point, height
            )
            results["affine"] = {
                "envelope_condition": condition.holds,
                "witness": None if condition.witness is None else format_point(condition.witness),
            }
        else:
            raise InputError(f"unknown corpus mode: {mode}")
    report["results"] = results
    return report


def _checked_height(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise InputError("corpus height must be a nonnegative integer")
    return value


def corpus_run(config: dict) -> tuple[dict, int]:
    """Run every configured pair; returns (report, exit_code).

    Classification rejections are recorded, not fatal.  The exit code is 1
    only when a cross-pair consistency assertion fails.
    """
    if not isinstance(config, dict) or not isinstance(config.get("pairs"), list):
        raise InputError('corpus config needs a "pairs" array')
    height = _checked_height(config.get("height", 10))
    for entry in config["pairs"]:
        if not isinstance(entry, dict) or "a" not in entry or "b" not in entry:
            raise InputError('each corpus pair needs "a" and "b" polytopes')
        if not isinstance(entry.get("name", ""), str):
            raise InputError("a corpus pair name must be a string")
        if not isinstance(entry.get("modes", []), list):
            raise InputError('corpus pair "modes" must be an array')
        _checked_height(entry.get("height", height))
    pair_reports = []
    consistency_failures = []
    for entry in sorted(config["pairs"], key=lambda e: e.get("name", "")):
        name = entry.get("name", "unnamed")
        pair = CorpusPair(
            name,
            parse_polytope(entry["a"]),
            parse_polytope(entry["b"]),
            tuple(entry.get("modes", ())),
        )
        pair_height = entry.get("height", height)
        try:
            pair_reports.append(_run_pair(pair, pair_height))
        except InternalCheckError as exc:
            consistency_failures.append({"name": name, "reason": str(exc)})
            pair_reports.append({"name": name, "classification": "inconsistent", "error": str(exc)})
        except FreesumError as exc:
            pair_reports.append({"name": name, "classification": "error", "error_code": exc.code})

    # Converse-theorem bookkeeping across the corpus: a lattice dual on
    # either side must force the product formula, and any observed failure
    # must come with no lattice dual on either side.
    for report in pair_reports:
        results = report.get("results", {})
        if "braun" in results and "converse" in results:
            braun_ok = results["braun"]["holds_up_to_bound"]
            any_dual = results["converse"]["dual_a_lattice"] or results["converse"]["dual_b_lattice"]
            if any_dual and not braun_ok:
                consistency_failures.append(
                    {"name": report["name"], "reason": "lattice dual without product formula"}
                )
        if "braun" in results and not results["braun"]["residual_nonnegative"]:
            consistency_failures.append(
                {"name": report["name"], "reason": "negative residual coefficient"}
            )
    counts = {
        "affine_free_sum": sum(
            1 for r in pair_reports if r.get("classification") == "affine_free_sum"
        ),
        "free_sum": sum(1 for r in pair_reports if r.get("classification") == FREE_SUM),
        "rejected": sum(1 for r in pair_reports if r.get("classification") == "rejected"),
    }
    report = {
        "consistency_failures": consistency_failures,
        "counts": counts,
        "height_bound": height,
        "pairs": pair_reports,
    }
    return report, (1 if consistency_failures else 0)
