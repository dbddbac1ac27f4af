"""Batch verification runner for a corpus of summand pairs.

The pair list lives in ``corpus/standard.json``: it covers dual denominators
1, 2, 3 and 6 for the first summand, ambient dimensions up to three, affine
pairs meeting at non-lattice points, and one deliberately rejected pair.
"""

from __future__ import annotations

from .errors import ClassificationError, FreesumError, InputError, InternalCheckError
from .freesums import (
    FREE_SUM,
    check_braun_multivariate,
    classify_sum,
    converse_search,
    decompose_sigma,
    envelope_condition_check,
)
from .jsonio import format_point, parse_polytope
from .polytopes import RationalPolytope, dual_denominator
from .records import frozen


@frozen
class CorpusPair:
    name: str
    a: RationalPolytope
    b: RationalPolytope
    modes: tuple[str, ...]


# The modes of `freesum check --mode` and of a corpus pair.
MODES = ("braun", "decompose", "converse", "affine")


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
    report["results"] = results
    return report


def _checked_height(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise InputError("corpus height must be a nonnegative integer")
    return value


def corpus_run(config: dict) -> tuple[dict, int]:
    """Run every configured pair; returns (report, exit_code).

    The whole config is validated first: a malformed pair, mode or height
    raises ``InputError`` before any pair runs.  Classification rejections
    are recorded, not fatal.  The exit code is 1 only when a consistency
    check fails, and ``consistency_failures`` names the pair and reason:

    - a mode raised ``InternalCheckError``, and the pair is reported as
      ``inconsistent``: ``decompose_sigma``'s assembly disagrees with the
      hull enumeration, or ``converse_search`` saw the product formula fail
      although a summand has a lattice-polyhedron dual;
    - a Braun residual has a negative coefficient.
    """
    if not isinstance(config, dict) or not isinstance(config.get("pairs"), list):
        raise InputError('corpus config needs a "pairs" array')
    height = _checked_height(config.get("height", 10))
    runs = []
    for entry in config["pairs"]:
        if not isinstance(entry, dict) or "a" not in entry or "b" not in entry:
            raise InputError('each corpus pair needs "a" and "b" polytopes')
        if not isinstance(entry.get("name", ""), str):
            raise InputError("a corpus pair name must be a string")
        modes = entry.get("modes", [])
        if not isinstance(modes, list):
            raise InputError('corpus pair "modes" must be an array')
        for mode in modes:
            if mode not in MODES:
                raise InputError(f"unknown corpus mode: {mode!r}")
        pair = CorpusPair(
            entry.get("name", "unnamed"),
            parse_polytope(entry["a"]),
            parse_polytope(entry["b"]),
            tuple(modes),
        )
        runs.append((entry.get("name", ""), pair, _checked_height(entry.get("height", height))))
    pair_reports = []
    consistency_failures = []
    for _, pair, pair_height in sorted(runs, key=lambda run: run[0]):
        name = pair.name
        try:
            pair_reports.append(_run_pair(pair, pair_height))
        except InternalCheckError as exc:
            consistency_failures.append({"name": name, "reason": str(exc)})
            pair_reports.append({"name": name, "classification": "inconsistent", "error": str(exc)})
        except FreesumError as exc:
            pair_reports.append({"name": name, "classification": "error", "error_code": exc.code})

    for report in pair_reports:
        results = report.get("results", {})
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
