"""Batch verification runner for a corpus of summand pairs, and the report
builder (``check_pair``) that ``freesum check`` shares with it.

The pair list lives in ``corpus/standard.json``: it covers dual denominators
1, 2, 3 and 6 for the first summand, ambient dimensions up to three, affine
pairs meeting at non-lattice points, and one deliberately rejected pair.
"""

from __future__ import annotations

from collections import Counter

from .errors import ClassificationError, FreesumError, InputError, InternalCheckError
from .freesums import (
    AFFINE_FREE_SUM,
    FREE_SUM,
    _series_mismatch,
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


def verdict_fields(verdict) -> dict:
    """The report fields of a product-formula verdict."""
    holds = verdict.holds_up_to_bound
    return {"factor_exponent": list(verdict.factor_exponent), "holds_up_to_bound": holds}


def check_pair(a, b, height: int, modes, error_key: str, dialect, expected=None):
    """(report, holds) for ``check`` and ``corpus``.  The report has the
    height bound and the classification, then the rejection's code under
    ``error_key``, or p, r and ``results``: per mode its shared fields, then
    ``dialect(mode, outcome, witness, height)``, outcome the mode's result.
    ``affine`` shares none: ``check`` runs the Gorenstein-center check, a
    corpus the envelope condition.  holds is false on a rejection or a false
    ``holds_up_to_bound``.  An ``expected`` p that is not the classified one
    raises before any mode runs; ``braun`` raises ``InternalCheckError`` when
    Braun's identity at z = 1 (``_series_mismatch``) disagrees with it."""
    report: dict = {"height_bound": height}
    try:
        witness = classify_sum(a, b)
    except ClassificationError as exc:
        report.update({"classification": "rejected", error_key: exc.code})
        return report, False
    point = format_point(witness.intersection_point)
    report.update(classification=witness.kind, p=point, r=witness.r)
    if expected is not None and expected != witness.intersection_point:
        raise FreesumError(
            "classified intersection point differs from --p", "intersection-point-mismatch"
        )
    results: dict = {}
    for mode in modes:
        outcome, fields = None, {}
        if mode == "braun":
            outcome = check_braun_multivariate(witness, height)
            if (_series_mismatch(a, b, witness.r, height) is None) != outcome.holds_up_to_bound:
                raise InternalCheckError("Braun's univariate identity disagrees with the verdict")
            fields = verdict_fields(outcome)
        elif mode == "decompose":
            # Raises unless every hull point has exactly one split.
            outcome = decompose_sigma(a, b, height)
            fields = {
                "dual_denominator": dual_denominator(a),
                "matches_enumeration": True,
                "split_violations": 0,
            }
        elif mode == "converse":
            outcome = converse_search(a, b, height)
            fields = {
                "dual_a_lattice": outcome.dual_p_lattice,
                "dual_b_lattice": outcome.dual_q_lattice,
                "braun_holds_up_to_bound": outcome.braun_holds_up_to_bound,
            }
        results[mode] = {**fields, **dialect(mode, outcome, witness, height)}
    report["results"] = results
    return report, all(fields.get("holds_up_to_bound", True) for fields in results.values())


def _corpus_fields(mode, outcome, witness, height: int) -> dict:
    """A corpus pair's own fields: the Braun counterexample, with the
    residual's sign, nonnegative as each residual coefficient is 0 or 1, and
    ``affine`` as the envelope condition at p."""
    if mode == "braun":
        found = outcome.counterexample
        return {
            "residual_nonnegative": True,
            "counterexample": (
                None if found is None else {"exp": list(found[0]), "lhs": found[1], "rhs": found[2]}
            ),
        }
    if mode == "affine":
        condition = envelope_condition_check(witness.j, witness.intersection_point, height)
        return {
            "envelope_condition": condition.holds,
            "witness": None if condition.witness is None else format_point(condition.witness),
        }
    return {}


def _checked_height(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise InputError("corpus height must be a nonnegative integer")
    return value


def corpus_run(config: dict) -> tuple[dict, int]:
    """Run every configured pair; returns (report, exit_code).

    The whole config is validated first: a malformed pair, mode or height
    raises ``InputError`` before any pair runs.  Classification rejections
    are recorded, not fatal.  The exit code is 1 only when a consistency
    check fails: a mode raised ``InternalCheckError``, the pair is reported
    as ``inconsistent``, and ``consistency_failures`` names it and why:

    - ``decompose_sigma``'s assembly disagrees with the hull enumeration;
    - ``converse_search`` saw the product formula fail although a summand
      has a lattice-polyhedron dual;
    - Braun's univariate identity Ehr_(J+K) = (1 - t^r) * Ehr_J * Ehr_K up
      to H disagrees with the ``braun`` verdict.
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
        a, b = parse_polytope(entry["a"]), parse_polytope(entry["b"])
        pair = CorpusPair(entry.get("name", "unnamed"), a, b, tuple(modes))
        runs.append((entry.get("name", ""), pair, _checked_height(entry.get("height", height))))
    pair_reports = []
    consistency_failures = []
    for _, pair, pair_height in sorted(runs, key=lambda run: run[0]):
        name = pair.name
        try:
            report, _ = check_pair(
                pair.a, pair.b, pair_height, pair.modes, "error_code", _corpus_fields
            )
            pair_reports.append({"name": name, **report})
        except InternalCheckError as exc:
            consistency_failures.append({"name": name, "reason": str(exc)})
            pair_reports.append({"name": name, "classification": "inconsistent", "error": str(exc)})
        except FreesumError as exc:
            pair_reports.append({"name": name, "classification": "error", "error_code": exc.code})
    kinds = Counter(r["classification"] for r in pair_reports)
    counts = {kind: kinds[kind] for kind in (AFFINE_FREE_SUM, FREE_SUM, "rejected")}
    report = {
        "consistency_failures": consistency_failures,
        "counts": counts,
        "height_bound": height,
        "pairs": pair_reports,
    }
    return report, (1 if consistency_failures else 0)
