"""Command-line front-end.

JSON output (the default) is the stable contract: keys sorted, rationals in
canonical form, byte-identical across runs for identical inputs.  Exit
status: 0 success, 1 verdict failure, 2 input or precondition error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .corpus import MODES, corpus_run
from .errors import ClassificationError, FreesumError, InternalCheckError
from .freesums import (
    check_braun_multivariate,
    classify_sum,
    converse_search,
    decompose_sigma,
    gorenstein_affine_check,
)
from .cones import cone_over, llenv_points
from .jsonio import (
    dumps,
    format_dual,
    format_point,
    format_series,
    format_univariate,
    load_polytope,
)
from .polytopes import (
    denominator,
    dual_denominator,
    gorenstein_data,
    is_lattice_polyhedron,
    polar_dual,
)
from .series import delta_polynomial, ehrhart_series, sigma_cone

DEFAULT_HEIGHT = 12


def _parse_point_flag(raw: str):
    try:
        return tuple(Fraction(part.strip()) for part in raw.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise FreesumError(f"bad --p value: {raw!r}", "bad-point-flag") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freesum",
        description="Exact lattice-point generating functions for free sums of rational polytopes.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_height(p):
        p.add_argument("--height", type=int, default=None, help="truncation height bound")

    p_ehr = sub.add_parser("ehrhart", help="dilate-counting series of a polytope")
    p_ehr.add_argument("--in", dest="infile", required=True)
    add_height(p_ehr)

    p_delta = sub.add_parser("delta", help="numerator polynomial of the counting series")
    p_delta.add_argument("--in", dest="infile", required=True)
    add_height(p_delta)

    p_dual = sub.add_parser("dual", help="polar dual relative to the linear span")
    p_dual.add_argument("--in", dest="infile", required=True)

    p_sigma = sub.add_parser("sigma", help="multivariate generating function of the cone")
    p_sigma.add_argument("--in", dest="infile", required=True)
    add_height(p_sigma)

    p_env = sub.add_parser("envelope", help="projected lattice envelope of the cone")
    p_env.add_argument("--in", dest="infile", required=True)
    p_env.add_argument("--p", dest="point", default=None, help="projection point, e.g. '1/2,0'")
    add_height(p_env)

    p_gor = sub.add_parser("gorenstein", help="Gorenstein index data of a lattice polytope")
    p_gor.add_argument("--in", dest="infile", required=True)

    p_check = sub.add_parser("check", help="classify a pair and verify a product formula")
    p_check.add_argument("--a", required=True)
    p_check.add_argument("--b", required=True)
    p_check.add_argument("--mode", choices=MODES, default="braun")
    p_check.add_argument("--p", dest="point", default=None, help="expected intersection point")
    add_height(p_check)

    p_corpus = sub.add_parser("corpus", help="run a batch of pairs from a config file")
    p_corpus.add_argument("--config", required=True)
    add_height(p_corpus)

    return parser


def _height(args) -> int:
    value = args.height if getattr(args, "height", None) is not None else DEFAULT_HEIGHT
    if value < 0:
        raise FreesumError("height bound must be nonnegative", "bad-height")
    return value


def _run_ehrhart(args):
    p = load_polytope(args.infile)
    series = ehrhart_series(p, _height(args))
    return format_univariate(series), 0


def _run_delta(args):
    p = load_polytope(args.infile)
    if args.height is None:
        bound = denominator(p) * (p.affine_dim + 2)
    else:
        bound = _height(args)
    delta = delta_polynomial(p, bound)
    return (
        {
            "delta": [str(c) for c in delta.coefficients],
            "den": delta.den,
            "dim": delta.power - 1,
        },
        0,
    )


def _run_dual(args):
    p = load_polytope(args.infile)
    dual = polar_dual(p)
    report = format_dual(dual)
    report["dual_denominator"] = dual_denominator(p)
    report["lattice_polyhedron"] = is_lattice_polyhedron(dual)
    return report, 0


def _run_sigma(args):
    p = load_polytope(args.infile)
    series = sigma_cone(cone_over(p), _height(args))
    return format_series(series), 0


def _run_envelope(args):
    p = load_polytope(args.infile)
    point = _parse_point_flag(args.point) if args.point is not None else (Fraction(0),) * p.dim
    points = llenv_points(cone_over(p), point, _height(args))
    return (
        {
            "height_bound": _height(args),
            "points": [
                {"coords": format_point(pt), "lattice": flag} for pt, flag in points
            ],
            "projection_point": format_point(point),
        },
        0,
    )


def _run_gorenstein(args):
    p = load_polytope(args.infile)
    data = gorenstein_data(p)
    if data is None:
        return {"gorenstein": False}, 1
    return (
        {
            "center": format_point(data.center),
            "gorenstein": True,
            "index": data.index,
            "interior_point": [str(x) for x in data.interior_point],
        },
        0,
    )


def _run_check(args):
    a = load_polytope(args.a)
    b = load_polytope(args.b)
    height = _height(args)
    expected = _parse_point_flag(args.point) if args.point is not None else None
    try:
        witness = classify_sum(a, b)
    except ClassificationError as exc:
        return {"classification": "rejected", "error": exc.code, "height_bound": height}, 1
    report = {
        "classification": witness.kind,
        "height_bound": height,
        "p": format_point(witness.intersection_point),
        "r": witness.r,
        "mode": args.mode,
    }
    if expected is not None and expected != witness.intersection_point:
        raise FreesumError(
            "classified intersection point differs from --p", "intersection-point-mismatch"
        )
    if args.mode == "braun":
        verdict = check_braun_multivariate(witness, height)
        report.update(
            {
                "factor_exponent": list(verdict.factor_exponent),
                "holds_up_to_bound": verdict.holds_up_to_bound,
                "residual_terms": format_series(verdict.residual)["terms"],
            }
        )
        return report, 0 if verdict.holds_up_to_bound else 1
    if args.mode == "decompose":
        # decompose_sigma raises unless every hull point has exactly one
        # split, so a report only exists when both literals hold.
        series = decompose_sigma(a, b, height)
        report.update(
            {
                "dual_denominator": dual_denominator(a),
                "matches_enumeration": True,
                "split_violations": 0,
                "terms": len(series.terms),
            }
        )
        return report, 0
    if args.mode == "converse":
        conv = converse_search(a, b, height)
        report.update(
            {
                "braun_holds_up_to_bound": conv.braun_holds_up_to_bound,
                "dual_a_lattice": conv.dual_p_lattice,
                "dual_b_lattice": conv.dual_q_lattice,
            }
        )
        return report, 0
    if args.mode == "affine":
        verdict = gorenstein_affine_check(a, b, height)
        report.update(
            {
                "factor_exponent": list(verdict.factor_exponent),
                "holds_up_to_bound": verdict.holds_up_to_bound,
            }
        )
        return report, 0 if verdict.holds_up_to_bound else 1
    raise FreesumError(f"unknown mode {args.mode}", "bad-mode")


def _run_corpus(args):
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise FreesumError(f"cannot read {args.config}: {exc}", "input-error") from exc
    except json.JSONDecodeError as exc:
        raise FreesumError(f"malformed JSON in {args.config}: {exc}", "input-error") from exc
    if args.height is not None and isinstance(config, dict):
        config = {**config, "height": args.height}
    return corpus_run(config)


_RUNNERS = {
    "ehrhart": _run_ehrhart,
    "delta": _run_delta,
    "dual": _run_dual,
    "sigma": _run_sigma,
    "envelope": _run_envelope,
    "gorenstein": _run_gorenstein,
    "check": _run_check,
    "corpus": _run_corpus,
}


def _emit(report: dict, fmt: str, stream) -> None:
    if fmt == "json":
        stream.write(dumps(report) + "\n")
        return
    for key, value in sorted(report.items()):
        stream.write(f"{key}: {value}\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, status = _RUNNERS[args.verb](args)
    except InternalCheckError as exc:
        _emit({"error": exc.code, "detail": str(exc)}, args.format, sys.stderr)
        return 1
    except FreesumError as exc:
        _emit({"error": exc.code, "detail": str(exc)}, args.format, sys.stderr)
        return 2
    _emit(report, args.format, sys.stdout)
    return status


if __name__ == "__main__":
    sys.exit(main())
