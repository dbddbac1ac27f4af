"""Output checks.  An operation fails when any check below finds a problem.

Two kinds of checks apply:

- a digest: for operations whose key is in ``digests.json`` (all of them for
  the default seed, and every ``corpus`` and ``verbs`` operation for any
  seed, since their inputs do not depend on it) the exit code and the
  SHA-256 of stdout must match what the program printed when the digests
  were recorded;
- invariants that hold for every seed, checked on the parsed output.

Exit codes 1 and 2 are expected outcomes for some ``verbs`` operations (a
verdict failure, or an input the verb does not accept); the recorded digest
says which.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from exact import dual_vertices, lcm_denominator


def check(op, code: int, stdout: bytes, stderr: bytes, digests: dict) -> list[str]:
    """Problems found in one operation's output; empty when it is correct."""
    problems = []
    recorded = digests.get(op.key)
    if recorded is not None:
        if code != recorded["exit"]:
            problems.append(f"exit code {code}, recorded {recorded['exit']}")
        if hashlib.sha256(stdout).hexdigest() != recorded["stdout_sha256"]:
            problems.append("stdout differs from the recorded digest")
    elif code not in op.expect.get("codes", (0,)):
        problems.append(f"exit code {code}")
    if code == 2:
        problems += _error_report(stderr)
        return problems
    try:
        report = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not JSON"]
    if not isinstance(report, dict):
        return problems + ["stdout is not a JSON object"]
    try:
        problems += INVARIANTS.get(op.kind, _none)(op, report)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems


def _none(op, report) -> list[str]:
    return []


def _error_report(stderr: bytes) -> list[str]:
    try:
        report = json.loads(stderr)
    except ValueError:
        return ["exit code 2 without a JSON error report"]
    return [] if isinstance(report, dict) and "error" in report else ["error report has no code"]


def _corpus(op, report) -> list[str]:
    problems = []
    if report["consistency_failures"]:
        problems.append(f"consistency failures: {report['consistency_failures']}")
    if len(report["pairs"]) != op.expect["pairs"]:
        problems.append("pair count differs from the config")
    for pair in report["pairs"]:
        if pair["classification"] in ("error", "inconsistent"):
            problems.append(f"pair {pair['name']}: {pair['classification']}")
        split = pair.get("results", {}).get("decompose")
        if split and (split["matches_enumeration"] is not True or split["split_violations"] != 0):
            problems.append(f"pair {pair['name']}: decomposition fails")
    return problems


def _decompose(op, report) -> list[str]:
    problems = []
    if report["classification"] != "free_sum":
        problems.append(f"classified as {report['classification']}")
    if report["matches_enumeration"] is not True:
        problems.append("decomposition does not match enumeration")
    if report["split_violations"] != 0:
        problems.append(f"{report['split_violations']} split violations")
    if report["dual_denominator"] != op.expect["d"]:
        problems.append(f"dual denominator {report['dual_denominator']}, expected {op.expect['d']}")
    if report["terms"] <= 0:
        problems.append("empty series")
    return problems


def _converse(op, report) -> list[str]:
    problems = []
    if report["classification"] != "free_sum":
        problems.append(f"classified as {report['classification']}")
    if report["dual_b_lattice"] is not True:
        problems.append("the dual of the segment [-1, 1] is a lattice polytope")
    if report["dual_a_lattice"] != op.expect["dual_a_lattice"]:
        problems.append("dual_a_lattice disagrees with the exact dual")
    # A lattice dual on either side forces the product formula.
    if report["braun_holds_up_to_bound"] is not True:
        problems.append("product formula fails although the segment dual is a lattice polytope")
    return problems


def _dual(op, report) -> list[str]:
    """Each dual vertex is checked against the polytope's own vertices.

    The program gives dual vertices in the coordinates of a lattice basis of
    lin(P).  When lin(P) is a coordinate subspace that basis is the standard
    one, and the dual vertex set must equal the one found here by brute force
    over the facets of P; otherwise only the reported denominator and lattice
    flag are checked against the reported vertices.
    """
    problems = []
    got = sorted(tuple(Fraction(x) for x in v) for v in report["vertex_functionals"])
    den = lcm_denominator(got)
    if report["dual_denominator"] != den:
        problems.append("dual_denominator is not the lcm of the vertex denominators")
    if report["lattice_polyhedron"] != (den == 1):
        problems.append("lattice_polyhedron disagrees with the vertices")
    verts = op.expect["vertices"]
    axes = [i for i in range(len(verts[0])) if any(v[i] != 0 for v in verts)]
    projected = [tuple(v[i] for i in axes) for v in verts]
    try:
        expected = dual_vertices(projected)
    except ValueError:
        return problems  # the origin is not interior, or lin(P) is skew
    if report["ray_functionals"]:
        problems.append("a polytope with the origin interior has a bounded dual")
    if got != expected:
        problems.append(f"dual vertices differ: expected {[list(map(str, v)) for v in expected]}")
    return problems


INVARIANTS = {
    "corpus": _corpus,
    "decompose": _decompose,
    "converse": _converse,
    "dual": _dual,
}
