"""Self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest bench/test_bench.py

Checks that each run prints every metric named in BENCHMARK.json with its
unit, that outputs pass their checks, and that a tampered stdout counts as a
failure.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import exact
import run
import workloads

TINY = {
    "corpus": dict(height=1),
    "wide-dual": dict(height=1, d_bands=((2, 6),)),
    "hull-kernel": dict(height=1, polygon_vertices=(4,), polytope_vertices=(4,)),
    "verbs": dict(height=1, summands=2),
}


def declared(kind: str) -> dict:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_prints_every_metric(name, trace):
    spec = dataclasses.replace(workloads.SPECS[name], **TINY[name])
    result, record = run.run(spec, seed=3, seconds=0, trace=trace)
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert record["seed"] == 3 and record["ops_run"] == result["attempted"]


@pytest.fixture
def inputs():
    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=run.ROOT))
    yield workloads.Inputs(run.ROOT, workdir)
    shutil.rmtree(workdir)


def test_tampered_stdout_is_a_failure(inputs):
    spec = dataclasses.replace(workloads.SPECS["wide-dual"], **TINY["wide-dual"])
    (op,) = workloads.build(spec, 3, inputs)
    _, code, _, out, err = run.spawn([*run.CLI, *op.args], inputs.workdir)
    assert checks.check(op, code, out, err, {}) == []
    tampered = out.replace(b'"split_violations": 0', b'"split_violations": 1')
    assert tampered != out
    assert checks.check(op, code, tampered, err, {})
    digests = {op.key: {"exit": code, "stdout_sha256": "0" * 64}}
    assert checks.check(op, code, out, err, digests) == ["stdout differs from the recorded digest"]


def test_dual_check_catches_a_wrong_vertex(inputs):
    square = [(Fraction(x), Fraction(y)) for x, y in ((-1, -1), (-1, 2), (2, -1), (2, 2))]
    op = inputs.op("dual", ["dual", "--in", inputs.polytope(square)], {"vertices": square})
    _, code, _, out, err = run.spawn([*run.CLI, *op.args], inputs.workdir)
    assert checks.check(op, code, out, err, {}) == []
    report = json.loads(out)
    assert sorted(report["vertex_functionals"]) == sorted(
        [[str(a), str(b)] for a, b in exact.dual_vertices(square)]
    )
    report["vertex_functionals"][0][0] = "7"
    assert checks.check(op, code, json.dumps(report).encode(), err, {})


def test_tail_has_ten_samples_above():
    assert run.tail([float(i) for i in range(30)]) == (19.0, 200 / 3, 10)
    value, percentile, above = run.tail([1.0, 2.0, 3.0])
    assert value == 2.0 and percentile == pytest.approx(200 / 3) and above == 1
