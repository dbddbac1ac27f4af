"""CLI contract: verbs, JSON stability, exit codes, corpus runner."""

from __future__ import annotations

import gc
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import freesum
import freesum.corpus
import freesum.freesums
from freesum.cli import main
from freesum.corpus import corpus_run
from freesum.freesums import check_braun_multivariate
from freesum.errors import InputError
from freesum.jsonio import dumps, parse_polytope, parse_rational

from conftest import (
    CORPUS_FILE,
    SPLIT_FAULTS,
    F,
    break_split,
    corpus_pairs,
    diamond,
    format_polytope,
    poly,
    segment,
)


BENCH_DIR = CORPUS_FILE.parent.parent / "bench"


def write_polytope(tmp_path, name, p):
    path = tmp_path / name
    path.write_text(json.dumps(format_polytope(p)))
    return str(path)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def test_parse_rational_forms():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-2") == F(-2)
    assert parse_rational(5) == F(5)
    with pytest.raises(InputError):
        parse_rational("x")
    with pytest.raises(InputError):
        parse_rational("1/0")


def test_polytope_roundtrip():
    p = poly(2, (F(1, 2), 0), (0, F(1, 3)), (0, 0))
    assert parse_polytope(format_polytope(p)).vertices == p.vertices


def test_polytope_schema_errors():
    with pytest.raises(InputError):
        parse_polytope({"vertices": [["0"]]})
    with pytest.raises(InputError):
        parse_polytope({"dim": 2, "vertices": [["0"]]})
    with pytest.raises(InputError):
        parse_polytope({"dim": 1, "vertices": []})


def test_cli_delta_diamond(tmp_path):
    path = write_polytope(tmp_path, "diamond.json", diamond())
    status, out, _ = run_cli(["delta", "--in", path])
    assert status == 0
    report = json.loads(out)
    assert report == {"delta": ["1", "2", "1"], "den": 1, "dim": 2}


@pytest.mark.parametrize("verb", ["ehrhart", "delta", "sigma", "envelope", "check"])
def test_cli_rejects_negative_height(tmp_path, verb):
    path = write_polytope(tmp_path, "diamond.json", diamond())
    inputs = ["--a", path, "--b", path] if verb == "check" else ["--in", path]
    status, out, err = run_cli([verb, *inputs, "--height", "-1"])
    assert (status, out) == (2, "")
    assert json.loads(err)["error"] == "bad-height"


def test_cli_dual_interval(tmp_path):
    path = write_polytope(tmp_path, "wide.json", segment(-2, 3))
    status, out, _ = run_cli(["dual", "--in", path])
    assert status == 0
    report = json.loads(out)
    assert report["vertex_functionals"] == [["-1/2"], ["1/3"]]
    assert report["ray_functionals"] == []
    assert report["dual_denominator"] == 6
    assert report["lattice_polyhedron"] is False


def test_cli_dual_requires_origin(tmp_path):
    path = write_polytope(tmp_path, "quarter.json", segment(F(1, 4), F(3, 4)))
    status, out, err = run_cli(["dual", "--in", path])
    assert status == 2
    assert json.loads(err)["error"] == "origin-not-in-polytope"


def test_cli_ehrhart_and_height_env(tmp_path):
    path = write_polytope(tmp_path, "diamond.json", diamond())
    status, out, _ = run_cli(["ehrhart", "--in", path, "--height", "2"])
    assert status == 0
    assert json.loads(out)["coefficients"] == ["1", "5", "13"]
    # Without --height the bound is 12: thirteen coefficients.
    status, out, _ = run_cli(["ehrhart", "--in", path])
    assert status == 0
    assert len(json.loads(out)["coefficients"]) == 13


def test_cli_sigma_envelope(tmp_path):
    path = write_polytope(tmp_path, "quarter.json", segment(F(1, 4), F(3, 4)))
    status, out, _ = run_cli(["sigma", "--in", path, "--height", "4"])
    assert status == 0
    report = json.loads(out)
    assert {"coef": "1", "exp": [1, 2]} in report["terms"]
    status, out, _ = run_cli(
        ["envelope", "--in", path, "--p", "1/2", "--height", "3"]
    )
    assert status == 0
    report = json.loads(out)
    assert {"coords": ["1/2", "2"], "lattice": False} in report["points"]


@pytest.mark.parametrize("verb", ["envelope", "check"])
def test_cli_rejects_empty_point_flag(tmp_path, verb):
    # An empty --p names no point: it must not fall back to the origin.
    path = write_polytope(tmp_path, "diamond.json", diamond())
    inputs = ["--a", path, "--b", path] if verb == "check" else ["--in", path]
    status, out, err = run_cli([verb, *inputs, "--p=", "--height", "1"])
    assert (status, out) == (2, "")
    assert json.loads(err)["error"] == "bad-point-flag"


def test_cli_gorenstein(tmp_path):
    path = write_polytope(tmp_path, "seg.json", poly(2, (0, 0), (1, 0)))
    status, out, _ = run_cli(["gorenstein", "--in", path])
    assert status == 0
    report = json.loads(out)
    assert report["index"] == 2 and report["interior_point"] == ["1", "0"]
    box = write_polytope(tmp_path, "box.json", poly(2, (0, 0), (1, 0), (0, 3), (1, 3)))
    status, out, _ = run_cli(["gorenstein", "--in", box])
    assert status == 1
    assert json.loads(out) == {"gorenstein": False}


def test_cli_check_braun(tmp_path):
    a = write_polytope(tmp_path, "a.json", diamond(3, (0, 1)))
    b = write_polytope(tmp_path, "b.json", poly(3, (0, 0, -1), (0, 0, 1)))
    status, out, _ = run_cli(["check", "--a", a, "--b", b, "--mode", "braun", "--height", "8"])
    assert status == 0
    report = json.loads(out)
    assert report["holds_up_to_bound"] is True
    assert report["residual_terms"] == []


def test_cli_check_braun_failure_exit(tmp_path):
    a = write_polytope(tmp_path, "a.json", poly(2, (0, 0), (F(2, 3), 0)))
    b = write_polytope(tmp_path, "b.json", poly(2, (0, 0), (0, F(2, 3))))
    status, out, _ = run_cli(["check", "--a", a, "--b", b, "--height", "5"])
    assert status == 1
    assert json.loads(out)["holds_up_to_bound"] is False


def test_cli_check_rejected_pair(tmp_path):
    a = write_polytope(tmp_path, "a.json", poly(2, (-1, 0), (1, 0)))
    b = write_polytope(tmp_path, "b.json", poly(2, (-1, -2), (1, 2)))
    status, out, _ = run_cli(["check", "--a", a, "--b", b, "--height", "4"])
    assert status == 1
    assert json.loads(out)["classification"] == "rejected"


def test_cli_check_decompose_and_affine(tmp_path):
    a = write_polytope(tmp_path, "a.json", segment(F(-2), F(3)).translate((0,)))
    a2 = write_polytope(tmp_path, "a2.json", poly(2, (-2, 0), (3, 0)))
    b2 = write_polytope(tmp_path, "b2.json", poly(2, (0, -1), (0, 1)))
    status, out, _ = run_cli(
        ["check", "--a", a2, "--b", b2, "--mode", "decompose", "--height", "8"]
    )
    assert status == 0
    report = json.loads(out)
    assert report["matches_enumeration"] is True and report["dual_denominator"] == 6
    ga = write_polytope(tmp_path, "ga.json", poly(2, (0, 0), (1, 0)))
    gb = write_polytope(
        tmp_path, "gb.json", poly(2, (F(1, 2), -1), (F(1, 2), 1))
    )
    status, out, _ = run_cli(
        ["check", "--a", ga, "--b", gb, "--mode", "affine", "--height", "6", "--p", "1/2,0"]
    )
    assert status == 0
    assert json.loads(out)["holds_up_to_bound"] is True


def test_cli_check_decompose_skew_summand(tmp_path):
    # K is skew to the axes and J has dual denominator 20, so every layer of
    # cone(J) meets a copy of cone(K) shifted down by a fraction i/20.
    j = write_polytope(
        tmp_path, "j.json", poly(3, (F(-4, 3), F(-4, 3), 0), (0, -2, 0), (F(1, 2), F(7, 4), 0))
    )
    k = write_polytope(tmp_path, "k.json", poly(3, (-4, -1, -1), (8, 2, 2)))
    argv = ["check", "--a", j, "--b", k, "--mode", "decompose", "--height", "3"]
    first = run_cli(argv)
    status, out, _ = first
    assert status == 0
    report = json.loads(out)
    assert report["classification"] == "free_sum"
    assert report["dual_denominator"] == 20
    assert report["terms"] == 130
    assert report["split_violations"] == 0
    assert report["matches_enumeration"] is True
    assert run_cli(argv) == first


@pytest.mark.parametrize("fault", sorted(SPLIT_FAULTS))
def test_broken_split_fails_check_and_corpus(tmp_path, walk_seam, fault):
    j, k, point, splits = break_split(walk_seam, fault)
    detail = f"at {point}: {splits} splits, direct coefficient 1"
    a = write_polytope(tmp_path, "a.json", j)
    b = write_polytope(tmp_path, "b.json", k)
    argv = ["check", "--a", a, "--b", b, "--mode", "decompose", "--height", "1"]
    status, out, err = run_cli(argv)
    assert (status, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "internal-check" and detail in error["detail"]
    pair = {"name": "broken", "a": format_polytope(j), "b": format_polytope(k)}
    report, status = corpus_run({"height": 1, "pairs": [{**pair, "modes": ["decompose"]}]})
    assert status == 1
    assert report["pairs"][0]["classification"] == "inconsistent"
    assert [f["name"] for f in report["consistency_failures"]] == ["broken"]
    assert detail in report["consistency_failures"][0]["reason"]


def test_cli_check_point_mismatch(tmp_path):
    ga = write_polytope(tmp_path, "ga.json", poly(2, (0, 0), (1, 0)))
    gb = write_polytope(tmp_path, "gb.json", poly(2, (F(1, 2), -1), (F(1, 2), 1)))
    status, out, err = run_cli(
        ["check", "--a", ga, "--b", gb, "--mode", "braun", "--p", "1/3,0"]
    )
    assert status == 2
    assert json.loads(err)["error"] == "intersection-point-mismatch"
    # A malformed --p is an input error whether or not the pair classifies.
    ra = write_polytope(tmp_path, "ra.json", poly(2, (-1, 0), (1, 0)))
    rb = write_polytope(tmp_path, "rb.json", poly(2, (-1, -2), (1, 2)))
    for a, b in ((ga, gb), (ra, rb)):
        status, out, err = run_cli(["check", "--a", a, "--b", b, "--p", "x,y"])
        assert (status, out) == (2, "")
        assert json.loads(err)["error"] == "bad-point-flag"


def test_cli_text_format(tmp_path):
    """``--format text`` prints the report as sorted ``key: value`` lines, and
    an input error as the same lines on stderr, with exit 2."""
    path = write_polytope(tmp_path, "wide.json", segment(-2, 3))
    status, out, err = run_cli(["--format", "text", "dual", "--in", path])
    assert (status, err) == (0, "")
    assert out == (
        "dual_denominator: 6\n"
        "lattice_polyhedron: False\n"
        "ray_functionals: []\n"
        "vertex_functionals: [['-1/2'], ['1/3']]\n"
    )
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "vertices": [["0"]]}')
    status, out, err = run_cli(["--format", "text", "dual", "--in", str(bad)])
    assert (status, out) == (2, "")
    assert err == "detail: vertex length disagrees with the declared dimension\nerror: input-error\n"


def test_cli_output_byte_stable(tmp_path):
    path = write_polytope(tmp_path, "diamond.json", diamond())
    first = run_cli(["sigma", "--in", path, "--height", "4"])
    second = run_cli(["sigma", "--in", path, "--height", "4"])
    assert first == second


def test_cli_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    status, _, err = run_cli(["dual", "--in", str(bad)])
    assert status == 2
    assert json.loads(err)["error"] == "input-error"


@pytest.mark.parametrize("text, detail", [(None, "cannot read"), ("{nope", "malformed JSON in")])
def test_cli_corpus_unreadable_or_malformed_config(tmp_path, text, detail):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    status, out, err = run_cli(["corpus", "--config", str(path)])
    assert (status, out) == (2, "")
    report = json.loads(err)
    assert report["error"] == "input-error"
    assert report["detail"].startswith(f"{detail} {path}: ")


def test_cli_corpus_on_bundled_config():
    status, out, _ = run_cli(["corpus", "--config", str(CORPUS_FILE), "--height", "4"])
    assert status == 0
    report = json.loads(out)
    assert report["consistency_failures"] == []
    assert report["counts"]["rejected"] == 1
    assert report["counts"]["free_sum"] >= 12


def test_corpus_empty():
    report, status = corpus_run({"pairs": []})
    assert status == 0
    assert report["pairs"] == []


def test_bundled_corpus_file_in_sync():
    # The file is the only definition of the corpus: it must be in the
    # canonical form that parsing and formatting every polytope reproduces.
    text = CORPUS_FILE.read_text()
    config = json.loads(text)
    rebuilt = {
        **config,
        "pairs": [
            {
                **entry,
                "a": format_polytope(parse_polytope(entry["a"])),
                "b": format_polytope(parse_polytope(entry["b"])),
            }
            for entry in config["pairs"]
        ],
    }
    assert text == dumps(rebuilt) + "\n"
    assert config["height"] == 10
    names = [entry["name"] for entry in config["pairs"]]
    assert len(names) == len(set(names))
    modes = {mode for entry in config["pairs"] for mode in entry["modes"]}
    assert modes <= {"braun", "decompose", "converse", "affine"}


def test_converse_failure_with_lattice_dual_is_inconsistent(tmp_path, monkeypatch):
    # twothirds+twothirds fails the product formula from height 3; a lattice
    # dual claimed for either summand must make converse_search raise.
    monkeypatch.setattr(freesum.freesums, "is_lattice_polyhedron", lambda q: True)
    pairs = json.loads(CORPUS_FILE.read_text())["pairs"]
    entry = next(e for e in pairs if e["name"] == "twothirds+twothirds")
    report, status = corpus_run({"height": 5, "pairs": [entry]})
    assert status == 1
    [pair] = report["pairs"]
    assert pair["classification"] == "inconsistent" and "results" not in pair
    assert "lattice-polyhedron dual" in pair["error"]
    assert report["consistency_failures"] == [{"name": entry["name"], "reason": pair["error"]}]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(entry["a"]))
    b.write_text(json.dumps(entry["b"]))
    argv = ["check", "--a", str(a), "--b", str(b), "--mode", "converse", "--height", "5"]
    status, out, err = run_cli(argv)
    assert (status, out) == (1, "")
    assert json.loads(err)["error"] == "internal-check"


SEGMENT = {"dim": 1, "vertices": [["-1"], ["1"]]}


@pytest.mark.parametrize(
    "config, extra",
    [
        ({"pairs": [{"b": SEGMENT, "name": "no-a"}]}, []),
        ({"pairs": [7]}, []),
        ([1, 2], ["--height", "3"]),
        ({"height": True, "pairs": []}, []),
        ({"pairs": [{"a": SEGMENT, "b": SEGMENT, "name": 3}, {"a": SEGMENT, "b": SEGMENT}]}, []),
        ({"pairs": [{"a": SEGMENT, "b": SEGMENT, "modes": "braun"}]}, []),
        ({"pairs": [{"a": SEGMENT, "b": SEGMENT, "modes": ["braun", "decompse"]}]}, []),
        ({"pairs": [{"a": SEGMENT, "b": SEGMENT, "modes": [7]}]}, []),
    ],
    ids=[
        "pair-without-a",
        "pair-not-object",
        "config-not-object",
        "height-bool",
        "name-not-string",
        "modes-not-array",
        "mode-unknown",
        "mode-not-string",
    ],
)
def test_cli_corpus_malformed_config(tmp_path, config, extra):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(config))
    status, out, err = run_cli(["corpus", "--config", str(path), *extra])
    assert status == 2
    assert out == ""
    assert json.loads(err)["error"] == "input-error"


def test_corpus_validates_every_pair_before_running_any(monkeypatch):
    # Pair "a" sorts first and is well formed; pair "z" has a bad vertex.
    def fail(a, b, height, modes, *rest):
        raise AssertionError("a pair ran before the config was validated")

    monkeypatch.setattr(freesum.corpus, "check_pair", fail)
    broken = {"dim": 1, "vertices": [["1/0"], ["1"]]}
    pairs = [{"name": "z", "a": broken, "b": SEGMENT}, {"name": "a", "a": SEGMENT, "b": SEGMENT}]
    with pytest.raises(InputError):
        corpus_run({"pairs": pairs})


# The corpus pairs whose product formula fails by height 7.
BRAUN_FAILURES = [
    "affine-quarter-segment",
    "affine-third-cross",
    "threehalves+threehalves",
    "twothirds+twothirds",
    "wide+twothirds",
]


def test_braun_cross_check_names_pairs_with_a_broken_verdict(tmp_path, monkeypatch, request):
    """Braun's univariate identity checks the pair table.  With each pair's
    high set to its low, every residual vanishes and every failing verdict
    reads "holds"; the identity still fails there, so the corpus exits 1 and
    names exactly those pairs, and ``check --mode braun`` exits 1 on one."""
    config = {**json.loads(CORPUS_FILE.read_text()), "height": 7}
    report, status = corpus_run(config)
    assert (status, report["consistency_failures"]) == (0, [])
    braun = {p["name"]: p["results"]["braun"] for p in report["pairs"] if "results" in p}
    assert sorted(name for name, b in braun.items() if not b["holds_up_to_bound"]) == BRAUN_FAILURES
    real = freesum.freesums._pairs

    def agreeing(*args):
        for y, w, low, _ in real(*args):
            yield y, w, low, low

    request.addfinalizer(check_braun_multivariate.cache_clear)
    monkeypatch.setattr(freesum.freesums, "_pairs", agreeing)
    check_braun_multivariate.cache_clear()
    report, status = corpus_run(config)
    assert status == 1
    assert [f["name"] for f in report["consistency_failures"]] == BRAUN_FAILURES
    broken = [p for p in report["pairs"] if p["name"] in BRAUN_FAILURES]
    assert {p["classification"] for p in broken} == {"inconsistent"}
    pair = next(p for p in corpus_pairs() if p.name == "twothirds+twothirds")
    a = write_polytope(tmp_path, "a.json", pair.a)
    b = write_polytope(tmp_path, "b.json", pair.b)
    status, out, err = run_cli(["check", "--a", a, "--b", b, "--height", "7"])
    assert (status, out, json.loads(err)["error"]) == (1, "", "internal-check")


def test_cli_rejects_boolean_dim(tmp_path):
    path = tmp_path / "bool-dim.json"
    path.write_text(json.dumps({"dim": True, "vertices": [["0"], ["1"]]}))
    status, out, err = run_cli(["ehrhart", "--in", str(path)])
    assert status == 2
    assert out == ""
    assert json.loads(err)["error"] == "input-error"


def test_cli_stdout_matches_recorded_digests(tmp_path, monkeypatch):
    """Every operation of every benchmark workload at the default seed, run in
    process, gives the exit code and stdout digest in ``bench/digests.json``,
    so a change to any output fails here and not only in a benchmark run."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    workloads = importlib.import_module("workloads")
    recorded = json.loads((BENCH_DIR / "digests.json").read_text())
    inputs = workloads.Inputs(BENCH_DIR.parent, tmp_path)
    keys = set()
    for spec in workloads.SPECS.values():
        for op in workloads.build(spec, workloads.DEFAULT_SEED, inputs):
            status, out, _ = run_cli(list(op.args))
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert {"exit": status, "stdout_sha256": digest} == recorded[op.key], op.args
            keys.add(op.key)
    assert keys == recorded.keys()


def fresh_python(*args):
    """Run a fresh interpreter on this package's source, as the benchmark does."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(freesum.__file__))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("case, expected", [("corpus", 0), ("check-fails", 1), ("input-error", 2)])
def test_fresh_process_exit_keeps_output_and_status(tmp_path, case, expected):
    """A process that ends through ``main``'s exit hook prints what ``main``
    returns in process, on stdout and stderr, with the same exit code."""
    a = write_polytope(tmp_path, "a.json", poly(2, (0, 0), (F(2, 3), 0)))
    b = write_polytope(tmp_path, "b.json", poly(2, (0, 0), (0, F(2, 3))))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    argv = {
        "corpus": ["corpus", "--config", str(CORPUS_FILE), "--height", "7"],
        "check-fails": ["check", "--a", a, "--b", b, "--height", "5"],
        "input-error": ["dual", "--in", str(bad)],
    }[case]
    # The benchmark's invocation: ``main`` as the whole program.
    done = fresh_python("-c", "import sys; from freesum.cli import main; sys.exit(main())", *argv)
    status, out, err = run_cli(argv)
    assert (done.returncode, done.stdout, done.stderr) == (status, out, err)
    assert status == expected
    assert (len(out) > 8000) == (case == "corpus")


def test_main_leaves_collection_on(tmp_path):
    """``main`` freezes nothing while the process runs: tests and library
    callers keep normal collection."""
    path = write_polytope(tmp_path, "diamond.json", diamond())
    status, _, _ = run_cli(["sigma", "--in", path, "--height", "3"])
    assert status == 0
    assert gc.get_freeze_count() == 0
    assert gc.isenabled()


def test_repeated_main_calls_freeze_once_at_exit(tmp_path):
    """A process that calls ``main`` three times runs its exit hook once, at
    exit: only the first call registers it."""
    path = write_polytope(tmp_path, "diamond.json", diamond())
    script = (
        "import atexit, gc, io\n"
        "from contextlib import redirect_stdout\n"
        "from freesum.cli import main\n"
        "calls, freeze = [], gc.freeze\n"
        "gc.freeze = lambda: (calls.append(gc.get_freeze_count()), freeze())\n"
        "atexit.register(lambda: print(calls))\n"
        "with redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(['dual', '--in', {path!r}]) for _ in range(3)]\n"
        "print(codes, calls)\n"
    )
    done = fresh_python("-c", script)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == ["[0, 0, 0] []", "[0]"]


def test_repeated_main_calls_keep_one_atexit_slot(tmp_path):
    """Importing the CLI registers nothing, the first ``main`` registers one
    exit hook, and later calls add no ``atexit`` slot."""
    path = write_polytope(tmp_path, "diamond.json", diamond())
    script = (
        "import atexit, io\n"
        "from contextlib import redirect_stdout\n"
        "counts = [atexit._ncallbacks()]\n"
        "from freesum.cli import main\n"
        "counts.append(atexit._ncallbacks())\n"
        "for _ in range(3):\n"
        "    with redirect_stdout(io.StringIO()):\n"
        f"        main(['dual', '--in', {path!r}])\n"
        "    counts.append(atexit._ncallbacks())\n"
        "print([n - counts[0] for n in counts])\n"
    )
    done = fresh_python("-c", script)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == ["[0, 0, 1, 1, 1]"]
