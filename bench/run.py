"""The freesum benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives the ``freesum`` CLI from outside as a closed loop with one client:
each operation is one CLI invocation in a fresh process, started only after
the previous one has ended, so no cache carries over between operations.  A
batch is one pass over the workload's operations (see ``workloads.py``); the
run repeats batches while the next one is expected to end within S seconds,
and always runs at least one.  Every output is checked (see ``checks.py``).

With ``--trace 0`` the last line of stdout holds the end-to-end metrics;
with ``--trace 1`` the first half of the time runs untraced batches and the
second half traced ones (see ``tracer.py``), and the last line holds the
per-layer metrics and the tracing overhead.  The line before it is a run
record: Python version, core count, git sha, seed, heights, input sizes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 12
CLI = ["-c", "import sys; from freesum.cli import main; sys.exit(main())"]


@dataclasses.dataclass
class Result:
    """One operation as it ran."""

    op: workloads.Op
    wall_s: float
    maxrss_kb: int
    code: int
    stdout: bytes
    stderr: bytes


def child_env() -> dict:
    """The checkout's ``src`` on the path and a fixed hash seed.  Inherited
    ``PYTHON*`` and ``FREESUM_*`` settings are dropped so that a run does not
    depend on its caller: ``PYTHONDONTWRITEBYTECODE`` would make every
    operation compile ``freesum`` again, ``FREESUM_DEFAULT_HEIGHT`` would
    change the work."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "FREESUM_"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], workdir: Path) -> tuple[float, int, int, bytes, bytes]:
    """Run one child to completion: (wall seconds, exit code, peak RSS in KiB,
    stdout, stderr).  ``os.wait4`` gives the child's own peak RSS."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err, open(os.devnull, "rb") as null:
        start = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable,
            [sys.executable, *argv],
            child_env(),
            file_actions=[
                (os.POSIX_SPAWN_DUP2, null.fileno(), 0),
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ],
        )
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            # Interrupted or terminated: leave no child behind.
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - start
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss, out_path.read_bytes(), err_path.read_bytes()


def run_batch(ops, workdir: Path, trace: bool) -> tuple[float, list[Result], list[dict]]:
    """One pass over the operations; returns the batch wall time, the
    results and, when traced, the span document of each operation."""
    results, docs = [], []
    spans_path = workdir / "spans.json"
    start = time.perf_counter()
    for op in ops:
        spans_path.unlink(missing_ok=True)
        argv = [str(BENCH_DIR / "tracer.py"), str(spans_path), "--", *op.args] if trace else [*CLI, *op.args]
        wall, code, rss, out, err = spawn(argv, workdir)
        results.append(Result(op, wall, rss, code, out, err))
        if trace:
            docs.append(json.loads(spans_path.read_text()))
    return time.perf_counter() - start, results, docs


def measure_setup(workdir: Path, samples: int) -> list[float]:
    """Wall times of fresh interpreters importing ``freesum.cli``."""
    walls = []
    for _ in range(samples):
        wall, code, *_ = spawn(["-c", "import freesum.cli"], workdir)
        if code != 0:
            raise RuntimeError("importing freesum.cli failed")
        walls.append(wall)
    return walls


def tail(values: list[float]) -> tuple[float, float, int]:
    """The value at the highest percentile with at least ten samples above
    it, never below the median: (value, percentile, samples above)."""
    ordered = sorted(values)
    n = len(ordered)
    index = max(n - 11, n // 2)
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def loop(ops, seconds: float, workdir: Path, trace: bool):
    """Closed loop of batches while the next batch is expected to fit."""
    walls, results, docs = [], [], []
    start = time.perf_counter()
    while True:
        wall, batch, batch_docs = run_batch(ops, workdir, trace)
        walls.append(wall)
        results.append(batch)
        docs.append(batch_docs)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return walls, results, docs


def end_to_end(walls, batches, setup_s: float) -> tuple[dict, dict]:
    op_walls = [r.wall_s for batch in batches for r in batch]
    value, percentile, above = tail(op_walls)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_s": (statistics.median(op_walls), "s"),
        "op_tail_s": (value, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(max(r.maxrss_kb for r in b) / 1024 for b in batches), "MB"),
    }
    record = {"batches": len(walls), "op_samples": len(op_walls),
              "op_tail_percentile": percentile, "op_tail_samples_above": above}
    return metrics, record


def batch_totals(docs) -> tuple[dict, dict]:
    """Per-function totals, and cache (hits, misses), over one batch."""
    totals: dict = {}
    cache: dict = {}
    for doc in docs:
        for name, entry in tracer.layer_totals(doc).items():
            agg = totals.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                agg[key] += value
        for name, (hits, misses) in doc["cache"].items():
            h, m = cache.get(name, (0, 0))
            cache[name] = (h + hits, m + misses)
    return totals, cache


def per_layer(docs_by_batch, traced_walls, untraced_walls) -> tuple[dict, dict]:
    """Median over traced batches of each function's per-batch totals."""
    batches = [batch_totals(docs) for docs in docs_by_batch]
    split, scan = "freesums.decomposition_check", "polytopes.lattice_points_in_scaled"

    def share(t, name):
        return t[name]["self_s"] / max(1e-12, sum(e["self_s"] for e in t.values()))

    def hit_ratio(c, name):
        hits, misses = c[name]
        return hits / max(1, hits + misses)

    measures = {}
    for module, qualname in tracer.TRACED:
        name = f"{module}.{qualname}"
        measures[f"{name}.calls"] = (lambda t, c, n=name: t[n]["calls"], "count")
        measures[f"{name}.self_s"] = (lambda t, c, n=name: t[n]["self_s"], "s")
    measures.update(
        {
            f"{split}.points": (lambda t, c: t[split]["count"], "count"),
            f"{split}.us_per_point": (
                lambda t, c: 1e6 * t[split]["self_s"] / max(1, t[split]["count"]), "us"),
            f"{split}.self_share": (lambda t, c: share(t, split), "ratio"),
            f"{scan}.points": (lambda t, c: t[scan]["count"], "count"),
            f"{scan}.self_share": (lambda t, c: share(t, scan), "ratio"),
            "series.sigma_cone.terms": (lambda t, c: t["series.sigma_cone"]["count"], "count"),
            "series.sigma_cone.hit_ratio": (lambda t, c: hit_ratio(c, "series.sigma_cone"), "ratio"),
            "series.series_mul.terms_out": (lambda t, c: t["series.series_mul"]["count"], "count"),
            "freesums.classify_sum.hit_ratio": (
                lambda t, c: hit_ratio(c, "freesums.classify_sum"), "ratio"),
        }
    )
    metrics = {
        name: (statistics.median(fn(t, c) for t, c in batches), unit)
        for name, (fn, unit) in measures.items()
    }
    metrics["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(untraced_walls), "s")

    totals = batches[len(batches) // 2][0]
    all_self = sum(e["self_s"] for e in totals.values()) or 1.0
    top = sorted(totals, key=lambda n: -totals[n]["self_s"])[:5]
    record = {
        "self_share_top": {n: round(totals[n]["self_s"] / all_self, 4) for n in top},
        "lattice_points": totals["polytopes.lattice_points_in_scaled"]["count"],
    }
    return metrics, record


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def load_digests() -> dict:
    return json.loads((BENCH_DIR / "digests.json").read_text())


def run(spec: workloads.Spec, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result object, run record)."""
    digests = load_digests()
    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        inputs = workloads.Inputs(ROOT, workdir)
        ops = workloads.build(spec, seed, inputs)
        # One unmeasured import writes the bytecode cache, which users of an
        # installed package also have.
        measure_setup(workdir, 1)
        if trace:
            walls, batches, _ = loop(ops, seconds / 2, workdir, False)
            traced_walls, traced_batches, docs = loop(ops, seconds / 2, workdir, True)
            metrics, record = per_layer(docs, traced_walls, walls)
            batches = batches + traced_batches
        else:
            # Half the set-up samples before the batches and half after, so
            # that one slow moment of the machine does not set the median.
            setup = measure_setup(workdir, SETUP_SAMPLES // 2)
            walls, batches, _ = loop(ops, seconds, workdir, False)
            setup += measure_setup(workdir, SETUP_SAMPLES - len(setup))
            metrics, record = end_to_end(walls, batches, statistics.median(setup))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = failed = 0
    failures = {}
    for batch in batches:
        for r in batch:
            problems = checks.check(r.op, r.code, r.stdout, r.stderr, digests)
            attempted += 1
            if problems:
                failed += 1
                failures.setdefault(" ".join(r.op.args), problems)
    record.update(
        {
            "workload": spec.name,
            "seed": seed,
            "spec": dataclasses.asdict(spec),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
            "ops_per_batch": len(ops),
            "ops_run": attempted,
            "error_rate": failed / attempted,
            "failures": failures,
        }
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that the running child is killed and
    # the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "freesum" / "cli.py").is_file() or not (ROOT / "corpus" / "standard.json").is_file():
        sys.stderr.write("bench: run from a checkout of freesum with src/ and corpus/\n")
        return 2
    result, record = run(workloads.SPECS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
