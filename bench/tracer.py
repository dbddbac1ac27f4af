"""Run one ``freesum`` CLI invocation with spans around public functions.

    python3 bench/tracer.py SPANS.json -- <freesum arguments>

The child wraps each function in ``TRACED`` in every ``freesum`` module
namespace that holds it, then calls ``freesum.cli.main``.  Spans (name,
parent, start, end, count) stay in memory and are written to SPANS.json at
exit; ``layer_totals`` in the parent turns them into calls, self time and
counts per function.  Nothing inside ``freesum`` changes, so this measures
each layer from outside, at the cost of one wrapper call per traced call.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, qualified name) of every traced function.
TRACED = (
    ("freesums", "decomposition_check"),
    ("freesums", "decompose_sigma"),
    ("freesums", "check_braun_multivariate"),
    ("freesums", "hull_union"),
    ("freesums", "classify_sum"),
    ("freesums", "gorenstein_affine_check"),
    ("polytopes", "lattice_points_in_scaled"),
    ("polytopes", "RationalPolytope.from_points"),
    ("polytopes", "polar_dual"),
    ("polytopes", "halfspace_rep"),
    ("polytopes", "cone_hrep"),
    ("cones", "shifted_envelope_lattice_points"),
    ("cones", "cone_over"),
    ("cones", "llenv_points"),
    ("series", "sigma_cone"),
    ("series", "series_mul"),
    ("series", "TruncatedSeries.__add__"),
    ("series", "TruncatedSeries.__post_init__"),
    ("series", "ehrhart_series"),
    ("series", "delta_polynomial"),
    ("linalg", "in_pos_hull"),
    ("linalg", "hnf"),
    ("linalg", "snf"),
    ("jsonio", "parse_polytope"),
    ("jsonio", "dumps"),
    ("cli", "main"),
)

# Functions whose result tells how much work they did: the count recorded on
# each span is this function of the result.
COUNTED = {
    "freesums.decomposition_check": lambda report: report.points_checked,
    "polytopes.lattice_points_in_scaled": len,
    "series.sigma_cone": lambda series: len(series.terms),
    "series.series_mul": lambda series: len(series.terms),
}

# lru caches whose hit ratio is reported.
CACHED = ("series.sigma_cone", "freesums.classify_sum")


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        count = COUNTED.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, stack[-1] if stack else -1, clock(), 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(result)
            return result

        return traced


def install(recorder: Recorder) -> None:
    """Replace every traced function, wherever a ``freesum`` module bound it."""
    modules = {
        name: importlib.import_module(f"freesum.{name}")
        for name in ("linalg", "polytopes", "cones", "series", "freesums", "corpus", "jsonio", "cli")
    }
    for module_name, qualname in TRACED:
        owner = modules[module_name]
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr]
        name = f"{module_name}.{qualname}"
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(recorder.wrap(name, raw.__func__)))
            continue
        wrapped = recorder.wrap(name, raw)
        if path:
            setattr(owner, attr, wrapped)
            continue
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, wrapped)


def cache_stats() -> dict:
    out = {}
    for name in CACHED:
        module, attr = name.split(".")
        fn = getattr(sys.modules[f"freesum.{module}"], attr)
        info = getattr(fn, "__wrapped__", fn).cache_info()
        out[name] = [info.hits, info.misses]
    return out


def layer_totals(doc: dict) -> dict:
    """Per function: calls, self time (span minus the time its child spans
    cover), and the summed count of work items."""
    names = doc["names"]
    spans = doc["spans"]
    child_time = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {name: {"calls": 0, "self_s": 0.0, "count": 0} for name in names}
    for i, (index, _, start, end, count) in enumerate(spans):
        entry = totals[names[index]]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        entry["count"] += count
    return totals


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write(__doc__)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    recorder = Recorder()
    install(recorder)
    import freesum.cli

    status = 1
    try:
        status = freesum.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(
                {"names": recorder.names, "spans": recorder.spans, "cache": cache_stats()},
                handle,
            )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
