"""The benchmark's workloads: each builds, from a seed, the list of ``freesum``
CLI invocations that make up one batch, and writes their input files.

An operation is one CLI invocation.  Its ``key`` hashes the arguments with
every input file replaced by a hash of its bytes, so a recorded stdout digest
applies to any seed that produces the same invocation.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import gen
from exact import dual_vertices, lcm_denominator

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Op:
    args: tuple[str, ...]
    key: str
    kind: str
    # What the output checks need to know about the inputs, e.g. the dual
    # denominator the generator computed or the vertices of the polytope.
    expect: dict = field(default_factory=dict, compare=False, hash=False)


@dataclass(frozen=True)
class Spec:
    """Sizes of a workload.  The values here are the benchmark's own; the
    self-test shrinks them with ``dataclasses.replace``."""

    name: str
    height: int = 0
    d_bands: tuple[tuple[int, int], ...] = ()
    polygon_vertices: tuple[int, ...] = ()
    polytope_vertices: tuple[int, ...] = ()
    # Cap on the corpus summands and pairs ``verbs`` uses; None takes all.
    summands: int | None = None


SPECS = {
    "corpus": Spec("corpus", height=7),
    "wide-dual": Spec("wide-dual", height=4, d_bands=((20, 21), (28, 30), (40, 42))),
    "hull-kernel": Spec("hull-kernel", height=2, polygon_vertices=(10,), polytope_vertices=(7,)),
    "verbs": Spec("verbs", height=3),
}


def fmt(x) -> str:
    return str(Fraction(x))


class Inputs:
    """Writes polytope JSON files into a work directory, once per content."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.hashes: dict[str, str] = {}

    def polytope(self, vertices) -> str:
        obj = {"dim": len(vertices[0]), "vertices": [[fmt(x) for x in v] for v in vertices]}
        return self.json(obj)

    def json(self, obj) -> str:
        data = (json.dumps(obj, sort_keys=True) + "\n").encode()
        digest = hashlib.sha256(data).hexdigest()
        path = self.workdir / f"{digest[:16]}.json"
        path.write_bytes(data)
        self.hashes[str(path)] = digest
        return str(path)

    def op(self, kind: str, args, expect=None) -> Op:
        args = tuple(str(a) for a in args)
        keyed = [self.hashes.get(a, a) for a in args]
        key = hashlib.sha256(json.dumps(keyed).encode()).hexdigest()
        return Op(args, key, kind, expect or {})


def build(spec: Spec, seed: int, inputs: Inputs) -> list[Op]:
    """The operations of one batch, in the order they run."""
    rng = random.Random(f"{spec.name}:{seed}")
    return BUILDERS[spec.name](spec, rng, inputs)


def _corpus(spec: Spec, rng, inputs: Inputs) -> list[Op]:
    config = json.loads((inputs.root / "corpus" / "standard.json").read_text())
    path = inputs.json(config)
    return [
        inputs.op(
            "corpus",
            ["corpus", "--config", path, "--height", spec.height],
            {"pairs": len(config["pairs"])},
        )
    ]


def _wide_dual(spec: Spec, rng, inputs: Inputs) -> list[Op]:
    ops = []
    for band in spec.d_bands:
        polygon, d = gen.rational_polygon(rng, band)
        j = [(x, y, Fraction(0)) for x, y in polygon]
        k = gen.skew_segment(rng)
        ops.append(
            inputs.op(
                "decompose",
                ["check", "--a", inputs.polytope(j), "--b", inputs.polytope(k),
                 "--mode", "decompose", "--height", spec.height],
                {"d": d},
            )
        )
    return ops


def _hull_kernel(spec: Spec, rng, inputs: Inputs) -> list[Op]:
    ops = []
    axis = [(Fraction(0), Fraction(0), Fraction(-1)), (Fraction(0), Fraction(0), Fraction(1))]
    for count in spec.polygon_vertices:
        polygon = gen.lattice_polytope(rng, 2, count)
        lattice = lcm_denominator(dual_vertices(polygon)) == 1
        ops.append(inputs.op("dual", ["dual", "--in", inputs.polytope(polygon)], {"vertices": polygon}))
        embedded = [v + (Fraction(0),) for v in polygon]
        ops.append(
            inputs.op(
                "converse",
                ["check", "--a", inputs.polytope(embedded), "--b", inputs.polytope(axis),
                 "--mode", "converse", "--height", spec.height],
                {"dual_a_lattice": lattice},
            )
        )
    for count in spec.polytope_vertices:
        polytope = gen.lattice_polytope(rng, 3, count)
        ops.append(inputs.op("dual", ["dual", "--in", inputs.polytope(polytope)], {"vertices": polytope}))
    return ops


def _verbs(spec: Spec, rng, inputs: Inputs) -> list[Op]:
    config = json.loads((inputs.root / "corpus" / "standard.json").read_text())
    summands = {}
    for pair in config["pairs"]:
        for side in ("a", "b"):
            verts = [tuple(Fraction(x) for x in v) for v in pair[side]["vertices"]]
            summands.setdefault(inputs.polytope(verts), verts)
    chosen = sorted(summands)[: spec.summands]
    h = ["--height", spec.height]
    # Exit codes 1 (verdict failure) and 2 (an input the verb does not take,
    # such as a dual without the origin) are expected; the recorded digests
    # say which one each operation gives.
    any_code = {"codes": (0, 1, 2)}
    ops = []
    for path in chosen:
        verts = summands[path]
        ops += [
            inputs.op("verb", ["ehrhart", "--in", path, *h], any_code),
            inputs.op("verb", ["delta", "--in", path], any_code),
            inputs.op("dual", ["dual", "--in", path], {"vertices": verts, **any_code}),
            inputs.op("verb", ["sigma", "--in", path, *h], any_code),
            inputs.op("verb", ["envelope", "--in", path, *h], any_code),
            inputs.op("verb", ["gorenstein", "--in", path], any_code),
        ]
    for pair in config["pairs"][: spec.summands]:
        a = inputs.polytope([tuple(Fraction(x) for x in v) for v in pair["a"]["vertices"]])
        b = inputs.polytope([tuple(Fraction(x) for x in v) for v in pair["b"]["vertices"]])
        for mode in ("braun", "decompose", "converse", "affine"):
            ops.append(inputs.op("verb", ["check", "--a", a, "--b", b, "--mode", mode, *h], any_code))
    rng.shuffle(ops)
    return ops


BUILDERS = {
    "corpus": _corpus,
    "wide-dual": _wide_dual,
    "hull-kernel": _hull_kernel,
    "verbs": _verbs,
}
