"""The package's public names, its caches and its records."""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
import types
from pathlib import Path

import pytest

import freesum
from freesum import cli, cones, corpus, freesums, jsonio, linalg, polytopes, series
from freesum.records import frozen


def test_all_lists_exactly_the_public_non_module_names():
    public = {
        name
        for name, value in vars(freesum).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    # Every listed name resolves and none of them is a submodule.
    assert sorted(freesum.__all__) == sorted(public)
    assert "ShiftedCone" not in public and "shifted_cone_lattice_points" not in public


# Exported names that no other module of the package uses, and why each stays.
UNUSED_EXPORTS = (
    "check_braun_univariate",  # Braun's Ehrhart-series formula, which the paper recovers
    "decomposition_check",  # the split check at any p, point by point; the benchmark traces it
    "in_pos_hull",  # the tests' Caratheodory oracle; the benchmark traces it
    "shifted_envelope_lattice_points",  # one envelope layer; the benchmark traces it
    "shifted_envelope_nonempty",  # per-facet congruences, for exact affine envelope verdicts
)


def test_every_export_has_a_caller_in_the_package():
    """A name the package exports is used by some module of it other than
    ``__init__``: a name or an attribute in its code, not an import or a
    docstring.  Test-only helpers live in ``tests/conftest.py``."""
    used = set()
    for path in Path(freesum.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    unused = sorted(set(freesum.__all__) - used)
    assert unused == sorted(UNUSED_EXPORTS)


def _traced_names() -> tuple:
    """``TRACED`` of ``bench/tracer.py``, read from its source, not imported."""
    tracer = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    for node in ast.parse(tracer.read_text()).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TRACED")


@pytest.mark.parametrize("traced", _traced_names(), ids=".".join)
def test_traced_names_resolve(traced):
    """Each traced function resolves the way the tracer's ``install`` looks it
    up: attributes down to its owner, then the owner's ``__dict__``.  Moving
    or renaming one breaks ``--trace 1`` runs, which this suite does not make."""
    module_name, qualname = traced
    owner = importlib.import_module(f"freesum.{module_name}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr]
    assert callable(getattr(raw, "__func__", raw))


@pytest.mark.parametrize(
    "cached",
    [
        polytopes.cone_hrep,
        polytopes._slice_frame,
        polytopes.polar_dual,
        polytopes.tagged_lattice_points,
        freesums.classify_sum,
        freesums.check_braun_multivariate,
        freesums.hull_union,
        series.sigma_cone,
        series.ehrhart_series,
    ],
    ids=lambda fn: fn.__name__,
)
def test_caches_are_bounded(cached):
    """A long-lived process (a hypothesis run, a big corpus) must not grow a
    cache without limit."""
    maxsize = cached.cache_info().maxsize
    assert maxsize is not None and maxsize > 0


def test_package_imports_only_the_standard_library():
    """``dependencies = []`` holds: every module the package imports, read
    from its source, is in the standard library or is the package itself."""
    imported = set()
    for path in Path(freesum.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module.split(".")[0] if not node.level else "freesum")
    assert {"fractions", "freesum"} <= imported
    assert imported - set(sys.stdlib_module_names) == {"freesum"}


def test_package_modules_use_every_name_they_import():
    """No module of ``src/freesum`` imports a name it never reads.  A name
    counts as read when the module loads it or lists it in ``__all__``."""
    unused = []
    for path in sorted(Path(freesum.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                read.update(ast.literal_eval(node.value))
        unused += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert unused == []


def test_package_loads_every_private_module_level_name():
    """Every private function, class or constant a module of ``src/freesum``
    defines at module level is loaded somewhere in the package, by name or
    as an attribute: a helper whose last caller went is deleted with it."""
    trees = [ast.parse(path.read_text()) for path in sorted(Path(freesum.__file__).parent.glob("*.py"))]
    loaded = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert sorted(private - loaded) == []


# Public methods that no module of the package loads, and why each stays.
UNUSED_METHODS = (
    "TruncatedSeries.coefficient",  # public lookup the tests use; the package reads terms
    "UnivariateSeries.coefficient",  # public lookup the tests use; the package reads coefficients
)


def test_package_loads_every_public_method():
    """Every public method or property of a class defined at module level in
    ``src/freesum`` is loaded as an attribute somewhere in the package, apart
    from ``UNUSED_METHODS``: a method whose last caller went is deleted with
    it, or listed there with its reason."""
    trees = [ast.parse(path.read_text()) for path in sorted(Path(freesum.__file__).parent.glob("*.py"))]
    loaded = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    methods = {
        f"{cls.name}.{node.name}"
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    unused = sorted(name for name in methods if name.split(".")[1] not in loaded)
    assert unused == sorted(UNUSED_METHODS)


def test_cli_import_skips_dataclasses_and_inspect():
    """Every CLI verb is a fresh process, so import cost is paid per call:
    the records must not bring back ``dataclasses`` and ``inspect``."""
    src = str(Path(freesum.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import freesum.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


RECORDS = sorted(
    {
        value
        for module in (linalg, polytopes, cones, series, freesums, corpus, jsonio, cli)
        for value in vars(module).values()
        if isinstance(value, type)
        and getattr(vars(value).get("__setattr__"), "__module__", None) == "freesum.records"
    },
    key=lambda cls: cls.__qualname__,
)


def _record(cls, values):
    """An instance with the given field values, past ``__post_init__``'s
    checks, which the rest of the suite exercises."""
    record = object.__new__(cls)
    for name, value in zip(cls.__annotations__, values):
        object.__setattr__(record, name, value)
    return record


def test_every_record_class_is_found():
    assert len(RECORDS) == 21
    assert polytopes.RationalPolytope in RECORDS and series.TruncatedSeries in RECORDS


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_records_are_frozen_hashable_values(cls):
    names = tuple(cls.__annotations__)

    def values():
        return tuple((i, str(i)) for i in range(len(names)))

    record = _record(cls, values())
    for name in (names[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, names[0])
    assert getattr(record, names[0]) == (0, "0")

    twin = _record(cls, values())
    assert twin == record and hash(twin) == hash(record)
    assert _record(cls, values()[:-1] + ((-1, "-1"),)) != record

    # Same field values in another record class, or in a tuple, never compare equal.
    other = frozen(type("Other", (), {"__annotations__": dict(cls.__annotations__)}))
    assert other(*values()) != record and record != other(*values())
    for peer in RECORDS:
        if peer is not cls and len(peer.__annotations__) == len(names):
            assert _record(peer, values()) != record
    assert record != values()
    assert repr(record).startswith(f"{cls.__qualname__}({names[0]}=")


def test_record_init_takes_one_value_per_field_and_runs_post_init():
    @frozen
    class Pair:
        a: int
        b: tuple

        def __post_init__(self):
            object.__setattr__(self, "b", tuple(self.b))

    assert Pair(1, [2]).b == (2,)
    assert Pair(1, [2]) == Pair(1, (2,))
    with pytest.raises(TypeError):
        Pair(1)
    with pytest.raises(TypeError):
        Pair(1, 2, 3)
