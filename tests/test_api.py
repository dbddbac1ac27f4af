"""The package's public names."""

from __future__ import annotations

import types

import freesum


def test_all_lists_exactly_the_public_non_module_names():
    public = {
        name
        for name, value in vars(freesum).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    # Every listed name resolves and none of them is a submodule.
    assert sorted(freesum.__all__) == sorted(public)
    assert "ShiftedCone" not in public and "shifted_cone_lattice_points" in public
