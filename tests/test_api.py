"""The package's public names and its caches."""

from __future__ import annotations

import types

import pytest

import freesum
from freesum import cones, freesums, polytopes, series


def test_all_lists_exactly_the_public_non_module_names():
    public = {
        name
        for name, value in vars(freesum).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    # Every listed name resolves and none of them is a submodule.
    assert sorted(freesum.__all__) == sorted(public)
    assert "ShiftedCone" not in public and "shifted_cone_lattice_points" in public


@pytest.mark.parametrize(
    "cached",
    [
        polytopes.cone_hrep,
        polytopes._slice_frame,
        polytopes._lattice_points_in_scaled,
        polytopes.halfspace_rep,
        polytopes.polar_dual,
        polytopes.lattice_points_with_dilation,
        cones.cone_over,
        freesums.hull_union,
        freesums.classify_sum,
        freesums.check_braun_multivariate,
        series.sigma_cone,
    ],
    ids=lambda fn: fn.__name__,
)
def test_caches_are_bounded(cached):
    """A long-lived process (a hypothesis run, a big corpus) must not grow a
    cache without limit."""
    maxsize = cached.cache_info().maxsize
    assert maxsize is not None and maxsize > 0
