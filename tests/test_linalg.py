"""Normal forms, saturation, complementarity, conic membership."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from freesum.errors import InputError
from freesum.linalg import (
    IntMatrix,
    LatticeBasis,
    complementary_in,
    hnf,
    in_convex_hull,
    in_pos_hull,
    lattice_basis_of_span,
    snf,
)

from conftest import F, oracle_complementary, pos_hull_membership


def test_hnf_identity():
    m = IntMatrix.identity(2)
    h, u = hnf(m)
    assert h.entries == m.entries
    assert u.entries == m.entries


def test_hnf_example_reconstruction():
    m = IntMatrix.from_rows([[2, 4], [1, 3]])
    h, u = hnf(m)
    assert (u * m).entries == h.entries
    assert abs(u.det()) == 1
    # Canonical form: positive pivots, entry above the second pivot reduced.
    assert h.entries == ((1, 1), (0, 2))


def test_hnf_zero_matrix():
    m = IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]])
    h, u = hnf(m)
    assert h.entries == m.entries
    assert u.entries == IntMatrix.identity(2).entries


def test_snf_identity():
    m = IntMatrix.identity(3)
    u, d, v = snf(m)
    assert d.entries == m.entries
    assert (u * m * v).entries == d.entries


def test_snf_divisibility_example():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    u, d, v = snf(m)
    assert d.entries == ((1, 0), (0, 6))
    assert (u * m * v).entries == d.entries
    assert abs(u.det()) == 1 and abs(v.det()) == 1


def test_snf_zero_one_by_one():
    m = IntMatrix.from_rows([[0]])
    u, d, v = snf(m)
    assert d.entries == ((0,),)
    assert u.entries == ((1,),) and v.entries == ((1,),)


def test_snf_random_reconstruction():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = IntMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        )
        u, d, v = snf(m)
        assert (u * m * v).entries == d.entries
        assert abs(u.det()) == 1 and abs(v.det()) == 1
        diag = [d.entries[i][i] for i in range(min(rows, cols))]
        for i in range(len(diag)):
            for jj in range(i + 1, len(diag)):
                assert d.entries[i][jj] == 0 or i == jj
        for x, y in zip(diag, diag[1:]):
            if x != 0:
                assert y % x == 0
            else:
                assert y == 0
        assert all(x >= 0 for x in diag)


def test_hnf_random_reconstruction():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        h, u = hnf(m)
        assert (u * m).entries == h.entries
        assert abs(u.det()) == 1


def test_saturation_axis_line():
    basis = lattice_basis_of_span([(F(1, 2), F(0))], 2)
    assert basis.vectors == ((1, 0),)


def test_saturation_index_two():
    basis = lattice_basis_of_span([(2, 4)], 2)
    assert basis.vectors == ((1, 2),)


def test_saturation_empty():
    basis = lattice_basis_of_span([], 2)
    assert basis.vectors == ()


def test_saturation_idempotent():
    rng = random.Random(3)
    for _ in range(25):
        vecs = [
            tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
            for _ in range(rng.randint(0, 3))
        ]
        first = lattice_basis_of_span(vecs, 3)
        again = lattice_basis_of_span(first.vectors, 3)
        assert first.vectors == again.vectors


def test_complementary_coordinate_axes():
    target = LatticeBasis.standard(2)
    a = lattice_basis_of_span([(1, 0)], 2)
    b = lattice_basis_of_span([(0, 1)], 2)
    assert complementary_in(target, a, b) is True


def test_complementary_skew_pair():
    target = LatticeBasis.standard(2)
    a = LatticeBasis(2, ((1, 0),))
    b = LatticeBasis(2, ((1, 1),))
    assert complementary_in(target, a, b) is True


def test_not_complementary_index_two():
    # The span lattices of the non-free-sum segments: (0,1) has no splitting.
    target = LatticeBasis.standard(2)
    a = LatticeBasis(2, ((1, 0),))
    b = LatticeBasis(2, ((1, 2),))
    assert complementary_in(target, a, b) is False


def test_not_complementary_unsaturated():
    target = LatticeBasis.standard(2)
    a = LatticeBasis(2, ((1, 0),))
    b = LatticeBasis(2, ((2, 4),))
    assert complementary_in(target, a, b) is False


def test_complementary_inside_plane_of_z3():
    target = LatticeBasis.standard(3)
    a = LatticeBasis(3, ((2, 1, 0),))
    b = LatticeBasis(3, ((1, 1, 0),))
    assert complementary_in(target, a, b) is True


def test_complementary_rejects_uncontained():
    target = LatticeBasis(2, ((2, 0), (0, 2)))
    half_in = LatticeBasis(2, ((1, 0),))
    other = LatticeBasis(2, ((0, 2),))
    with pytest.raises(InputError):
        complementary_in(target, half_in, other)


def test_complementary_matches_bruteforce():
    rng = random.Random(19)
    target = LatticeBasis.standard(2)
    checked = 0
    while checked < 25:
        avec = tuple(rng.randint(-2, 2) for _ in range(2))
        bvec = tuple(rng.randint(-2, 2) for _ in range(2))
        from freesum.linalg import rational_rank

        if not any(avec) or not any(bvec) or rational_rank([avec, bvec]) < 2:
            continue
        a = LatticeBasis(2, (avec,))
        b = LatticeBasis(2, (bvec,))
        assert complementary_in(target, a, b) == oracle_complementary(target, a, b)
        checked += 1


def test_pos_hull_membership():
    assert in_pos_hull((2, 2), [(1, 0), (1, 1)]) is True
    assert in_pos_hull((-1, 0), [(1, 0), (1, 1)]) is False
    assert in_pos_hull((0, 0), []) is True
    assert in_pos_hull((F(1, 3), F(1, 3)), [(1, 1)]) is True


def test_pos_hull_oracle_matches_in_pos_hull():
    """The brute-force tests' per-cone membership oracle decides as
    ``in_pos_hull`` does, on spans of every rank and with parallel
    generators."""
    rng = random.Random(11)
    coord = lambda: F(rng.randint(-3, 3), rng.randint(1, 2))
    for _ in range(300):
        n = rng.randint(1, 3)
        gens = [tuple(coord() for _ in range(n)) for _ in range(rng.randint(0, 4))]
        if gens and rng.random() < 0.3:
            gens.append(tuple(2 * x for x in gens[0]))
        member = pos_hull_membership(gens)
        for _ in range(10):
            point = tuple(coord() for _ in range(n))
            if gens and rng.random() < 0.5:
                weights = [F(rng.randint(-1, 3)) for _ in gens]
                point = tuple(sum(w * g[i] for w, g in zip(weights, gens)) for i in range(n))
            assert member(point) == in_pos_hull(point, gens)


def test_convex_hull_membership():
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert in_convex_hull((F(1, 2), F(1, 2)), square) is True
    assert in_convex_hull((1, 1), square) is True
    assert in_convex_hull((F(3, 2), F(1, 2)), square) is False
