"""Normal forms, saturation, complementarity, conic membership."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

from freesum.cones import lambda_p
from freesum.errors import InputError
from freesum.linalg import (
    IntMatrix,
    LatticeBasis,
    complementary_in,
    hnf,
    in_pos_hull,
    invert_rational,
    rational_rank,
    snf,
    solve_linear,
)

from conftest import (
    F,
    hermite_complementary,
    in_convex_hull,
    lattice_basis_of_span,
    oracle_complementary,
    pos_hull_membership,
    standard_lattice,
)


def mat(m: IntMatrix) -> Matrix:
    return Matrix(m.rows, m.cols, [x for row in m.entries for x in row])


def random_matrices(seed: int, count: int, entry: int):
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        yield IntMatrix.from_rows(
            [[rng.randint(-entry, entry) for _ in range(cols)] for _ in range(rows)]
        )


def random_rational_matrices(seed: int, count: int):
    """Rational matrices up to 5 x 6 with zeros mixed in; every third one with
    more than two rows has its last row a combination of two others, so it
    is rank-deficient on purpose."""
    rng = random.Random(seed)
    entry = lambda: rng.choice((0, F(rng.randint(-6, 6), rng.randint(1, 4))))
    for i in range(count):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        m = [[entry() for _ in range(cols)] for _ in range(rows)]
        if i % 3 == 0 and rows > 2:
            a, b = F(rng.randint(-3, 3), rng.randint(1, 3)), F(rng.randint(-3, 3), rng.randint(1, 3))
            m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
        yield m


def fractions_of(m: Matrix) -> list[tuple[Fraction, ...]]:
    return [tuple(Fraction(int(x.p), int(x.q)) for x in m.row(i)) for i in range(m.rows)]


def test_rational_rank_matches_sympy():
    for m in random_rational_matrices(41, 300):
        assert rational_rank(m) == Matrix(m).rank()


def test_solve_linear_matches_sympy():
    """Half the right-hand sides are images of a random point, so most
    systems are consistent; free parameters are set to zero on both sides."""
    rng = random.Random(43)
    for m in random_rational_matrices(44, 300):
        cols = len(m[0])
        if rng.random() < 0.5:
            x = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
            rhs = [sum(a * b for a, b in zip(row, x)) for row in m]
        else:
            rhs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in m]
        try:
            sol, params = Matrix(m).gauss_jordan_solve(Matrix(rhs))
        except ValueError:
            assert solve_linear(m, rhs) is None
            continue
        expected = fractions_of(sol.subs({t: 0 for t in params}).T)[0]
        assert solve_linear(m, rhs) == expected


def test_invert_rational_matches_sympy():
    for m in random_rational_matrices(45, 300):
        k = min(len(m), len(m[0]))
        square = [row[:k] for row in m[:k]]
        if Matrix(square).det() == 0:
            with pytest.raises(InputError):
                invert_rational(square)
        else:
            assert invert_rational(square) == fractions_of(Matrix(square).inv())


def test_hnf_identity():
    m = IntMatrix.identity(2)
    h, u = hnf(m)
    assert h.entries == m.entries
    assert u.entries == m.entries


def test_hnf_example_reconstruction():
    m = IntMatrix.from_rows([[2, 4], [1, 3]])
    h, u = hnf(m)
    assert mat(u) * mat(m) == mat(h)
    assert abs(mat(u).det()) == 1
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
    assert mat(u) * mat(m) * mat(v) == mat(d)


def test_snf_divisibility_example():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    u, d, v = snf(m)
    assert d.entries == ((1, 0), (0, 6))
    assert mat(u) * mat(m) * mat(v) == mat(d)
    assert abs(mat(u).det()) == 1 and abs(mat(v).det()) == 1


def test_snf_zero_one_by_one():
    m = IntMatrix.from_rows([[0]])
    u, d, v = snf(m)
    assert d.entries == ((0,),)
    assert u.entries == ((1,),) and v.entries == ((1,),)


def test_snf_random_reconstruction():
    for m in random_matrices(7, 40, 6):
        rows, cols = m.rows, m.cols
        u, d, v = snf(m)
        assert mat(u) * mat(m) * mat(v) == mat(d)
        assert abs(mat(u).det()) == 1 and abs(mat(v).det()) == 1
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
    for m in random_matrices(11, 40, 9):
        h, u = hnf(m)
        assert mat(u) * mat(m) == mat(h)
        assert abs(mat(u).det()) == 1


def test_snf_diagonal_matches_sympy():
    for m in random_matrices(5, 300, 9):
        _, d, _ = snf(m)
        theirs = smith_normal_form(mat(m), domain=ZZ)
        size = min(m.rows, m.cols)
        assert [d.entries[i][i] for i in range(size)] == [abs(theirs[i, i]) for i in range(size)]


def test_hnf_rows_generate_the_sympy_lattice():
    # sympy's HNF is a column form whose layout differs from ours, so the two
    # are compared as lattices: generating sets of one lattice share one
    # sympy HNF.  Zero rows sink below the nonzero ones.
    for m in random_matrices(13, 300, 9):
        h, _ = hnf(m)
        nonzero = [row for row in h.entries if any(row)]
        assert not any(any(row) for row in h.entries[len(nonzero):])
        basis = hermite_normal_form(mat(m).T).T
        assert len(nonzero) == basis.rows
        if nonzero:
            assert hermite_normal_form(Matrix(nonzero).T) == hermite_normal_form(basis.T)


# The saturation oracle of the tests (``conftest.lattice_basis_of_span``).


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
    target = standard_lattice(2)
    assert complementary_in(target, [(1, 0)], [(0, 1)]) is True


def test_complementary_skew_pair():
    target = standard_lattice(2)
    assert complementary_in(target, [(1, 0)], [(1, 1)]) is True


def test_not_complementary_index_two():
    # The span lattices of the non-free-sum segments: (0,1) has no splitting.
    target = standard_lattice(2)
    assert complementary_in(target, [(1, 0)], [(1, 2)]) is False


def test_not_complementary_unsaturated():
    # Only the spans count: (2, 4) cuts out the same lattice as (1, 2), and
    # (3, 0), (0, 5) the same as the axes.
    target = standard_lattice(2)
    assert complementary_in(target, [(1, 0)], [(2, 4)]) is False
    assert complementary_in(target, [(3, 0)], [(0, 5)]) is True
    assert complementary_in(target, [(F(1, 2), 0)], [(0, F(2, 3))]) is True


def test_complementary_inside_plane_of_z3():
    target = standard_lattice(3)
    assert complementary_in(target, [(2, 1, 0)], [(1, 1, 0)]) is True


def test_complementary_depends_on_target():
    # r*Lambda^p for p = (1/2, 1/2) is the checkerboard lattice: the axes cut
    # 2Z x 0 and 0 x 2Z out of it, of index 2 in the lattice of the plane,
    # while the diagonals split it.
    target = lambda_p((F(1, 2), F(1, 2))).scaled_basis
    assert complementary_in(target, [(1, 0)], [(0, 1)]) is False
    assert complementary_in(target, [(1, 1)], [(1, -1)]) is True
    assert complementary_in(target, [(1, 0)], [(1, 1)]) is True


def test_complementary_rejects_rows_off_the_target_span():
    plane = LatticeBasis(3, ((1, 0, 0), (0, 1, 0)))
    with pytest.raises(InputError):
        complementary_in(plane, [(1, 0, 0)], [(0, 0, 1)])


def test_complementary_matches_bruteforce():
    rng = random.Random(19)
    target = standard_lattice(2)
    checked = 0
    while checked < 25:
        a = [tuple(rng.randint(-2, 2) for _ in range(2))]
        b = [tuple(rng.randint(-2, 2) for _ in range(2))]
        if rational_rank(a + b) < 2:
            continue
        saturated = (lattice_basis_of_span(rows, 2) for rows in (a, b))
        assert complementary_in(target, a, b) == oracle_complementary(target, *saturated)
        checked += 1


@st.composite
def direction_rows(draw):
    """(p, a, b): a point p of Q^n, n in 2..4, with denominator 1..4, and
    independent integer rows a, b with entries in [-3, 3]."""
    n = draw(st.integers(2, 4))
    r = draw(st.integers(1, 4))
    p = tuple(F(draw(st.integers(-2 * r, 2 * r)), r) for _ in range(n))
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=n))
    assume(rational_rank(rows) == len(rows))
    split = draw(st.integers(0, len(rows)))
    return p, rows[:split], rows[split:]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(direction_rows())
@example(((F(1, 2), F(1, 2)), [(1, 0)], [(0, 1)]))
@example(((F(1, 3), F(0), F(2, 3)), [(1, 1, 0)], [(0, 1, 1)]))
def test_complementary_matches_hermite_forms(case):
    """The saturation-index identity decides as the Hermite-form comparison
    of the saturated direction lattices in r*Lambda^p."""
    p, a, b = case
    target = lambda_p(p).scaled_basis
    assert complementary_in(target, a, b) == hermite_complementary(target, a, b)


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
