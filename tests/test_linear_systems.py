"""The block-matrix builder, its inverse and the grid product against their definitions."""

import random
from itertools import accumulate

import numpy as np
import pytest

from mcmkit.linalg import DenseMatrix
from mcmkit.rings import BlockSystem, RingElement, WeightedPolyRing, grid_mul, poly_key, poly_mul

FIELDS = [5, 2**31 - 1, 0]  # GF(5), GF(2^31 - 1) and QQ


def ring_over(char):
    # Hilbert function 1, 2, 3, 4, 3, 2, 1, then 0: blocks of every size down to 0
    R = WeightedPolyRing(char, ["x", "y", "z"], [1, 1, 2])
    return R.quotient(["x^2-y^2", "x*y*z", "z^2+x^3*y"])


def standard_monomials(A, d):
    """The basis of A_d: the standard monomials of its piece."""
    if d < 0:
        return ()
    piece = A.piece(d)
    return tuple(piece.monos[i] for i in piece.std)


def random_element(A, d, rng):
    """A random element of A_d, zero one time in four."""
    basis = standard_monomials(A, d)
    if not basis or rng.random() < 0.25:
        return A.zero()
    p = A.characteristic or 7
    poly = {m: A.field.element(rng.randrange(-p + 1, p)) for m in basis}
    return A.element({m: c for m, c in poly.items() if c})


def random_grid(A, row_degs, col_degs, rng):
    """Entry (k, j) of degree col_degs[j] - row_degs[k], as block (k, j) needs."""
    return [[random_element(A, c - r, rng) for c in col_degs] for r in row_degs]


def block_by_definition(A, grid, row_degs, col_degs, d):
    """Entry by entry: the coordinates of grid[k][j] times each basis monomial."""
    rows = []
    for k, r in enumerate(row_degs):
        for t in range(A.hilbert_function(d - r)):
            row = []
            for j, c in enumerate(col_degs):
                for mono in standard_monomials(A, d - c):
                    prod = poly_mul(grid[k][j].poly, {mono: A.field.element(1)}, A.field)
                    row.append(A.std_coords(A.normal_form(prod), d - r)[t])
            rows.append(row)
    return rows


@pytest.mark.parametrize("char", FIELDS)
def test_block_matrix_matches_its_definition(char):
    A = ring_over(char)
    rng = random.Random(char)
    for _ in range(12):
        row_degs = [rng.randrange(-1, 4) for _ in range(rng.randrange(1, 4))]
        col_degs = [rng.randrange(-1, 4) for _ in range(rng.randrange(1, 4))]
        d = rng.randrange(2, 8)  # reaches blocks of dimension 0 on both sides
        grid = random_grid(A, row_degs, col_degs, rng)
        got = BlockSystem(A, grid, row_degs, col_degs).at(d)
        want = block_by_definition(A, grid, row_degs, col_degs, d)
        assert got.shape == (sum(A.hilbert_function(d - r) for r in row_degs),
                             sum(A.hilbert_function(d - c) for c in col_degs))
        assert [list(r) for r in got.rows()] == want


@pytest.mark.parametrize("char", FIELDS)
def test_block_matrix_of_zero_and_empty_grids(char):
    A = ring_over(char)
    h = A.hilbert_function
    zero = A.zero()
    zeros = BlockSystem(A, [[zero, zero]], [0], [0, 1]).at(2)
    assert zeros.is_zero() and zeros.shape == (h(2), h(2) + h(1))
    assert BlockSystem(A, [], [], []).at(3).shape == (0, 0)
    assert BlockSystem(A, [[], []], [0, 1], []).at(3).shape == (h(3) + h(2), 0)
    assert BlockSystem(A, [[A.one()]], [9], [9]).at(3).shape == (0, 0)


def block_matrix_by_grid_walk(A, grid, row_degs, col_degs, d):
    """The assembly before grids were compiled: every grid entry walked in every degree."""
    row_dims = [A.hilbert_function(d - r) for r in row_degs]
    col_dims = [A.hilbert_function(d - c) for c in col_degs]
    out = DenseMatrix.zeros(A.field, sum(row_dims), sum(col_dims))._array()
    col_offs = list(zip(accumulate(col_dims, initial=0), col_dims, col_degs))
    for r0, rdim, row in zip(accumulate(row_dims, initial=0), row_dims, grid):
        if not rdim:
            continue
        for (c0, cdim, c), e in zip(col_offs, row):
            if cdim and e.poly:
                out[r0:r0 + rdim, c0:c0 + cdim] = A.mult_matrix(e.poly, d - c, e.degree)._array()
    return out


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("char", FIELDS)
def test_block_system_evaluates_to_the_grid_walk_in_every_degree(char):
    A = ring_over(char)
    rng = random.Random(char + 2)
    for _ in range(10):
        # negative generator degrees; entries of degree up to 8, past the top of A
        row_degs = [rng.randrange(-2, 4) for _ in range(rng.randrange(1, 4))]
        col_degs = [rng.randrange(-2, 6) for _ in range(rng.randrange(1, 5))]
        grid = random_grid(A, row_degs, col_degs, rng)
        system = BlockSystem(A, grid, row_degs, col_degs)
        assert len(system.entries) == sum(not e.is_zero() for row in grid for e in row)
        keep = sorted(rng.sample(range(len(col_degs)), rng.randrange(len(col_degs) + 1)))
        part = system.columns(keep)
        part_grid = [[row[j] for j in keep] for row in grid]
        # from below every block (all empty) to past the top degree of A
        for d in range(-3, 14):
            want = block_matrix_by_grid_walk(A, grid, row_degs, col_degs, d)
            assert_same_array(system.at(d)._array(), want)
            assert_same_array(part.at(d)._array(),
                              block_matrix_by_grid_walk(A, part_grid, row_degs,
                                                        [col_degs[j] for j in keep], d))


@pytest.mark.parametrize("char", FIELDS)
def test_block_system_of_zero_and_empty_grids(char):
    A = ring_over(char)
    h = A.hilbert_function
    zero = A.zero()
    for d in range(-1, 9):
        zeros = BlockSystem(A, [[zero, zero], [zero, A.zero(2)]], [0, 1], [0, 2])
        assert zeros.entries == []
        assert zeros.at(d).is_zero() and zeros.at(d).shape == (h(d) + h(d - 1), h(d) + h(d - 2))
        no_rows = BlockSystem(A, [], [], [0, 1])
        assert no_rows.at(d).shape == (0, h(d) + h(d - 1))
        no_cols = BlockSystem(A, [[], []], [0, 1], [])
        assert no_cols.at(d).shape == (h(d) + h(d - 1), 0)
        assert no_cols.columns([]).at(d).shape == (h(d) + h(d - 1), 0)
        assert BlockSystem(A, [[A.one()]], [0], [0]).columns([]).at(d).shape == (h(d), 0)


@pytest.mark.parametrize("char", FIELDS)
def test_mult_matrix_with_a_precomputed_key(char):
    rng = random.Random(char + 5)
    A, B = ring_over(char), ring_over(char)
    for _ in range(20):
        e, d = rng.randrange(0, 5), rng.randrange(-1, 8)
        x = random_element(A, e, rng)
        if x.is_zero():
            continue
        with_key = A.mult_matrix(x.poly, d, x.degree, poly_key(x.poly))
        assert_same_array(with_key._array(), B.mult_matrix(x.poly, d)._array())
        # one cache: the key a caller passes is the key the lookup builds
        assert A.mult_matrix(x.poly, d) is with_key


@pytest.mark.parametrize("char", FIELDS)
def test_split_coords_zero_blocks_are_the_ring_zero(char):
    A = ring_over(char)
    degs = [-1, 0, 2, 9, 3]
    vec = A.field.zeros(sum(A.hilbert_function(d) for d in degs))
    vec[0] = A.field.element(1)  # A_{-1} = 0, so coordinate 0 is A_0: the element 1
    got = A.split_coords([vec], degs)[0]
    assert got[1] == A.one() and got[1].degree == 0
    for e in got[:1] + got[2:]:
        assert e.is_zero() and e.degree is None and e == A.zero()
    assert np.array_equal(A.join_coords(got, degs), vec)


@pytest.mark.parametrize("char", FIELDS)
def test_split_coords_inverts_a_one_column_block_matrix(char):
    A = ring_over(char)
    rng = random.Random(char + 1)
    for _ in range(12):
        degs = [rng.randrange(-1, 7) for _ in range(rng.randrange(0, 5))]
        d = 4
        column = [[random_element(A, e, rng)] for e in degs]
        coords = BlockSystem(A, column, [d - e for e in degs], [d]).at(d)
        back = A.split_coords(coords._array().T, degs)[0]
        assert back == [row[0] for row in column]
        assert all(e.degree == (None if e.is_zero() else deg) for e, deg in zip(back, degs))


def grid_mul_by_triple_loop(A, X, Y):
    cols = len(Y[0]) if Y else 0
    out = []
    for row in X:
        out_row = []
        for j in range(cols):
            acc = A.zero()
            for x, yrow in zip(row, Y):
                acc = acc + x * yrow[j]
            out_row.append(acc)
        out.append(out_row)
    return out


@pytest.mark.parametrize("char", FIELDS)
@pytest.mark.parametrize("shape", [(2, 3, 2), (1, 1, 1), (3, 2, 0), (2, 0, 0), (0, 2, 3)])
def test_grid_mul_matches_the_triple_loop(char, shape):
    A = ring_over(char)
    rng = random.Random(hash(shape) + char)
    rows, mid, cols = shape
    # degrees rising left to right, so that the products need reducing
    left = [rng.randrange(0, 2) for _ in range(rows)]
    middle = [rng.randrange(1, 4) for _ in range(mid)]
    right = [rng.randrange(2, 6) for _ in range(cols)]
    X = random_grid(A, left, middle, rng)
    Y = random_grid(A, middle, right, rng)
    got = grid_mul(A, X, Y)
    want = grid_mul_by_triple_loop(A, X, Y)
    assert [list(r) for r in got] == want
    assert len(got) == rows
    for r, row in zip(left, got):
        for c, e in zip(right, row):
            assert e.degree == (None if e.is_zero() else c - r)
    assert all(isinstance(e, RingElement) for row in got for e in row)


def test_compose_through_a_module_without_generators():
    from mcmkit.homs import compose, hom_space
    from mcmkit.modules import GradedModule, residue_field_module

    A = ring_over(5)
    k = residue_field_module(A)
    Z = GradedModule(A, [], [], [], check=False)
    h = compose(hom_space(Z, k).zero(), hom_space(k, Z).zero())
    assert [[e.is_zero() for e in row] for row in h.phi] == [[True]]
