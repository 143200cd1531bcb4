"""The one elimination against sympy's DomainMatrix, over GF(p) and QQ.

sympy.polys.matrices.DomainMatrix computes rref, pivots and nullspace
independently of mcmkit.  With ``divide_last=True`` its nullspace rows
are scaled like ``kernel_basis``'s columns: each has a 1 in its free
column, its last nonzero entry, so the two agree entry for entry.  The
random matrices are low-rank products, with zero rows and columns spliced
in, and include the empty shapes.  Matrices just below and just above the
cutover in cell count check both elimination paths, and the kernel rows
built on each side of it.
"""

import random
from fractions import Fraction

import pytest
from sympy import GF as SympyGF
from sympy import QQ as SympyQQ
from sympy.polys.matrices import DomainMatrix

from mcmkit.linalg import _LIST_RREF_CELLS, GF, QQ, DenseMatrix

FIELDS = [GF(5), GF(2**31 - 1), QQ]


def _domain(field):
    return SympyQQ if field == QQ else SympyGF(field.p, symmetric=False)


def _to_sympy(field, rows, shape):
    dom = _domain(field)
    if field == QQ:
        rows = [[dom(x.numerator, x.denominator) for x in row] for row in rows]
    else:
        rows = [[dom(x) for x in row] for row in rows]
    return DomainMatrix(rows, shape, dom) if rows else DomainMatrix.zeros(shape, dom)


def _from_sympy(field, dm):
    if field == QQ:
        return [[Fraction(int(x.numerator), int(x.denominator)) for x in row] for row in dm.to_list()]
    return [[int(x) % field.p for x in row] for row in dm.to_list()]


def _entries(m: DenseMatrix):
    return [[m[i, j] for j in range(m.ncols)] for i in range(m.nrows)]


def _dense(rng, field, nrows, ncols):
    """Random entries, about a third of them zero."""
    def entry():
        x = rng.choice([0, 0, 1, 2, 3, -1, -4])
        if field == QQ:
            return Fraction(x, rng.choice([1, 2, 3, 7]))
        return field.element(x * rng.randrange(1, 1000))

    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def _product(field, a, b, ncols):
    return [[field.element(sum((x * y for x, y in zip(row, col)), field.element(0)))
             for col in zip(*b)] if b else [field.element(0)] * ncols for row in a]


def _random_matrix(rng, field, nrows, ncols):
    """A random matrix of rank at most min(nrows, ncols, 3), as entry lists."""
    k = rng.randrange(0, 4)
    rows = _product(field, _dense(rng, field, nrows, k), _dense(rng, field, k, ncols), ncols)
    for i in range(nrows):  # splice in zero rows and columns
        if rng.random() < 0.2:
            rows[i] = [field.element(0)] * ncols
    for j in range(ncols):
        if rng.random() < 0.2:
            for row in rows:
                row[j] = field.element(0)
    return rows


def _shapes(rng):
    yield from [(0, 0), (0, 3), (3, 0), (1, 1), (4, 1), (1, 4)]
    for _ in range(40):
        yield rng.randrange(1, 7), rng.randrange(1, 7)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_rref_rank_and_kernel_match_sympy(field):
    rng = random.Random(31 + field.characteristic)
    for nrows, ncols in _shapes(rng):
        rows = _random_matrix(rng, field, nrows, ncols)
        m = DenseMatrix(field, rows) if nrows else DenseMatrix.zeros(field, 0, ncols)
        dm = _to_sympy(field, rows, (nrows, ncols))
        want_reduced, want_pivots = dm.rref()
        reduced, pivots, rank = m.rref()
        assert pivots == tuple(want_pivots), (nrows, ncols)
        assert rank == m.rank() == len(want_pivots) == dm.rank()
        assert _entries(reduced) == _from_sympy(field, want_reduced)
        kernel = m.kernel_basis()
        assert kernel.shape == (ncols, ncols - rank)
        assert _entries(kernel.transpose()) == _from_sympy(field, dm.nullspace(divide_last=True))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_solve_matches_sympy(field):
    rng = random.Random(57 + field.characteristic)
    for nrows, ncols in _shapes(rng):
        nrhs = rng.choice([0, 1, 1, 2, 3])
        rows = _random_matrix(rng, field, nrows, ncols)
        if rng.random() < 0.5:  # consistent: rows @ x for a random x
            rhs_rows = _product(field, rows, _dense(rng, field, ncols, nrhs), nrhs)
        else:
            rhs_rows = _dense(rng, field, nrows, nrhs)
        m = DenseMatrix(field, rows) if nrows else DenseMatrix.zeros(field, 0, ncols)
        rhs = DenseMatrix(field, rhs_rows) if nrows else DenseMatrix.zeros(field, 0, nrhs)
        aug = _to_sympy(field, [r + s for r, s in zip(rows, rhs_rows)], (nrows, ncols + nrhs))
        want_reduced, want_pivots = aug.rref()
        got = m.solve(rhs)
        if any(c >= ncols for c in want_pivots):
            assert got is None, (nrows, ncols, nrhs)
            continue
        # the solution with every free unknown zero, read off sympy's rref
        want = [[field.element(0)] * nrhs for _ in range(ncols)]
        for r, c in enumerate(want_pivots):
            want[c] = _from_sympy(field, want_reduced)[r][ncols:]
        assert got is not None and _entries(got) == want
        assert m @ got == rhs


def _cutover_shapes():
    """Shapes of at most ``_LIST_RREF_CELLS`` cells (the list path) and just past it (numpy)."""
    c = _LIST_RREF_CELLS
    below = [(1, c), (c, 1), (8, c // 8), (32, c // 32), (c // 32 - 1, 33), (0, 40), (40, 0)]
    above = [(1, c + 1), (c + 1, 1), (8, c // 8 + 1), (33, c // 32), (c // 32 + 1, 33)]
    assert all(m * n <= c for m, n in below) and all(m * n > c for m, n in above)
    return below + above


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_rref_on_both_sides_of_the_cutover_matches_sympy(field):
    rng = random.Random(89 + field.characteristic)
    for nrows, ncols in _cutover_shapes():
        k = min(nrows, ncols, rng.choice([5, 12]))
        rows = _product(field, _dense(rng, field, nrows, k), _dense(rng, field, k, ncols), ncols)
        m = DenseMatrix(field, rows) if nrows else DenseMatrix.zeros(field, 0, ncols)
        dm = _to_sympy(field, rows, (nrows, ncols))
        want_reduced, want_pivots = dm.rref()
        reduced, pivots, rank = m.rref()
        assert pivots == tuple(want_pivots), (nrows, ncols)
        assert _entries(reduced) == _from_sympy(field, want_reduced), (nrows, ncols)
        # kernel row i: 1 in free column i, minus that column of sympy's rref on the pivots
        kernel, free = m.kernel_rows()
        assert free == [j for j in range(ncols) if j not in want_pivots], (nrows, ncols)
        echelon = _from_sympy(field, want_reduced)
        want = []
        for f in free:
            row = [field.element(0)] * ncols
            row[f] = field.element(1)
            for r, c in enumerate(want_pivots):
                row[c] = field.element(-echelon[r][f])
            want.append(row)
        assert kernel.shape == (len(free), ncols) and kernel.numpy().tolist() == want
        if ncols <= 64:  # a wide matrix's kernel is large and checks nothing new
            assert _entries(m.kernel_basis().transpose()) == _from_sympy(
                field, dm.nullspace(divide_last=True)), (nrows, ncols)
