import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmkit.errors import UsageError
from mcmkit.linalg import GF, QQ, DenseMatrix, RowSpace, _is_prime


def test_rref_identity_gf5():
    m = DenseMatrix.identity(GF(5), 3)
    reduced, pivots, rank = m.rref()
    assert rank == 3
    assert pivots == (0, 1, 2)
    assert reduced == m


def test_rref_rank_one_gf5():
    m = DenseMatrix(GF(5), [[1, 2], [2, 4]])
    reduced, pivots, rank = m.rref()
    assert rank == 1
    assert pivots == (0,)
    assert reduced.rows()[0].tolist() == [1, 2]


def test_rref_zero_matrix():
    m = DenseMatrix.zeros(GF(5), 2, 3)
    _, pivots, rank = m.rref()
    assert rank == 0
    assert pivots == ()


def test_kernel_identity_empty():
    m = DenseMatrix.identity(GF(5), 2)
    assert m.kernel_basis().shape == (2, 0)


def test_kernel_rank_one():
    m = DenseMatrix(GF(5), [[1, 2], [2, 4]])
    k = m.kernel_basis()
    assert k.shape == (2, 1)
    assert (m @ k).is_zero()
    # spanned by (3, 1) up to scaling: x + 2y = 0 mod 5
    x, y = k[0, 0], k[1, 0]
    assert (x + 2 * y) % 5 == 0 and (x, y) != (0, 0)


def test_kernel_zero_map():
    m = DenseMatrix.zeros(GF(5), 1, 2)
    k = m.kernel_basis()
    assert k.shape == (2, 2)
    assert k.rank() == 2


def test_solve_identity():
    m = DenseMatrix.identity(GF(7), 3)
    rhs = DenseMatrix(GF(7), [[1], [2], [3]])
    assert m.solve(rhs) == rhs


def test_solve_scalar_inverse():
    m = DenseMatrix(GF(5), [[2]])
    rhs = DenseMatrix(GF(5), [[1]])
    x = m.solve(rhs)
    assert x == DenseMatrix(GF(5), [[3]])


def test_solve_inconsistent():
    m = DenseMatrix(GF(5), [[0]])
    rhs = DenseMatrix(GF(5), [[1]])
    assert m.solve(rhs) is None


def test_solve_shape_mismatch():
    m = DenseMatrix.identity(GF(5), 2)
    rhs = DenseMatrix(GF(5), [[1]])
    with pytest.raises(UsageError):
        m.solve(rhs)


def test_rational_matrices():
    m = DenseMatrix(QQ, [[Fraction(1, 2), 1], [1, 2]])
    reduced, pivots, rank = m.rref()
    assert rank == 1
    k = m.kernel_basis()
    assert (m @ k).is_zero()
    assert k.shape == (2, 1)


small_mats = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(0, 6), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@given(small_mats)
@settings(max_examples=150, deadline=None)
def test_rank_equals_rank_of_transpose(rows):
    m = DenseMatrix(GF(7), rows)
    assert m.rank() == m.transpose().rank()


@given(small_mats)
@settings(max_examples=150, deadline=None)
def test_rank_nullity(rows):
    m = DenseMatrix(GF(7), rows)
    k = m.kernel_basis()
    assert m.ncols == m.rank() + k.ncols
    assert (m @ k).is_zero()
    assert k.rank() == k.ncols


@given(small_mats, st.integers(0, 1))
@settings(max_examples=100, deadline=None)
def test_solve_roundtrip_exact(rows, ncols_rhs):
    m = DenseMatrix(GF(7), rows)
    # build an rhs guaranteed to be consistent
    x = DenseMatrix(GF(7), [[(i * 3 + j) % 7 for j in range(ncols_rhs + 1)] for i in range(m.ncols)])
    rhs = m @ x
    sol = m.solve(rhs)
    assert sol is not None
    assert m @ sol == rhs


def test_rowspace_reduce_and_membership():
    s = RowSpace(GF(7), 4)
    assert s.add([1, 2, 3, 4])
    assert s.add([0, 1, 1, 0])
    assert not s.add([1, 3, 4, 4])  # sum of the two
    assert s.dim == 2
    assert s.contains([2, 4, 6, 1])
    r = s.reduce([0, 0, 1, 0])
    assert r.any()


def test_rowspace_canonical_reduction_is_idempotent():
    s = RowSpace(GF(5), 3)
    s.add([1, 1, 0])
    s.add([0, 2, 1])
    v = [3, 4, 2]
    r1 = s.reduce(v)
    r2 = s.reduce(r1)
    assert (r1 == r2).all()


def _exact_product(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def test_matmul_large_prime_does_not_overflow():
    p = 2**31 - 1
    a = DenseMatrix(GF(p), [[p - 1] * 3])
    b = DenseMatrix(GF(p), [[p - 1]] * 3)
    assert (a @ b)[0, 0] == 3


@pytest.mark.parametrize("p", [2**31 - 1, 3037000493])
def test_matmul_long_inner_dimension_is_exact(p):
    # 3037000493 is the largest prime with (p-1)^2 < 2^63: one term a block
    rng = random.Random(p)
    a = [[rng.choice([p - 1, p - 2, rng.randrange(p)]) for _ in range(23)] for _ in range(3)]
    b = [[rng.choice([p - 1, rng.randrange(p)]) for _ in range(4)] for _ in range(23)]
    got = DenseMatrix(GF(p), a) @ DenseMatrix(GF(p), b)
    assert got == DenseMatrix(GF(p), _exact_product(a, b, p))


def test_modulus_too_large_for_int64_is_rejected():
    with pytest.raises(UsageError):
        GF(3037000507)  # prime, but (p-1)^2 >= 2^63
    with pytest.raises(UsageError):
        GF(2**61 - 1)


@pytest.mark.parametrize("field", [GF(7), GF(2**31 - 1), QQ])
def test_reduce_rows_equals_rowwise_reduce(field):
    rng = random.Random(5)
    n = 9

    def entry():
        x = rng.choice([0, 0, 1, 2, 5, -3])
        return Fraction(x, rng.choice([1, 2, 3])) if field == QQ else x

    space = RowSpace(field, n)
    for _ in range(5):
        space.add([entry() for _ in range(n)])
    assert space.dim >= 3
    m = DenseMatrix(field, [[entry() for _ in range(n)] for _ in range(7)])
    want = [list(space.reduce(row)) for row in m.rows()]
    assert [list(row) for row in space.reduce_rows(m).rows()] == want
    empty = DenseMatrix.zeros(field, 0, n)
    assert space.reduce_rows(empty).shape == (0, n)
    assert RowSpace(field, n).reduce_rows(m) == m


@pytest.mark.parametrize("field", [GF(5), GF(2**31 - 1), QQ], ids=repr)
def test_sparse_reduction_equals_product_with_every_echelon_row(field):
    rng = random.Random(9)
    n = 10
    space = RowSpace(field, n)
    for _ in range(6):
        space.add([rng.choice([0, 0, 1, 2, -1]) for _ in range(n)])
    pivots = list(space.pivots())
    assert space.dim >= 4
    basis = space.basis_matrix()
    rows = [[rng.choice([0, 1, 3]) for _ in range(n)] for _ in range(4)]
    # row 0 is zero on every pivot column but the first, row 1 on all of them
    for row in rows[:2]:
        for c in pivots[1:]:
            row[c] = 0
    rows[1][pivots[0]] = 0
    m = DenseMatrix(field, rows)
    # the dense definition: subtract the product with all echelon rows
    want = m - m.take_columns(pivots) @ basis
    assert space.reduce_rows(m) == want
    for row, expected in zip(m.rows(), want.rows()):
        assert list(space.reduce(row)) == list(expected)
    assert space.reduce_rows(DenseMatrix(field, rows[1:2])) == DenseMatrix(field, rows[1:2])


@pytest.mark.parametrize("field", [GF(5), QQ])
def test_take_columns(field):
    d = DenseMatrix(field, [[1, 2, 0, 0, 0], [3, 4, 0, 0, 0], [0, 0, 0, 0, 4]])
    assert d.take_columns([4, 0]) == DenseMatrix(field, [[0, 1], [0, 3], [4, 0]])
    assert d.take_columns([]).shape == (3, 0)


def _loop_kernel_basis(m):
    """The kernel basis built one entry at a time from the rref."""
    reduced, pivots, rank = m.rref()
    cols = []
    for fc in (c for c in range(m.ncols) if c not in pivots):
        v = [m.field.element(0)] * m.ncols
        v[fc] = m.field.element(1)
        for r, pc in enumerate(pivots):
            v[pc] = m.field.element(-reduced[r, fc])
        cols.append(v)
    return cols


@pytest.mark.parametrize("field", [GF(7), GF(2**31 - 1), QQ])
def test_kernel_basis_equals_entrywise_construction(field):
    rng = random.Random(11)

    def entry():
        x = rng.choice([0, 0, 0, 1, 2, 5, -3])
        return Fraction(x, rng.choice([1, 2, 3])) if field == QQ else x

    for nrows, ncols in [(0, 4), (3, 0), (4, 7), (7, 4), (5, 5), (2, 9)]:
        m = DenseMatrix(field, [[entry() for _ in range(ncols)] for _ in range(nrows)]) \
            if nrows else DenseMatrix.zeros(field, 0, ncols)
        k = m.kernel_basis()
        want = _loop_kernel_basis(m)
        assert k.shape == (ncols, len(want))
        assert [list(col) for col in k.transpose().rows()] == want
        rows, free = m.kernel_rows()
        assert [list(row) for row in rows.rows()] == want
        assert free == [c for c in range(ncols) if c not in m.rref()[1]]


def test_element_keeps_fraction_handling():
    F = GF(7)
    assert F.element(-3) == 4 and F.element(Fraction(1, 2)) == 4
    assert F.element(Fraction(-4, 2)) == 5
    with pytest.raises(UsageError):
        F.element(Fraction(1, 14))


@pytest.mark.parametrize("v", [
    [3, -1, 0, 12, 7],
    [2**63, 5, 1],  # uint64
    [-1, 2**63 + 1],  # float64 dtype: inexact
    [2**63 + 1, -1, 2**70],  # object dtype
    [Fraction(1, 2), -3, np.int64(9), 2**64],
    [np.int64(-8), np.int32(3), -(2**62)],
    [True, False, 5],
    [],
])
@pytest.mark.parametrize("p", [7, 2**31 - 1])
def test_as_vec_matches_elementwise_conversion(v, p):
    field = GF(p)
    got = field.vector(v)
    assert got.dtype == np.int64
    assert got.tolist() == [field.element(x) for x in v]
    assert field.vector(np.array(v, dtype=object)).tolist() == got.tolist()
    # the matrix constructor converts the same way (Fractions were truncated to ints)
    assert DenseMatrix(field, [v]).rows()[0].tolist() == got.tolist()


@pytest.mark.parametrize("field", [GF(5), GF(2**31 - 1), QQ])
def test_add_matrix_equals_rowwise_add(field):
    rng = random.Random(17)

    def entry():
        x = rng.choice([0, 0, 0, 1, 2, 4, -3])
        return Fraction(x, rng.choice([1, 2, 3])) if field == QQ else x

    def block(nrows, n, rank):
        # a random rank <= `rank` block: products of random factors
        a = [[entry() for _ in range(rank)] for _ in range(nrows)]
        b = [[entry() for _ in range(n)] for _ in range(rank)]
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

    for trial in range(40):
        n = rng.randrange(1, 9)
        rowwise, batched = RowSpace(field, n), RowSpace(field, n)
        every_row = []
        for _ in range(3):
            rows = block(rng.randrange(0, 7), n, rng.randrange(1, n + 1))
            every_row += rows
            gained = sum(rowwise.add(row) for row in rows)
            m = DenseMatrix.from_rows(field, rows, n)
            assert batched.add_matrix(m) == gained
            assert batched.pivots() == rowwise.pivots()
            assert batched.basis_matrix() == rowwise.basis_matrix()
        # both are the reduced echelon form of everything added
        reduced, pivots, rank = DenseMatrix.from_rows(field, every_row, n).rref()
        assert batched.pivots() == pivots
        assert batched.basis_matrix() == DenseMatrix.from_rows(field, reduced.rows()[:rank], n)


@pytest.mark.parametrize("field", [GF(5), QQ], ids=repr)
@pytest.mark.parametrize("data", [[[1, 2], [3]], [1, 2], [], 7, [[[1]]]],
                         ids=["ragged", "one-dim", "empty", "scalar", "three-dim"])
def test_bad_matrix_data_raises_usage_error(field, data):
    with pytest.raises(UsageError):
        DenseMatrix(field, data)


@pytest.mark.parametrize("x", [np.int64(3), np.int32(-2), np.uint8(8), 3])
def test_inv_takes_numpy_integers(x):
    assert GF(5).inv(x) * int(x) % 5 == 1
    assert QQ.inv(x) == Fraction(1, int(x))
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(np.int64(10))


@pytest.mark.parametrize("field", [GF(5), GF(2**31 - 1), QQ], ids=repr)
def test_every_matrix_is_a_two_dim_array_of_the_field_dtype(field):
    def check(m):
        assert isinstance(m, DenseMatrix)
        assert isinstance(m._a, np.ndarray) and m._a.ndim == 2 and m._a.dtype == field.dtype
        assert m._a.shape == m.shape
        return m

    def check_space(s):
        assert isinstance(s._basis, np.ndarray) and s._basis.ndim == 2
        assert s._basis.dtype == field.dtype and s._basis.shape == (s.dim, s.ncols)
        check(s.basis_matrix())
        return s

    a = check(DenseMatrix(field, [[1, 2, 0], [2, 4, 0]]))
    b = check(DenseMatrix(field, np.array([[3, -1, 2**40]])))
    c = check(DenseMatrix(field, [[Fraction(1, 2), 0, 1]]))
    made = [
        DenseMatrix.zeros(field, 2, 3), DenseMatrix.zeros(field, 0, 0),
        DenseMatrix.identity(field, 3), DenseMatrix.identity(field, 0),
        DenseMatrix.from_rows(field, [[1, 2], [3, 4]]), DenseMatrix.from_rows(field, [], 3),
        DenseMatrix.column(field, [1, 2]),
        a.kernel_rows()[0], DenseMatrix.zeros(field, 0, 3).kernel_rows()[0],
        DenseMatrix._of_array(field, field.zeros((2, 2))),
        a + a, a - a.scale(2), a.scale(3), a.transpose(), a.take_columns([2, 0]),
        a.hstack(a), a @ a.transpose(), c.transpose() @ b,
        DenseMatrix.zeros(field, 2, 0) @ DenseMatrix.zeros(field, 0, 3),
        a.rref()[0], a.kernel_basis(), DenseMatrix.zeros(field, 0, 3).kernel_basis(),
        a.solve(DenseMatrix.column(field, [1, 2])), a.solve(DenseMatrix.zeros(field, 2, 0)),
    ]
    for m in made:
        check(m)
    for row in a.rows():
        assert isinstance(row, np.ndarray) and row.ndim == 1 and row.dtype == field.dtype

    s = check_space(RowSpace(field, 3))
    assert s.reduce([1, 2, 3]).dtype == field.dtype
    s.add([1, 2, 0])
    check_space(s)
    s.add_matrix(DenseMatrix(field, [[0, 1, 1], [1, 3, 1]]))
    check_space(s)
    check(s.reduce_rows(a))
    r = s.reduce([4, 0, 1])
    assert isinstance(r, np.ndarray) and r.ndim == 1 and r.dtype == field.dtype


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(20000) if _is_prime(n)] == \
        [n for n in range(20000) if _is_prime_by_trial_division(n)]
    assert _is_prime(2**31 - 1)
    # strong pseudoprimes to base 2: composite, caught by the other bases
    for n in (2047, 3277, 4033, 4681, 8321):
        assert not _is_prime(n) and not _is_prime_by_trial_division(n)
    assert pow(2, 2046 // 2, 2047) == 1  # 2047 = 23 * 89 passes base 2 alone
