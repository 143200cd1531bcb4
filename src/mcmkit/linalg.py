"""Exact dense linear algebra over prime fields GF(p) and the rationals.

Everything downstream (normal forms, Hom spaces, resolutions) reduces to
row operations on dense matrices.  Every matrix and row space holds one
2-D numpy array of its field's ``dtype``: int64 with entries in [0, p)
over GF(p), object holding exact ``Fraction``s over QQ, which is plenty
for the small characteristic-zero demos.  The two field classes own what
differs between them (``zeros``, ``reduce``, ``vector``, ``inv``,
``element``, ``matmul`` and the list row operations ``scale_list`` and
``sub_scaled_at``), so no elimination or product below tests the field.

Eliminations come in two paths, picked by ``_rref`` from the cell count
alone.  Most eliminations are tiny (two thirds of those in a resolution
have at most 16 cells), and the numpy loop pays about seven numpy calls per
column whatever the size, so a matrix of at most ``_LIST_RREF_CELLS`` cells
is eliminated on Python lists (ints mod p, or Fractions), touching only the
nonzero columns of each pivot row; larger ones get whole-row numpy updates.
On the sparse, low-rank eliminations of a resolution and of a quiver
build the list path is 1.3-3x faster up to 4,096 cells, over GF(p) and QQ
alike, and numpy wins from about 8,000.  On dense matrices of half rank
the list path falls behind from about 256 cells (2.2x slower at 1,024), so
the cutover sits at 1,024 cells: the real gain above it is small, and a
dense input pays at most about twice the numpy time.  The reduced echelon
form of a matrix is unique, so both paths return the same array and
pivots; only their cost differs.  ``kernel_rows`` follows the same
cutover: a matrix on the list path gets its kernel rows built on the
eliminated lists as well, so a small kernel costs no array operation
beyond the final conversion.

``PrimeField`` accepts only moduli with (p-1)**2 < 2**63, so the product
of two entries (rref, ``RowSpace`` reductions, ``scale``) is exact.  A
dot product of length n can reach n*(p-1)**2, so ``PrimeField.matmul``
reduces its partial sums mod p after every floor((2**63-1) / (p-1)**2)
terms of the inner dimension (delayed reduction, Dumas, Giorgi and
Pernet, "FFLAS-FFPACK", ACM TOMS 35(3), 2008); for the small moduli in
use that is a single block.

Matrices are immutable by convention: no method mutates ``self`` and the
constructors copy their input.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import UsageError

__all__ = [
    "GF",
    "QQ",
    "PrimeField",
    "RationalField",
    "DenseMatrix",
    "RowSpace",
]


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, 3, 5 and 7, which is exact for every n below
    3,215,031,751 (Pomerance, Selfridge and Wagstaff 1980), so for every modulus
    up to ``_MAX_MODULUS``."""
    if n < 2 or any(n % a == 0 for a in (2, 3, 5, 7)):
        return n in (2, 3, 5, 7)
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):  # n is a strong probable prime to base a, or composite
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_INT64_MAX = 2**63 - 1
_MAX_MODULUS = isqrt(_INT64_MAX) + 1  # the largest p with (p-1)**2 < 2**63


class PrimeField:
    """The field GF(p) for a prime p with (p-1)**2 < 2**63.

    Arrays over GF(p) are int64 with entries in [0, p).
    """

    dtype = np.dtype(np.int64)

    def __init__(self, p: int):
        if p > _MAX_MODULUS:
            raise UsageError(f"modulus {p} is too large: exact int64 arithmetic "
                             f"needs (p-1)^2 < 2^63, that is p <= {_MAX_MODULUS}")
        if not _is_prime(p):
            raise UsageError(f"modulus {p} is not prime")
        self.p = p
        # inner-dimension terms a dot product may sum before it must be reduced
        self.dot_block = _INT64_MAX // (p - 1) ** 2

    @property
    def characteristic(self) -> int:
        return self.p

    def element(self, x) -> int:
        if type(x) is int:  # the common case, without Fraction's ABC instance check
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise UsageError(f"denominator of {x} not invertible mod {self.p}")
            return (x.numerator * self.inv(x.denominator % self.p)) % self.p
        return int(x) % self.p

    def inv(self, x) -> int:
        x = int(x) % self.p
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(x, self.p - 2, self.p)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.int64)

    def reduce(self, arr: np.ndarray) -> np.ndarray:
        """Entries of an int64 array brought back into [0, p)."""
        return arr % self.p

    def scale_list(self, row: list, c) -> list:
        p = self.p
        return [x * c % p for x in row]

    def sub_scaled_at(self, row: list, c, other: list, cols) -> None:
        """row[j] -= c * other[j] for j in cols, in place, for lists of ints in [0, p)."""
        p = self.p
        for j in cols:
            row[j] = (row[j] - c * other[j]) % p

    def vector(self, v) -> np.ndarray:
        """The entries of an array-like as an int64 array, reduced mod p."""
        a = np.asarray(v)
        # int64 or uint64: one conversion.  Fractions, ints past 2**64 and
        # lists mixing negatives with ints past 2**63 (object or float
        # dtype) go entry by entry, exactly.
        if a.dtype.kind in "iu":
            return (a % self.p).astype(np.int64)
        a = np.asarray(v, dtype=object)
        return np.array([self.element(x) for x in a.flat], dtype=np.int64).reshape(a.shape)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b mod p, reduced after every ``dot_block`` inner terms."""
        n, step, p = a.shape[1], self.dot_block, self.p
        if n <= step:
            return (a @ b) % p
        out = (a[:, :step] @ b[:step]) % p
        for k in range(step, n, step):
            out = (out + (a[:, k:k + step] @ b[k:k + step]) % p) % p
        return out

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class RationalField:
    """The field of rational numbers: object arrays of exact Fractions."""

    dtype = np.dtype(object)

    @property
    def characteristic(self) -> int:
        return 0

    def element(self, x) -> Fraction:
        return Fraction(x)

    def inv(self, x):
        return 1 / Fraction(x)

    def zeros(self, shape) -> np.ndarray:
        return np.full(shape, Fraction(0), dtype=object)

    def reduce(self, arr: np.ndarray) -> np.ndarray:
        return arr

    def scale_list(self, row: list, c) -> list:
        return [x * c for x in row]

    def sub_scaled_at(self, row: list, c, other: list, cols) -> None:
        for j in cols:
            row[j] -= c * other[j]

    def vector(self, v) -> np.ndarray:
        """The entries of an array-like as an object array of Fractions."""
        a = np.asarray(v, dtype=object)
        return np.array([Fraction(x) for x in a.flat], dtype=object).reshape(a.shape)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_of_characteristic(char: int):
    if type(char) is not int:  # bool and float too: the characteristic is read from JSON
        raise UsageError(f"characteristic must be an integer, not {char!r}")
    return QQ if char == 0 else GF(char)


# the largest matrix, in cells, that ``_rref`` eliminates on Python lists
_LIST_RREF_CELLS = 1024


def _rref(a: np.ndarray, field):
    """In-place rref of an array of ``field.dtype``.  Returns (pivots, rank)."""
    m, n = a.shape
    if m * n <= _LIST_RREF_CELLS:
        if not m * n:
            return [], 0
        rows = a.tolist()
        pivots = _rref_rows(rows, n, field)
        a[:] = rows
        return pivots, len(pivots)
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = field.inv(a[r, c])
        if inv != 1:
            a[r] = field.reduce(a[r] * inv)
        col = a[:, c].copy()
        col[r] = 0
        rows = np.nonzero(col)[0]
        if rows.size:
            a[rows] = field.reduce(a[rows] - np.outer(col[rows], a[r]))
        pivots.append(c)
        r += 1
    return pivots, r


def _rref_rows(rows: list, n: int, field) -> list:
    """``_rref`` on a list of n-entry Python lists, in place.  Returns the pivots."""
    m = len(rows)
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        for i in range(r, m):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        piv = rows[r]
        inv = field.inv(piv[c])
        if inv != 1:
            piv = rows[r] = field.scale_list(piv, inv)
        # the pivot row is zero left of c; only its nonzero columns change a row
        cols = [j for j in range(c, n) if piv[j]]
        for k in range(m):
            f = rows[k][c]
            if f and k != r:
                field.sub_scaled_at(rows[k], f, piv, cols)
        pivots.append(c)
        r += 1
    return pivots


class DenseMatrix:
    """Immutable dense matrix over GF(p) or QQ: one 2-D array of ``field.dtype``."""

    __slots__ = ("field", "nrows", "ncols", "_a")

    def __init__(self, field, data, _internal=False):
        self.field = field
        if not _internal:
            try:
                ndim = np.ndim(data)
            except ValueError:  # ragged rows
                ndim = None
            if ndim != 2:
                raise UsageError("matrix data must be a two-dimensional, rectangular array")
            data = field.vector(data)
        self._a = data
        self.nrows, self.ncols = data.shape

    # -- constructors ------------------------------------------------

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "DenseMatrix":
        return cls(field, field.zeros((nrows, ncols)), _internal=True)

    @classmethod
    def identity(cls, field, n: int) -> "DenseMatrix":
        a = field.zeros((n, n))
        a[range(n), range(n)] = field.element(1)
        return cls(field, a, _internal=True)

    @classmethod
    def from_rows(cls, field, rows: Iterable[Sequence], ncols: Optional[int] = None) -> "DenseMatrix":
        rows = [list(r) for r in rows]
        if not rows:
            if ncols is None:
                raise UsageError("ncols required for an empty row list")
            return cls.zeros(field, 0, ncols)
        return cls(field, rows)

    @classmethod
    def column(cls, field, entries: Sequence) -> "DenseMatrix":
        return cls(field, [[e] for e in entries])

    @classmethod
    def _of_array(cls, field, arr: np.ndarray) -> "DenseMatrix":
        """Wrap a 2-D array of ``field.dtype``, reduced, without a copy."""
        return cls(field, arr, _internal=True)

    # -- raw access --------------------------------------------------

    def _array(self) -> np.ndarray:
        """The matrix's own 2-D array of ``field.dtype``, not a copy."""
        return self._a

    def numpy(self) -> np.ndarray:
        return self._a.copy()

    def rows(self):
        return [row.copy() for row in self._a]

    def __getitem__(self, ij):
        return self._a.item(*ij)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    # -- algebra -----------------------------------------------------

    def __matmul__(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.field != other.field or self.ncols != other.nrows:
            raise UsageError("matmul shape/field mismatch")
        return DenseMatrix._of_array(self.field, self.field.matmul(self._a, other._a))

    def __add__(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.field != other.field or self.shape != other.shape:
            raise UsageError("add shape/field mismatch")
        return DenseMatrix._of_array(self.field, self.field.reduce(self._a + other._a))

    def __sub__(self, other: "DenseMatrix") -> "DenseMatrix":
        return self + other.scale(-1)

    def scale(self, c) -> "DenseMatrix":
        return DenseMatrix._of_array(self.field, self.field.reduce(self._a * self.field.element(c)))

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix._of_array(self.field, self._a.T.copy())

    def take_columns(self, cols: Sequence[int]) -> "DenseMatrix":
        """The submatrix of the given columns, in the given order."""
        return DenseMatrix._of_array(self.field, self._a[:, list(cols)])

    def hstack(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.nrows != other.nrows:
            raise UsageError("hstack row mismatch")
        return DenseMatrix._of_array(self.field, np.hstack([self._a, other._a]))

    def is_zero(self) -> bool:
        return not self._a.any()

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if self.field != other.field or self.shape != other.shape:
            return False
        return bool((self._a == other._a).all())

    def __repr__(self):
        return f"DenseMatrix({self.field}, {self.nrows}x{self.ncols})"

    # -- elimination -------------------------------------------------

    def rref(self):
        """Reduced row-echelon form.

        Returns ``(reduced, pivots, rank)`` where ``reduced`` has the
        same shape as the input (zero rows at the bottom) and
        ``pivots`` lists the pivot column indices.
        """
        a = self._a.copy()
        pivots, rank = _rref(a, self.field)
        return DenseMatrix._of_array(self.field, a), tuple(pivots), rank

    def rank(self) -> int:
        return self.rref()[2]

    def kernel_rows(self):
        """A basis of the right null space as rows, and the free columns.

        Returns ``(rows, free)``: ``free`` lists the non-pivot columns in
        ascending order, and row i is 1 in column free[i] and 0 in every
        other free column, so a null vector's coordinates in this basis
        are its entries on the free columns.  Its entry in the column of
        pivot r is minus entry free[i] of row r of the reduced echelon
        form.  A matrix that ``_rref`` eliminates on Python lists also gets
        its kernel rows built on those lists, with no ``rref`` arrays.
        """
        field, n = self.field, self.ncols
        on_lists = self.nrows * n <= _LIST_RREF_CELLS
        if on_lists:
            reduced = self._a.tolist()
            pivots = _rref_rows(reduced, n, field)
        else:
            reduced, pivots, _ = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(n) if c not in pivot_set]
        if not on_lists:
            out = field.zeros((len(free), n))
            out[np.arange(len(free)), free] = field.element(1)
            if pivots:
                out[:, list(pivots)] = field.reduce(-reduced._a[:len(pivots)][:, free]).T
            return DenseMatrix._of_array(field, out), free
        zero, one = field.element(0), field.element(1)
        rows = []
        for f in free:
            row = [zero] * n
            row[f] = one
            for c, x in zip(pivots, field.scale_list([r[f] for r in reduced[:len(pivots)]], -1)):
                row[c] = x
            rows.append(row)
        out = np.array(rows, dtype=field.dtype) if rows else field.zeros((0, n))
        return DenseMatrix._of_array(field, out), free

    def kernel_basis(self) -> "DenseMatrix":
        """Columns form a basis of the right null space."""
        return self.kernel_rows()[0].transpose()

    def solve(self, rhs: "DenseMatrix") -> Optional["DenseMatrix"]:
        """One solution X of self @ X = rhs, or None if inconsistent."""
        if rhs.nrows != self.nrows:
            raise UsageError("solve: rhs row count mismatch")
        reduced, pivots, rank = self.hstack(rhs).rref()
        if any(p >= self.ncols for p in pivots):
            return None
        out = self.field.zeros((self.ncols, rhs.ncols))
        out[list(pivots)] = reduced._a[:rank, self.ncols:]
        return DenseMatrix._of_array(self.field, out)


class RowSpace:
    """A subspace of k^n maintained in reduced echelon form.

    Supports span growth by whole blocks, canonical reduction of vectors
    modulo the space, and membership tests.  The workhorse behind normal
    forms, kernel capture and Hom-space quotients.

    The echelon rows are one 2-D array of ``field.dtype``, one row per
    pivot column in ``_pivots`` (ascending).  The rows are fully reduced:
    each pivot column is zero in every other row, so the coefficient of
    echelon row i in a vector is the vector's entry in pivot column i, and
    reducing is one product.  The array is replaced, never written in
    place, so a ``basis_matrix`` handed out stays valid.
    """

    def __init__(self, field, ncols: int):
        self.field = field
        self.ncols = ncols
        self._basis = field.zeros((0, ncols))
        self._pivots = ()

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def reduce_rows(self, m: DenseMatrix) -> DenseMatrix:
        """Canonical residue of every row of m modulo the space.

        Row by row this equals ``reduce``: m - m[:, pivots] @ basis.  The
        product runs only over the echelon rows whose pivot column is
        nonzero in some row of m; the others would add zero.
        """
        if not self._pivots:
            return m
        a = m._array()
        coeffs = a[:, list(self._pivots)]
        used = np.flatnonzero((coeffs != 0).any(axis=0))
        if not used.size:
            return m
        out = a - self.field.matmul(coeffs[:, used], self._basis[used])
        return DenseMatrix._of_array(self.field, self.field.reduce(out))

    def reduce(self, v) -> np.ndarray:
        """Canonical residue of v modulo the space, as a 1-D array."""
        v = self.field.vector(v)[None]
        return self.reduce_rows(DenseMatrix._of_array(self.field, v))._array()[0]

    def contains(self, v) -> bool:
        return not self.reduce(v).any()

    def add(self, v) -> bool:
        """Add one vector; True if it enlarged the space."""
        return self.add_matrix(DenseMatrix._of_array(self.field, self.field.vector(v)[None])) == 1

    def add_matrix(self, m: DenseMatrix) -> int:
        """Add every row of m; the number of dimensions gained.

        The residues of m go to reduced echelon form in one ``rref``.  Their
        rows are zero on the old pivot columns, so the old rows need only be
        cleared on the new pivot columns: one product.  The merged rows are
        the reduced echelon form of the grown span, which is unique: the
        same rows as adding m one row at a time.
        """
        if m.ncols != self.ncols:
            raise UsageError("add_matrix column mismatch")
        residues = self.reduce_rows(m)
        if residues.is_zero():
            return 0
        reduced, pivots, rank = residues.rref()
        rows = reduced._array()[:rank].copy()  # a copy keeps no zero rows alive
        if self._pivots:
            old = self.field.reduce(
                self._basis - self.field.matmul(self._basis[:, list(pivots)], rows))
            pivots = self._pivots + pivots
            order = sorted(range(len(pivots)), key=pivots.__getitem__)
            rows, pivots = np.vstack([old, rows])[order], tuple(pivots[i] for i in order)
        self._basis, self._pivots = rows, pivots
        return rank

    def __eq__(self, other):
        """Equal spans: a span has one reduced echelon form."""
        if not isinstance(other, RowSpace):
            return NotImplemented
        return (self.ncols, self._pivots) == (other.ncols, other._pivots) and \
            bool((self._basis == other._basis).all())

    def basis_matrix(self) -> DenseMatrix:
        return DenseMatrix._of_array(self.field, self._basis)

    def pivots(self):
        return self._pivots


def intersect_rowspaces(U: RowSpace, V: RowSpace, field, n: int) -> RowSpace:
    """Intersection of two row spaces inside k^n."""
    out = RowSpace(field, n)
    BU = U.basis_matrix()
    BV = V.basis_matrix()
    if BU.nrows == 0 or BV.nrows == 0:
        return out
    stacked = BU.transpose().hstack(BV.transpose().scale(-1))
    # each kernel column (a, b) gives a @ BU = b @ BV, a vector of both spaces
    a = stacked.kernel_basis().transpose().take_columns(range(BU.nrows))
    out.add_matrix(a @ BU)
    return out
