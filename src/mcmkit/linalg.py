"""Exact dense linear algebra over prime fields GF(p) and the rationals.

Everything downstream (normal forms, Hom spaces, resolutions) reduces to
row operations on dense matrices.  Over GF(p) the data lives in numpy
int64 arrays with entries in [0, p).  ``PrimeField`` accepts only moduli
with (p-1)**2 < 2**63, so the product of two entries (rref, ``RowSpace``
reductions, ``scale``) is exact.  A dot product of length n can reach
n*(p-1)**2, so ``PrimeField.matmul`` reduces its partial sums mod p after
every floor((2**63-1) / (p-1)**2) terms of the inner dimension (delayed
reduction, Dumas, Giorgi and Pernet, "FFLAS-FFPACK", ACM TOMS 35(3),
2008); for the small moduli in use that is a single block.  Over the
rationals we fall back to Fraction lists, which is plenty for the small
characteristic-zero demos.

Matrices are immutable by convention: no method mutates ``self`` and the
constructors copy their input.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
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
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


_INT64_MAX = 2**63 - 1
_MAX_MODULUS = isqrt(_INT64_MAX) + 1  # the largest p with (p-1)**2 < 2**63


class PrimeField:
    """The field GF(p) for a prime p with (p-1)**2 < 2**63."""

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

    def inv(self, x: int) -> int:
        x %= self.p
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(x, self.p - 2, self.p)

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
    """The field of rational numbers (exact Fractions)."""

    @property
    def characteristic(self) -> int:
        return 0

    def element(self, x) -> Fraction:
        return Fraction(x)

    def inv(self, x):
        return 1 / Fraction(x)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_of_characteristic(char: int):
    return QQ if char == 0 else GF(char)


def _rref_gfp(a: np.ndarray, p: int):
    """In-place rref of an int64 array mod p.  Returns (pivots, rank)."""
    m, n = a.shape
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
        inv = pow(int(a[r, c]), p - 2, p)
        if inv != 1:
            a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        rows = np.nonzero(col)[0]
        if rows.size:
            a[rows] = (a[rows] - np.outer(col[rows], a[r])) % p
        pivots.append(c)
        r += 1
    return pivots, r


def _rref_qq(rows, n):
    """rref of a list of Fraction lists.  Returns (rows, pivots, rank)."""
    rows = [list(row) for row in rows]
    m = len(rows)
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        if inv != 1:
            rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots, r


class DenseMatrix:
    """Immutable dense matrix over GF(p) or QQ."""

    __slots__ = ("field", "nrows", "ncols", "_a")

    def __init__(self, field, data, _internal=False):
        self.field = field
        if _internal:
            self._a = data
        elif isinstance(field, PrimeField):
            arr = np.array(data, dtype=np.int64)
            if arr.ndim != 2:
                raise UsageError("matrix data must be two-dimensional")
            self._a = arr % field.p
        else:
            self._a = [[Fraction(x) for x in row] for row in data]
        if isinstance(field, PrimeField):
            self.nrows, self.ncols = self._a.shape
        else:
            self.nrows = len(self._a)
            self.ncols = len(self._a[0]) if self._a else 0
            if any(len(row) != self.ncols for row in self._a):
                raise UsageError("ragged matrix data")

    # -- constructors ------------------------------------------------

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "DenseMatrix":
        if isinstance(field, PrimeField):
            return cls(field, np.zeros((nrows, ncols), dtype=np.int64), _internal=True)
        return cls._of_array(field, np.full((nrows, ncols), Fraction(0), dtype=object))

    @classmethod
    def identity(cls, field, n: int) -> "DenseMatrix":
        if isinstance(field, PrimeField):
            return cls(field, np.eye(n, dtype=np.int64), _internal=True)
        return cls(
            field,
            [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)],
            _internal=True,
        )

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
    def block_diag(cls, field, blocks: Sequence["DenseMatrix"]) -> "DenseMatrix":
        """The blocks along the diagonal, zeros elsewhere."""
        out = cls.zeros(field, sum(b.nrows for b in blocks), sum(b.ncols for b in blocks))._array()
        r = c = 0
        for b in blocks:
            out[r:r + b.nrows, c:c + b.ncols] = b._array()
            r += b.nrows
            c += b.ncols
        return cls._of_array(field, out)

    @classmethod
    def _of_array(cls, field, arr: np.ndarray) -> "DenseMatrix":
        """Wrap a 2-D array laid out as ``_array`` returns it, keeping its shape."""
        if isinstance(field, PrimeField):
            return cls(field, arr, _internal=True)
        out = cls(field, arr.tolist(), _internal=True)
        out.nrows, out.ncols = arr.shape
        return out

    # -- raw access --------------------------------------------------

    def _array(self) -> np.ndarray:
        """The entries as a 2-D array: int64 over GF(p), Fractions (object) over QQ.

        Over GF(p) this is the matrix's own array, not a copy.
        """
        if isinstance(self.field, PrimeField):
            return self._a
        arr = np.empty(self.shape, dtype=object)
        if self.nrows and self.ncols:
            arr[:] = self._a
        return arr

    def numpy(self) -> np.ndarray:
        return self._a.copy()

    def rows(self):
        if isinstance(self.field, PrimeField):
            return [self._a[i].copy() for i in range(self.nrows)]
        return [list(r) for r in self._a]

    def __getitem__(self, ij):
        i, j = ij
        x = self._a[i][j] if not isinstance(self.field, PrimeField) else self._a[i, j]
        return int(x) if isinstance(self.field, PrimeField) else x

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    # -- algebra -----------------------------------------------------

    def __matmul__(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.field != other.field or self.ncols != other.nrows:
            raise UsageError("matmul shape/field mismatch")
        return DenseMatrix._of_array(self.field, self.field.matmul(self._array(), other._array()))

    def __add__(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.field != other.field or self.shape != other.shape:
            raise UsageError("add shape/field mismatch")
        if isinstance(self.field, PrimeField):
            return DenseMatrix(self.field, (self._a + other._a) % self.field.p, _internal=True)
        return DenseMatrix._of_array(self.field, self._array() + other._array())

    def __sub__(self, other: "DenseMatrix") -> "DenseMatrix":
        return self + other.scale(-1)

    def scale(self, c) -> "DenseMatrix":
        if isinstance(self.field, PrimeField):
            c = self.field.element(c)
            return DenseMatrix(self.field, (self._a * c) % self.field.p, _internal=True)
        return DenseMatrix._of_array(self.field, Fraction(c) * self._array())

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix._of_array(self.field, self._array().T.copy())

    def take_columns(self, cols: Sequence[int]) -> "DenseMatrix":
        """The submatrix of the given columns, in the given order."""
        return DenseMatrix._of_array(self.field, self._array()[:, list(cols)])

    def hstack(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.nrows != other.nrows:
            raise UsageError("hstack row mismatch")
        return DenseMatrix._of_array(self.field, np.hstack([self._array(), other._array()]))

    def vstack(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.ncols != other.ncols:
            raise UsageError("vstack column mismatch")
        return DenseMatrix._of_array(self.field, np.vstack([self._array(), other._array()]))

    def is_zero(self) -> bool:
        if isinstance(self.field, PrimeField):
            return not self._a.any()
        return all(x == 0 for row in self._a for x in row)

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if self.field != other.field or self.shape != other.shape:
            return False
        if isinstance(self.field, PrimeField):
            return bool((self._a == other._a).all())
        return self._a == other._a

    def __hash__(self):
        if isinstance(self.field, PrimeField):
            return hash((self.field, self.shape, self._a.tobytes()))
        return hash((self.field, self.shape, tuple(tuple(r) for r in self._a)))

    def __repr__(self):
        return f"DenseMatrix({self.field}, {self.nrows}x{self.ncols})"

    # -- elimination -------------------------------------------------

    def rref(self):
        """Reduced row-echelon form.

        Returns ``(reduced, pivots, rank)`` where ``reduced`` has the
        same shape as the input (zero rows at the bottom) and
        ``pivots`` lists the pivot column indices.
        """
        if isinstance(self.field, PrimeField):
            a = self._a.copy()
            pivots, rank = _rref_gfp(a, self.field.p)
            return DenseMatrix(self.field, a, _internal=True), tuple(pivots), rank
        rows, pivots, rank = _rref_qq(self.rows(), self.ncols)
        return DenseMatrix(self.field, rows, _internal=True), tuple(pivots), rank

    def rank(self) -> int:
        return self.rref()[2]

    def kernel_basis(self) -> "DenseMatrix":
        """Columns form a basis of the right null space."""
        reduced, pivots, rank = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        out = DenseMatrix.zeros(self.field, self.ncols, len(free))._array()
        out[free, np.arange(len(free))] = self.field.element(1)
        if rank:
            rest = -reduced._array()[:rank][:, free]
            if isinstance(self.field, PrimeField):
                rest %= self.field.p
            out[list(pivots)] = rest
        return DenseMatrix._of_array(self.field, out)

    def solve(self, rhs: "DenseMatrix") -> Optional["DenseMatrix"]:
        """One solution X of self @ X = rhs, or None if inconsistent."""
        if rhs.nrows != self.nrows:
            raise UsageError("solve: rhs row count mismatch")
        aug = self.hstack(rhs)
        reduced, pivots, rank = aug.rref()
        if any(p >= self.ncols for p in pivots):
            return None
        out = DenseMatrix.zeros(self.field, self.ncols, rhs.ncols)
        if isinstance(self.field, PrimeField):
            a = out._a
            for r, pc in enumerate(pivots):
                a[pc] = reduced._a[r, self.ncols:]
            return DenseMatrix(self.field, a % self.field.p, _internal=True)
        rows = out._a
        for r, pc in enumerate(pivots):
            rows[pc] = list(reduced._a[r][self.ncols:])
        return DenseMatrix(self.field, rows, _internal=True)


class RowSpace:
    """A subspace of k^n maintained in reduced echelon form.

    Supports span growth by whole blocks, canonical reduction of vectors
    modulo the space, and membership tests.  The workhorse behind normal
    forms, kernel capture and Hom-space quotients.

    The echelon rows are one 2-D array laid out as ``DenseMatrix._array``
    returns it, one row per pivot column in ``_pivots`` (ascending).  The
    rows are fully reduced: each pivot column is zero in every other row,
    so the coefficient of echelon row i in a vector is the vector's entry
    in pivot column i, and reducing is one product.  The array is replaced,
    never written in place, so a ``basis_matrix`` handed out stays valid.
    """

    def __init__(self, field, ncols: int):
        self.field = field
        self.ncols = ncols
        self._basis = DenseMatrix.zeros(field, 0, ncols)._array()
        self._pivots = ()

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def copy(self) -> "RowSpace":
        s = RowSpace(self.field, self.ncols)
        s._basis, s._pivots = self._basis, self._pivots
        return s

    def _as_vec(self, v):
        if isinstance(self.field, PrimeField):
            a = np.asarray(v)
            # int64 or uint64: one conversion.  Fractions, ints past 2**64 and
            # lists mixing negatives with ints past 2**63 (object or float
            # dtype) go entry by entry.
            if a.dtype.kind in "iu":
                return (a % self.field.p).astype(np.int64)
            return np.array([self.field.element(x) for x in v], dtype=np.int64)
        return [Fraction(x) for x in v]

    def reduce_rows(self, m: DenseMatrix) -> DenseMatrix:
        """Canonical residue of every row of m modulo the space.

        Row by row this equals ``reduce``: m - m[:, pivots] @ basis.
        """
        if not self._pivots:
            return m
        a = m._array()
        out = a - self.field.matmul(a[:, list(self._pivots)], self._basis)
        if isinstance(self.field, PrimeField):
            out %= self.field.p
        return DenseMatrix._of_array(self.field, out)

    def reduce(self, v):
        """Canonical residue of v modulo the space."""
        v = self._as_vec(v)
        if not self._pivots:
            return v
        if isinstance(self.field, PrimeField):
            coeffs = v[list(self._pivots)]
            return (v - self.field.matmul(coeffs[None], self._basis)[0]) % self.field.p
        coeffs = np.array([v[c] for c in self._pivots], dtype=object)
        return (np.array(v, dtype=object) - coeffs @ self._basis).tolist()

    def contains(self, v) -> bool:
        r = self.reduce(v)
        if isinstance(self.field, PrimeField):
            return not r.any()
        return all(x == 0 for x in r)

    def add(self, v) -> bool:
        """Add one vector; True if it enlarged the space."""
        return self.add_matrix(DenseMatrix._of_array(self.field, np.array([self._as_vec(v)]))) == 1

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
            old = self._basis - self.field.matmul(self._basis[:, list(pivots)], rows)
            if isinstance(self.field, PrimeField):
                old %= self.field.p
            pivots = self._pivots + pivots
            order = sorted(range(len(pivots)), key=pivots.__getitem__)
            rows, pivots = np.vstack([old, rows])[order], tuple(pivots[i] for i in order)
        self._basis, self._pivots = rows, pivots
        return rank

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
    ker = stacked.kernel_basis()
    for col in ker.transpose().rows():
        a = list(col[: BU.nrows])
        x = DenseMatrix.from_rows(field, [a], BU.nrows) @ BU
        out.add(x.rows()[0])
    return out
