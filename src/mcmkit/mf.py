"""Matrix factorizations of hypersurface equations.

A matrix factorization of f is a pair of square homogeneous matrices
with phi psi = psi phi = f . Id over the ambient polynomial ring.  The
cokernel of phi mod f is a maximal Cohen-Macaulay module over Q/(f),
and the two-periodicity of its resolution is the shift phi <-> psi.

Twists are recovered from the nonzero entries: fixing the first row
degree to 0 propagates along rows and columns; validation then reduces
to exact polynomial matrix products.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .errors import Inconclusive, UsageError
from .modules import GradedModule, _depth_as, _factorization_as, _minimal_as
from .rings import QuotientRing, WeightedPolyRing, grid_mul, poly_key, poly_scale, sequence

__all__ = [
    "MatrixFactorization",
    "mf_shift",
    "mf_transpose",
    "coker_module",
    "from_resolution_tail",
]


def _solve_twists(entries) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Row/column degrees making the matrix homogeneous (row 0 pinned to 0)."""
    n = len(entries)
    # the bipartite constraint graph col_j - row_i = deg(i, j): rows are the nodes
    # 0..n-1 and columns n..2n-1; node -> [(neighbour, its degree minus the node's)]
    edges = [[] for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            e = entries[i][j]
            if not e.is_zero():
                edges[i].append((n + j, e.degree))
                edges[n + j].append((i, -e.degree))
    # one DFS per component, pinned to 0 at its first row; a zero column gets 0
    degs = [None] * (2 * n)
    for start in range(n):
        if degs[start] is not None:
            continue
        degs[start] = 0
        stack = [start]
        while stack:
            node = stack.pop()
            for other, d in edges[node]:
                want = degs[node] + d
                if degs[other] is None:
                    degs[other] = want
                    stack.append(other)
                elif degs[other] != want:
                    raise UsageError("degree-inconsistent matrix factorization entries")
    degs = [0 if d is None else d for d in degs]
    return tuple(degs[:n]), tuple(degs[n:])


class MatrixFactorization:
    """A pair (phi, psi) with phi psi = psi phi = f . Id over k[x_1..x_m]."""

    def __init__(self, ambient: WeightedPolyRing, f, phi, psi, label: str = ""):
        self.poly_ring = ambient.relation_free if isinstance(ambient, WeightedPolyRing) else ambient
        if self.poly_ring.relations:
            raise UsageError("matrix factorizations live over the ambient polynomial ring")
        self.label = label
        self.f = self.poly_ring.element(f)
        if self.f.is_zero() or self.f.degree is None:
            raise UsageError("hypersurface equation must be nonzero and homogeneous")
        phi, psi = ([sequence(row, f"a row of {name}") for row in sequence(grid, name)]
                    for grid, name in ((phi, "phi"), (psi, "psi")))
        n = len(phi)
        if n == 0 or any(len(r) != n for r in phi) or len(psi) != n or any(len(r) != n for r in psi):
            raise UsageError("phi and psi must be square of the same size")
        self.size = n
        self.phi = tuple(tuple(self.poly_ring.element(e) for e in row) for row in phi)
        self.psi = tuple(tuple(self.poly_ring.element(e) for e in row) for row in psi)
        self.row_degs, self.col_degs = _solve_twists(self.phi)
        self._quotient: Optional[QuotientRing] = None

    def __repr__(self):
        tag = self.label or "mf"
        return f"<{tag}: {self.size}x{self.size} of {self.f!r}>"

    def validate(self) -> bool:
        """Both products equal f . Id exactly.

        Only phi psi is formed: over the domain k[x_1..x_m], phi psi = f . Id
        with f nonzero makes psi / f the inverse of phi, so psi phi = f . Id too.
        """
        zero = self.poly_ring.zero()
        return all(e == (self.f if i == j else zero)
                   for i, row in enumerate(grid_mul(self.poly_ring, self.phi, self.psi))
                   for j, e in enumerate(row))

    def is_reduced(self) -> bool:
        """No unit entries in either matrix."""
        for grid in (self.phi, self.psi):
            for row in grid:
                for e in row:
                    if e.is_unit():
                        return False
        return True

    def quotient_ring(self) -> QuotientRing:
        if self._quotient is None:
            self._quotient = self.poly_ring.ambient.quotient([self.f.poly])
        return self._quotient


def mf_shift(mf: MatrixFactorization) -> MatrixFactorization:
    """Swap phi and psi: realizes Syz_1 on cokernels."""
    return MatrixFactorization(
        mf.poly_ring, mf.f.poly,
        [[e for e in row] for row in mf.psi],
        [[e for e in row] for row in mf.phi],
        label=f"shift({mf.label})" if mf.label else "shift",
    )


def mf_transpose(mf: MatrixFactorization) -> MatrixFactorization:
    """Transpose both matrices: realizes the dual on cokernels."""
    n = mf.size
    return MatrixFactorization(
        mf.poly_ring, mf.f.poly,
        [[mf.phi[j][i] for j in range(n)] for i in range(n)],
        [[mf.psi[j][i] for j in range(n)] for i in range(n)],
        label=f"tr({mf.label})" if mf.label else "tr",
    )


def coker_module(mf: MatrixFactorization, ring: Optional[QuotientRing] = None) -> GradedModule:
    """coker(phi) as a graded module over Q/(f); trivial blocks stripped.

    It is maximal Cohen-Macaulay by construction (Eisenbud, Trans. AMS 260,
    1980): its depth is dim Q/(f), one less than the number of variables.
    ``ring``, when given, must be Q/(c f) for a nonzero scalar c.  A reduced
    factorization of A's relation itself (c = 1) stays on the module, and
    ``resolution`` reads M's resolution off it (``GradedModule._factorization``).
    """
    if not mf.validate():
        raise UsageError("matrix factorization does not multiply to f . Id")
    A = ring if ring is not None else mf.quotient_ring()
    # A is S/(c f) for S = mf's polynomial ring and c read off one monomial of f
    f, mono = mf.f.poly, next(iter(mf.f.poly))
    g = A.relations[0] if len(A.relations) == 1 else {}
    scaled = poly_scale(f, g.get(mono, 0) * A.field.inv(f[mono]), A.field)
    if A.ambient != mf.poly_ring.ambient or not g or poly_key(scaled) != poly_key(g):
        raise UsageError("the cokernel of a matrix factorization of f is a module over S/(f)")
    entries = [[A.element(e.poly) for e in row] for row in mf.phi]
    M = GradedModule(A, mf.row_degs, mf.col_degs, entries,
                     label=f"coker({mf.label})" if mf.label else "coker", check=False)
    _depth_as(M, len(A.variables) - 1)
    # a reduced factorization presents its cokernel minimally (Eisenbud, Trans. AMS 260,
    # 1980): phi has no unit entry, and ker phi = im psi lies in m A^n
    if not mf.is_reduced():
        return M.minimized()
    return _minimal_as(M, _factorization_as(M, mf if poly_key(f) == poly_key(g) else None))


def from_resolution_tail(M: GradedModule, H: int = 8,
                         degree_cap: Optional[int] = None) -> Tuple[MatrixFactorization, int]:
    """Extract a matrix factorization from the 2-periodic resolution tail.

    Returns (mf, n), n <= H - 2, from the resolution's periodic-tail record
    (``resolution.FreeResolution.tail``): coker(mf) is isomorphic to Syz_n(M).
    The resolution is extended only until the record exists, so steps beyond the
    one returned are never computed and cannot raise ``DegreeBoundExceeded``.
    """
    from .resolution import resolve

    ring = M.ring
    if len(ring.relations) != 1:
        raise UsageError("resolution-tail extraction needs a hypersurface ring")
    res = resolve(M, 1, degree_cap=degree_cap)
    res.extend(H - 1, until_tail=True)
    tail = res.tail()
    if tail is None or tail[0] > H - 2:
        raise Inconclusive(
            f"resolution did not stabilize to a matrix factorization within {H} steps",
            bound=H, flag="--hom-bound")
    n, phi, psi = tail
    return MatrixFactorization(ring.ambient.relation_free, ring.relations[0],
                               [[e.poly for e in row] for row in phi],
                               [[e.poly for e in row] for row in psi],
                               label=f"tail{n}({M.label})" if M.label else f"tail{n}"), n
