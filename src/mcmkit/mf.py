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

from typing import Optional, Sequence, Tuple

from .errors import Inconclusive, UsageError
from .linalg import DenseMatrix
from .modules import GradedModule
from .rings import BlockSystem, QuotientRing, RingElement, WeightedPolyRing, grid_mul

__all__ = [
    "MatrixFactorization",
    "mf_shift",
    "mf_transpose",
    "coker_module",
    "from_resolution_tail",
]


def _solve_twists(ambient: QuotientRing, entries) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Row/column degrees making the matrix homogeneous (row 0 pinned to 0)."""
    n = len(entries)
    # the bipartite constraint graph col_j - row_i = deg(i, j): rows are the nodes
    # 0..n-1 and columns n..2n-1; node -> [(neighbour, its degree minus the node's)]
    edges = [[] for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            e = entries[i][j]
            if not e.is_zero():
                d = ambient.ambient.poly_degree(e.poly)
                edges[i].append((n + j, d))
                edges[n + j].append((i, -d))
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
        n = len(phi)
        if n == 0 or any(len(r) != n for r in phi) or len(psi) != n or any(len(r) != n for r in psi):
            raise UsageError("phi and psi must be square of the same size")
        self.size = n
        self.phi = tuple(tuple(self.poly_ring.element(e) for e in row) for row in phi)
        self.psi = tuple(tuple(self.poly_ring.element(e) for e in row) for row in psi)
        self.row_degs, self.col_degs = _solve_twists(self.poly_ring, self.phi)
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
    """coker(phi) as a graded module over Q/(f); trivial blocks stripped."""
    if not mf.validate():
        raise UsageError("matrix factorization does not multiply to f . Id")
    A = ring if ring is not None else mf.quotient_ring()
    entries = [[A.element(e.poly) for e in row] for row in mf.phi]
    M = GradedModule(A, mf.row_degs, mf.col_degs, entries,
                     label=f"coker({mf.label})" if mf.label else "coker", check=False)
    return M.minimized()


def from_resolution_tail(M: GradedModule, H: int = 8,
                         degree_cap: Optional[int] = None) -> Tuple[MatrixFactorization, int]:
    """Extract a matrix factorization from the 2-periodic resolution tail.

    Returns (mf, n) with coker(mf) isomorphic to Syz_n(M).  The lift of
    the differential to the polynomial ring is the normal form itself;
    the companion matrix is solved from phi psi = f . Id, which succeeds
    exactly once the resolution has stabilized.  The resolution is
    extended only as far as the differentials inspected, so steps beyond
    the one returned are never computed and cannot raise
    ``DegreeBoundExceeded``.
    """
    from .resolution import resolve

    ring = M.ring
    if len(ring.relations) != 1:
        raise UsageError("resolution-tail extraction needs a hypersurface ring")
    fpoly = ring.relations[0]
    poly_ring = ring.ambient.relation_free
    f = poly_ring.element(fpoly)
    res = resolve(M, 1, degree_cap=degree_cap)
    for n in range(H - 1):
        step = res.differential(n + 1)
        bn, bn1 = len(step.row_degs), len(step.col_degs)
        if bn == 0 or bn != bn1:
            continue
        phi = [[poly_ring.element(step.entries[i][j].poly)
                for j in range(bn1)] for i in range(bn)]
        psi = _solve_companion(poly_ring, f, phi, step.row_degs, step.col_degs)
        if psi is None:
            continue
        mf = MatrixFactorization(poly_ring, f.poly,
                                 [[e.poly for e in row] for row in phi],
                                 [[e.poly for e in row] for row in psi],
                                 label=f"tail{n}({M.label})" if M.label else f"tail{n}")
        if mf.validate():
            return mf, n
    raise Inconclusive(
        f"resolution did not stabilize to a matrix factorization within {H} steps",
        bound=H, flag="--hom-bound")


def _solve_companion(poly_ring: QuotientRing, f: RingElement, phi,
                     row_degs: Sequence[int], col_degs: Sequence[int]):
    """Solve phi psi = f . Id for psi over the polynomial ring, one column at a time,
    with phi compiled once and f's coordinates in row block j as column j's right side."""
    n = len(phi)
    system = BlockSystem(poly_ring, phi, row_degs, col_degs)
    zero = poly_ring.zero()
    columns = []
    for j in range(n):
        # psi[k][j] has degree d - col_degs[k], and (phi psi)[i][j] degree d - row_degs[i]
        d = f.degree + row_degs[j]
        rhs = poly_ring.join_coords([f if i == j else zero for i in range(n)],
                                    [d - r for r in row_degs])
        sol = system.at(d).solve(DenseMatrix._of_array(poly_ring.field, rhs[:, None]))
        if sol is None:
            return None
        columns.append(poly_ring.split_coords(sol._array()[:, 0], [d - c for c in col_degs]))
    return [[col[k] for col in columns] for k in range(n)]
