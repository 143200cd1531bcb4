"""Stable-category operators: dual, transpose, linkage, cosyzygy, X(-).

Everything is derived from two constructions: the dual of a map of free
modules (transpose the matrix, negate the twists) and syzygy extraction.
The dual module M* is the kernel of the dualized presentation; the
transpose Tr(M) is its cokernel; horizontal linkage is Syz_1 of the
transpose; cosyzygies dualize syzygies of the dual; and the MCM
approximation of any module is a cosyzygy of a deep syzygy, which is
where the module lands in the stable category.
"""

from __future__ import annotations

import warnings
from typing import Optional, Tuple

from .errors import UsageError
from .homs import Hom, _left_mul, strip_free_summands
from .linalg import DenseMatrix
from .modules import GradedModule, _depth_as, free_module, ring_depth
from .resolution import _is_mcm, ext_module, resolve, syzygy
from .rings import BlockSystem, grid_mul

__all__ = [
    "dual",
    "transpose",
    "link",
    "cosyzygy",
    "syzygy_signed",
    "tau",
    "mcm_approx",
    "stable_part",
    "lift_map",
]


def dual(M: GradedModule, degree_cap: Optional[int] = None, check: bool = True) -> GradedModule:
    """M* = Hom(M, A); defined here for maximal Cohen-Macaulay modules.

    M* is the second syzygy of Tr(M), so its depth is at least min(2, depth A).
    """
    if check and not _is_mcm(M, degree_cap):
        raise UsageError("dual is only exact on maximal Cohen-Macaulay modules")
    out = ext_module(M, 0, degree_cap=degree_cap).minimized()
    out.label = f"D({M.label})" if M.label else "dual"
    d = ring_depth(M.ring)
    return out if d is None else _depth_as(out, min(2, d))


def transpose(M: GradedModule) -> GradedModule:
    """Tr(M): cokernel of the dualized minimal presentation."""
    Mm = M.minimized()
    if Mm.num_rels == 0:
        out = GradedModule(M.ring, [], [], [], label="Tr", check=False)
        return out
    gen_degs = tuple(-b for b in Mm.rel_degs)
    rel_degs = tuple(-a for a in Mm.gen_degs)
    entries = tuple(
        tuple(Mm.presentation[i][j] for i in range(Mm.num_gens))
        for j in range(Mm.num_rels)
    )
    out = GradedModule(M.ring, gen_degs, rel_degs, entries,
                       label=f"Tr({M.label})" if M.label else "Tr", check=False)
    return out.minimized()


def link(M: GradedModule, degree_cap: Optional[int] = None) -> GradedModule:
    """Horizontal linkage: Syz_1 of the transpose, after free summands are stripped."""
    Mm = M.minimized()
    stable, frees = strip_free_summands(Mm)
    if frees:
        warnings.warn("link: free summands stripped from the input")
        Mm = stable
    tr = transpose(Mm)
    if tr.minimized().num_gens == 0:
        return tr.minimized()
    out = syzygy(tr, 1, degree_cap=degree_cap)
    out.label = f"link({M.label})" if M.label else "link"
    return out


def cosyzygy(M: GradedModule, n: int, degree_cap: Optional[int] = None) -> GradedModule:
    """Syz_{-n}(M) for n >= 1, computed as the dual of Syz_n(M*)."""
    if n < 1:
        raise UsageError("cosyzygy index must be >= 1")
    if not _is_mcm(M, degree_cap):
        raise UsageError("cosyzygy requires a maximal Cohen-Macaulay module")
    Md = dual(M, degree_cap=degree_cap, check=False)
    S = syzygy(Md, n, degree_cap=degree_cap)
    S = S.minimized()
    if S.num_gens == 0:
        return S
    out = dual(S, degree_cap=degree_cap, check=False)
    out.label = f"Syz{-n}({M.label})" if M.label else f"Syz{-n}"
    return out


def syzygy_signed(M: GradedModule, n: int, degree_cap: Optional[int] = None) -> GradedModule:
    if n >= 0:
        return syzygy(M, n, degree_cap=degree_cap)
    return cosyzygy(M, -n, degree_cap=degree_cap)


def tau(M: GradedModule, d: Optional[int] = None, degree_cap: Optional[int] = None) -> GradedModule:
    """Auslander-Reiten translate over a Gorenstein ring: Syz_{2-d}."""
    if d is None:
        d = M.ring.krull_dim()
    return syzygy_signed(M, 2 - d, degree_cap=degree_cap)


def stable_part(M: GradedModule) -> Tuple[GradedModule, list]:
    return strip_free_summands(M)


def mcm_approx(M: GradedModule, degree_cap: Optional[int] = None) -> GradedModule:
    """Maximal Cohen-Macaulay approximation X(M), up to free summands.

    Computed in the stable category: push M down to a deep syzygy
    (always MCM) and come back up with cosyzygies.  For a module that is
    already MCM this is the module itself.
    """
    Mm = M.minimized()
    if Mm.num_gens == 0 or _is_mcm(Mm, degree_cap):
        # a copy, with Mm's depth: Mm can be M itself or the minimal form M keeps, and
        # callers relabel the result
        return GradedModule.direct_sum([Mm], label=Mm.label)
    t = max(M.ring.krull_dim(), 1)
    S = syzygy(Mm, t, degree_cap=degree_cap).minimized()
    S, _ = strip_free_summands(S)
    if S.num_gens == 0:
        # finite projective dimension: approximation is free
        return free_module(M.ring, [0], label="X(free)")
    out = cosyzygy(S, t, degree_cap=degree_cap)
    out.label = f"X({M.label})" if M.label else "X"
    return out


def lift_map(h: Hom, degree_cap: Optional[int] = None) -> Hom:
    """The induced map Syz_1(M) -> Syz_1(N) on first syzygies.

    Solves the relation witness Psi with Phi P = Q Psi; Psi is exactly
    the matrix of the lift on the syzygy generators.  Lifts are unique
    up to maps factoring through free modules.
    """
    M, N = h.source, h.target
    ring = M.ring
    resM = resolve(M, 2, degree_cap=degree_cap)
    resN = resolve(N, 2, degree_cap=degree_cap)
    Mm, Nm = resM.minimal, resN.minimal
    if Mm.num_gens != M.num_gens or Nm.num_gens != N.num_gens:
        raise UsageError("lift_map expects minimally presented source and target")
    SM = resM.syzygy_module(1)
    SN = resN.syzygy_module(1)
    # unknown Psi (Nm.num_rels x Mm.num_rels) with Q Psi = Phi P
    grid, row_degs, col_degs = _left_mul(Nm, Mm.rel_degs)
    rhs = ring.join_coords([e for row in grid_mul(ring, h.phi, Mm.presentation) for e in row],
                           [-d for d in row_degs])
    sol = BlockSystem(ring, grid, row_degs, col_degs).at(0).solve(
        DenseMatrix._of_array(ring.field, rhs[:, None]))
    if sol is None:
        raise UsageError("input map does not carry relations into relations")
    entries = ring.split_coords(sol._array().T, [-d for d in col_degs])[0]
    n = Mm.num_rels
    phi = tuple(tuple(entries[l * n:(l + 1) * n]) for l in range(Nm.num_rels))
    return Hom(SM, SN, phi)
