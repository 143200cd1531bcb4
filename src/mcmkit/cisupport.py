"""Cohomology operators over complete intersections and support windows.

For A = Q/(u_1..u_c) the differentials of a minimal A-free resolution
lift entrywise to Q (the normal form is already a polynomial), and the
square of the lifted differential decomposes as sum u_j t_j.  The t_j
are solved exactly, one entry degree at a time; reduced against k they
become degree-2 operators on Ext*(M, k) whose pieces are k^(beta_n).
The operators commute exactly on Ext because the resolution is minimal.

On a resolution read off Tate's complex G = A<e; T_k for f_k in F_in>
(``resolution``), with u the ring's relations f in order, they are known:
t_k = c_k^-1 d/dT_k sends e_I T^(b) to c_k^-1 e_I T^(b - 1_k), c_k the
lex-first coefficient of f_k, and t_k = 0 for f_k in F_out.  Over Q the
lifted d~ is an odd derivation of Q<e; T>, so d~^2 is a derivation.  It
kills every e_j and sends T_k to f~_k = sum_j a~_kj g_j, which is c_k^-1 f_k
modulo I m (a~_kj is a normal form of c_k^-1 a_kj; g_j lies in m).  So
d~^2 = sum_k f~_k d/dT_k, and the constant parts of the t_j are unique, as
the Koszul relations of the u_j have entries in m.

The support variety is probed through a window: the degree-D forms of
k[t_1..t_c] (``ExtTModule.forms``) that kill every piece Ext^n, n <= H - 2D,
make an ideal up to the chosen t-degree.  Its generators in degree D are those
forms reduced modulo the degree-D piece of the ideal generated below D.  The
variety dimension is read from Betti growth (finite generation over the
operator ring makes the growth eventually polynomial).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import UsageError
from .linalg import DenseMatrix, RowSpace
from .modules import GradedModule
from .resolution import growth_report, resolve
from .rings import BlockSystem, QuotientRing, RingElement, WeightedPolyRing, grid_mul

__all__ = [
    "CIPresentation",
    "ExtTModule",
    "eisenbud_operators",
    "SupportVarietyReport",
    "support_annihilator_window",
]


@dataclass
class CIPresentation:
    ambient: WeightedPolyRing
    regular_sequence: Tuple
    quotient: QuotientRing

    @classmethod
    def from_ring(cls, ring: QuotientRing) -> "CIPresentation":
        if not ring.relations:
            raise UsageError("a complete intersection presentation needs c >= 1 relations")
        if not ring.is_complete_intersection():
            raise UsageError("relations fail the degreewise regular-sequence criterion")
        return cls(ring.ambient, tuple(ring.relations), ring)

    @property
    def codimension(self) -> int:
        return len(self.regular_sequence)


class ExtTModule:
    """Ext*(M, k) with its degree-2 operator action.

    pieces: dim Ext^n = beta_n for a minimal resolution.  operators[j][n]
    is the matrix Ext^n -> Ext^(n+2) of the j-th operator.
    """

    def __init__(self, ci: CIPresentation, module: GradedModule, H: int,
                 betti: List[int], operators: List[Dict[int, DenseMatrix]]):
        self.ci = ci
        self.module = module
        self.H = H
        self.betti = betti
        self.operators = operators

    @property
    def codimension(self) -> int:
        return self.ci.codimension

    @cached_property
    def forms(self) -> WeightedPolyRing:
        """k[t_1..t_c], the ring the operators generate, over the module's field."""
        return WeightedPolyRing(self.module.ring.characteristic,
                                [f"t{j + 1}" for j in range(self.codimension)])

    def operator(self, j: int, n: int) -> DenseMatrix:
        return self.operators[j][n]

    def commute_exactly(self) -> bool:
        """t_i t_j = t_j t_i on every window piece."""
        c = self.codimension
        for i in range(c):
            for j in range(i + 1, c):
                for n in range(0, self.H - 3):
                    a = self.operators[i][n + 2] @ self.operators[j][n]
                    b = self.operators[j][n + 2] @ self.operators[i][n]
                    if a != b:
                        return False
        return True

    def monomial_operator(self, alpha: Tuple[int, ...], n: int) -> DenseMatrix:
        """The operator t^alpha acting from Ext^n."""
        mat = DenseMatrix.identity(self.module.ring.field, self.betti[n])
        pos = n
        for j, e in enumerate(alpha):
            for _ in range(e):
                mat = self.operators[j][pos] @ mat
                pos += 2
        return mat


def eisenbud_operators(ci: CIPresentation, M: GradedModule, H: int,
                       degree_cap: Optional[int] = None) -> ExtTModule:
    """Lift the resolution to the ambient ring and split off the operators.

    The decomposition d~^2 = sum u_j t_j is solved degreewise; failure of
    the solve means the presentation was not a regular sequence.  On Tate's
    complex, with u the ring's relations in order, they are read off instead.
    """
    A = ci.quotient
    if M.ring.key != A.key:
        raise UsageError("module does not live over the quotient of the presentation")
    Q = ci.ambient.relation_free
    us = [Q.element(u) for u in ci.regular_sequence]
    c = len(us)
    res = resolve(M, H + 2, degree_cap=degree_cap)
    betti = res.betti_numbers(H + 2)
    # the closed form indexes Tate's bases by position: M's own, or for M = Syz_1(k) k's one
    # position on, as m's F_0 is k's G_1 in order and its steps are k's
    base, on = (res._k, 1) if res._k else (res, 0)
    tate = list(ci.regular_sequence) == list(A.relations) and all(
        s.route == "tate" for s in res.steps[1:H + 2]) and base._tate
    operators: List[Dict[int, DenseMatrix]] = [dict() for _ in range(c)]
    field = Q.field
    u_degs = [u.degree for u in us]
    u_system = BlockSystem(Q, [us], [0], u_degs)  # (t_j) -> sum_j u_j t_j

    def lift(entries):
        return [[RingElement(Q, e.poly, e.degree) for e in row] for row in entries]

    for pos in range(2, H + 3):
        t_arrays = [field.zeros((betti[pos], betti[pos - 2])) for _ in range(c)]
        if tate:  # t_k = c_k^-1 d/dT_k on Tate's bases of G_pos and G_{pos-2}
            index = {(I, b): r for r, (_, I, b) in enumerate(base._tate_basis(pos - 2 + on))}
            for s, (_, I, b) in enumerate(base._tate_basis(pos + on)):
                for k, (l, inv, _, _) in enumerate(base._tate[2]):
                    if b[k]:
                        t_arrays[l][s, index[I, b[:k] + (b[k] - 1,) + b[k + 1:]]] = inv
        else:
            # D2 = lift(d_{pos-1}) . lift(d_pos): F_pos -> F_{pos-2}
            D2 = grid_mul(Q, lift(res.differential(pos - 1).entries),
                          lift(res.differential(pos).entries))
            # scalar parts of the operators at this position: one solve per entry degree D,
            # with every nonzero entry of D2 in that degree a right-hand column
            by_degree: Dict[int, list] = {}
            for r, row in enumerate(D2):
                for s, acc in enumerate(row):
                    if not acc.is_zero():
                        by_degree.setdefault(acc.degree, []).append((s, r, acc))
            for D, found in by_degree.items():
                rhs = np.stack([Q.join_coords([acc], [D]) for _, _, acc in found], axis=1)
                sol = u_system.at(D).solve(DenseMatrix._of_array(field, rhs))
                if sol is None:  # also where no t_j has degree D - deg u_j >= 0
                    raise UsageError(
                        "square of lifted differential is not in (u): "
                        "not a regular sequence presentation")
                # t_j's constant part is its one coordinate in degree D - deg u_j = 0; it is
                # unique, since the Koszul relations of the u_j have entries in m
                offsets, (cols, rows, _) = Q.block_offsets([D - e for e in u_degs]), zip(*found)
                for j in (j for j, e in enumerate(u_degs) if e == D):
                    t_arrays[j][list(cols), list(rows)] = sol._array()[offsets[j]]
        for j in range(c):
            operators[j][pos - 2] = DenseMatrix._of_array(field, t_arrays[j])
    return ExtTModule(ci, M, H, betti, operators)


@dataclass
class SupportVarietyReport:
    label: str
    codimension: int
    tdeg_max: int
    H: int
    ann_window: Dict[int, List[str]]           # degree -> generator strings
    dim_estimate: int = -1
    cx_from_variety: int = 0
    is_point: Optional[bool] = None
    confident: bool = True

    def as_dict(self):
        flat = [g for d in sorted(self.ann_window) for g in self.ann_window[d]]
        return {
            "module": self.label,
            "c": self.codimension,
            "tdeg_max": self.tdeg_max,
            "H": self.H,
            "ann_window": flat,
            "ann_window_by_degree": {str(d): list(v) for d, v in self.ann_window.items()},
            "dim": self.dim_estimate,
            "cx": self.cx_from_variety,
            "is_point": self.is_point,
            "confidence": "stable" if self.confident else "low",
        }


def _ann_space(ext: ExtTModule, D: int) -> RowSpace:
    """Coefficient vectors, over ``ext.forms.monomials(D)``, of the degree-D forms
    annihilating the window: the kernel of one equation per window entry."""
    monos = ext.forms.monomials(D)
    field = ext.module.ring.field
    # column alpha: the entries of t^alpha from every piece Ext^n, n <= H - 2D
    eqs = np.stack([np.concatenate([ext.monomial_operator(alpha, n)._array().ravel()
                                    for n in range(ext.H - 2 * D + 1)]) for alpha in monos], 1)
    space = RowSpace(field, len(monos))
    space.add_matrix(DenseMatrix._of_array(field, eqs).kernel_rows()[0])
    return space


def support_annihilator_window(ext: ExtTModule, tdeg_max: int = 2) -> SupportVarietyReport:
    """Annihilator forms up to a t-degree bound, plus the dimension read.

    The window is an ideal of k[t_1..t_c] (``ext.forms``).  Its generators in
    degree D are its degree-D forms reduced modulo the degree-D piece of the
    ideal generated below D.  The variety dimension comes from the Betti
    growth fit and is cross-checked as cx = dim + 1.
    """
    if tdeg_max < 1:
        raise UsageError(f"--tdeg-max must be >= 1, got {tdeg_max}")
    if 2 * tdeg_max > ext.H:
        raise UsageError("homological window too short for the requested t-degree")
    forms, c = ext.forms, ext.codimension
    lower: List[dict] = []  # the generators found so far, as polynomials
    window: Dict[int, List[str]] = {}
    for D in range(1, tdeg_max + 1):
        monos = forms.monomials(D)
        known = RowSpace(forms.field, len(monos))
        known.add_matrix(forms.quotient(lower).piece(D).rel_space.basis_matrix())
        gens = []
        for row in _ann_space(ext, D).basis_matrix().rows():
            red = known.reduce(row)
            if known.add(red):
                gens.append({mono: x for mono, x in zip(monos, red.tolist()) if x})
        lower += gens
        window[D] = [forms.poly_to_str(g) for g in gens]
    rep = growth_report(ext.module, H=ext.H)
    cx = rep.cx_estimate
    is_point = None
    if c == 2:
        has_linear = bool(window.get(1))
        is_point = has_linear and cx <= 1
    return SupportVarietyReport(
        label=ext.module.label or "module",
        codimension=c,
        tdeg_max=tdeg_max,
        H=ext.H,
        ann_window=window,
        dim_estimate=max(cx - 1, -1),
        cx_from_variety=cx,
        is_point=is_point,
        confident=rep.cx_confident,
    )
