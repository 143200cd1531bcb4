"""Degree-zero Hom spaces, isomorphism testing, Krull-Schmidt splitting.

A degree-0 homomorphism M -> N is a matrix Phi on the free covers that
carries relations into relations: Phi P = Q Psi for some Psi, where P and
Q present M and N.  Two matrices induce the same map iff they differ by
Q Theta.  Both conditions are one ``BlockSystem`` each, evaluated at
degree 0: the unknowns (Phi, Psi) of
Phi P - Q Psi = 0 (the sign of Psi does not change the kernel's Phi
part), and the image of Theta -> Q Theta, the trivial span.  Hom(M, N)
is the Phi part of the kernel modulo the trivial span; everything is a
finite rref.

The endomorphism algebra End(M) is a finite-dimensional k-algebra whose
radical is computed exactly by linear algebra (``EndAlgebra.radical``).
From it come rad(A, B), isomorphism tests by a dimension count, and the
certificate that End(M) is local.  A module whose End(M) is not local is
split by factoring the minimal polynomials of E's basis endomorphisms
(an element whose minimal polynomial has two coprime factors yields an
exact idempotent by CRT).

A free summand needs no idempotent: generators where maps M -> A(-d)
have independent unit entries split off; deleting their rows leaves the rest.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .errors import Inconclusive, UsageError
from .linalg import QQ, DenseMatrix, RowSpace
from .modules import (GradedModule, MElem, _depth_as, _minimal_as, free_module,
                      submodule_presentation)
from .rings import BlockSystem, grid_mul

__all__ = [
    "Hom",
    "HomSpace",
    "hom_space",
    "identity_hom",
    "compose",
    "hom_radical",
    "is_isomorphic",
    "EndAlgebra",
    "end_algebra",
    "Decomposition",
    "decompose",
    "strip_free_summands",
]


class Hom:
    """A degree-0 homomorphism, with its witness on relations."""

    __slots__ = ("source", "target", "phi", "_system")

    def __init__(self, source: GradedModule, target: GradedModule, phi):
        self.source = source
        self.target = target
        self.phi = phi  # target.num_gens x source.num_gens ring-element grid
        self._system = None  # phi as a BlockSystem, compiled by the first apply

    def apply(self, elem: MElem) -> MElem:
        """Image of a module element."""
        M, N = self.source, self.target
        if elem.module is not M:
            raise UsageError("element not in the source module")
        if self._system is None:
            self._system = BlockSystem(M.ring, self.phi, N.gen_degs, M.gen_degs)
        images = self._system.at(elem.degree)._array()
        return N.element(elem.degree, M.ring.field.matmul(images, elem.vec))


class HomSpace:
    """The k-space of degree-0 homomorphisms M -> N.

    Phi lives in the flat layout of ``phi_degs``: entry Phi[k][i] has
    degree M.gen_degs[i] - N.gen_degs[k], and the entries follow one
    another row by row, each as its coordinates over the standard
    monomials.  ``trivial`` is the span of the maps Q Theta, and
    ``space`` holds the Phi parts of the kernel of Phi P - Q Psi reduced
    modulo it: its canonical basis is ``basis``.  ``beta_dim``/
    ``beta_space`` give the subspace of maps factoring through a free
    module, the Phi with Phi P = 0.  Coordinates of arbitrary maps are
    read off after reduction modulo the trivial span.
    """

    def __init__(self, source: GradedModule, target: GradedModule):
        self.source = source
        self.target = target
        ring = source.ring
        if ring.key != target.ring.key:
            raise UsageError("hom space across different rings")
        self.ring = ring
        self.field = ring.field
        M, N = source, target
        # minus the degree of each Phi[k][i]: its block system row degree at d = 0
        self.phi_degs = _pair_degs(N.gen_degs, M.gen_degs)
        self._entry_degs = [-d for d in self.phi_degs]
        self.phi_dim = sum(ring.hilbert_function(d) for d in self._entry_degs)
        self._solve()

    # -- system assembly ------------------------------------------------

    def _solve(self):
        M, N, ring = self.source, self.target, self.ring
        system = BlockSystem(ring, *_right_mul(M, N.gen_degs)).at(0).hstack(
            BlockSystem(ring, *_left_mul(N, M.rel_degs)).at(0))
        ker = system.kernel_basis()  # columns (Phi, Psi)
        self.trivial = RowSpace(self.field, self.phi_dim)
        self.trivial.add_matrix(BlockSystem(ring, *_left_mul(N, M.gen_degs)).at(0).transpose())
        # canonical basis of Hom = kernel projections reduced mod trivial
        self.space = RowSpace(self.field, self.phi_dim)
        self.space.add_matrix(self.trivial.reduce_rows(
            ker.transpose().take_columns(range(self.phi_dim))))
        self._basis_homs: Optional[List[Hom]] = None
        # beta subspace: maps with a representative satisfying Phi P = 0
        self._beta: Optional[RowSpace] = None

    @property
    def dim(self) -> int:
        return self.space.dim

    # -- classes and representatives ------------------------------------

    def coords(self, flat):
        red = self.trivial.reduce(flat)
        piv = self.space.pivots()
        c = [red[p] for p in piv]
        if self.space.reduce(red).any():
            raise UsageError("vector is not a homomorphism class in this space")
        return c

    def from_flat(self, flat) -> Hom:
        flat = self.trivial.reduce(flat)
        entries = self.ring.split_coords(flat, self._entry_degs)
        n = self.source.num_gens
        phi = tuple(tuple(entries[k * n:(k + 1) * n]) for k in range(self.target.num_gens))
        return Hom(self.source, self.target, phi)

    def flat_of_phi(self, phi):
        return self.ring.join_coords([e for row in phi for e in row], self._entry_degs)

    def _reduced(self, phis) -> DenseMatrix:
        """The grids' flat vectors stacked and reduced modulo ``trivial`` in one product."""
        flats = [self.flat_of_phi(phi) for phi in phis]
        stacked = np.vstack(flats) if flats else self.field.zeros((0, self.phi_dim))
        return self.trivial.reduce_rows(DenseMatrix._of_array(self.field, stacked))

    def span(self, phis) -> RowSpace:
        """The span of the classes of the maps with these phi grids.

        The reduced flat vectors are added in one elimination: the same
        echelon rows as adding each reduced vector on its own.
        """
        out = RowSpace(self.field, self.phi_dim)
        out.add_matrix(self._reduced(phis))
        return out

    def coords_rows(self, phis) -> np.ndarray:
        """Coordinates of the classes of homomorphisms (phi grids), one row each.

        A reduced class lies in ``space``, whose echelon rows are fully
        reduced, so its coordinates are its entries on the pivot columns.
        """
        return self._reduced(phis)._array()[:, list(self.space.pivots())]

    def basis(self) -> List[Hom]:
        if self._basis_homs is None:
            self._basis_homs = [self.from_flat(row) for row in self.space.basis_matrix().rows()]
        return self._basis_homs

    def element_from_coords(self, coeffs) -> Hom:
        row = DenseMatrix.from_rows(self.field, [list(coeffs)], self.dim)
        return self.from_flat((row @ self.space.basis_matrix())._array()[0])

    def zero(self) -> Hom:
        return self.from_flat([self.field.element(0)] * self.phi_dim)

    # -- beta subspace ----------------------------------------------------

    def beta_space(self) -> RowSpace:
        """Span of classes of maps factoring through a free module."""
        if self._beta is None:
            M, N = self.source, self.target
            ker = BlockSystem(self.ring, *_right_mul(M, N.gen_degs)).at(0).kernel_basis()
            self._beta = RowSpace(self.field, self.phi_dim)
            self._beta.add_matrix(self.trivial.reduce_rows(ker.transpose()))
        return self._beta

    def beta_dim(self) -> int:
        return self.beta_space().dim

    def stable_dim(self) -> int:
        return self.dim - self.beta_dim()


def _pair_degs(xs, ys) -> List[int]:
    return [x - y for x in xs for y in ys]


def _left_mul(N: GradedModule, degs):
    """X -> Q X for the presentation Q of N, as ``BlockSystem`` input at degree 0.

    X has one column per entry of degs: X[l][j] has degree
    degs[j] - N.rel_degs[l] and (Q X)[k][j] has degree degs[j] - N.gen_degs[k].
    Both grids are flattened row by row.  Returns (grid, row_degs, col_degs).
    """
    zero = N.ring.zero()
    n = range(len(degs))
    grid = [[q if jj == j else zero for q in row for jj in n] for row in N.presentation for j in n]
    return grid, _pair_degs(N.gen_degs, degs), _pair_degs(N.rel_degs, degs)


def _right_mul(M: GradedModule, degs):
    """X -> X P for the presentation P of M, as ``BlockSystem`` input at degree 0.

    X has one row per entry of degs: X[k][i] has degree M.gen_degs[i] - degs[k]
    and (X P)[k][j] has degree M.rel_degs[j] - degs[k].  Both grids are
    flattened row by row.  Returns (grid, row_degs, col_degs).
    """
    zero = M.ring.zero()
    n = range(len(degs))
    grid = [[P_i[j] if kk == k else zero for kk in n for P_i in M.presentation]
            for k in n for j in range(M.num_rels)]
    return grid, _pair_degs(degs, M.rel_degs), _pair_degs(degs, M.gen_degs)


def hom_space(M: GradedModule, N: GradedModule) -> HomSpace:
    """Hom(M, N), solved once per value of N and kept on M."""
    hs = M._hom_cache.get(N.key)
    if hs is None:
        hs = M._hom_cache[N.key] = HomSpace(M, N)
    return hs


def identity_hom(M: GradedModule) -> Hom:
    one, zero, n = M.ring.one(), M.ring.zero(), range(M.num_gens)
    return Hom(M, M, tuple(tuple(one if i == k else zero for i in n) for k in n))


def compose(g: Hom, f: Hom) -> Hom:
    """g after f."""
    if g.source is not f.target and g.source.gen_degs != f.target.gen_degs:
        raise UsageError("composition mismatch")
    M, ring = f.source, f.source.ring
    if not f.phi:  # through a module without generators: no row of f.phi gives the width
        return Hom(M, g.target, tuple((ring.zero(),) * M.num_gens for _ in g.phi))
    return Hom(M, g.target, grid_mul(ring, g.phi, f.phi))


# ---------------------------------------------------------------------------
# endomorphism algebras and the radical
# ---------------------------------------------------------------------------

class EndAlgebra:
    """End(M) as an abstract k-algebra with a multiplication table.

    ``table[i, j]`` holds the coordinates of basis_i o basis_j: an
    n x n x n array of the field's dtype.
    """

    def __init__(self, M: GradedModule):
        self.module = M
        self.hs = hom_space(M, M)
        self.field = self.hs.field
        self.dim = n = self.hs.dim
        basis = self.hs.basis()
        self.table = self.hs.coords_rows(
            [compose(hi, hj).phi for hi in basis for hj in basis]).reshape(n, n, n)
        self.one = self.hs.coords(self.hs.flat_of_phi(identity_hom(M).phi))

    def _left(self, x) -> np.ndarray:
        """Row j holds the coordinates of x basis_j: the transposed matrix of y -> x y."""
        field, n = self.field, self.dim
        return field.matmul(field.vector(x)[None], self.table.reshape(n, n * n)).reshape(n, n)

    def mul(self, x, y):
        field = self.field
        return list(field.matmul(field.vector(y)[None], self._left(x))[0])

    def power(self, x, n: int):
        out = list(self.one)
        base = list(x)
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def scale_add(self, a, x, y):
        """a*x + y"""
        field = self.field
        a = field.element(a)
        return [field.element(a * xi + yi) for xi, yi in zip(x, y)]

    def zero(self):
        return [self.field.element(0)] * self.dim

    def min_poly(self, x) -> List:
        """Monic minimal polynomial coefficients, low degree first."""
        space = RowSpace(self.field, self.dim)
        powers = [list(self.one)]
        space.add(self.one)
        cur = list(self.one)
        while True:
            cur = self.mul(cur, x)
            if not space.add(cur):
                break
            powers.append(list(cur))
        # cur = sum of previous powers: solve
        mat = DenseMatrix.from_rows(self.field, powers, self.dim).transpose()
        rhs = DenseMatrix.column(self.field, cur)
        sol = mat.solve(rhs)
        coeffs = [self.field.element(-sol[i, 0]) for i in range(len(powers))]
        coeffs.append(self.field.element(1))
        return coeffs  # x^n - sum c_i x^i ; stored low-first

    def evaluate_poly(self, coeffs, x):
        """Evaluate a polynomial (low-first coefficients) at x."""
        out = self.zero()
        for c in reversed(coeffs):
            out = self.mul(out, x)
            out = self.scale_add(c, self.one, out)
        return out

    def is_unit(self, x) -> bool:
        """x is a unit iff y -> x y is invertible (its matrix is ``_left(x)`` transposed)."""
        return DenseMatrix._of_array(self.field, self._left(x)).rank() == self.dim

    @cached_property
    def radical(self) -> RowSpace:
        """rad E in the coordinates of E's basis, exact over GF(p) and QQ.

        Ronyai's filtration on the left regular representation L (Ronyai,
        "Computing the structure of finite algebras", J. Symbolic Comput.
        1990; Cohen, Ivanyos and Wales, J. Pure Appl. Algebra 1997): with
        I_{-1} = E and, for i = 0 .. floor(log_p n),

            I_i = {x in I_{i-1} : g_i(x b) = 0 for every basis element b},
            g_i(a) = (Tr(L~(a)^(p^i)) mod p^(i+1)) / p^i,

        where L~(a) lifts L(a) to integers, the last I_i is rad E.  g_i is
        linear on I_{i-1}, so each step is one kernel.  Level 0 is the trace
        form Tr L(x b), read from tau_l = sum_j table[l, j, j]; when p > n,
        and over QQ (characteristic 0), it is the only level.
        """
        field, n, p = self.field, self.dim, self.field.characteristic
        # tau is a sum of n entries: reduce it, since field.matmul assumes factors in [0, p)
        tau = field.reduce(np.trace(self.table, axis1=1, axis2=2))
        form = field.matmul(self.table.reshape(n * n, n), tau[:, None]).reshape(n, n)
        ideal = field.vector(np.eye(n, dtype=np.int64))  # rows: a basis of I_{i-1}
        level = 0
        while True:
            kernel, _ = DenseMatrix._of_array(field, form.T).kernel_rows()
            ideal = field.matmul(kernel._array(), ideal)
            level += 1
            if not len(ideal) or p == 0 or p ** level > n:
                break
            form = np.array([self._power_traces(x, level) for x in ideal])
        out = RowSpace(field, n)
        out.add_matrix(DenseMatrix._of_array(field, ideal))
        return out

    def _power_traces(self, x, i: int) -> np.ndarray:
        """g_i(x b_j) for every basis element b_j, over GF(p) with p^i <= n."""
        p = self.field.p
        q = p ** (i + 1)
        # the integer lifts of L(x b_j) = L(x) L(b_j), where L(b_l) = table[l].T
        lifts = (self._left(x).T @ self.table.transpose(0, 2, 1)) % p
        power = lifts
        for _ in range(i):  # the p^i-th power as i successive p-th powers
            base = power
            for _ in range(p - 1):
                power = power @ base % q
        return np.trace(power, axis1=1, axis2=2) % q // p ** i


def end_algebra(M: GradedModule) -> EndAlgebra:
    """End(M), built once and kept on M."""
    if M._end is None:
        M._end = EndAlgebra(M)
    return M._end


def splitting_idempotent(E: EndAlgebra, x) -> Optional[list]:
    """A nontrivial idempotent in k[x], or None when k[x] is local."""
    if E.field == QQ:
        raise Inconclusive("decomposition over QQ not supported")
    from sympy import Poly, symbols

    p = E.field.p
    mp = Poly([int(c) % p for c in reversed(E.min_poly(x))], symbols("t"), modulus=p)
    _, factors = mp.factor_list()
    if len(factors) < 2:
        return None
    q_power = factors[0][0] ** factors[0][1]
    rest = mp.exquo(q_power)
    _, v, g = q_power.gcdex(rest)
    assert g.is_one
    # e = v * rest mod mp: congruent to 1 mod q^mult, 0 mod rest
    e_poly = (v * rest).rem(mp)
    e = E.evaluate_poly([int(c) % p for c in reversed(e_poly.all_coeffs())], x)
    check = E.mul(e, e)
    assert check == e, "CRT idempotent failed to square to itself"
    if all(c == 0 for c in e) or e == E.one:
        return None
    return e


def local_certificate(E: EndAlgebra):
    """Decide whether E is local, from its exact radical.

    E = k is local, with residue degree 1, over any field.  Otherwise,
    over GF(p), E is local iff E/rad is a field: commutative, with
    ker(Frobenius - id) of dimension 1 (Berlekamp).  Returns (True, rad,
    residue degree dim E - dim rad) when it is, (False, rad, None) when
    it is not, and (None, None, None) over QQ.
    """
    if E.dim == 1:
        return True, E.radical, 1
    if E.field == QQ:
        return None, None, None
    field, n, R = E.field, E.dim, E.radical
    commutators = field.reduce(E.table - E.table.transpose(1, 0, 2)).reshape(n * n, n)
    if not R.reduce_rows(DenseMatrix._of_array(field, commutators)).is_zero():
        return False, R, None
    # coordinates on E/R: the columns off R's pivots
    pivots = set(R.pivots())
    free_cols = [c for c in range(n) if c not in pivots]
    frob_rows = []
    for c in free_cols:
        e = E.zero()
        e[c] = 1
        frob_rows.append(R.reduce(E.power(e, field.p))[free_cols])
    frob = DenseMatrix.from_rows(field, frob_rows, len(free_cols)).transpose()
    frob = frob - DenseMatrix.identity(field, len(free_cols))
    if len(free_cols) - frob.rank() != 1:
        return False, R, None
    return True, R, len(free_cols)


# ---------------------------------------------------------------------------
# the radical of Hom and isomorphism testing
# ---------------------------------------------------------------------------

def hom_radical(A: GradedModule, B: GradedModule) -> RowSpace:
    """rad(A, B) in the coordinates of Hom(A, B)'s basis.

    The maps f with g f in rad End(A) for every g: B -> A: one kernel of
    the coordinates of g_j f_i modulo rad End(A), stacked over the basis
    maps g_j of Hom(B, A).
    """
    hs, back = hom_space(A, B), hom_space(B, A)
    field, out = hs.field, RowSpace(hs.field, hs.dim)
    if not (hs.dim and back.dim):  # no composite g f to test
        out.add_matrix(DenseMatrix.identity(field, hs.dim))
        return out
    E = end_algebra(A)
    composites = E.hs.coords_rows([compose(g, f).phi for f in hs.basis() for g in back.basis()])
    residues = E.radical.reduce_rows(DenseMatrix._of_array(field, composites))._array()
    kernel, _ = DenseMatrix._of_array(field, residues.reshape(hs.dim, -1).T).kernel_rows()
    out.add_matrix(kernel)
    return out


def is_isomorphic(M: GradedModule, N: GradedModule) -> bool:
    """Graded isomorphism test up to a degree shift, exact.

    After the cheap rejections (degrees, Hilbert window), Krull-Schmidt
    decides: for A = (+) X_i^a_i and B = (+) X_i^b_i with s_i = dim
    End(X_i)/rad, Hom(A, B)/rad(A, B) has dimension sum s_i a_i b_i and
    End(A)/rad has sum s_i a_i^2.  Since 2 a_i b_i <= a_i^2 + b_i^2, the
    two sides below agree exactly when a = b.
    """
    if M.ring.key != N.ring.key:
        raise UsageError("isomorphism test across different rings")
    A = M.minimized()
    B = N.minimized()
    if A.num_gens == 0 or B.num_gens == 0:
        return A.num_gens == B.num_gens
    A, _ = A.normalized()
    B, _ = B.normalized()
    if sorted(A.gen_degs) != sorted(B.gen_degs):
        return False
    if sorted(A.rel_degs) != sorted(B.rel_degs):
        return False
    window = max(list(A.rel_degs) + list(A.gen_degs)) + 2 * A.ring.max_weight + 2
    for d in range(A.min_gen_degree(), window + 1):
        if A.hilbert_function(d) != B.hilbert_function(d):
            return False
    dim = hom_space(A, B).dim
    if dim == 0 or dim != hom_space(B, A).dim:  # A = B makes both dim End(A)
        return False
    top = dim - hom_radical(A, B).dim
    return 2 * top == sum(E.dim - E.radical.dim for E in map(end_algebra, (A, B)))


# ---------------------------------------------------------------------------
# Krull-Schmidt decomposition
# ---------------------------------------------------------------------------

class Decomposition:
    """Result of a Krull-Schmidt split."""

    def __init__(self, summands: List[Tuple[GradedModule, int]], certified: bool,
                 residue_degrees: List[int]):
        self.summands = summands
        self.certified = certified
        self.residue_degrees = residue_degrees

    @property
    def total(self) -> int:
        return sum(m for _, m in self.summands)

    def __repr__(self):
        items = ", ".join(f"{mod!r}^{mult}" for mod, mult in self.summands)
        flag = "" if self.certified else " (inconclusive)"
        return f"Decomposition[{items}]{flag}"


def _image_module(M: GradedModule, h: Hom, label: str) -> GradedModule:
    gens = [h.apply(g) for g in M.generators()]
    N, _ = submodule_presentation(M, gens, label=label)
    return N


def decompose(M: GradedModule) -> Decomposition:
    """Split into indecomposables with multiplicities (Krull-Schmidt).

    A local End(M), decided by its exact radical, certifies M
    indecomposable.  Otherwise E's basis elements are tried for an exact
    CRT idempotent; if none splits, M comes back whole and uncertified.
    """
    Mm = M.minimized()
    if Mm.num_gens == 0:
        return Decomposition([], True, [])
    E = end_algebra(Mm)
    ok, _, s = local_certificate(E)
    if ok:
        return Decomposition([(Mm, 1)], True, [s])
    for j in range(E.dim):
        x = E.zero()
        x[j] = 1
        idem = splitting_idempotent(E, x)
        if idem is not None:
            break
    else:
        return Decomposition([(Mm, 1)], False, [0])
    e_hom = E.hs.element_from_coords(idem)
    one_minus = E.hs.element_from_coords(E.scale_add(-1, idem, E.one))
    part1 = _image_module(Mm, e_hom, f"{Mm.label}.1" if Mm.label else "part1")
    part2 = _image_module(Mm, one_minus, f"{Mm.label}.2" if Mm.label else "part2")
    d1 = decompose(part1)
    d2 = decompose(part2)
    merged: List[Tuple[GradedModule, int]] = []
    residue: List[int] = []
    for dec in (d1, d2):
        for (mod, mult), rdeg in zip(dec.summands, dec.residue_degrees):
            for idx, (m0, c0) in enumerate(merged):
                if is_isomorphic(m0, mod):
                    merged[idx] = (m0, c0 + mult)
                    break
            else:
                merged.append((mod, mult))
                residue.append(rdeg)
    # verification: the direct sum of the parts is the module we started with
    rebuilt = GradedModule.direct_sum(
        [mod for mod, mult in merged for _ in range(mult)])
    certified = d1.certified and d2.certified and is_isomorphic(rebuilt, Mm)
    return Decomposition(merged, certified, residue)


# ---------------------------------------------------------------------------
# free summands
# ---------------------------------------------------------------------------

def strip_free_summands(M: GradedModule):
    """Split off free summands; returns (stable_part, free_degrees).

    Let the constant entries of a basis of Hom(M, A(-d)) at M's degree-d
    generators have rank r and pivot generators I.  Then r of the maps send
    the generators I onto A(-d)^r isomorphically, so they span a free
    summand: M = A(-d)^r (+) coker(P without rows I) for M = coker P,
    minimal as P is and at least as deep as M.  Splitting leaves the
    constant entries at every other degree as they were (each correction
    term has a factor of negative degree): one Hom space per degree.
    """
    Mm = M.minimized()
    free = set()
    for d in sorted(set(Mm.gen_degs)):
        gens = [i for i, a in enumerate(Mm.gen_degs) if a == d]
        consts = [[f.phi[0][i].constant_coefficient() for i in gens]
                  for f in hom_space(Mm, free_module(Mm.ring, [d])).basis()]
        pivots = DenseMatrix.from_rows(Mm.ring.field, consts, len(gens)).rref()[1]
        free.update(gens[p] for p in pivots)
    if not free:
        return Mm, []
    keep = [i for i in range(len(Mm.gen_degs)) if i not in free]
    rest = GradedModule(Mm.ring, [Mm.gen_degs[i] for i in keep], Mm.rel_degs,
                        [Mm.presentation[i] for i in keep], label=Mm.label, check=False)
    return _minimal_as(_depth_as(rest, Mm._depth), rest), sorted(Mm.gen_degs[i] for i in free)
