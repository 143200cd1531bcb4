"""Degree-zero Hom spaces, isomorphism testing, Krull-Schmidt splitting.

A degree-0 homomorphism M -> N is a matrix Phi on the free covers that
carries relations into relations: Phi P = Q Psi for some Psi, where P and
Q present M and N.  Two matrices induce the same map iff they differ by
Q Theta.  Both conditions are one block system each, built by
``QuotientRing.block_matrix`` at degree 0: the unknowns (Phi, Psi) of
Phi P - Q Psi = 0 (the sign of Psi does not change the kernel's Phi
part), and the image of Theta -> Q Theta, the trivial span.  Hom(M, N)
is the Phi part of the kernel modulo the trivial span; everything is a
finite rref.

The endomorphism algebra End(M) is a finite-dimensional k-algebra.
Splitting M is done by factoring minimal polynomials of endomorphisms
(an element whose minimal polynomial has two coprime factors yields an
exact idempotent by CRT); indecomposability is certified by exhibiting
the radical and checking that End/rad is a finite field.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import Inconclusive, UsageError
from .linalg import QQ, DenseMatrix, RowSpace
from .modules import GradedModule, MElem, submodule_presentation
from .rings import BlockSystem, RingElement, grid_mul

__all__ = [
    "Hom",
    "HomSpace",
    "hom_space",
    "identity_hom",
    "compose",
    "is_isomorphic",
    "EndAlgebra",
    "end_algebra",
    "Decomposition",
    "decompose",
    "strip_free_summands",
]


class Hom:
    """A degree-0 homomorphism, with its witness on relations."""

    __slots__ = ("source", "target", "phi", "flat", "_system")

    def __init__(self, source: GradedModule, target: GradedModule, phi, flat=None):
        self.source = source
        self.target = target
        self.phi = phi  # target.num_gens x source.num_gens ring-element grid
        self.flat = flat  # flattened coordinates in the Phi layout (optional)
        self._system = None  # phi as a BlockSystem, compiled by the first apply

    def entry(self, k: int, i: int) -> RingElement:
        return self.phi[k][i]

    def constant_blocks(self) -> Dict[int, DenseMatrix]:
        """Per-degree scalar blocks of the induced map M/mM -> N/mN."""
        field = self.source.ring.field
        degs = sorted(set(self.source.gen_degs) | set(self.target.gen_degs))
        out = {}
        for d in degs:
            rows_idx = [k for k, a in enumerate(self.target.gen_degs) if a == d]
            cols_idx = [i for i, a in enumerate(self.source.gen_degs) if a == d]
            mat = [[self.phi[k][i].constant_coefficient() for i in cols_idx] for k in rows_idx]
            out[d] = DenseMatrix.from_rows(field, mat, len(cols_idx)) if rows_idx else \
                DenseMatrix.zeros(field, 0, len(cols_idx))
        return out

    def is_cover_unit(self) -> bool:
        """True iff the induced map on minimal covers is invertible (Nakayama)."""
        if sorted(self.source.gen_degs) != sorted(self.target.gen_degs):
            return False
        for d, block in self.constant_blocks().items():
            if block.nrows != block.ncols:
                return False
            if block.nrows and block.rank() != block.nrows:
                return False
        return True

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
        # minus the degree of each Phi[k][i]: its block_matrix row degree at d = 0
        self.phi_degs = _pair_degs(N.gen_degs, M.gen_degs)
        self._entry_degs = [-d for d in self.phi_degs]
        self.phi_dim = sum(ring.hilbert_function(d) for d in self._entry_degs)
        self._solve()

    # -- system assembly ------------------------------------------------

    def _solve(self):
        M, N, ring = self.source, self.target, self.ring
        system = ring.block_matrix(*_right_mul(M, N.gen_degs), 0).hstack(
            ring.block_matrix(*_left_mul(N, M.rel_degs), 0))
        ker = system.kernel_basis()  # columns (Phi, Psi)
        self.trivial = RowSpace(self.field, self.phi_dim)
        self.trivial.add_matrix(ring.block_matrix(*_left_mul(N, M.gen_degs), 0).transpose())
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
        return Hom(self.source, self.target, phi, flat=flat)

    def flat_of_phi(self, phi):
        return self.ring.join_coords([e for row in phi for e in row], self._entry_degs)

    def span(self, phis) -> RowSpace:
        """The span of the classes of the maps with these phi grids.

        The grids' flat vectors are stacked, reduced modulo ``trivial`` in
        one product and added in one elimination: the same echelon rows as
        adding each reduced vector on its own.
        """
        out = RowSpace(self.field, self.phi_dim)
        flats = [self.flat_of_phi(phi) for phi in phis]
        if flats:
            stacked = DenseMatrix._of_array(self.field, np.vstack(flats))
            out.add_matrix(self.trivial.reduce_rows(stacked))
        return out

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
            ker = self.ring.block_matrix(*_right_mul(M, N.gen_degs), 0).kernel_basis()
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
    """X -> Q X for the presentation Q of N, as ``block_matrix`` input at degree 0.

    X has one column per entry of degs: X[l][j] has degree
    degs[j] - N.rel_degs[l] and (Q X)[k][j] has degree degs[j] - N.gen_degs[k].
    Both grids are flattened row by row.  Returns (grid, row_degs, col_degs).
    """
    zero = N.ring.zero()
    n = range(len(degs))
    grid = [[q if jj == j else zero for q in row for jj in n] for row in N.presentation for j in n]
    return grid, _pair_degs(N.gen_degs, degs), _pair_degs(N.rel_degs, degs)


def _right_mul(M: GradedModule, degs):
    """X -> X P for the presentation P of M, as ``block_matrix`` input at degree 0.

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
    cache = getattr(M, "_hom_cache", None)
    if cache is None:
        cache = {}
        M._hom_cache = cache
    got = cache.get(id(N))
    if got is not None and got[0] is N:
        return got[1]
    hs = HomSpace(M, N)
    cache[id(N)] = (N, hs)
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
# isomorphism testing
# ---------------------------------------------------------------------------

EXHAUSTIVE_BUDGET = 1 << 20
# random draws per unit search, per splitting attempt and per local-certificate power
_UNIT_TRIES, _SPLIT_TRIES, _LOCAL_SAMPLES = 64, 24, 160
_FREE_ROUNDS = 64  # the most free summands split off one module


def _unit_search(hs: HomSpace, rng: random.Random):
    """Find a hom with invertible cover map; None if search fails.

    Returns (hom, certified_absent): certified_absent=True means an
    exhaustive search proved there is no such hom.
    """
    if sorted(hs.source.gen_degs) != sorted(hs.target.gen_degs):
        return None, True
    m = hs.dim
    if m == 0:
        return None, True
    basis = hs.basis()
    for h in basis:
        if h.is_cover_unit():
            return h, False
    field = hs.field
    lo, hi = (-3, 4) if field == QQ else (0, field.p)
    for _ in range(_UNIT_TRIES):
        coeffs = [rng.randrange(lo, hi) for _ in range(m)]
        if any(coeffs) and (h := hs.element_from_coords(coeffs)).is_cover_unit():
            return h, False
    if field == QQ:
        raise Inconclusive("unit search over QQ is randomized only")
    # exhaustive fallback over scalar combinations
    if hi ** m > EXHAUSTIVE_BUDGET:
        raise Inconclusive(f"unit search budget exhausted (hom dim {m}, p={hi})")
    for coeffs in itertools.product(range(hi), repeat=m):
        if any(coeffs) and (h := hs.element_from_coords(coeffs)).is_cover_unit():
            return h, False
    return None, True


def is_isomorphic(M: GradedModule, N: GradedModule, seed: int = 0,
                  up_to_shift: bool = True) -> bool:
    """Graded isomorphism test (by default up to a degree shift).

    Searches Hom(M, N) and Hom(N, M) for maps invertible on minimal
    covers; two surjections in opposite directions force bijectivity.
    """
    if M.ring.key != N.ring.key:
        raise UsageError("isomorphism test across different rings")
    A = M.minimized()
    B = N.minimized()
    if A.num_gens == 0 or B.num_gens == 0:
        return A.num_gens == B.num_gens
    if up_to_shift:
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
    rng = random.Random(seed)
    f, absent = _unit_search(hom_space(A, B), rng)
    if f is None:
        return False
    g, absent = _unit_search(hom_space(B, A), rng)
    return g is not None


# ---------------------------------------------------------------------------
# endomorphism algebras
# ---------------------------------------------------------------------------

class EndAlgebra:
    """End(M) as an abstract k-algebra with a multiplication table."""

    def __init__(self, M: GradedModule):
        self.module = M
        self.hs = hom_space(M, M)
        self.field = self.hs.field
        self.dim = self.hs.dim
        basis = self.hs.basis()
        self.table = []  # table[i][j] = coords of basis_i o basis_j
        for hi in basis:
            row = []
            for hj in basis:
                comp = compose(hi, hj)
                row.append(self.hs.coords(self.hs.flat_of_phi(comp.phi)))
            self.table.append(row)
        self.one = self.hs.coords(self.hs.flat_of_phi(identity_hom(M).phi))

    def mul(self, x, y):
        field = self.field
        out = [field.element(0)] * self.dim
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                c = field.element(xi * yj)
                tij = self.table[i][j]
                for l in range(self.dim):
                    out[l] = out[l] + c * tij[l]
        return [field.element(v) for v in out]

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

    def is_nilpotent(self, x) -> bool:
        mp = self.min_poly(x)
        return all(c == 0 for c in mp[:-1])

    def left_mult_matrix(self, x) -> DenseMatrix:
        cols = []
        for j in range(self.dim):
            e = self.zero()
            e[j] = self.field.element(1)
            cols.append(self.mul(x, e))
        return DenseMatrix.from_rows(self.field, cols, self.dim).transpose()

    def is_unit(self, x) -> bool:
        return self.left_mult_matrix(x).rank() == self.dim


def end_algebra(M: GradedModule) -> EndAlgebra:
    return EndAlgebra(M)


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


def local_certificate(E: EndAlgebra, rng: random.Random):
    """Certify that E is local.

    Returns (True, rad_basis_rowspace, residue_degree) on success or
    (None, None, None) when no certificate was found within budget.
    """
    if E.field == QQ:
        return None, None, None
    p = E.field.p
    n = E.dim
    if n == 1:
        return True, RowSpace(E.field, 1), 1
    basis_elems = []
    for j in range(n):
        e = E.zero()
        e[j] = 1
        basis_elems.append(e)
    for s in (1, 2, 3, 4):
        if s > n:
            break
        R = RowSpace(E.field, n)
        pool = list(basis_elems)
        for _ in range(_LOCAL_SAMPLES):
            pool.append([rng.randrange(p) for _ in range(n)])
        for g in pool:
            h = _poly_sub_vec(E.power(g, p ** s), g, p)
            if any(h) and E.is_nilpotent(h):
                R.add(h)
        # ideal closure; every member must stay nilpotent in a local algebra
        bad = False
        changed = True
        while changed and not bad:
            changed = False
            for row in R.basis_matrix().rows():
                r = [int(v) for v in row]
                for b in basis_elems:
                    for prod in (E.mul(r, b), E.mul(b, r)):
                        if not any(prod):
                            continue
                        if not E.is_nilpotent(prod):
                            bad = True
                            break
                        if R.add(prod):
                            changed = True
                    if bad:
                        break
                if bad:
                    break
        if bad or R.dim != n - s:
            continue
        if _verify_local(E, R, s):
            return True, R, s
    return None, None, None


def _poly_sub_vec(a, b, p):
    return [(x - y) % p for x, y in zip(a, b)]


def _verify_local(E: EndAlgebra, R: RowSpace, s: int) -> bool:
    """Check: R is a nilpotent ideal and E/R = GF(p^s)."""
    p = E.field.p
    n = E.dim
    rad_rows = [list(map(int, r)) for r in R.basis_matrix().rows()]
    basis_elems = []
    for j in range(n):
        e = E.zero()
        e[j] = 1
        basis_elems.append(e)
    # ideal
    for r in rad_rows:
        for b in basis_elems:
            if not R.contains(E.mul(r, b)) or not R.contains(E.mul(b, r)):
                return False
    # nilpotent: iterate span of products
    cur = [list(r) for r in rad_rows]
    for _ in range(n + 1):
        if not cur:
            break
        nxt = RowSpace(E.field, n)
        for x in cur:
            for r in rad_rows:
                prod = E.mul(x, r)
                if any(prod):
                    nxt.add(prod)
        cur = [list(map(int, r)) for r in nxt.basis_matrix().rows()]
    if cur:
        return False
    # E/R: commutative, x^(p^s) = x, exactly one Berlekamp component
    quots = []
    for b in basis_elems:
        red = R.reduce(b)
        if any(red):
            quots.append(b)
    for x in quots:
        for y in quots:
            comm = _poly_sub_vec(E.mul(x, y), E.mul(y, x), p)
            if not R.contains(comm):
                return False
    for x in quots:
        if not R.contains(_poly_sub_vec(E.power(x, p ** s), x, p)):
            return False
    # Berlekamp component count on E/R: dim ker(Frob - id) must be 1
    # coordinates on E/R: complement of R's pivots
    piv = set(R.pivots())
    free_cols = [c for c in range(n) if c not in piv]
    frob_rows = []
    for c in free_cols:
        e = E.zero()
        e[c] = 1
        img = R.reduce(E.power(e, p))
        frob_rows.append([int(img[cc]) for cc in free_cols])
    mat = DenseMatrix.from_rows(E.field, frob_rows, len(free_cols)).transpose()
    mat = mat - DenseMatrix.identity(E.field, len(free_cols))
    return len(free_cols) - mat.rank() == 1


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


def decompose(M: GradedModule, seed: int = 0, _depth: int = 0) -> Decomposition:
    """Split into indecomposables with multiplicities (Krull-Schmidt).

    Splitting uses exact CRT idempotents from factored minimal
    polynomials of (pseudo)random endomorphisms; indecomposability is
    certified through the radical of End(M).
    """
    Mm = M.minimized()
    if Mm.num_gens == 0:
        return Decomposition([], True, [])
    rng = random.Random(seed + 7 * _depth)
    E = end_algebra(Mm)
    if E.dim == 1:
        return Decomposition([(Mm, 1)], True, [1])
    # try to split
    idem = None
    candidates = []
    for j in range(E.dim):
        e = E.zero()
        e[j] = 1
        candidates.append(e)
    if E.field != QQ:
        p = E.field.p
        for _ in range(_SPLIT_TRIES):
            candidates.append([rng.randrange(p) for _ in range(E.dim)])
    for x in candidates:
        if not any(x):
            continue
        idem = splitting_idempotent(E, x)
        if idem is not None:
            break
    if idem is None:
        ok, rad, s = local_certificate(E, rng)
        if ok:
            return Decomposition([(Mm, 1)], True, [s])
        return Decomposition([(Mm, 1)], False, [0])
    e_hom = E.hs.element_from_coords(idem)
    # splitting_idempotent raises over QQ, so the field here is GF(p)
    one_minus = E.hs.element_from_coords(_poly_sub_vec(E.one, idem, E.field.p))
    part1 = _image_module(Mm, e_hom, f"{Mm.label}.1" if Mm.label else "part1")
    part2 = _image_module(Mm, one_minus, f"{Mm.label}.2" if Mm.label else "part2")
    d1 = decompose(part1, seed=seed, _depth=_depth + 1)
    d2 = decompose(part2, seed=seed, _depth=_depth + 1)
    merged: List[Tuple[GradedModule, int]] = []
    residue: List[int] = []
    for dec in (d1, d2):
        for (mod, mult), rdeg in zip(dec.summands, dec.residue_degrees):
            for idx, (m0, c0) in enumerate(merged):
                if is_isomorphic(m0, mod, seed=seed):
                    merged[idx] = (m0, c0 + mult)
                    break
            else:
                merged.append((mod, mult))
                residue.append(rdeg)
    # verification: the direct sum of the parts is the module we started with
    rebuilt = GradedModule.direct_sum(
        [mod for mod, mult in merged for _ in range(mult)])
    certified = d1.certified and d2.certified and is_isomorphic(rebuilt, Mm, seed=seed)
    return Decomposition(merged, certified, residue)


# ---------------------------------------------------------------------------
# free summands
# ---------------------------------------------------------------------------

def strip_free_summands(M: GradedModule):
    """Split off free summands; returns (stable_part, free_degrees).

    A free summand A(-d) exists iff the composition pairing
    Hom(M, A(-d)) x Hom(A(-d), M) -> End(A(-d)) = k is nonzero.
    """
    from .modules import free_module

    cur = M.minimized()
    free_degrees: List[int] = []
    for _ in range(_FREE_ROUNDS):
        if cur.num_gens == 0:
            break
        found = False
        for d in sorted(set(cur.gen_degs)):
            F = free_module(cur.ring, [d], label="A")
            down = hom_space(cur, F)
            up = hom_space(F, cur)
            if down.dim == 0 or up.dim == 0:
                continue
            pair = None
            for f in down.basis():
                for g in up.basis():
                    c = compose(f, g).phi[0][0].constant_coefficient()
                    if c != 0:
                        pair = (f, g, c)
                        break
                if pair:
                    break
            if pair is None:
                continue
            f, g, c = pair
            # e = g o (f/c) is idempotent with image the free summand
            f_scaled = Hom(cur, F, tuple(
                tuple(x.scale(cur.ring.field.inv(c)) for x in row) for row in f.phi))
            e = compose(g, f_scaled)
            one_minus = _one_minus_hom(e)
            rest = _image_module(cur, one_minus, cur.label)
            free_degrees.append(d)
            cur = rest.minimized()
            found = True
            break
        if not found:
            break
    return cur, sorted(free_degrees)


def _one_minus_hom(e: Hom) -> Hom:
    M = e.source
    ring = M.ring
    one = ring.one()
    zero = ring.zero()
    phi = []
    for k in range(M.num_gens):
        row = []
        for i in range(M.num_gens):
            ident = one if i == k else zero
            val = ident - e.phi[k][i] if not e.phi[k][i].is_zero() else ident
            row.append(val)
        phi.append(row)
    return Hom(M, M, tuple(tuple(r) for r in phi))
