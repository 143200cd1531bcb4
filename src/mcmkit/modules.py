"""Finitely presented graded modules and their degreewise linear algebra.

A module is a cokernel presentation: generators with degrees, relations
with degrees, and a homogeneous matrix over the ring whose entry (i, j)
has degree rel_degs[j] - gen_degs[i].  The degree-d piece of the module
is the quotient of the degree-d piece of the free cover by the span of
the relation columns, computed once and cached.

A list of module elements is a grid of ring elements, column j holding
element j's coordinates over the generators, as in a presentation; its
image in a degree is a ``BlockSystem`` evaluation, and membership is
decided in the quotient coordinates of that degree's piece.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DegreeBoundExceeded, UsageError
from .linalg import DenseMatrix, RowSpace
from .rings import (BlockSystem, QuotientRing, RingElement, fit_hilbert_samuel, integers,
                    poly_key, sequence, zero_run_top)

__all__ = [
    "GradedModule",
    "ModuleInvariants",
    "free_module",
    "residue_field_module",
    "maximal_ideal_module",
    "submodule_presentation",
    "invariants",
]


class _ModulePiece:
    """Degree-d data of a module: free-cover size and relation span."""

    __slots__ = ("degree", "total", "rel_space", "std")

    def __init__(self, degree, total, rel_space, std):
        self.degree = degree
        self.total = total
        self.rel_space = rel_space
        self.std = std

    @property
    def dim(self) -> int:
        return len(self.std)

    def coords(self, vec):
        """Quotient coordinates of a vector on the free cover."""
        return self.rel_space.reduce(vec)[list(self.std)]


class GradedModule:
    """Finitely presented graded module over a QuotientRing."""

    def __init__(self, ring: QuotientRing, gen_degs: Sequence[int], rel_degs: Sequence[int],
                 presentation, label: str = "", check: bool = True):
        self.ring = ring
        self.gen_degs = integers(gen_degs, "generator degrees")
        self.rel_degs = integers(rel_degs, "relation degrees")
        self.label = label
        g, r = len(self.gen_degs), len(self.rel_degs)
        presentation = [sequence(row, "a presentation row")
                        for row in sequence(presentation, "the presentation")]
        if len(presentation) != g or any(len(row) != r for row in presentation):
            raise UsageError(f"presentation must have {g} rows of {r} entries")
        rows: List[List[RingElement]] = []
        for i in range(g):
            row = []
            for j in range(r):
                entry = presentation[i][j]
                if not isinstance(entry, RingElement):
                    entry = ring.element(entry, degree=None)
                row.append(entry)
            rows.append(row)
        self.presentation = tuple(tuple(row) for row in rows)
        if check:
            self._validate()
        self._pieces: Dict[int, _ModulePiece] = {}
        self._hom_cache: Dict[tuple, "HomSpace"] = {}  # homs.hom_space: target key -> HomSpace
        self._resolution: Optional["FreeResolution"] = None  # resolution.resolve's window
        self._end: Optional["EndAlgebra"] = None  # homs.end_algebra
        self._minimal: Optional["GradedModule"] = None  # minimized(), written by _minimal_as
        self._depth: Optional[int] = None  # a depth known by construction, written by _depth_as
        self._factorization: Optional["MatrixFactorization"] = None  # written by _factorization_as
        self._syzygy_of_k: Optional["FreeResolution"] = None  # written by _syzygy_of_k_as

    def _validate(self):
        for i, a in enumerate(self.gen_degs):
            for j, b in enumerate(self.rel_degs):
                e = self.presentation[i][j]
                if e.ring.key != self.ring.key:
                    raise UsageError("presentation entry from a different ring")
                if not e.is_zero():
                    d = self.ring.ambient.poly_degree(e.poly)
                    if d != b - a:
                        raise UsageError(
                            f"entry ({i},{j}) has degree {d}, expected {b - a}"
                        )

    # -- bookkeeping ----------------------------------------------------

    @property
    def num_gens(self) -> int:
        return len(self.gen_degs)

    @property
    def num_rels(self) -> int:
        return len(self.rel_degs)

    def min_gen_degree(self) -> int:
        return min(self.gen_degs) if self.gen_degs else 0

    def max_gen_degree(self) -> int:
        return max(self.gen_degs) if self.gen_degs else 0

    def __repr__(self):
        tag = self.label or "module"
        return f"<{tag}: gens{list(self.gen_degs)} rels{list(self.rel_degs)}>"

    @cached_property
    def key(self) -> tuple:
        """The module as a value: ring, degrees and entries' ``poly_key``s, not the label."""
        return (self.ring.key, self.gen_degs, self.rel_degs,
                tuple(tuple(poly_key(e.poly) for e in row) for row in self.presentation))

    # -- degreewise pieces ------------------------------------------------

    @cached_property
    def system(self) -> BlockSystem:
        """The presentation as a map of free modules, compiled on first use."""
        return BlockSystem(self.ring, self.presentation, self.gen_degs, self.rel_degs)

    def piece(self, d: int) -> _ModulePiece:
        got = self._pieces.get(d)
        if got is not None:
            return got
        total = sum(self.ring.hilbert_function(d - a) for a in self.gen_degs)
        space = RowSpace(self.ring.field, total)
        # the relation columns' images in the free cover, one row each
        space.add_matrix(self.system.at(d).transpose())
        pivots = set(space.pivots())
        std = tuple(c for c in range(total) if c not in pivots)
        piece = _ModulePiece(d, total, space, std)
        self._pieces[d] = piece
        return piece

    def hilbert_function(self, d: int) -> int:
        return self.piece(d).dim

    def hilbert_window(self, lo: int, hi: int) -> Dict[int, int]:
        return {d: self.hilbert_function(d) for d in range(lo, hi + 1)}

    # -- constructions ---------------------------------------------------------

    def degree_shift(self, s: int) -> "GradedModule":
        """The same module with all degrees raised by s."""
        if s == 0:
            return self
        out = GradedModule(
            self.ring,
            [a + s for a in self.gen_degs],
            [b + s for b in self.rel_degs],
            self.presentation,
            label=f"{self.label}<{s}>" if self.label else "",
            check=False,
        )
        _depth_as(out, self._depth)
        _factorization_as(out, self._factorization)
        return _minimal_as(out, out) if self._minimal is self else out

    def normalized(self) -> Tuple["GradedModule", int]:
        """Shift so the minimum generator degree is 0; returns (module, shift)."""
        if not self.gen_degs:
            return self, 0
        s = -self.min_gen_degree()
        return self.degree_shift(s), s

    @staticmethod
    def direct_sum(parts: Sequence["GradedModule"], label: str = "") -> "GradedModule":
        parts = [p for p in parts]
        if not parts:
            raise UsageError("direct sum of nothing; build a zero module explicitly")
        ring = parts[0].ring
        if any(p.ring.key != ring.key for p in parts):
            raise UsageError("direct sum over mixed rings")
        gen_degs: List[int] = []
        rel_degs: List[int] = []
        for p in parts:
            gen_degs.extend(p.gen_degs)
            rel_degs.extend(p.rel_degs)
        zero = ring.zero()
        rows = []
        for pi, p in enumerate(parts):
            for i in range(p.num_gens):
                row: List[RingElement] = []
                for qi, q in enumerate(parts):
                    if qi == pi:
                        row.extend(p.presentation[i])
                    else:
                        row.extend([zero] * q.num_rels)
                rows.append(row)
        # depth(M (+) N) = min(depth M, depth N), so the least known depth is one
        depths = [p._depth for p in parts]
        return _depth_as(GradedModule(ring, gen_degs, rel_degs, rows, label=label, check=False),
                         None if None in depths else min(depths))

    def minimized(self) -> "GradedModule":
        """Minimal presentation: no unit entries, no redundant relations.

        After the unit entries are eliminated, ``minimal_columns`` tries each
        degree's relations from the last one back: a relation is dropped
        exactly when it lies in the submodule generated by the relations of
        lower degree and the later relations of its own degree.  The kept
        relations stay in their order.
        """
        # computed once: a minimal presentation is its own minimal form, and so is its shift
        if self._minimal is not None:
            return self._minimal
        gen_degs = list(self.gen_degs)
        rel_degs = list(self.rel_degs)
        P: List[List[RingElement]] = [list(row) for row in self.presentation]

        # kill unit entries (generator i is defined by relation j)
        while True:
            unit_pos = next(((i, j) for i in range(len(gen_degs)) for j in range(len(rel_degs))
                             if gen_degs[i] == rel_degs[j] and not P[i][j].is_zero()), None)
            if unit_pos is None:
                break
            i, j = unit_pos
            u = P[i][j].constant_coefficient()
            uinv = self.ring.field.inv(u)
            for l in range(len(rel_degs)):
                if l == j or P[i][l].is_zero():
                    continue
                factor = P[i][l].scale(uinv)
                for r in range(len(gen_degs)):
                    P[r][l] = P[r][l] - P[r][j] * factor
            del gen_degs[i]
            del rel_degs[j]
            P = [[row[l] for l in range(len(row)) if l != j]
                 for r, row in enumerate(P) if r != i]

        system = BlockSystem(self.ring, P, gen_degs, rel_degs)
        keep = sorted(minimal_columns(system, range(len(rel_degs) - 1, -1, -1)))
        return _minimal_as(self, GradedModule(self.ring, gen_degs, [rel_degs[j] for j in keep],
                                              [[row[j] for j in keep] for row in P],
                                              label=self.label, check=False))


def _minimal_as(M: GradedModule, N: GradedModule) -> GradedModule:
    # the one writer of ``_minimal``: N, a minimal presentation of M's module, is
    # the minimal form of M and of itself, and has the depth M is known to have
    M._minimal = N._minimal = N
    _depth_as(N, M._depth)
    return N


def _depth_as(M: GradedModule, depth: Optional[int]) -> GradedModule:
    # the one writer of ``_depth``: a lower bound on depth(M) that holds by
    # construction (None when none is known); constructors and copies call it
    M._depth = depth
    return M


def _factorization_as(M: GradedModule, mf: Optional["MatrixFactorization"]) -> GradedModule:
    # the one writer of ``_factorization``: a reduced factorization (phi, psi) with M's
    # presentation phi over S/(f), which ``resolution.FreeResolution.extend`` reads
    # (None when M is not presented so); ``mf.coker_module`` sets it, shifts carry it
    M._factorization = mf
    return M


def _syzygy_of_k_as(M: GradedModule, k: "FreeResolution") -> GradedModule:
    # the one writer of ``_syzygy_of_k``: M is Syz_1 of k's resolution k, presented by its
    # d_2, so M's resolution is k's one step on (``resolution.FreeResolution``);
    # ``maximal_ideal_module`` sets it, and shifts and copies do not carry it
    M._syzygy_of_k = k
    return M


def ring_depth(ring: QuotientRing) -> Optional[int]:
    """depth A = dim A = d when the ring's ``artinian_reduction`` certifies A
    Cohen-Macaulay of dimension d; None otherwise."""
    reduction = ring.artinian_reduction
    return None if reduction is None else reduction[0]


def is_mcm_by_construction(M: GradedModule) -> bool:
    """Whether M's known depth reaches depth A, so M is maximal Cohen-Macaulay without a test."""
    return M._depth is not None and M._depth == ring_depth(M.ring)


def minimal_columns(system: BlockSystem, order: Sequence[int], to_target=None) -> List[int]:
    """The columns of ``system`` that minimally generate the submodule they all generate.

    Candidate j is column j, of degree ``system.col_degs[j]``; the distinct
    degrees are walked upward.  In degree d one evaluation of the kept
    columns followed by the degree-d candidates, in ``order``, holds every
    monomial multiple of the kept generators, then one column per candidate
    (A_0 = k).  ``to_target(d, matrix)``, when given, maps it into the
    coordinates membership is decided in.  A candidate is kept exactly when
    its column is a pivot of one ``rref``: when it is not in the span of
    those multiples and of the candidates before it in ``order``.  Returns
    the kept columns by degree, each degree's in ``order``.
    """
    kept: List[int] = []
    for d in sorted({system.col_degs[j] for j in order}):
        candidates = [j for j in order if system.col_degs[j] == d]
        matrix = system.columns(kept + candidates).at(d)
        if to_target is not None:
            matrix = to_target(d, matrix)
        first = matrix.ncols - len(candidates)
        kept += [candidates[p - first] for p in matrix.rref()[1] if p >= first]
    return kept


def free_module(ring: QuotientRing, gen_degs: Sequence[int], label: str = "") -> GradedModule:
    """A free module, of depth d over a ring whose ``artinian_reduction`` certifies depth A = d."""
    gen_degs = integers(gen_degs, "generator degrees")
    F = GradedModule(ring, gen_degs, [], [[] for _ in gen_degs], label=label or "free", check=False)
    return _depth_as(F, ring_depth(ring))


def residue_field_module(ring: QuotientRing) -> GradedModule:
    """k = A/m as a graded module (generator in degree 0), of depth 0.  When every relation
    lies in m^2 (no monomial of total exponent 1), the variables are a basis of m/m^2, so
    they generate m minimally (graded Nakayama) and k is its own minimal form."""
    k = _depth_as(GradedModule(ring, [0], list(ring.weights), [list(ring.gens())], label="k",
                               check=False), 0)
    return _minimal_as(k, k) if all(sum(mu) > 1 for f in ring.relations for mu in f) else k


def maximal_ideal_module(ring: QuotientRing) -> GradedModule:
    """The maximal ideal m = Syz_1(k), the cokernel of d_2 of k's resolution, certified
    (``resolution.FreeResolution.stop``): generators k's F_1 (the variables in the ring's
    order when every relation lies in m^2), relations k's F_2 in that order.  m keeps k's
    resolution (``_syzygy_of_k``), and has depth min(1, depth A), from 0 -> m -> A -> k -> 0.
    """
    from .resolution import resolve

    k, depth = resolve(residue_field_module(ring), 2), ring_depth(ring)
    d2 = k.steps[1]
    m = GradedModule(ring, d2.row_degs, d2.col_degs, d2.entries, label="m", check=False)
    _depth_as(m, None if depth is None else min(1, depth))
    return _minimal_as(m, _syzygy_of_k_as(m, k))


def default_stall(ring: QuotientRing) -> int:
    """Degrees a kernel scan runs past its last new generator before it stops."""
    rd = max(ring.relation_degrees) if ring.relation_degrees else 2
    return max(rd, 2 * ring.max_weight) + 1


def top_degree_bound(M: GradedModule) -> Optional[int]:
    """An upper bound T on the top nonzero degree of M, or None when neither rule gives one.

    (1) M is generated in degrees <= max_gen, so past max_gen each M_d is the
    sum of x M_{d-w} over the variables x of weight w: if M vanishes in the
    max_weight degrees after max_gen, it vanishes in every later degree, and
    T = max_gen.  (2) If every variable x_i has a one-term power c x_i^{a_i}
    among the ring's relations, or among M's relations when M has one
    generator, every monomial of degree above sum (a_i - 1) w_i kills each
    generator, and T = max_gen + that sum.  Rule (2) reads relations only;
    rule (1) computes M's pieces up to the first nonzero one, so it costs
    an MCM module one piece.  No Hilbert function is scanned further.
    """
    ring, top = M.ring, M.max_gen_degree()
    polys = list(ring.relations)
    if M.num_gens == 1:
        polys += [e.poly for e in M.presentation[0]]
    powers: Dict[int, int] = {}  # variable -> least a of a one-term relation c x^a
    for poly in polys:
        support = [(i, a) for mono in poly for i, a in enumerate(mono) if a]
        if len(poly) == 1 and len(support) == 1:
            i, a = support[0]
            powers[i] = min(a, powers.get(i, a))
    bound = None
    if len(powers) == len(ring.weights):
        bound = top + sum((a - 1) * ring.weights[i] for i, a in powers.items())
    if bound != top and not any(M.hilbert_function(d)
                                for d in range(top + 1, top + ring.max_weight + 1)):
        bound = top
    return bound


def capture_kernel(ring: QuotientRing, col_degs: Sequence[int], matrix_at, degree_cap: int,
                   stall: Optional[int] = None, stop: Optional[int] = None):
    """Minimal generators of the kernel of a map out of F = (+)_j A(-col_degs[j]).

    ``matrix_at(d)`` is the map in degree d, as a ``BlockSystem``'s ``at``
    gives it: its columns are F_d laid out block by block.  Degrees are
    scanned upward from min(col_degs): a kernel vector outside the span of
    the generators found so far is a new generator.  With a ``stop`` the
    scan ends at that degree: the caller certifies that no generator lies
    above it (``resolution.FreeResolution.stop``).  Without one it is
    windowed: it stops once ``stall`` degrees pass without a new
    generator, and no earlier than max(col_degs) + stall.  Either way it
    raises ``DegreeBoundExceeded`` past ``degree_cap``.

    Every kernel vector outside the span is taken, so once degree e is
    scanned the generators found span all of K_e = ker matrix_at(e); in
    degree d the generators of lower degree span the sum of x K_{d-w}
    over the variables x of weight w.  One ``kernel_rows`` of
    ``matrix_at(d)`` gives a basis of K_d that is the identity on the
    free (non-pivot) columns, so a vector of K_d has its entries there as
    coordinates.  The images x K_{d-w} are formed block by block: block j
    of a row of K_{d-w} times the cached ``ring.mult_matrix`` of x from
    degree d-w-col_degs[j] (its key built once per capture), cut to the
    free columns inside block j, so no matrix of the whole free module is
    built.  They are eliminated once with their columns reversed, so each
    pivot is the last nonzero column of its row.  Basis row j lies in the
    span of the images and rows 0..j-1 exactly when j is such a trailing
    pivot; the other rows are the new generators, the same vectors in the
    same order as adding the rows one by one to a span would keep.  K is
    kept for the last ``max_weight`` degrees only.

    Returns ``(gen_degs, grid, scanned_to)``: column g of the grid holds
    the ring-element coordinates of generator g over the generators of F,
    and scanned_to is the last degree scanned.
    """
    if stall is None:
        stall = default_stall(ring)
    field, maxw = ring.field, ring.max_weight
    variables = [(x.poly, poly_key(x.poly), x.degree) for x in ring.gens() if x.poly]
    offsets: Dict[int, List[int]] = {}  # degree -> block offsets of F there
    kernels: Dict[int, np.ndarray] = {}  # degree -> kernel rows, for the last max_weight degrees
    found: List[Tuple[int, np.ndarray]] = []
    d = min(col_degs)
    last_event = max(col_degs)
    while d <= degree_cap:
        ker, free = matrix_at(d).kernel_rows()
        kernels[d] = ker._array()
        tgt = offsets[d] = ring.block_offsets([d - c for c in col_degs])
        if free:
            free = np.array(free)
            cuts = np.searchsorted(free, tgt).tolist()  # block j's free columns: cuts[j]:cuts[j+1]
            images = []
            for x, key, w in variables:
                prev = kernels.get(d - w)
                if prev is None or not len(prev):
                    continue
                src = offsets[d - w]
                image = field.zeros((len(prev), len(free)))
                for j, c in enumerate(col_degs):
                    lo, hi = cuts[j], cuts[j + 1]
                    if lo < hi and src[j] < src[j + 1]:
                        block = ring.mult_matrix(x, d - w - c, w, key)._array()
                        image[:, lo:hi] = field.matmul(prev[:, src[j]:src[j + 1]],
                                                       block[free[lo:hi] - tgt[j]].T)
                images.append(image)
            reached = set()
            if images:
                coords = DenseMatrix._of_array(field, np.vstack(images)[:, ::-1])
                reached = {len(free) - 1 - p for p in coords.rref()[1]}
            new = [j for j in range(len(kernels[d])) if j not in reached]
            if new:
                found.append((d, kernels[d][new]))
                last_event = d
        kernels.pop(d - maxw, None)  # degree d + 1 reads back to d + 1 - max_weight
        offsets.pop(d - maxw, None)
        if d >= (stop if stop is not None else max(last_event, max(col_degs)) + stall):
            break
        d += 1
    else:
        raise DegreeBoundExceeded(f"degree bound (kernel capture still active at degree "
                                  f"{degree_cap})", bound=degree_cap, flag="--degree-bound")
    columns = [column for e, rows in found
               for column in ring.split_coords(rows, [e - c for c in col_degs])]
    grid = tuple(tuple(col[k] for col in columns) for k in range(len(col_degs)))
    return tuple(e for e, rows in found for _ in rows), grid, d


def submodule_presentation(C: GradedModule, grid, degs: Sequence[int], label: str = "",
                           degree_cap: Optional[int] = None,
                           stop: Optional[int] = None) -> Tuple[GradedModule, List[int]]:
    """Minimal presentation of the submodule of C generated by the columns of grid.

    Column j holds an element of degree degs[j] by its ring-element
    coordinates over C's generators.  The columns are tried by degree, in
    input order within a degree: one is kept when it is not in the span of
    the monomial multiples of the columns kept before it
    (``minimal_columns``, in C's quotient coordinates), so zero and
    repeated columns are dropped.  The relations are the kernel of the
    evaluation map from the kept columns' free cover to C, captured by
    ``capture_kernel``: up to a certified ``stop`` when the caller gives
    one, else windowed by the stall rule.  Returns ``(N, kept)``: generator
    g of N is column kept[g].
    """
    ring = C.ring
    system = BlockSystem(ring, grid, C.gen_degs, degs)

    def to_quotient(d: int, cover: DenseMatrix) -> DenseMatrix:
        """A map into C's free cover in degree d, into the quotient coordinates of C_d."""
        tgt = C.piece(d)
        return tgt.rel_space.reduce_rows(cover.transpose()).take_columns(tgt.std).transpose()

    keep = minimal_columns(system, range(len(degs)), to_quotient)
    gen_degs, rel_degs, rows = (), (), ()
    if keep:
        system = system.columns(keep)
        gen_degs = system.col_degs
        if degree_cap is None:
            degree_cap = max(gen_degs) + 6 * ring.max_weight + default_stall(ring) + 8
            degree_cap = degree_cap if stop is None else max(degree_cap, stop)
        rel_degs, rows, _ = capture_kernel(ring, gen_degs, lambda d: to_quotient(d, system.at(d)),
                                           degree_cap, stop=stop)
    N = GradedModule(ring, gen_degs, rel_degs, rows, label=label, check=False)
    return _minimal_as(N, N), keep


@dataclass
class ModuleInvariants:
    mu: int
    hilbert_window: Dict[int, int]
    length: Optional[int]  # None means infinite
    multiplicity_e: int
    dim: int
    rank: Fraction
    rank_integral: bool

    def as_dict(self):
        return {
            "mu": self.mu,
            "hilbert_window": dict(self.hilbert_window),
            "length": self.length,
            "e": self.multiplicity_e,
            "dim": self.dim,
            "rank": [self.rank.numerator, self.rank.denominator],
            "rank_integral": self.rank_integral,
        }


def module_length(M: GradedModule) -> Optional[int]:
    """Total k-dimension: the Hilbert function summed to ``top_degree_bound`` when there is
    one, else to the last nonzero degree before a run of max_weight zeros past max_gen
    (``rings.zero_run_top``).  Such a run is certified: M is generated below it, so it is
    zero from there on.  The run is looked for up to a horizon past M's relations and the
    ring's, and None (infinite length) means that none was found there: a window."""
    if M.num_gens == 0:
        return 0
    top, maxw, past = top_degree_bound(M), M.ring.max_weight, M.max_gen_degree() + 1
    if top is None:
        horizon = max([past, *M.rel_degs]) + sum(M.ring.relation_degrees) + 8 * maxw + 10
        run = zero_run_top(map(M.hilbert_function, range(past, horizon)), maxw)
        if run is None:
            return None
        top = past + run
    return sum(M.hilbert_function(d) for d in range(M.min_gen_degree(), top + 1))


def hs_lengths(M: GradedModule, s_max: int) -> List[int]:
    """Hilbert-Samuel values length(M / m^s M) for s = 1..s_max.

    (m^s M)_d is spanned by the products u * g_i of the generators g_i with
    the monomials u of weighted degree d - deg g_i and total degree >= s.
    In each degree d, every such product is one row: the normal form of u
    (a row of ``QuotientRing.normal_form_matrix``) in g_i's block of the free
    cover, reduced into M_d's quotient coordinates with one ``reduce_rows``.
    One ``RowSpace`` then grows by the rows of total degree s_max and more,
    then s_max - 1, and so on down, and after each group its dimension is
    dim (m^s M)_d.  Length(M / m^s M) sums dim M_d - dim (m^s M)_d over
    min_gen <= d < max_gen + s * max_weight: from there on every monomial
    of weighted degree d - deg g_i has total degree >= s, so the term is 0.
    """
    ring, field = M.ring, M.ring.field
    maxw = ring.max_weight
    hi = M.max_gen_degree()
    out = [0] * s_max
    for d in range(M.min_gen_degree(), hi + s_max * maxw):
        pc = M.piece(d)
        if not pc.dim:
            continue
        s_min = max(1, (d - hi) // maxw + 1)  # the least s whose sum reaches d
        blocks, tags = [], []
        for r0, a in zip(ring.block_offsets([d - a for a in M.gen_degs]), M.gen_degs):
            if not ring.hilbert_function(d - a):
                continue
            rp = ring.piece(d - a)
            keep = [i for i, u in enumerate(rp.monos) if sum(u) >= s_min]
            block = field.zeros((len(keep), pc.total))
            block[:, r0:r0 + rp.dim] = ring.normal_form_matrix(d - a)._array()[keep]
            blocks.append(block)
            tags.extend(min(sum(rp.monos[i]), s_max) for i in keep)
        cover = DenseMatrix._of_array(field, np.vstack(blocks))
        rows = pc.rel_space.reduce_rows(cover).take_columns(pc.std)._array()
        tags = np.array(tags)
        space = RowSpace(field, pc.dim)
        for s in range(s_max, s_min - 1, -1):
            group = rows[tags == s]
            if len(group) and space.dim < pc.dim:
                space.add_matrix(DenseMatrix._of_array(field, group))
            out[s - 1] += pc.dim - space.dim
    return out


def reduction_length(M: GradedModule) -> int:
    """length(M/lM) for the ring's ``reduction_parameters`` l.

    M/lM is presented by M's relations and l times each generator.  It is a
    module over B = A/lA, whose top degree is the s of ``artinian_reduction``,
    generated in degrees at most max gen(M), so it vanishes above
    max gen(M) + s and its length is the sum of its Hilbert function up to there.
    """
    ring = M.ring
    s = ring.artinian_reduction[1]
    variables = [ring.gens()[i] for i in ring.reduction_parameters]
    zero, n = ring.zero(), M.num_gens
    rows = [list(row) + [x if k == i else zero for x in variables for k in range(n)]
            for i, row in enumerate(M.presentation)]
    rel_degs = M.rel_degs + tuple(a + x.degree for x in variables for a in M.gen_degs)
    quotient = GradedModule(ring, M.gen_degs, rel_degs, rows, check=False)
    return sum(map(quotient.hilbert_function, range(M.min_gen_degree(), M.max_gen_degree() + s + 1)))


def invariants(M: GradedModule) -> ModuleInvariants:
    """Minimal generator count, length, multiplicity e, dimension and rank.

    For M maximal Cohen-Macaulay by construction over a ring whose reduction
    parameters l generate a reduction of m (``QuotientRing.reduction_parameters``),
    e(M) = length(M/lM) exactly (``reduction_length``), and M has dimension
    dim A.  Otherwise e is read off the Hilbert-Samuel function (s <= 12),
    or is the length when that is finite.
    """
    Mmin = M.minimized()
    if Mmin.num_gens == 0:
        return ModuleInvariants(0, {}, 0, 0, -1, Fraction(0), True)
    lo = Mmin.min_gen_degree()
    hw = Mmin.hilbert_window(lo, lo + 10)
    if is_mcm_by_construction(Mmin) and M.ring.reduction_parameters is not None:
        e = reduction_length(Mmin)
        dim = ring_depth(M.ring)
        length = None if dim else e
    else:
        length = module_length(Mmin)
        if length == 0:
            return ModuleInvariants(0, hw, 0, 0, -1, Fraction(0), True)
        if length is not None:
            # finite length: dimension 0, multiplicity = length
            dim, e = 0, length
        else:
            dim, e = fit_hilbert_samuel(hs_lengths(Mmin, 12))
    eA = M.ring.multiplicity()
    rank = Fraction(e, eA) if dim == M.ring.krull_dim() else Fraction(0)
    return ModuleInvariants(
        mu=Mmin.num_gens,
        hilbert_window=hw,
        length=length,
        multiplicity_e=e,
        dim=dim,
        rank=rank,
        rank_integral=(rank.denominator == 1),
    )
