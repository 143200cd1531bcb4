"""Minimal graded free resolutions, syzygies, Ext, and Betti growth.

A resolution window is built one homological step at a time.  Each step
captures the kernel of the previous differential degree by degree
(``modules.capture_kernel``): the kernel piece in a given degree is an
exact rref computation, and new minimal generators are the part not
reached by multiplying the kernel pieces of lower degrees by the
variables.  Because the input presentations are minimal and kernel
generators are taken minimally, every differential has entries in the
maximal ideal, so the window is a minimal resolution and Betti numbers
are just rank counts.

Where each scan stops decides whether the window is exact.  Over a
certified complete intersection (``tate_degree``) Tate's resolution G of
k has the generators of G_i in degrees at most g_i (Tate, Illinois J.
Math. 1, 1957; Avramov, Infinite free resolutions, 1998).  If M has
finite length with top degree at most T (``modules.top_degree_bound``),
Tor_i(M, k)_j = H_i(M (x) G)_j vanishes for j > T + g_i, so F_i's scan
stops there, certified: k and A/(x^a, y^b), for instance.  A second
bound comes from an Artinian reduction (``QuotientRing.artinian_reduction``):
A is Cohen-Macaulay of dimension d, and d variables l make B = A/(l)
Artinian with top degree s.  Once i - 1 >= d, Syz_{i-1}(M) is maximal
Cohen-Macaulay, so l is regular on it and the kernel K of F_{i-1} -> F_{i-2}
has K/lK inside (+)_j B(-c_j) over F_{i-1}'s degrees c_j; by graded
Nakayama F_i's generators lie in degrees at most max c_j + s (Yoshino,
Cohen-Macaulay modules over Cohen-Macaulay rings, LMS LN 146, 1990).
Over an Artinian ring d = 0 and B = A.  When M has depth delta by
construction (``GradedModule._depth``: a matrix-factorization cokernel has
depth d, m depth 1, a dual min(2, d), Syz_n(M) min(d, delta + n)), Syz_{i-1}(M)
has depth at least min(d, delta + i - 1) by the depth lemma, so the bound
holds once i - 1 >= d - delta: every step of an MCM module is certified.
The scan stops at the least bound that applies (``FreeResolution.stop``),
so every resolution over the catalog rings is certified past its first
d - delta steps.  Everywhere else (the first d steps of a module of
infinite length and unknown depth, rings with neither bound) the scan is
windowed: it stops once a stall window passes with nothing new.
``FreeResolution.certified`` tells the two apart.

Three kinds of module have a known minimal resolution, whose steps
``FreeResolution.extend`` reads with no scan, columns sorted by degree as a
scan lists them, where the scan would stop at a certified ``stop`` within the
step's cap (else the scan runs and raises at the cap).  A known step has its
degrees at once and builds its entries on first read, so a Betti table builds
none; ``Step.route`` names where each step came from.  Over a certified CI
A = S/(f_1..f_c), S a polynomial ring in n variables, let M = A(-s)/(g_1..g_r)
be cyclic and minimally presented, every g_j one term (other g are scanned,
certified by Tor balance).  Monomial division (``FreeResolution._tate``) solves
f_k = sum_j a_kj g_j over S, splitting the relations into F_in, where it
solves with no a_kj a unit, and F_out.  If
r + |F_out| = n and M has a top-degree bound, h = g + F_out are n forms with
S/(h) = M of finite length: a system of parameters of S, so S-regular.  Then
g is regular on R = S/(F_out), F_in is R-regular (the f_k are), and Tate's
G = A<e_1..e_r; T_k for f_k in F_in>, de_j = g_j and dT_k = sum_j a_kj e_j,
resolves R/(g) = M over R/(F_in) = A (Tate, 1957, Theorem 4), minimally, as g
and every a_kj lie in m: k presented by the variables when every f_k lies in
m^2, A/(x^a, y^b) over k[x,y,z]/(z^2), A/(x) over k[x,y]/(x^2, y^2).  If M's
presentation is k's d_2, rows stably sorted by degree, up to a signed permutation
of its columns (``FreeResolution._k``), M = coker d_2 = m: F_i is k's G_{i+1} and
stops where k's does, step 2's rows mapped back: m over the catalogs.  Over
A = S/(f), a reduced matrix factorization phi psi = f Id over S with
Syz_n(M) = coker phi gives ... -psi-> A^n -phi-> A^n -> Syz_n(M): over the domain
S, ker phi = im psi, ker psi = im phi, and neither has a unit entry (Eisenbud,
Trans. AMS 260, 1980).  ``FreeResolution.tail`` keeps one such record, read off
a factorization cokernel's memo at n = 0 (``GradedModule._factorization``) or
solved for once when f lies in m^2, on the first square certified step at
n >= d - delta: from there on Syz_n(M) is maximal Cohen-Macaulay; with a square
presentation it has no free summand, so it is a factorization cokernel and the
solve must succeed.

The dualized complex gives Ext^i(M, A), the depth test, and the MCM
test (Ext^i(M, A) = 0 for 1 <= i <= dim A over a Gorenstein quotient).
For M maximal Cohen-Macaulay by construction, both scans of M* = Ext^0(M, A)
stop at certified bounds (``_dual_kernel_elements``, ``ext_module``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from operator import ge, itemgetter, sub
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import Inconclusive, UsageError
from .linalg import DenseMatrix
from .modules import (
    GradedModule,
    MElem,
    _depth_as,
    _minimal_as,
    capture_kernel,
    default_stall,
    free_module,
    invariants,
    is_mcm_by_construction,
    residue_field_module,
    ring_depth,
    submodule_presentation,
    top_degree_bound,
)
from .rings import BlockSystem, QuotientRing, RingElement, poly_key

__all__ = [
    "FreeResolution",
    "tate_degree",
    "resolve",
    "syzygy",
    "detect_period",
    "GrowthReport",
    "growth_report",
    "ext_is_zero",
    "ext_module",
    "depth",
    "mcm_test",
    "ulrich_test",
]


@dataclass
class Step:
    """One differential F_i -> F_{i-1}: rows over F_{i-1}, cols over F_i."""

    row_degs: Tuple[int, ...]
    col_degs: Tuple[int, ...]
    # the entries, len(row_degs) x len(col_degs), or a known step's builder of them
    grid: Union[Tuple[Tuple[RingElement, ...], ...], Callable[[], tuple]]
    # last degree the kernel scan reached; a step read off a known resolution (Tate's or
    # the periodic tail's) reports its certified stop; None for the presentation and
    # zero steps
    scanned_to: Optional[int] = None
    certified: bool = True  # False when the scan stopped by the stall rule
    # presentation, scan, tate or tail; a zero step after an empty one keeps its route
    route: str = "scan"

    @cached_property
    def entries(self) -> Tuple[Tuple[RingElement, ...], ...]:
        return self.grid() if callable(self.grid) else self.grid

    def transpose_data(self):
        return tuple(tuple(row[c] for row in self.entries) for c in range(len(self.col_degs)))


def tate_degree(ring: QuotientRing, i: int) -> Optional[int]:
    """g_i, the top generator degree of G_i for Tate's resolution G of k; None if not certified.

    The ring must be a certified complete intersection
    (``QuotientRing.is_certified_ci``).  G has exterior variables in the
    weights (homological degree 1) and divided-power variables in the
    relation degrees (homological degree 2), so g_i is the max over
    a + 2b = i, a <= #variables, of the a largest weights plus b times the
    largest relation degree.
    """
    if not ring.is_certified_ci:
        return None
    weights = ring.ambient.weights_desc
    top = max(ring.relation_degrees, default=0)
    return max(sum(weights[:a]) + (i - a) // 2 * top
               for a in range(i % 2, min(i, len(weights)) + 1, 2))


def kernel_step(ring: QuotientRing, row_degs: Sequence[int], col_degs: Sequence[int],
                entries, degree_cap: int, stall: Optional[int] = None,
                stop: Optional[int] = None) -> Step:
    """Minimal generators of the kernel of a map of free modules.

    The map sends the j-th source generator (degree col_degs[j]) to the
    column (entries[k][j])_k in the target.  Returns the next
    differential as a Step with row_degs = col_degs.  The scan ends at a
    certified ``stop`` when one is given, else by the ``stall`` rule
    (``modules.capture_kernel``).
    """
    if not col_degs:
        return Step(tuple(col_degs), (), ())
    if not row_degs:
        # kernel of the zero map: the whole source, generated by its basis
        one, zero, n = ring.one(), ring.zero(), range(len(col_degs))
        ident = tuple(tuple(one if i == j else zero for j in n) for i in n)
        return Step(tuple(col_degs), tuple(col_degs), ident)
    system = BlockSystem(ring, entries, row_degs, col_degs)
    gen_degs, grid, scanned_to = capture_kernel(ring, col_degs, system.at, degree_cap, stall, stop)
    return Step(tuple(col_degs), gen_degs, grid, scanned_to, stop is not None)


def _solve_companion(S: QuotientRing, f: RingElement, phi,
                     row_degs: Sequence[int], col_degs: Sequence[int]):
    """Solve phi psi = f . Id for psi over the polynomial ring S: phi compiled once, and one
    elimination for all columns j of a degree d = deg f + row_degs[j], f's coordinates in
    row block j the right side of column j; None when some column has no solution."""
    n, zero = len(phi), S.zero()
    system = BlockSystem(S, phi, row_degs, col_degs)
    psi = [[zero] * n for _ in range(n)]
    for d in {f.degree + r for r in row_degs}:
        # psi[k][j] has degree d - col_degs[k], and (phi psi)[i][j] degree d - row_degs[i]
        cols = [j for j, r in enumerate(row_degs) if f.degree + r == d]
        rhs = [S.join_coords([f if i == j else zero for i in range(n)], [d - r for r in row_degs])
               for j in cols]
        sol = system.at(d).solve(DenseMatrix._of_array(S.field, np.stack(rhs, axis=1)))
        if sol is None:
            return None
        for j, column in zip(cols, S.split_coords(sol._array().T, [d - c for c in col_degs])):
            for k, e in enumerate(column):
                psi[k][j] = e
    return psi


class FreeResolution:
    """A minimal free resolution window of a module."""

    def __init__(self, module: GradedModule, degree_cap: Optional[int]):
        self.module = module
        self.minimal = module.minimized()
        self.ring = module.ring
        self.degree_cap = degree_cap
        first = Step(tuple(self.minimal.gen_degs), tuple(self.minimal.rel_degs),
                     self.minimal.presentation, route="presentation")
        self.steps: List[Step] = [first]
        self._tate_bases: Dict[int, list] = {}  # i -> Tate's basis of G_i (``_tate_basis``)
        # the periodic-tail record (n, phi, psi) (``tail``); steps[:_tried + 1] were tried
        mf = self.minimal._factorization
        self._tail = None if mf is None else (0, mf.phi, mf.psi)
        self._tried = -1
        # the tail's solve needs a hypersurface S/(f), certified, with f in m^2
        A = self.ring
        self._solvable = (A.is_certified_ci and len(A.relations) == 1
                          and all(sum(m) > 1 for m in A.relations[0]))

    @cached_property
    def _top(self) -> Optional[int]:
        """``top_degree_bound`` of M, computed once; at depth >= 1 (infinite length) None, with
        no piece computed."""
        return None if self.minimal._depth else top_degree_bound(self.minimal)

    def stop(self, i: int, prev_degs: Sequence[int]) -> Optional[int]:
        """Where the scan for F_i's generators stops, certified; None when windowed.

        The least of two bounds, where they apply: T + g_i (Tor balance, over
        a certified CI), and max(F_{i-1}) + s once i - 1 >= d - depth(M), for
        the ring's ``artinian_reduction`` (d, s) and the depth M has by
        construction (0 when none is known).  prev_degs are F_{i-1}'s
        generator degrees.  For M = m read off k's complex (``_k``), it is k's stop for
        G_{i+1}, as Tor_i(m, k) = Tor_{i+1}(k, k).
        """
        if self._k:
            return self._k[0].stop(i + 1, prev_degs)
        stops = []
        g = tate_degree(self.ring, i)
        if g is not None and self._top is not None:
            stops.append(self._top + g)
        reduction = self.ring.artinian_reduction
        if reduction is not None and i - 1 >= reduction[0] - (self.minimal._depth or 0):
            stops.append(max(prev_degs) + reduction[1])
        return min(stops, default=None)

    def _auto_cap(self, i: int, stop: Optional[int]) -> int:
        """The degree cap of the scan for F_i's generators: ``degree_cap``, else at least ``stop``."""
        if self.degree_cap is not None:
            return self.degree_cap
        ring = self.ring
        rd = max(ring.relation_degrees) if ring.relation_degrees else 2
        base = max(list(self.minimal.gen_degs) + list(self.minimal.rel_degs) + [0])
        cap = base + (i + 3) * max(rd, 2 * ring.max_weight) + 8
        return cap if stop is None else max(cap, stop)

    @property
    def certified(self) -> bool:
        """Whether every step computed so far is exact: each scan stopped at a certified bound."""
        return all(s.certified for s in self.steps)

    def extend(self, H: int, until_tail: bool = False):
        """Ensure differentials up to step H are computed, or with ``until_tail`` until
        the tail record exists.  Step i is read off Tate's complex or, for i >= n + 2,
        the tail record (n, phi, psi) as the module docstring says; else it is scanned.
        """
        while len(self.steps) < H and not (until_tail and self.tail()):
            prev = self.steps[-1]
            if not prev.col_degs:
                # already hit a zero step: free tail
                self.steps.append(Step(prev.col_degs, (), (), route=prev.route))
                continue
            i = len(self.steps) + 1  # this step finds the generators of F_i
            stop = self.stop(i, prev.col_degs)
            cap = self._auto_cap(i, stop)
            known = (self._tate_step if self._tate else self._k_step if self._k
                     else self._factorization_step if self.tail() else None)
            if stop is not None and stop <= cap and known is not None:
                self.steps.append(known(i, prev.col_degs, stop))
            else:
                self.steps.append(kernel_step(self.ring, prev.row_degs, prev.col_degs, prev.entries,
                                              degree_cap=cap, stop=stop))

    def tail(self) -> Optional[Tuple[int, list, list]]:
        """The periodic-tail record (n, phi, psi) once the steps so far give it, else None:
        phi psi = f Id over S, phi lifting steps[n] (module docstring).  Without a memo it
        is solved for once, on the first square certified step at n >= d - delta (delta =
        0 when unknown), where a failed solve raises."""
        A = self.ring
        # Syz_n(M) is maximal Cohen-Macaulay from n = mcm on, by the depth lemma
        mcm = len(A.variables) - 1 - (self.minimal._depth or 0)
        while self._tail is None and self._solvable and self._tried < len(self.steps) - 1:
            n = self._tried + 1
            step = self.steps[n]
            if len(step.row_degs) == len(step.col_degs) > 0 and n >= mcm and step.certified:
                S = A.ambient.relation_free
                phi = [[S.element(e.poly) for e in row] for row in step.entries]
                psi = _solve_companion(S, S.element(A.relations[0]), phi, step.row_degs,
                                       step.col_degs)
                if psi is None or any(e.is_unit() for row in psi for e in row):
                    raise Inconclusive(f"Syz{n}({self.module.label}) is maximal Cohen-Macaulay and "
                                       f"square, but phi psi = f Id has no reduced solution psi")
                self._tail = (n, phi, psi)
            self._tried = n
        return self._tail

    @cached_property
    def _tate(self):
        """(g, deg g, F_in) of M's own Tate complex where the module docstring's certificate
        holds, else None.  F_in lists (l, c_l^-1, deg f_l, [(j, a_lj)]) for each
        f_l = sum_j a_lj g_j over S, scaled by c_l^-1 for f_l's lex-first coefficient c_l; each
        g_j and a_lj comes with its negative, as (x, -x).

        Every g_j must be one term c_j x^alpha_j, and the a_lj are read off by division.  They
        are the particular solution that ``solve`` returns for the columns u g_j of
        ``BlockSystem(S, [g], [0], deg g).at(deg f_l)``, u the monomials, block by block: over S,
        which has no relations, column u g_j is c_j times the unit vector of u x^alpha_j, so
        ``rref`` pivots each monomial x^mu on the first column hitting it, that of the first j
        (in g's order) with x^alpha_j | x^mu, and the solution puts (c / c_j) x^(mu - alpha_j)
        there for each term c x^mu of f_l and 0 in every other column; the system is
        inconsistent exactly when some term is hit by no column, and then f_l lies in F_out."""
        A, M = self.ring, self.minimal
        if M.num_gens != 1 or not A.is_certified_ci or self._top is None:
            return None
        g, field = M.presentation[0], A.field
        g_degs = [r - M.gen_degs[0] for r in M.rel_degs]
        if any(len(e.poly) != 1 for e in g):
            return None
        terms = [next(iter(e.poly.items())) for e in g]

        def expand(f):
            a = [{} for _ in g]
            for mu, c in f.items():
                for j, (alpha, c_j) in enumerate(terms):  # the first g_j dividing c x^mu
                    if all(map(ge, mu, alpha)):
                        a[j][tuple(map(sub, mu, alpha))] = field.element(c * field.inv(c_j))
                        break
                else:
                    return None
            return a
        f_in, f_out = [], 0
        for l, (f, deg) in enumerate(zip(A.relations, A.relation_degrees)):
            a = expand(f)
            if a is None:
                f_out += 1
                continue
            if any(p and deg == g_degs[j] for j, p in enumerate(a)):  # a unit a_lj
                return None
            inv = field.inv(f[max(f)])
            f_in.append((l, inv, deg, [(j, (x := A.element(p, deg - g_degs[j]).scale(inv), -x))
                                       for j, p in enumerate(a) if p]))
        return ([(e, -e) for e in g], g_degs, f_in) if len(g) + f_out == len(A.variables) else None

    @cached_property
    def _k(self):
        """(k's resolution, perm) when M's presentation is Tate's d_2 of k with its rows paired
        with d_2's by a stable sort on degree (the order ``maximal_ideal_module`` lists m's
        generators in) and its columns c permuted by pi and multiplied by signs eps_c, checked
        entry by entry; else None.  perm lists (pi(c), eps_c == -1) by c.  Then M = coker d_2 = m,
        and F_i of M is G_{i+1} of k (``_k_step``), each of k's bases built once, on k."""
        A, M = self.ring, self.minimal
        if M.num_gens == 1 or not A.is_certified_ci or sorted(M.gen_degs) != sorted(A.weights):
            return None
        k = FreeResolution(residue_field_module(A), None)
        if k._tate is None or len(k._tate[0]) != len(A.weights):  # G_1 must be the variables
            return None
        D, P = k._tate_step(2, A.weights, None).entries, M.presentation

        def key(v):  # v up to sign
            return min(tuple(poly_key(e.poly) for e in v), tuple(poly_key((-e).poly) for e in v))

        def by_degree(degs):
            return sorted(range(len(degs)), key=degs.__getitem__)
        rows = [r for _, r in sorted(zip(by_degree(k._tate[1]), by_degree(M.gen_degs)))]
        cols, perm = {key(col): t for t, col in enumerate(zip(*D))}, []
        for c in range(len(M.rel_degs)):
            v = [P[r][c] for r in rows]  # M's column c in D's row order
            if (t := cols.pop(key(v), None)) is None:
                return None
            perm.append((t, [e.poly for e in v] != [row[t].poly for row in D]))
        return None if cols else (k, perm)

    def _tate_basis(self, i: int):
        """(degree, I, b) of each e_I T^(b) with |I| + 2|b| = i, Tate's basis of G_i, computed
        once: G_1 in g's order, later ones stably sorted by degree."""
        if i not in self._tate_bases:
            _, g_degs, f_in = self._tate
            s = self.minimal.gen_degs[0]
            out = [(s + sum(g_degs[j] for j in I) + sum(bk * f[2] for bk, f in zip(b, f_in)), I, b)
                   for b in product(range(i // 2 + 1), repeat=len(f_in)) if 2 * sum(b) <= i
                   for I in combinations(range(len(g_degs)), i - 2 * sum(b))]
            self._tate_bases[i] = out if i == 1 else sorted(out, key=itemgetter(0))
        return self._tate_bases[i]

    def _tate_step(self, i: int, row_degs: Sequence[int], stop: int) -> Step:
        """F_i -> F_{i-1} of M, d(e_I T^(b)) = d(e_I) T^(b) + (-1)^|I| sum_k e_I dT_k T^(b-1_k),
        its entries built on first read: G_i -> G_{i-1}."""
        A, (g, _, f_in) = self.ring, self._tate
        cols, rows = self._tate_basis(i), self._tate_basis(i - 1)

        def build():
            index = {(I, b): r for r, (_, I, b) in enumerate(rows)}
            grid = [[A.zero()] * len(cols) for _ in rows]
            for c, (_, I, b) in enumerate(cols):
                for p, j in enumerate(I):
                    grid[index[I[:p] + I[p + 1:], b]][c] = g[j][p % 2]
                for k in (k for k, bk in enumerate(b) if bk):
                    for j, a in f_in[k][3]:
                        if j not in I:  # e_I e_j = (-1)^#{t in I: t > j} e_{I + j}
                            row = index[tuple(sorted(I + (j,))), b[:k] + (b[k] - 1,) + b[k + 1:]]
                            grid[row][c] = a[(len(I) + sum(t > j for t in I)) % 2]
            return tuple(map(tuple, grid))

        return Step(tuple(row_degs), tuple(e[0] for e in cols), build, stop, True, "tate")

    def _k_step(self, i: int, row_degs: Sequence[int], stop: int) -> Step:
        """F_i -> F_{i-1} of M = m (``_k``): k's G_{i+1} -> G_i, step 2's rows mapped back
        through perm, its entries built on first read."""
        k, perm = self._k
        step = k._tate_step(i + 1, row_degs, stop)
        return step if i > 2 else Step(step.row_degs, step.col_degs, lambda: tuple(
            tuple(-e if neg else e for e in step.entries[t]) for t, neg in perm), stop, True, "tate")

    @cached_property
    def _psi(self):
        """The tail record's psi over A, converted on the first read of a step it gives."""
        return [[self.ring.element(e.poly) for e in row] for row in self._tail[2]]

    def _factorization_step(self, i: int, row_degs: Sequence[int], stop: int) -> Step:
        """F_i -> F_{i-1}, i >= n + 2, off the tail record (n, phi, psi): psi (i - n even) or
        phi, its rows in F_{i-1}'s order, its columns in the stable ascending order of
        their degrees, its entries built on first read."""
        n = self._tail[0]
        both = (self.steps[n].row_degs, self.steps[n].col_degs)  # psi's, phi's columns' degrees
        degs, last = both[(i - n) % 2], both[(i - n - 1) % 2]  # less a multiple of deg f
        cols = sorted(range(len(degs)), key=degs.__getitem__)
        rows = sorted(range(len(last)), key=last.__getitem__) if i > n + 2 else range(len(row_degs))
        shift = (i - n) // 2 * self.ring.relation_degrees[0]

        def build():
            X = self._psi if (i - n) % 2 == 0 else self.steps[n].entries
            return tuple(tuple(X[r][c] for c in cols) for r in rows)

        return Step(tuple(row_degs), tuple(degs[c] + shift for c in cols), build, stop, True,
                    "tail")

    def betti_table(self, H: int) -> List[Tuple[int, int, Tuple[int, ...]]]:
        """Rows (i, beta_i, generator degrees of F_i)."""
        self.extend(H)
        out = [(0, self.minimal.num_gens, tuple(self.minimal.gen_degs))]
        for i in range(1, H + 1):
            out.append((i, len(self.steps[i - 1].col_degs), self.steps[i - 1].col_degs))
        return out

    def betti_numbers(self, H: int) -> List[int]:
        return [b for _, b, _ in self.betti_table(H)]

    def differential(self, i: int) -> Step:
        if i < 1:
            raise UsageError("differentials are indexed from 1")
        self.extend(i)
        return self.steps[i - 1]

    def syzygy_module(self, n: int) -> GradedModule:
        """Syz_n(M) = image of the n-th differential, presented by the next one.

        Its depth is at least min(d, depth(M) + n) over a Cohen-Macaulay ring
        of dimension d (``modules.ring_depth``), by the depth lemma.
        """
        if n == 0:
            return self.minimal
        self.extend(n + 1)
        gen_step = self.steps[n - 1]
        rel_step = self.steps[n]
        label = f"Syz{n}({self.module.label})" if self.module.label else f"Syz{n}"
        # a minimal resolution presents each syzygy minimally
        S = GradedModule(self.ring, gen_step.col_degs, rel_step.col_degs, rel_step.entries,
                         label=label, check=False)
        d = ring_depth(self.ring)
        if d is not None:
            _depth_as(S, min(d, (self.minimal._depth or 0) + n))
        return _minimal_as(S, S)


def resolve(M: GradedModule, H: int, degree_cap: Optional[int] = None) -> FreeResolution:
    """Minimal resolution window of M with H differentials.

    The window is cached on M and reused only by calls with the same
    ``degree_cap``; another cap rebuilds it.
    """
    res = M._resolution
    if res is None or res.degree_cap != degree_cap:
        res = M._resolution = FreeResolution(M, degree_cap)
    res.extend(H)
    return res


def syzygy(M: GradedModule, n: int, degree_cap: Optional[int] = None) -> GradedModule:
    """Syz_n(M) for n >= 0 (cosyzygies live in the stable-functor layer)."""
    if n < 0:
        raise UsageError("syzygy index must be >= 0 here; use cosyzygy for n < 0")
    return resolve(M, n + 1, degree_cap=degree_cap).syzygy_module(n)


def detect_period(M: GradedModule, p_max: int = 2, n_max: int = 6,
                  degree_cap: Optional[int] = None):
    """Smallest (n0, p) with Syz_{n0+p}(M) isomorphic to Syz_{n0}(M).

    Isomorphism is tested up to degree shift, matching the local-ring
    statement.  None means "not detected within bounds", never a proof.
    """
    from .homs import is_isomorphic

    res = resolve(M, n_max + p_max + 1, degree_cap=degree_cap)
    syzygies = {n: res.syzygy_module(n) for n in range(n_max + p_max + 1)}
    for n0 in range(n_max + 1):
        for p in range(1, p_max + 1):
            if is_isomorphic(syzygies[n0 + p], syzygies[n0]):
                return (n0, p)
    return None


@dataclass
class GrowthReport:
    cx_estimate: int
    cx_confident: bool
    curv_estimate: float
    window: int
    finite_projdim: bool
    extremal: Optional[bool] = None

    def as_dict(self):
        return {
            "cx": self.cx_estimate,
            "cx_confident": self.cx_confident,
            "curv": round(self.curv_estimate, 6),
            "window": self.window,
            "finite_projdim": self.finite_projdim,
            "extremal": self.extremal,
        }


def _poly_growth_degree(seq: List[int]) -> Optional[int]:
    """Degree of eventual polynomial growth of seq, or None if undetected.

    Growth of degree r shows as three zeros ending the (r + 1)-th difference.
    """
    if not seq:
        return None
    diffs = list(seq)
    for order in range(0, len(seq)):
        if len(diffs) >= 3 and all(x == 0 for x in diffs[-3:]):
            return order - 1
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        if not diffs:
            break
    return None


def growth_report(M: GradedModule, H: int = 12, degree_cap: Optional[int] = None,
                  compare_with_k: bool = False) -> GrowthReport:
    """Betti growth statistics: complexity and curvature estimates.

    Complexity is fitted on the even and odd Betti subsequences (CI
    Betti numbers are quasi-polynomial of period two); curvature is the
    max of beta_n^(1/n) over the last third of the window.  Estimates,
    not certificates: the report carries its window size.
    """
    res = resolve(M, H, degree_cap=degree_cap)
    betti = res.betti_numbers(H)
    window = len(betti) - 1
    tail = betti[max(1, H // 3):]
    if all(b == 0 for b in betti[-2:]):
        report = GrowthReport(0, True, 0.0, window, True)
    else:
        even = [b for i, b in enumerate(betti) if i % 2 == 0][1:]
        odd = [b for i, b in enumerate(betti) if i % 2 == 1][1:]
        deg_e = _poly_growth_degree(even)
        deg_o = _poly_growth_degree(odd)
        confident = deg_e is not None and deg_o is not None and H >= 6
        if deg_e is None and deg_o is None:
            # growth outpaced every polynomial fit inside the window; report
            # an upper-bound placeholder, flagged low-confidence
            cx = len(M.ring.relations) if M.ring.is_complete_intersection() else window
            confident = False
        else:
            cx = max(d for d in (deg_e, deg_o) if d is not None) + 1
        curv = max(b ** (1.0 / n) for n, b in enumerate(betti, start=0) if n >= max(1, 2 * H // 3))
        report = GrowthReport(cx, confident, curv, window, False)
    if compare_with_k:
        k = residue_field_module(M.ring)
        kr = growth_report(k, H=H, degree_cap=degree_cap)
        if M.ring.is_complete_intersection():
            report.extremal = report.cx_estimate == kr.cx_estimate and report.cx_confident
        else:
            report.extremal = (
                not report.finite_projdim
                and kr.curv_estimate > 1.0
                and report.curv_estimate >= 0.85 * kr.curv_estimate
            )
    return report


# ---------------------------------------------------------------------------
# the dualized complex: Ext^i(M, A), depth, MCM test
# ---------------------------------------------------------------------------

def _dual_cokernel(res: FreeResolution, i: int) -> GradedModule:
    """coker(T_i : F_{i-1}* -> F_i*); for i = 0 the free module F_0*."""
    ring = res.ring
    if i == 0:
        degs = tuple(-a for a in res.minimal.gen_degs)
        return free_module(ring, degs, label="F0*")
    step = res.differential(i)
    gen_degs = tuple(-c for c in step.col_degs)
    rel_degs = tuple(-r for r in step.row_degs)
    entries = step.transpose_data()  # cols x rows: entry[j][k] = d_i[k][j]
    return GradedModule(ring, gen_degs, rel_degs, entries, label=f"cokerT{i}", check=False)


def _dual_kernel_elements(res: FreeResolution, i: int, degree_cap: Optional[int],
                          target: GradedModule) -> List[MElem]:
    """Kernel generators of T_{i+1}: F_i* -> F_{i+1}*, as elements of target.

    target must be a module whose free cover is F_i* (e.g. the cokernel
    of T_i); the returned elements are reduced there.  For i = 0 the kernel
    is M*, and when M is maximal Cohen-Macaulay by construction the scan
    stops, certified, at s - min gen(M) = s + max(src_degs): for the
    ``artinian_reduction`` (d, s), l is regular on A and Ext^1(M, A) = 0
    over the Gorenstein ring, so M*/lM* = Hom_B(M/lM, B) lies inside
    (+)_a B(a) over M's generator degrees a, and graded Nakayama bounds
    M*'s generators by its top degree.
    """
    ring = res.ring
    step = res.differential(i + 1)
    src_degs = tuple(-r for r in step.row_degs)
    tgt_degs = tuple(-c for c in step.col_degs)
    stop = None
    if i == 0 and src_degs and is_mcm_by_construction(res.minimal):
        stop = max(src_degs) + ring.artinian_reduction[1]
    cap = degree_cap
    if cap is None:
        cap = max(src_degs, default=0) + 4 * default_stall(ring) + 8
        cap = cap if stop is None else max(cap, stop)
    ker_step = kernel_step(ring, tgt_degs, src_degs, step.transpose_data(), degree_cap=cap,
                           stop=stop)
    return [target.element(d, ring.join_coords([row[g] for row in ker_step.entries],
                                               [d - r for r in src_degs]))
            for g, d in enumerate(ker_step.col_degs)]


def ext_is_zero(M: GradedModule, i: int, degree_cap: Optional[int] = None) -> bool:
    """Whether Ext^i(M, A) vanishes."""
    if i < 0:
        raise UsageError("negative Ext index")
    res = resolve(M, i + 1, degree_cap=degree_cap)
    target = _dual_cokernel(res, i)
    gens = _dual_kernel_elements(res, i, degree_cap, target)
    return all(g.is_zero() for g in gens)


def ext_module(M: GradedModule, i: int, degree_cap: Optional[int] = None) -> GradedModule:
    """Ext^i(M, A) as a finitely presented graded module.

    For i = 0 and M maximal Cohen-Macaulay by construction, M* is too, so the
    relation scan stops, certified, at max(gens of M*) + s by the argument of
    ``FreeResolution.stop``.  Both scans keep to ``degree_cap`` when one is
    given: a stop above it raises ``DegreeBoundExceeded`` at the cap.
    """
    res = resolve(M, i + 1, degree_cap=degree_cap)
    target = _dual_cokernel(res, i)
    gens = [g for g in _dual_kernel_elements(res, i, degree_cap, target) if not g.is_zero()]
    if not gens:
        return GradedModule(M.ring, [], [], [], label=f"Ext{i}", check=False)
    stop = None
    if i == 0 and is_mcm_by_construction(res.minimal):
        stop = max(g.degree for g in gens) + M.ring.artinian_reduction[1]
    N, _ = submodule_presentation(target, gens, label=f"Ext{i}({M.label})" if M.label else f"Ext{i}",
                                  degree_cap=degree_cap, stop=stop)
    return N


def depth(M: GradedModule, degree_cap: Optional[int] = None) -> int:
    """depth via local duality: dim A - max{ i : Ext^i(M, A) != 0 }."""
    ring = M.ring
    if not ring.is_gorenstein():
        raise UsageError("depth test implemented over Gorenstein quotients only")
    d = ring.krull_dim()
    top = 0
    for i in range(d + 1):
        if not ext_is_zero(M, i, degree_cap=degree_cap):
            top = i
    return d - top


def mcm_test(M: GradedModule, degree_cap: Optional[int] = None) -> bool:
    """Maximal Cohen-Macaulay: Ext^i(M, A) = 0 for 1 <= i <= dim A."""
    ring = M.ring
    if not ring.is_gorenstein():
        raise UsageError("MCM test implemented over Gorenstein quotients only")
    if M.minimized().num_gens == 0:
        return True
    d = ring.krull_dim()
    return all(ext_is_zero(M, i, degree_cap=degree_cap) for i in range(1, d + 1))


def _is_mcm(M: GradedModule, degree_cap: Optional[int]) -> bool:
    """``mcm_test``, skipped over a Gorenstein ring when M is MCM by construction."""
    if is_mcm_by_construction(M) and M.ring.is_gorenstein():
        return True
    return mcm_test(M, degree_cap=degree_cap)


def ulrich_test(M: GradedModule, degree_cap: Optional[int] = None) -> bool:
    """e(M) = mu(M); requires an MCM input."""
    if not _is_mcm(M, degree_cap):
        raise UsageError("ulrich test requires a maximal Cohen-Macaulay module")
    inv = invariants(M)
    return inv.multiplicity_e == inv.mu
