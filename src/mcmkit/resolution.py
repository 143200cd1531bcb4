"""Minimal graded free resolutions, syzygies, Ext, and Betti growth.

A resolution window is built one homological step at a time.  Each step
captures the kernel of the previous differential degree by degree
(``modules.capture_kernel``): the kernel piece in a given degree is an
exact rref computation, new minimal generators are the part not reached
by multiplying the kernel pieces of lower degrees by the variables, and
the scan stops once a stall window passes with nothing new.  Because the
input presentations are minimal and kernel generators are taken
minimally, every differential has entries in the maximal ideal, so the
window is a minimal resolution and Betti numbers are just rank counts.

Kernel capture reads only degree differences, so a step whose input
equals an earlier step's input with every degree shifted by s has the
earlier output shifted by s as its output.  ``FreeResolution.extend``
reuses such a step instead of capturing its kernel again, whenever the
shifted scan stays within the step's degree cap.  Over a hypersurface
the resolution of an MCM module is 2-periodic up to shift (Eisenbud,
Trans. AMS 260, 1980), so each period is computed once.

The dualized complex gives Ext^i(M, A), the depth test, and the MCM
test (Ext^i(M, A) = 0 for 1 <= i <= dim A over a Gorenstein quotient).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import UsageError
from .modules import (
    GradedModule,
    MElem,
    capture_kernel,
    default_stall,
    free_module,
    invariants,
    submodule_presentation,
)
from .rings import BlockSystem, QuotientRing, RingElement, grid_mul, poly_key

__all__ = [
    "FreeResolution",
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
    entries: Tuple[Tuple[RingElement, ...], ...]  # len(row_degs) x len(col_degs)
    scanned_to: Optional[int] = None  # last degree the kernel scan reached; None if none ran

    def transpose_data(self):
        return tuple(tuple(row[c] for row in self.entries) for c in range(len(self.col_degs)))


def kernel_step(ring: QuotientRing, row_degs: Sequence[int], col_degs: Sequence[int],
                entries, degree_cap: int, stall: Optional[int] = None) -> Step:
    """Minimal generators of the kernel of a map of free modules.

    The map sends the j-th source generator (degree col_degs[j]) to the
    column (entries[k][j])_k in the target.  Returns the next
    differential as a Step with row_degs = col_degs.
    """
    if not col_degs:
        return Step(tuple(col_degs), (), ())
    if not row_degs:
        # kernel of the zero map: the whole source, generated by its basis
        one, zero, n = ring.one(), ring.zero(), range(len(col_degs))
        ident = tuple(tuple(one if i == j else zero for j in n) for i in n)
        return Step(tuple(col_degs), tuple(col_degs), ident)
    system = BlockSystem(ring, entries, row_degs, col_degs)
    gen_degs, grid, scanned_to = capture_kernel(ring, col_degs, system.at, degree_cap, stall)
    return Step(tuple(col_degs), gen_degs, grid, scanned_to=scanned_to)


class FreeResolution:
    """A minimal free resolution window of a module."""

    def __init__(self, module: GradedModule, degree_cap: Optional[int], stall: Optional[int]):
        self.module = module
        self.minimal = module.minimized()
        self.ring = module.ring
        self.degree_cap = degree_cap
        self.stall = stall
        first = Step(
            tuple(self.minimal.gen_degs),
            tuple(self.minimal.rel_degs),
            self.minimal.presentation,
        )
        self.steps: List[Step] = [first]
        # scanned kernel_step input, shifted so that col_degs[0] = 0 -> index of its output
        self._outputs: Dict[tuple, int] = {}

    def _auto_cap(self, H: int) -> int:
        if self.degree_cap is not None:
            return self.degree_cap
        ring = self.ring
        rd = max(ring.relation_degrees) if ring.relation_degrees else 2
        base = max(list(self.minimal.gen_degs) + list(self.minimal.rel_degs) + [0])
        return base + (H + 2) * max(rd, 2 * ring.max_weight) + 8

    def extend(self, H: int):
        """Ensure differentials up to step H are computed.

        A step whose input repeats an earlier input shifted by s is the
        earlier output shifted by s (see the module docstring).  It is
        reused only if the earlier scan end plus s is within this step's
        cap; otherwise kernel_step runs and raises as it would have.
        """
        while len(self.steps) < H:
            prev = self.steps[-1]
            if not prev.col_degs:
                # already hit a zero step: free tail
                self.steps.append(Step(prev.col_degs, (), ()))
                continue
            cap = self._auto_cap(len(self.steps) + 2)
            base = prev.col_degs[0]
            key = (tuple(r - base for r in prev.row_degs),
                   tuple(c - base for c in prev.col_degs),
                   tuple(tuple(poly_key(e.poly) for e in row) for row in prev.entries))
            seen = self._outputs.get(key)
            if seen is not None:
                old = self.steps[seen]
                shift = base - old.row_degs[0]
                if old.scanned_to + shift <= cap:
                    self.steps.append(Step(
                        prev.col_degs, tuple(c + shift for c in old.col_degs), old.entries,
                        scanned_to=old.scanned_to + shift))
                    continue
            nxt = kernel_step(self.ring, prev.row_degs, prev.col_degs, prev.entries,
                              degree_cap=cap, stall=self.stall)
            if nxt.scanned_to is not None:
                self._outputs[key] = len(self.steps)
            self.steps.append(nxt)

    def betti(self, i: int) -> int:
        if i == 0:
            return self.minimal.num_gens
        self.extend(i)
        return len(self.steps[i - 1].col_degs)

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
        """Syz_n(M) = image of the n-th differential, presented by the next one."""
        if n == 0:
            return self.minimal
        self.extend(n + 1)
        gen_step = self.steps[n - 1]
        rel_step = self.steps[n]
        label = f"Syz{n}({self.module.label})" if self.module.label else f"Syz{n}"
        return GradedModule(
            self.ring, gen_step.col_degs, rel_step.col_degs, rel_step.entries,
            label=label, check=False)

    def verify_exactness(self, H: int) -> bool:
        """Exactness at F_i for every computed adjacent pair d_i, d_{i+1}.

        d_i . d_{i+1} = 0 exactly, and rank d_{i+1} = dim F_i - rank d_i in
        every degree from F_i's lowest generator degree through the scan
        end of d_{i+1} plus ``default_stall``: a scan that stopped before a
        generator shows there as a rank deficit.
        """
        self.extend(H)
        ring, stall = self.ring, default_stall(self.ring)
        systems = [BlockSystem(ring, s.entries, s.row_degs, s.col_degs) for s in self.steps]
        for a, b, da, db in zip(self.steps, self.steps[1:], systems, systems[1:]):
            if any(not e.is_zero() for row in grid_mul(ring, a.entries, b.entries) for e in row):
                return False
            scan = () if b.scanned_to is None else range(min(b.row_degs), b.scanned_to + stall + 1)
            for t in scan:
                if db.at(t).rank() + da.at(t).rank() != sum(
                        ring.hilbert_function(t - c) for c in b.row_degs):
                    return False
        return True


def resolve(M: GradedModule, H: int, degree_cap: Optional[int] = None,
            stall: Optional[int] = None) -> FreeResolution:
    """Minimal resolution window of M with H differentials.

    The window is cached on M and reused only by calls with the same
    ``degree_cap`` and ``stall``; other bounds rebuild it.
    """
    res = M._resolution
    if res is None or (res.degree_cap, res.stall) != (degree_cap, stall):
        res = M._resolution = FreeResolution(M, degree_cap, stall)
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
        from .modules import residue_field_module

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
    of T_i); the returned elements are reduced there.
    """
    ring = res.ring
    step = res.differential(i + 1)
    src_degs = tuple(-r for r in step.row_degs)
    tgt_degs = tuple(-c for c in step.col_degs)
    cap = degree_cap if degree_cap is not None else (
        max(src_degs, default=0) + 4 * default_stall(ring) + 8)
    ker_step = kernel_step(ring, tgt_degs, src_degs, step.transpose_data(), degree_cap=cap)
    return [target.element(d, ring.join_coords([row[g] for row in ker_step.entries],
                                               [d - r for r in src_degs]))
            for g, d in enumerate(ker_step.col_degs)]


def ext_is_zero(M: GradedModule, i: int, degree_cap: Optional[int] = None) -> bool:
    """Whether Ext^i(M, A) vanishes."""
    if i < 0:
        raise UsageError("negative Ext index")
    res = resolve(M, i + 2, degree_cap=degree_cap)
    target = _dual_cokernel(res, i)
    gens = _dual_kernel_elements(res, i, degree_cap, target)
    return all(g.is_zero() for g in gens)


def ext_module(M: GradedModule, i: int, degree_cap: Optional[int] = None) -> GradedModule:
    """Ext^i(M, A) as a finitely presented graded module."""
    res = resolve(M, i + 2, degree_cap=degree_cap)
    target = _dual_cokernel(res, i)
    gens = [g for g in _dual_kernel_elements(res, i, degree_cap, target) if not g.is_zero()]
    if not gens:
        return GradedModule(M.ring, [], [], [], label=f"Ext{i}", check=False)
    N, _ = submodule_presentation(target, gens, label=f"Ext{i}({M.label})" if M.label else f"Ext{i}")
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


def ulrich_test(M: GradedModule, degree_cap: Optional[int] = None) -> bool:
    """e(M) = mu(M); requires an MCM input."""
    if not mcm_test(M, degree_cap=degree_cap):
        raise UsageError("ulrich test requires a maximal Cohen-Macaulay module")
    inv = invariants(M)
    return inv.multiplicity_e == inv.mu
