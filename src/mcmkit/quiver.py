"""Auslander-Reiten quivers for finite-type catalogs.

Arrows are counted by the radical filtration: irr(M, N) is the
dimension of (M,N)_1 / (M,N)_2, where (M,N)_1 drops the isomorphism
components and (M,N)_2 is spanned by two-step composites through
catalog modules, the grids of ``_QuiverBuilder.rad2_grids``.  Each span
is built by one ``HomSpace.span`` call.  Because the engine is graded,
maps of every internal degree matter: a map of internal degree t is a
degree-0 map into a shift of the target, and irr totals the
contributions over the finite band where the Hom module has minimal
generators (deeper maps are maximal-ideal multiples, hence lie in the
second filtration layer).

Middle terms of AR sequences are assembled from the irr counts; the
translate is tau = Syz_{2-d}.  Symmetry checks (dual and linkage as
reverse-graph isomorphisms), syzygy orbit ideals, and classification of
components by periodicity / Ulrich / complexity live here too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .catalog import CatalogData
from .errors import Inconclusive, UsageError
from .homs import (Hom, _unit_search, end_algebra, hom_space, is_isomorphic, local_certificate,
                   strip_free_summands)
from .modules import GradedModule, default_stall, invariants
from .resolution import detect_period, growth_report, ulrich_test
from .functors import dual, lift_map, link, syzygy_signed, tau
from .rings import grid_mul

__all__ = [
    "ARVertex",
    "ARQuiver",
    "ARSequenceData",
    "build_quiver",
    "middle_term",
    "radical_filtration",
    "reverse_iso_check",
    "syzygy_orbit_ideal",
    "component_classify",
    "lifted_arrows_remain_irreducible",
]

SCAN_WIDTH_CAP = 64


@dataclass
class ARVertex:
    name: str
    module: GradedModule
    is_free: bool
    residue_degree: int
    mu: int
    e: int

    def __repr__(self):
        star = "[A]" if self.is_free else self.name
        return f"{star}(mu={self.mu}, e={self.e})"


@dataclass
class ARSequenceData:
    vertex: str
    tau_name: str
    middle: List[Tuple[str, int]]
    middle_free_rank: int
    mu_middle: int
    e_middle: int


class ARQuiver:
    def __init__(self, ring, d, vertices: List[ARVertex],
                 arrows: Dict[Tuple[int, int], int],
                 arrow_degrees: Dict[Tuple[int, int], Dict[int, int]],
                 residue_flags: bool):
        self.ring = ring
        self.d = d
        self.vertices = vertices
        self.arrows = {k: v for k, v in arrows.items() if v > 0}
        self.arrow_degrees = arrow_degrees
        self.residue_flag = residue_flags  # a residue algebra exceeded k somewhere

    @property
    def free_index(self) -> int:
        return next(i for i, v in enumerate(self.vertices) if v.is_free)

    def vertex_index(self, name: str) -> int:
        for i, v in enumerate(self.vertices):
            if v.name == name:
                return i
        raise UsageError(f"no vertex named {name!r}")

    def irr(self, src: str, tgt: str) -> int:
        return self.arrows.get((self.vertex_index(src), self.vertex_index(tgt)), 0)

    def stable_indices(self) -> List[int]:
        return [i for i, v in enumerate(self.vertices) if not v.is_free]

    def stable_arrows(self) -> Dict[Tuple[int, int], int]:
        keep = set(self.stable_indices())
        return {k: v for k, v in self.arrows.items() if k[0] in keep and k[1] in keep}

    def stable_components(self) -> List[List[int]]:
        """Connected components of the stable quiver (undirected)."""
        nodes = self.stable_indices()
        adj = {i: set() for i in nodes}
        for (a, b), m in self.stable_arrows().items():
            adj[a].add(b)
            adj[b].add(a)
        seen = set()
        comps = []
        for start in nodes:
            if start in seen:
                continue
            comp = []
            stack = [start]
            seen.add(start)
            while stack:
                x = stack.pop()
                comp.append(x)
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            comps.append(sorted(comp))
        return comps

    def match_vertex(self, module: GradedModule, seed: int = 0) -> Optional[int]:
        """Index of the catalog vertex isomorphic to the module, if any."""
        for i, v in enumerate(self.vertices):
            if is_isomorphic(v.module, module, seed=seed):
                return i
        return None

    def to_dot(self) -> str:
        lines = ["digraph ar_quiver {"]
        order = sorted(range(len(self.vertices)), key=lambda i: (not self.vertices[i].is_free,
                                                                 self.vertices[i].name))
        for i in order:
            v = self.vertices[i]
            shape = "doublecircle" if v.is_free else "ellipse"
            label = f"{v.name} (mu={v.mu}, e={v.e})"
            lines.append(f'    "{v.name}" [shape={shape}, label="{label}"];')
        for (a, b) in sorted(self.arrows, key=lambda k: (self.vertices[k[0]].name,
                                                         self.vertices[k[1]].name)):
            m = self.arrows[(a, b)]
            lines.append(
                f'    "{self.vertices[a].name}" -> "{self.vertices[b].name}" [label="{m}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _scale_grid_by_var(ring, grid, var_elem):
    return [[var_elem * e if not e.is_zero() else ring.zero() for e in row] for row in grid]


def _radical(M: GradedModule, seed: int, what: str):
    """(phi grids spanning rad End M, residue degree) of an M with certified local End."""
    E = end_algebra(M)
    if E.dim == 1:
        return [], 1
    ok, rad, sdeg = local_certificate(E, random.Random(seed))
    if not ok:
        raise Inconclusive(f"{what} not certified local")
    return [E.hs.element_from_coords(row).phi for row in rad.basis_matrix().rows()], sdeg


def _composites(ring, middles, fs_of, gs_of):
    """Every g f with f in fs_of(X) and g in gs_of(X), over the middle terms X.

    gs_of(X) is not asked for when fs_of(X) is empty.
    """
    for X in middles:
        fs = fs_of(X)
        if fs:
            for g in gs_of(X):
                for f in fs:
                    yield grid_mul(ring, g, f)


class _QuiverBuilder:
    """Caches for vertex shifts, canonical Hom bases, and radicals."""

    def __init__(self, ring, vertices: List[ARVertex], seed: int = 0,
                 stall: Optional[int] = None):
        self.ring = ring
        self.vertices = vertices
        self.seed = seed
        self.stall = stall if stall is not None else default_stall(ring)
        self._shifted: Dict[Tuple[int, int], GradedModule] = {}
        self._space1: Dict[Tuple[int, int, int], List] = {}
        self._rad: Dict[int, List] = {}
        self.residue_flag = False

    def shifted(self, vi: int, t: int) -> GradedModule:
        key = (vi, t)
        got = self._shifted.get(key)
        if got is None:
            got = self.vertices[vi].module.degree_shift(t)
            self._shifted[key] = got
        return got

    def radical_grids(self, vi: int) -> List:
        """phi grids spanning rad End of an indecomposable vertex."""
        got = self._rad.get(vi)
        if got is None:
            v = self.vertices[vi]
            got, v.residue_degree = _radical(
                v.module, self.seed, f"endomorphism algebra of vertex {v.name}")
            self.residue_flag = self.residue_flag or v.residue_degree > 1
            self._rad[vi] = got
        return got

    def space1_grids(self, vi: int, vj: int, diff: int) -> List:
        """phi grids spanning (V_i, V_j<diff>)_1."""
        key = (vi, vj, diff)
        if key not in self._space1:
            if vi == vj and diff == 0:
                self._space1[key] = self.radical_grids(vi)
            else:
                hs = hom_space(self.vertices[vi].module, self.shifted(vj, diff))
                self._space1[key] = [h.phi for h in hs.basis()]
        return self._space1[key]

    def gen_span(self, vi):
        v = self.vertices[vi].module
        return max(v.gen_degs) if v.gen_degs else 0

    def rad2_grids(self, vi: int, vj: int, t: int):
        """Yield the phi grids of the composites g f that span (V_i, V_j<t>)_2: f in (V_i, X<s>)_1,
        g in (X<s>, V_j<t>)_1, X a catalog vertex, t - gen_span(X) <= s <= gen_span(V_i)."""
        middles = [(xk, s) for xk in range(len(self.vertices))
                   for s in range(t - self.gen_span(xk), self.gen_span(vi) + 1)]
        return _composites(self.ring, middles, lambda m: self.space1_grids(vi, m[0], m[1]),
                           lambda m: self.space1_grids(m[0], vj, t - m[1]))

    def irr_pair(self, vi: int, vj: int) -> Dict[int, Tuple[int, int, int]]:
        """(dim Hom, dim (,)_1, dim (,)_2) of (V_i, V_j<t>), in descending t, for
        each internal degree t with irreducible maps (dim (,)_1 > dim (,)_2)."""
        ring = self.ring
        V = self.vertices[vi].module
        t_hi = self.gen_span(vi)  # Hom vanishes above maxgen(V) - minsupp(W) = maxgen(V)
        stall_total = self.stall + self.gen_span(vi) + self.gen_span(vj)
        out: Dict[int, Tuple[int, int, int]] = {}
        no_new = 0
        t = t_hi
        scanned = 0
        vars_elems = [(ring.element(v), w) for v, w in zip(ring.variables, ring.weights)]
        while True:
            hs = hom_space(V, self.shifted(vj, t))
            s1 = self.space1_grids(vi, vj, t)
            new_gens = 0
            if s1:
                dim1 = hs.span(s1).dim
                # maximal-ideal multiples of higher maps
                new_gens = dim1 - hs.span(_scale_grid_by_var(ring, grid, var_elem)
                                          for var_elem, w in vars_elems
                                          for grid in self.space1_grids(vi, vj, t + w)).dim
                if new_gens > 0:
                    dim2 = hs.span(self.rad2_grids(vi, vj, t)).dim
                    if dim1 > dim2:
                        out[t] = (hs.dim, dim1, dim2)
            no_new = 0 if new_gens > 0 else no_new + 1
            t -= 1
            scanned += 1
            if no_new >= stall_total and scanned >= stall_total:
                break
            if scanned > SCAN_WIDTH_CAP:
                raise Inconclusive(
                    f"irr scan budget exceeded for pair "
                    f"({self.vertices[vi].name}, {self.vertices[vj].name})")
        return out


def build_quiver(catalog: CatalogData, seed: int = 0, stall: Optional[int] = None) -> ARQuiver:
    """Assemble the AR quiver of a shipped catalog.

    Vertices are validated pairwise non-isomorphic and indecomposable;
    the closure check verifies that the translate, syzygies, dual and
    linkage of every vertex land back in the catalog.
    """
    ring = catalog.ring
    d = ring.krull_dim()
    verts: List[ARVertex] = []
    A = catalog.free_vertex()
    invA = invariants(A)
    verts.append(ARVertex("A", A, True, 1, invA.mu, invA.multiplicity_e))
    for name, M in catalog.modules():
        inv = invariants(M)
        verts.append(ARVertex(name, M, False, 1, inv.mu, inv.multiplicity_e))
    # pairwise non-isomorphic
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if is_isomorphic(verts[i].module, verts[j].module, seed=seed):
                raise UsageError(
                    f"catalog vertices {verts[i].name} and {verts[j].name} are isomorphic")
    builder = _QuiverBuilder(ring, verts, seed=seed, stall=stall)
    for i, v in enumerate(verts):
        if not v.is_free:
            builder.radical_grids(i)  # certifies indecomposability, sets residue degree
    arrows: Dict[Tuple[int, int], int] = {}
    arrow_degrees: Dict[Tuple[int, int], Dict[int, int]] = {}
    for i in range(len(verts)):
        for j in range(len(verts)):
            if verts[i].is_free and verts[j].is_free:
                continue  # loops at [A] are not part of any AR middle term
            per = {t: d1 - d2 for t, (_, d1, d2) in builder.irr_pair(i, j).items()}
            if per:
                arrows[(i, j)] = sum(per.values())
                arrow_degrees[(i, j)] = per
    q = ARQuiver(ring, d, verts, arrows, arrow_degrees, builder.residue_flag)
    report = closure_check(q, catalog, seed=seed)
    if report:
        raise Inconclusive("catalog incomplete: " + "; ".join(report))
    return q


def closure_check(q: ARQuiver, catalog: CatalogData, seed: int = 0) -> List[str]:
    """Names of functor images that escape the catalog (empty = closed)."""
    problems = []
    for v in q.vertices:
        if v.is_free:
            continue
        images = {
            "tau": tau(v.module, q.d),
            "Syz1": syzygy_signed(v.module, 1),
            "dual": dual(v.module),
            "link": link(v.module),
        }
        for fname, img in images.items():
            stable, _ = strip_free_summands(img)
            if stable.minimized().num_gens == 0:
                continue
            if q.match_vertex(stable, seed=seed) is None:
                inv = invariants(stable)
                problems.append(
                    f"{fname}({v.name}) has mu={inv.mu}, e={inv.multiplicity_e}, "
                    f"outside the catalog")
    return problems


def middle_term(q: ARQuiver, vertex_name: str, seed: int = 0) -> ARSequenceData:
    """Middle term of the AR sequence ending at a vertex, from irr counts."""
    j = q.vertex_index(vertex_name)
    if q.vertices[j].is_free:
        raise UsageError("no AR sequence ends at the free vertex")
    tau_mod = tau(q.vertices[j].module, q.d)
    ti = q.match_vertex(tau_mod, seed=seed)
    if ti is None:
        raise Inconclusive(f"catalog incomplete: tau({vertex_name}) not found")
    middle = []
    mu_mid = 0
    e_mid = 0
    free_rank = 0
    for i, v in enumerate(q.vertices):
        mult = q.arrows.get((i, j), 0)
        if mult == 0:
            continue
        middle.append((v.name, mult))
        mu_mid += mult * v.mu
        e_mid += mult * v.e
        if v.is_free:
            free_rank += mult
    return ARSequenceData(
        vertex=vertex_name,
        tau_name=q.vertices[ti].name,
        middle=sorted(middle),
        middle_free_rank=free_rank,
        mu_middle=mu_mid,
        e_middle=e_mid,
    )


def reverse_iso_check(q: ARQuiver, functor: str, seed: int = 0) -> Tuple[bool, Dict[str, str]]:
    """Does the functor reverse all stable arrows with equal multiplicities?

    functor is "D" (dual) or "lambda" (horizontal linkage).  Returns the
    vertex bijection on success.
    """
    if functor == "D":
        fn: Callable[[GradedModule], GradedModule] = lambda m: dual(m)
    elif functor in ("lambda", "link"):
        fn = lambda m: link(m)
    else:
        raise UsageError("functor must be 'D' or 'lambda'")
    mapping: Dict[int, int] = {}
    for i in q.stable_indices():
        img = fn(q.vertices[i].module)
        ti = q.match_vertex(img, seed=seed)
        if ti is None or q.vertices[ti].is_free:
            raise Inconclusive(
                f"catalog incomplete: {functor}({q.vertices[i].name}) escaped the stable quiver")
        mapping[i] = ti
    if sorted(mapping.values()) != sorted(mapping.keys()):
        return False, {q.vertices[i].name: q.vertices[t].name for i, t in mapping.items()}
    ok = True
    stable = q.stable_arrows()
    nodes = q.stable_indices()
    for a in nodes:
        for b in nodes:
            if stable.get((a, b), 0) != stable.get((mapping[b], mapping[a]), 0):
                ok = False
    return ok, {q.vertices[i].name: q.vertices[t].name for i, t in mapping.items()}


def syzygy_orbit_ideal(q: ARQuiver, component: Sequence[int], n_max: int = 4,
                       seed: int = 0):
    """Generator of { n : Syz_n stays in the component }, searched up to n_max.

    Returns (i, constant_flag) where i = 0 encodes "zero within bounds".
    The ideal property makes the positive generator enough; constancy is
    checked across all vertices of the component.
    """
    gens = []
    for vi in component:
        M = q.vertices[vi].module
        found = 0
        for n in range(1, n_max + 1):
            S = syzygy_signed(M, n)
            stable, _ = strip_free_summands(S)
            ti = q.match_vertex(stable, seed=seed)
            if ti is not None and ti in component:
                found = n
                break
        gens.append(found)
    constant = all(g == gens[0] for g in gens)
    return gens[0], constant


def radical_filtration(catalog: CatalogData, seed: int = 0,
                       stall: Optional[int] = None) -> Dict[Tuple[str, str], Dict[int, Tuple[int, int, int]]]:
    """Pairwise filtration dimensions over the catalog.

    For each ordered pair of vertices and each internal degree of the
    scanned band that has irreducible maps: (dim Hom, dim (M,N)_1,
    dim (M,N)_2), as ``irr_pair`` gives them.
    """
    ring = catalog.ring
    verts: List[ARVertex] = []
    A = catalog.free_vertex()
    verts.append(ARVertex("A", A, True, 1, 1, ring.multiplicity()))
    for name, M in catalog.modules():
        verts.append(ARVertex(name, M, False, 1, 0, 0))
    builder = _QuiverBuilder(ring, verts, seed=seed, stall=stall)
    pairs = [(i, j) for i in range(len(verts)) for j in range(len(verts))
             if not (verts[i].is_free and verts[j].is_free)]
    return {(verts[i].name, verts[j].name): per
            for i, j in pairs if (per := builder.irr_pair(i, j))}


def _noniso_grids(P: GradedModule, Q: GradedModule, seed: int = 0):
    """phi grids spanning the non-isomorphism part of Hom(P, Q).

    P is assumed indecomposable with local endomorphism ring.  When the
    modules are isomorphic the subspace is the radical transported along
    one isomorphism; otherwise it is the whole Hom space.
    """
    hs = hom_space(P, Q)
    if hs.dim == 0:
        return []
    if not is_isomorphic(P, Q, seed=seed, up_to_shift=False):
        return [h.phi for h in hs.basis()]
    v, _ = _unit_search(hs, random.Random(seed))
    if v is None:
        raise Inconclusive("failed to realize an isomorphism for rad transport")
    return [grid_mul(P.ring, v.phi, r) for r in _radical(P, seed, "endomorphism ring")[0]]


def lifted_arrows_remain_irreducible(q: ARQuiver, seed: int = 0) -> List[Tuple[str, bool]]:
    """For every stable arrow, lift a representative to first syzygies and
    re-verify membership in the first but not the second filtration layer."""
    builder = _QuiverBuilder(q.ring, q.vertices, seed=seed)
    results: List[Tuple[str, bool]] = []
    stable = set(q.stable_indices())
    for (i, j), per in sorted(q.arrow_degrees.items()):
        if i not in stable or j not in stable:
            continue
        name = f"{q.vertices[i].name}->{q.vertices[j].name}"
        t = max(d for d, m in per.items() if m > 0)
        src = q.vertices[i].module
        tgt = builder.shifted(j, t)
        hs = hom_space(src, tgt)
        span2 = hs.span(builder.rad2_grids(i, j, t))
        rep = next((h for h in builder.space1_grids(i, j, t)
                    if not span2.contains(hs.trivial.reduce(hs.flat_of_phi(h)))), None)
        if rep is None:
            results.append((name, False))
            continue
        lifted = lift_map(Hom(src, tgt, rep))
        SP, SQ = lifted.source, lifted.target
        if SP.minimized().num_gens == 0 or SQ.minimized().num_gens == 0:
            results.append((name, False))
            continue
        hs1 = hom_space(SP, SQ)
        flat = hs1.trivial.reduce(hs1.flat_of_phi(lifted.phi))
        in_first = hs1.span(_noniso_grids(SP, SQ, seed=seed)).contains(flat)
        mg_sp = max(SP.gen_degs) if SP.gen_degs else 0
        mg_sq = min(SQ.gen_degs) if SQ.gen_degs else 0
        middles = [builder.shifted(xk, s) for xk in range(len(q.vertices))
                   for s in range(mg_sq - builder.gen_span(xk) - q.ring.max_weight, mg_sp + 1)]
        in_second = hs1.span(_composites(q.ring, middles, lambda X: _noniso_grids(SP, X, seed=seed),
                                         lambda X: _noniso_grids(X, SQ, seed=seed))).contains(flat)
        results.append((name, bool(in_first and not in_second)))
    return results


_PROPERTIES = ("periodic", "bounded_nonperiodic", "ulrich", "cx_equals", "curv_leq")


def component_classify(q: ARQuiver, prop: str, value=None, seed: int = 0,
                       p_max: int = 2, n_max: int = 4, H: int = 10) -> Dict:
    """Per-component constancy report for a module property.

    Violations are reported verbatim: they falsify the catalog or the
    implementation, not the theorem.
    """
    if prop not in _PROPERTIES:
        raise UsageError(f"unknown property {prop!r}; known: {_PROPERTIES}")

    def flag(vertex: ARVertex):
        M = vertex.module
        if prop == "periodic":
            return detect_period(M, p_max=p_max, n_max=n_max, seed=seed) is not None
        if prop == "bounded_nonperiodic":
            rep = growth_report(M, H=H)
            bounded = rep.cx_estimate <= 1 and not rep.finite_projdim
            periodic = detect_period(M, p_max=p_max, n_max=n_max, seed=seed) is not None
            return bounded and not periodic
        if prop == "ulrich":
            return ulrich_test(M)
        if prop == "cx_equals":
            rep = growth_report(M, H=H)
            target = value if value is not None else 1
            return rep.cx_estimate == target if rep.cx_confident else None
        if prop == "curv_leq":
            rep = growth_report(M, H=H)
            return rep.curv_estimate <= (value if value is not None else 1.0) + 1e-9
        return None

    comps = []
    for comp in q.stable_components():
        flags = {}
        partial = False
        for vi in comp:
            try:
                flags[q.vertices[vi].name] = flag(q.vertices[vi])
                if flags[q.vertices[vi].name] is None:
                    partial = True
            except Inconclusive:
                flags[q.vertices[vi].name] = None
                partial = True
        values = [v for v in flags.values() if v is not None]
        constant = len(set(values)) <= 1
        comps.append({
            "vertices": [q.vertices[vi].name for vi in comp],
            "flags": flags,
            "constant": constant,
            "partial": partial,
        })
    return {
        "property": prop + (f"({value})" if value is not None else ""),
        "components": comps,
        "all_constant": all(c["constant"] for c in comps),
    }
