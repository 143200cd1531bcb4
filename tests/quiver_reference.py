"""The radical-filtration route to the AR quiver, kept as a reference for ``build_quiver``.

Arrows are counted by the radical filtration: irr(M, N) is the dimension
of (M,N)_1 / (M,N)_2, where (M,N)_1 drops the isomorphism components and
(M,N)_2 is spanned by two-step composites through catalog modules, the
grids of ``_QuiverBuilder.rad2_grids``.  Each span is built by one
``HomSpace.span`` call.  Because the engine is graded, maps of every
internal degree matter: a map of internal degree t is a degree-0 map into
a shift of the target, and irr totals the contributions over the band
where the Hom module has minimal generators (deeper maps are
maximal-ideal multiples, hence lie in the second filtration layer).  The
scan down that band stops by a stall rule, so it is windowed: it is a
check on the AR sequences ``build_quiver`` reads the arrows off, which
need no scan.

``radical_filtration`` gives the filtration dimensions of every vertex
pair, ``reference_arrow_degrees`` the arrows they imply,
``lifted_arrows_remain_irreducible`` re-checks each stable arrow on first
syzygies, and ``syzygy_orbit_ideal`` searches the syzygies that stay in a
component.
"""

from typing import Dict, List, Sequence, Tuple

from mcmkit.catalog import CatalogData
from mcmkit.errors import Inconclusive
from mcmkit.functors import lift_map, syzygy_signed
from mcmkit.homs import (Hom, end_algebra, hom_radical, hom_space, local_certificate,
                         strip_free_summands)
from mcmkit.modules import GradedModule, default_stall
from mcmkit.quiver import ARQuiver, ARVertex
from mcmkit.rings import grid_mul

SCAN_WIDTH_CAP = 64


def _scale_grid_by_var(ring, grid, var_elem):
    return [[var_elem * e if not e.is_zero() else ring.zero() for e in row] for row in grid]


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

    def __init__(self, ring, vertices: List[ARVertex]):
        self.ring = ring
        self.vertices = vertices
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
        """phi grids spanning rad End of a vertex, whose End is certified local."""
        got = self._rad.get(vi)
        if got is None:
            v = self.vertices[vi]
            E = end_algebra(v.module)  # End = k needs no certificate, over QQ too
            ok, rad, v.residue_degree = (True, E.radical, 1) if E.dim == 1 else local_certificate(E)
            if not ok:
                raise Inconclusive(f"endomorphism algebra of vertex {v.name} not certified local")
            got = [E.hs.element_from_coords(row).phi for row in rad.basis_matrix().rows()]
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
        stall_total = default_stall(ring) + self.gen_span(vi) + self.gen_span(vj)
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
                    f"({self.vertices[vi].name}, {self.vertices[vj].name})", bound=SCAN_WIDTH_CAP)
        return out


def syzygy_orbit_ideal(q: ARQuiver, component: Sequence[int], n_max: int = 4):
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
            ti = q.match_vertex(stable)
            if ti is not None and ti in component:
                found = n
                break
        gens.append(found)
    constant = all(g == gens[0] for g in gens)
    return gens[0], constant


def radical_filtration(
        catalog: CatalogData) -> Dict[Tuple[str, str], Dict[int, Tuple[int, int, int]]]:
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
    builder = _QuiverBuilder(ring, verts)
    pairs = [(i, j) for i in range(len(verts)) for j in range(len(verts))
             if not (verts[i].is_free and verts[j].is_free)]
    return {(verts[i].name, verts[j].name): per
            for i, j in pairs if (per := builder.irr_pair(i, j))}


def _noniso_grids(P: GradedModule, Q: GradedModule):
    """phi grids spanning rad(P, Q), the non-isomorphism part of Hom(P, Q)."""
    hs = hom_space(P, Q)
    return [hs.element_from_coords(row).phi for row in hom_radical(P, Q).basis_matrix().rows()]


def lifted_arrows_remain_irreducible(q: ARQuiver) -> List[Tuple[str, bool]]:
    """For every stable arrow, lift a representative to first syzygies and
    re-verify membership in the first but not the second filtration layer."""
    builder = _QuiverBuilder(q.ring, q.vertices)
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
        in_first = hs1.span(_noniso_grids(SP, SQ)).contains(flat)
        mg_sp = max(SP.gen_degs) if SP.gen_degs else 0
        mg_sq = min(SQ.gen_degs) if SQ.gen_degs else 0
        middles = [builder.shifted(xk, s) for xk in range(len(q.vertices))
                   for s in range(mg_sq - builder.gen_span(xk) - q.ring.max_weight, mg_sp + 1)]
        in_second = hs1.span(_composites(q.ring, middles, lambda X: _noniso_grids(SP, X),
                                         lambda X: _noniso_grids(X, SQ))).contains(flat)
        results.append((name, bool(in_first and not in_second)))
    return results


def reference_arrow_degrees(
        catalog: CatalogData) -> Dict[Tuple[str, str], Dict[int, int]]:
    """Arrows by (source, target) name and internal degree, as the filtration counts them."""
    return {pair: {t: d1 - d2 for t, (_, d1, d2) in per.items()}
            for pair, per in radical_filtration(catalog).items()}
