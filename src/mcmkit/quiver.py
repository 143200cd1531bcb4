"""Auslander-Reiten quivers for finite-type catalogs, read off their AR sequences.

The arrows into a non-free vertex M are the indecomposable summands of the
middle term E of the AR sequence 0 -> tau M -> E -> M -> 0 (Auslander and
Reiten, Math. Ann. 277, 1987; Yoshino, Cohen-Macaulay modules over
Cohen-Macaulay rings, LMS LN 146, 1990, ch. 3 and 15).  The translate is
N = tau M = Syz_{2-d} M, and with Omega = Syz_1 M, Ext^1(M, N<t>) is the
stable Hom(Omega, N<t>).  At t* = -a(A), the sum of the weights minus the
sum of the relation degrees, it is the simple socle of Ext^1(M, tau M)
under graded AR duality, of dimension s_M = dim End(M)/rad, so any class
eta in it outside the maps through free modules gives the sequence.  E is
the pushout of F_0 <- Omega -> N<t*>, presented by [[P, 0], [-eta, Q]] for
the minimal presentations P of M and Q of N<t*>, and is maximal
Cohen-Macaulay by the depth lemma.  A vertex X shifted by s is a summand of
E with multiplicity (dim Hom(X<s>, E) - dim rad(X<s>, E)) / s_X, and gives
that many arrows X -> M of internal degree -s.  The arrows into the free
vertex come the same way from X(m), the MCM approximation of the maximal
ideal (m itself on curves), which maps onto m inside A as the right almost
split map.  Three checks guard each sequence at run time: dim Ext^1 = s_M,
the summands found account for every minimal generator of E, and
e(E) = e(M) + e(tau M).  A failed check raises ``Inconclusive`` naming it.
The same multiplicity vector, complete when it accounts for every generator,
names each vertex the builder meets: tau M, the catalog's pairwise check, the
closure check and the reverse checks' maps.  A module is X<t> exactly when its
vector is complete and equals {(X, -t): 1}.
That the class at t* gives the almost split sequence is graded AR duality,
not one of the checks: on A2:dim1 the class one degree above t* passes all
three with E = A + A<1>, and ``tests/test_ar_sequences.py`` compares every
catalog's arrows with the radical-filtration reference.

Symmetry checks (dual and linkage as reverse-graph isomorphisms) and
classification of components by periodicity / Ulrich / complexity live here too.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .catalog import CatalogData
from .errors import Inconclusive, UsageError
from .homs import end_algebra, hom_radical, hom_space, local_certificate
from .modules import GradedModule, _depth_as, invariants, maximal_ideal_module, ring_depth
from .resolution import check_period_bounds, detect_period, growth_report, resolve, ulrich_test
from .functors import dual, link, mcm_approx, syzygy_signed, tau

__all__ = [
    "ARVertex",
    "ARQuiver",
    "ARSequenceData",
    "build_quiver",
    "middle_term",
    "reverse_iso_check",
    "component_classify",
]


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
    module: GradedModule  # the middle term E, as the pushout presents it


class ARQuiver:
    def __init__(self, ring, d, vertices: List[ARVertex],
                 arrows: Dict[Tuple[int, int], int],
                 arrow_degrees: Dict[Tuple[int, int], Dict[int, int]],
                 residue_flags: bool, sequences: Dict[str, ARSequenceData]):
        self.ring = ring
        self.d = d
        self.vertices = vertices
        self.arrows = {k: v for k, v in arrows.items() if v > 0}
        self.arrow_degrees = arrow_degrees
        self.residue_flag = residue_flags  # a residue algebra exceeded k somewhere
        self.sequences = sequences  # vertex name -> the AR sequence ending there
        # "dual", "link" -> {vertex: the vertex its image is, or None}, set by closure_check
        self.images: Optional[Dict[str, Dict[int, Optional[int]]]] = None

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
        """Connected components of the stable quiver (undirected), sorted, by least vertex."""
        comp = {i: [i] for i in self.stable_indices()}
        for a, b in self.stable_arrows():
            if comp[a] is not comp[b]:
                merged = comp[a] + comp[b]
                for x in merged:
                    comp[x] = merged
        return [sorted(c) for i, c in comp.items() if min(c) == i]

    def match_vertex(self, module: GradedModule) -> Optional[int]:
        """Index of the catalog vertex isomorphic to the module, if any."""
        return _named(*_multiplicities(self.vertices, module))

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


def _named(found: Dict[Tuple[int, int], int], complete: bool) -> Optional[int]:
    """i when the vector is complete and {(i, t): 1}, so the module is X_i shifted."""
    return next(iter(found))[0] if complete and list(found.values()) == [1] else None


def _residue_degree(v: ARVertex) -> int:
    """s_V = dim End(V)/rad, once End(V) is certified local, so V indecomposable."""
    ok, _, s = local_certificate(end_algebra(v.module))
    if not ok:
        raise Inconclusive(f"endomorphism algebra of vertex {v.name} not certified local")
    return s


def _ar_shift(ring) -> int:
    """t* = -a(A), the sum of the weights minus the sum of the relation degrees: the
    degree where graded AR duality puts the class of each AR sequence."""
    return sum(ring.weights) - sum(ring.relation_degrees)


def _multiplicities(vertices: List[ARVertex],
                    M: GradedModule) -> Tuple[Dict[Tuple[int, int], int], bool]:
    """The multiplicity of each vertex X shifted by s in M, keyed (index of X, -s), and
    whether they are complete: sum mult * mu(X) = mu(M), so M has no other summand.

    Auslander's criterion: X<s> occurs (dim Hom(X<s>, M) - dim rad(X<s>, M)) / s_X
    times.  A summand's generator degrees are among M's minimal ones, so only
    the shifts that fit are tried.  Hom(X<s>, M) is solved as Hom(X, M<-s>),
    where End(X) and its radical are already kept.
    """
    Mm = M.minimized()
    have = Counter(Mm.gen_degs)
    found: Dict[Tuple[int, int], int] = {}
    for i, v in enumerate(vertices):
        for s in sorted({e - g for e in have for g in v.module.gen_degs}):
            if Counter(g + s for g in v.module.gen_degs) - have:
                continue
            target = Mm.degree_shift(-s)
            top = hom_space(v.module, target).dim - hom_radical(v.module, target).dim
            mult = top // v.residue_degree
            if mult:
                found[(i, -s)] = mult
    return found, sum(m * vertices[i].mu for (i, _), m in found.items()) == Mm.num_gens


def _summands(vertices: List[ARVertex], E: GradedModule, what: str) -> Dict[Tuple[int, int], int]:
    """E's multiplicity vector; raises ``Inconclusive`` unless it is complete."""
    found, complete = _multiplicities(vertices, E)
    mu = sum(m * vertices[i].mu for (i, _), m in found.items())
    if not complete:
        raise Inconclusive(f"{what}: the summands found have {mu} generators, "
                           f"E has {E.minimized().num_gens}")
    return found


def _ar_sequence(vertices: List[ARVertex], j: int, d: int,
                 t_star: int) -> Tuple[ARSequenceData, Dict[Tuple[int, int], int]]:
    """The AR sequence ending at vertex j, and the summands of its middle term (``_summands``)."""
    v, ring = vertices[j], vertices[j].module.ring
    what = f"AR sequence ending at {v.name}"
    res = resolve(v.module, 2)
    omega, N = res.syzygy_module(1), tau(v.module, d)
    ti = _named(*_multiplicities(vertices, N))
    if ti is None:
        raise Inconclusive(f"catalog incomplete: tau({v.name}) not found")
    N = N.degree_shift(t_star)
    hs = hom_space(omega, N)
    beta = hs.beta_space()
    if hs.dim - beta.dim != v.residue_degree:
        raise Inconclusive(f"{what}: dim Ext^1(M, tau M<{t_star}>) = {hs.dim - beta.dim}, "
                           f"not dim End(M)/rad = {v.residue_degree}")
    eta = next(h for h in hs.basis() if not beta.contains(hs.flat_of_phi(h.phi)))
    P, zero = res.minimal, ring.zero()
    rows = [list(row) + [zero] * N.num_rels for row in P.presentation]
    rows += [[-e for e in eta_row] + list(row) for eta_row, row in zip(eta.phi, N.presentation)]
    # both ends are maximal Cohen-Macaulay, so E is too (the depth lemma)
    E = _depth_as(GradedModule(ring, P.gen_degs + N.gen_degs, P.rel_degs + N.rel_degs, rows,
                               label=f"E({v.name})", check=False), ring_depth(ring))
    found = _summands(vertices, E, what)
    inv = invariants(E)
    if inv.multiplicity_e != v.e + vertices[ti].e:
        raise Inconclusive(f"{what}: e(E) = {inv.multiplicity_e}, not e(M) + e(tau M) = "
                           f"{v.e + vertices[ti].e}")
    middle: Dict[str, int] = {}
    for (i, _), m in found.items():
        middle[vertices[i].name] = middle.get(vertices[i].name, 0) + m
    free_rank = sum(m for (i, _), m in found.items() if vertices[i].is_free)
    return ARSequenceData(v.name, vertices[ti].name, sorted(middle.items()), free_rank,
                          inv.mu, inv.multiplicity_e, E), found


def build_quiver(catalog: CatalogData) -> ARQuiver:
    """Assemble the AR quiver of a shipped catalog from its AR sequences.

    Vertices are validated indecomposable and pairwise non-isomorphic;
    the AR sequences find each translate in the catalog, and the closure
    check verifies that the syzygies, dual and linkage of every vertex land
    back in it too.
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
    for v in verts[1:]:  # verts[0] is A, whose End is k
        v.residue_degree = _residue_degree(v)
    # pairwise non-isomorphic: each vertex's vector names no other vertex
    for j, v in enumerate(verts):
        twin = next((i for i, _ in _multiplicities(verts, v.module)[0] if i != j), None)
        if twin is not None:
            a, b = sorted((j, twin))
            raise UsageError(f"catalog vertices {verts[a].name} and {verts[b].name} are isomorphic")
    arrow_degrees: Dict[Tuple[int, int], Dict[int, int]] = {}
    sequences: Dict[str, ARSequenceData] = {}

    def into(j: int, found: Dict[Tuple[int, int], int]):
        for (i, t), m in found.items():
            arrow_degrees.setdefault((i, j), {})[t] = m

    t_star = _ar_shift(ring)
    for j, v in enumerate(verts):
        if not v.is_free:
            sequences[v.name], found = _ar_sequence(verts, j, d, t_star)
            into(j, found)
    sink = _summands(verts, mcm_approx(maximal_ideal_module(ring)), "arrows into A")
    into(0, {key: m for key, m in sink.items() if not verts[key[0]].is_free})
    arrow_degrees = dict(sorted(arrow_degrees.items()))
    arrows = {key: sum(per.values()) for key, per in arrow_degrees.items()}
    q = ARQuiver(ring, d, verts, arrows, arrow_degrees, any(v.residue_degree > 1 for v in verts),
                 sequences)
    report = closure_check(q)
    if report:
        raise Inconclusive("catalog incomplete: " + "; ".join(report))
    return q


def closure_check(q: ARQuiver) -> List[str]:
    """Names of functor images that escape the catalog (empty = closed).

    An image is in the catalog when its multiplicity vector is complete and
    names at most one non-free vertex, once.  The translate is not tried
    again: each AR sequence matched it already, and on curves it is Syz1 too.
    The vertex each image names is kept as ``q.images`` for ``reverse_iso_check``.
    """
    problems = []
    q.images = {"dual": {}, "link": {}}
    for j, v in enumerate(q.vertices):
        if v.is_free:
            continue
        images = {} if q.d == 1 else {"Syz1": syzygy_signed(v.module, 1)}
        images.update(dual=dual(v.module), link=link(v.module))
        for fname, img in images.items():
            found, complete = _multiplicities(q.vertices, img)
            if fname in q.images:
                q.images[fname][j] = _named(found, complete)
            if not complete or sum(m for (i, _), m in found.items()
                                   if not q.vertices[i].is_free) > 1:
                inv = invariants(img)
                problems.append(
                    f"{fname}({v.name}) has mu={inv.mu}, e={inv.multiplicity_e}, "
                    f"outside the catalog")
    return problems


def middle_term(q: ARQuiver, vertex_name: str) -> ARSequenceData:
    """Middle term of the AR sequence ending at a vertex, as ``build_quiver`` computed it."""
    if q.vertices[q.vertex_index(vertex_name)].is_free:
        raise UsageError("no AR sequence ends at the free vertex")
    return q.sequences[vertex_name]


def reverse_iso_check(q: ARQuiver, functor: str) -> Tuple[bool, Dict[str, str]]:
    """Does the functor reverse all stable arrows with equal multiplicities?

    functor is "D" (dual) or "lambda" (horizontal linkage).  Returns the
    vertex bijection on success.  The images are those ``closure_check`` named,
    run here first on a quiver it has not checked.
    """
    if functor not in ("D", "lambda", "link"):
        raise UsageError("functor must be 'D' or 'lambda'")
    if q.images is None:
        closure_check(q)
    named = q.images["dual" if functor == "D" else "link"]
    mapping: Dict[int, int] = {}
    for i in q.stable_indices():
        ti = named[i]
        if ti is None or q.vertices[ti].is_free:
            raise Inconclusive(
                f"catalog incomplete: {functor}({q.vertices[i].name}) escaped the stable quiver")
        mapping[i] = ti
    names = {q.vertices[i].name: q.vertices[t].name for i, t in mapping.items()}
    if sorted(mapping.values()) != sorted(mapping.keys()):
        return False, names
    stable, nodes = q.stable_arrows(), q.stable_indices()
    return all(stable.get((a, b), 0) == stable.get((mapping[b], mapping[a]), 0)
               for a in nodes for b in nodes), names


_PROPERTIES = ("periodic", "bounded_nonperiodic", "ulrich", "cx_equals", "curv_leq")


def component_classify(q: ARQuiver, prop: str, value=None,
                       p_max: int = 2, n_max: int = 4, H: int = 10) -> Dict:
    """Per-component constancy report for a module property.

    Violations are reported verbatim: they falsify the catalog or the
    implementation, not the theorem.  ``curv_leq`` X is True for X >= 1 over
    a certified complete intersection, where Betti numbers grow polynomially
    (Gulliksen, Math. Scand. 34, 1974), and None (partial) everywhere else.
    """
    if prop not in _PROPERTIES:
        raise UsageError(f"unknown property {prop!r}; known: {_PROPERTIES}")
    check_period_bounds(p_max, n_max)

    def flag(vertex: ARVertex):
        M = vertex.module
        if prop == "periodic":
            return detect_period(M, p_max=p_max, n_max=n_max) is not None
        if prop == "bounded_nonperiodic":
            rep = growth_report(M, H=H)
            bounded = rep.cx_estimate <= 1 and not rep.finite_projdim
            periodic = detect_period(M, p_max=p_max, n_max=n_max) is not None
            return bounded and not periodic
        if prop == "ulrich":
            return ulrich_test(M)
        if prop == "cx_equals":
            rep = growth_report(M, H=H)
            target = value if value is not None else 1
            return rep.cx_estimate == target if rep.cx_confident else None
        if prop == "curv_leq":
            return True if M.ring.is_certified_ci and (1 if value is None else value) >= 1 else None
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
