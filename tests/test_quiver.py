import pytest

import mcmkit.quiver
import quiver_reference
from mcmkit.catalog import catalog_names, load_catalog
from mcmkit.errors import Inconclusive
from mcmkit.homs import is_isomorphic
from mcmkit.functors import dual, lift_map, link
from mcmkit.quiver import (
    build_quiver,
    component_classify,
    middle_term,
    reverse_iso_check,
)
from quiver_reference import _QuiverBuilder, lifted_arrows_remain_irreducible, radical_filtration, \
    syzygy_orbit_ideal

# quivers used across several tests; building them is the expensive part
_QUIVERS = {}


def quiver(name):
    if name not in _QUIVERS:
        _QUIVERS[name] = build_quiver(load_catalog(name))
    return _QUIVERS[name]


def arrows_by_name(q):
    return {(q.vertices[a].name, q.vertices[b].name): m for (a, b), m in q.arrows.items()}


def test_cusp_quiver_has_loop():
    q = quiver("ade:A2:dim1")
    arr = arrows_by_name(q)
    assert arr == {("A", "I1"): 1, ("I1", "A"): 1, ("I1", "I1"): 1}


def test_node_quiver_free_middles():
    q = quiver("ade:A1:dim1")
    arr = arrows_by_name(q)
    assert arr == {("A", "N+"): 1, ("A", "N-"): 1, ("N+", "A"): 1, ("N-", "A"): 1}
    # stable quiver: two isolated vertices
    assert len(q.stable_components()) == 2


def test_a4_curve_chain_with_end_loop():
    q = quiver("ade:A4:dim1")
    arr = arrows_by_name(q)
    assert arr == {
        ("A", "I1"): 1, ("I1", "A"): 1,
        ("I1", "I2"): 1, ("I2", "I1"): 1,
        ("I2", "I2"): 1,
    }


def test_a1_surface_double_arrows():
    q = quiver("ade:A1:dim2")
    arr = arrows_by_name(q)
    assert arr == {("A", "M1"): 2, ("M1", "A"): 2}


def test_a3_surface_affine_cycle():
    q = quiver("ade:A3:dim2")
    arr = arrows_by_name(q)
    expect = {
        ("A", "M1"): 1, ("M1", "A"): 1,
        ("A", "M3"): 1, ("M3", "A"): 1,
        ("M1", "M2"): 1, ("M2", "M1"): 1,
        ("M2", "M3"): 1, ("M3", "M2"): 1,
    }
    assert arr == expect


def test_middle_term_equals_irr_counts():
    q = quiver("ade:A4:dim1")
    ar = middle_term(q, "I2")
    assert ar.middle == [("I1", 1), ("I2", 1)]
    assert ar.middle_free_rank == 0
    assert ar.tau_name == "I2"


def test_mu_additivity_away_from_free_vertex():
    # mu(E_M) = mu(M) + mu(tau M) when no arrows touch [A]
    for name in ("ade:A4:dim1", "ade:A3:dim2"):
        q = quiver(name)
        fi = q.free_index
        for j, v in enumerate(q.vertices):
            if v.is_free:
                continue
            touches_free = q.arrows.get((fi, j), 0) or q.arrows.get((j, fi), 0)
            if touches_free:
                continue
            ar = middle_term(q, v.name)
            ti = q.vertex_index(ar.tau_name)
            assert ar.mu_middle == v.mu + q.vertices[ti].mu, v.name


def test_e_additivity_on_all_middles():
    # e is additive on AR sequences, free vertex included
    for name in ("ade:A2:dim1", "ade:A3:dim2"):
        q = quiver(name)
        for v in q.vertices:
            if v.is_free:
                continue
            ar = middle_term(q, v.name)
            ti = q.vertex_index(ar.tau_name)
            assert ar.e_middle == v.e + q.vertices[ti].e, (name, v.name)


def test_arrow_symmetry_dimension_two():
    q = quiver("ade:A3:dim2")
    for (a, b), m in q.arrows.items():
        assert q.arrows.get((b, a), 0) == m


def test_reverse_iso_dual_fixes_self_dual_curve():
    q = quiver("ade:A3:dim1")
    ok, bij = reverse_iso_check(q, "D")
    assert ok
    assert bij == {"I1": "I1", "N+": "N+", "N-": "N-"}


def test_reverse_iso_lambda_swaps_branches():
    q = quiver("ade:A3:dim1")
    ok, bij = reverse_iso_check(q, "lambda")
    assert ok
    assert bij == {"I1": "I1", "N+": "N-", "N-": "N+"}


def test_reverse_iso_dual_flips_surface_chain():
    q = quiver("ade:A2:dim2")
    ok, bij = reverse_iso_check(q, "D")
    assert ok
    assert bij == {"M1": "M2", "M2": "M1"}


def test_kleinian_self_linkage_bijection_is_identity():
    q = quiver("ade:A2:dim2")
    ok, bij = reverse_iso_check(q, "lambda")
    assert ok
    assert bij == {"M1": "M1", "M2": "M2"}


@pytest.mark.parametrize("name", catalog_names())
def test_reverse_checks_read_the_images_the_closure_check_named(name, monkeypatch):
    # the reference: each stable vertex's dual and link computed again and matched
    q = quiver(name)
    want = {functor: {q.vertices[i].name: q.vertices[q.match_vertex(fn(q.vertices[i].module))].name
                      for i in q.stable_indices()}
            for functor, fn in (("D", dual), ("lambda", link))}
    calls = []
    monkeypatch.setattr(mcmkit.quiver, "dual", lambda *args, **kw: calls.append("dual"))
    monkeypatch.setattr(mcmkit.quiver, "link", lambda *args, **kw: calls.append("link"))
    for functor in ("D", "lambda"):
        assert reverse_iso_check(q, functor) == (True, want[functor]), functor
    assert calls == []


def test_single_vertex_stable_quiver_trivially_reverse_iso():
    q = quiver("ade:A2:dim1")
    ok, _ = reverse_iso_check(q, "D")
    assert ok


def test_syzygy_orbit_ideal_hypersurface():
    q = quiver("ade:A4:dim1")
    for comp in q.stable_components():
        gen, constant = syzygy_orbit_ideal(q, comp)
        assert gen in (1, 2)
        assert constant


def test_syzygy_orbit_ideal_node_is_two():
    # Syz1 swaps the two branch modules, so each singleton component has i = 2
    q = quiver("ade:A1:dim1")
    for comp in q.stable_components():
        gen, constant = syzygy_orbit_ideal(q, comp)
        assert gen == 2 and constant


def test_syzygies_of_mcm_are_stable():
    from mcmkit.functors import stable_part
    from mcmkit.resolution import syzygy

    q = quiver("ade:A4:dim1")
    for v in q.vertices:
        if v.is_free:
            continue
        for n in (1, 2):
            _, frees = stable_part(syzygy(v.module, n))
            assert frees == [], (v.name, n)


def test_component_classify_periodic_constant():
    for name in ("ade:A2:dim1", "ade:A2:dim2"):
        rep = component_classify(quiver(name), "periodic")
        assert rep["all_constant"]
        for comp in rep["components"]:
            assert all(v is True for v in comp["flags"].values())


def test_component_classify_ulrich_constant_over_e2():
    rep = component_classify(quiver("ade:A4:dim1"), "ulrich")
    assert rep["all_constant"]
    for comp in rep["components"]:
        assert all(v is True for v in comp["flags"].values())


def test_component_classify_cx_equals_one():
    rep = component_classify(quiver("ade:A2:dim1"), "cx_equals", value=1)
    assert rep["all_constant"]


@pytest.mark.parametrize("name", catalog_names())
def test_curvature_at_most_one_on_every_hypersurface_component(name):
    # over a complete intersection Betti numbers grow polynomially, so curv M <= 1
    rep = component_classify(quiver(name), "curv_leq", value=1.0)
    assert rep["all_constant"]
    for comp in rep["components"]:
        assert not comp["partial"] and all(v is True for v in comp["flags"].values())


def test_curvature_below_one_is_left_undecided():
    rep = component_classify(quiver("ade:A3:dim1"), "curv_leq", value=0.5)
    for comp in rep["components"]:
        assert comp["partial"] and all(v is None for v in comp["flags"].values())


def test_arrow_to_free_vertex_only_from_x_m_summands():
    # arrows M -> A exist only for summands of X(m)
    from mcmkit.modules import maximal_ideal_module
    from mcmkit.functors import mcm_approx, stable_part

    q = quiver("ade:A4:dim1")
    m = maximal_ideal_module(q.ring)
    X, _ = stable_part(mcm_approx(m))
    fi = q.free_index
    for j, v in enumerate(q.vertices):
        if v.is_free:
            continue
        if q.arrows.get((j, fi), 0) > 0:
            # v must be a summand of X(m); here X(m) is indecomposable = I1
            assert is_isomorphic(v.module, X), v.name


def test_lifted_arrows_stay_irreducible():
    # a representative of each arrow lifts to a map in (Syz M, Syz N)_1 \ ()_2
    from mcmkit.homs import hom_space
    from mcmkit.linalg import RowSpace
    from mcmkit.rings import grid_mul

    q = quiver("ade:A4:dim1")
    names = ["I1", "I2"]
    i, j = q.vertex_index("I1"), q.vertex_index("I2")
    per = q.arrow_degrees[(i, j)]
    t = max(per)
    builder = _QuiverBuilder(q.ring, q.vertices)
    hs = hom_space(q.vertices[i].module, builder.shifted(j, t))
    # pick a basis hom not in the second filtration layer
    span2 = RowSpace(q.ring.field, hs.phi_dim)
    for xk in range(len(q.vertices)):
        lo, hi = t - builder.gen_span(xk), builder.gen_span(i)
        for s in range(lo, hi + 1):
            for g in builder.space1_grids(xk, j, t - s):
                for f in builder.space1_grids(i, xk, s):
                    span2.add(hs.trivial.reduce(hs.flat_of_phi(grid_mul(q.ring, g, f))))
    rep = None
    for h in hs.basis():
        if not span2.contains(hs.trivial.reduce(hs.flat_of_phi(h.phi))):
            rep = h
            break
    assert rep is not None
    lifted = lift_map(rep)
    SM, SN = lifted.source, lifted.target
    # the lift is non-split (sources indecomposable, non-isomorphic)
    assert not is_isomorphic(SM, SN)
    # and does not factor through the catalog in two non-iso steps
    SMn, sm_shift = SM.normalized()
    SNn, sn_shift = SN.normalized()
    ii = q.match_vertex(SMn)
    jj = q.match_vertex(SNn)
    assert ii is not None and jj is not None
    assert q.arrows.get((ii, jj), 0) >= 1


def test_lifted_check_solves_no_hom_space_the_build_solved(monkeypatch):
    # the lifted check's builder makes new shift objects; Hom spaces are kept by
    # the target's value, so no (vertex module, target) pair is solved twice
    from mcmkit.homs import HomSpace
    from mcmkit.rings import poly_key

    solved = []
    init = HomSpace.__init__

    def counting_init(self, source, target):
        value = (target.ring.key, target.gen_degs, target.rel_degs,
                 tuple(tuple(poly_key(e.poly) for e in row) for row in target.presentation))
        solved.append((source, value))
        init(self, source, target)

    monkeypatch.setattr(HomSpace, "__init__", counting_init)
    q = build_quiver(load_catalog("ade:A4:dim1"))
    assert all(ok for _, ok in lifted_arrows_remain_irreducible(q))
    vertices = [v.module for v in q.vertices]
    pairs = [(vertices.index(M), value) for M, value in solved
             if any(M is V for V in vertices)]
    assert pairs
    assert len(pairs) == len(set(pairs))


def test_residue_fields_trivial_on_shipped_catalogs():
    for name in ("ade:A2:dim1", "ade:A3:dim1", "ade:A2:dim2"):
        q = quiver(name)
        assert not q.residue_flag
        for v in q.vertices:
            assert v.residue_degree == 1, v.name


def test_dot_output_is_deterministic():
    q = quiver("ade:A2:dim1")
    d1 = q.to_dot()
    d2 = q.to_dot()
    assert d1 == d2
    assert "doublecircle" in d1
    assert '"I1" -> "I1"' in d1


def test_irr_scan_budget_names_its_bound(monkeypatch):
    # the reference scan of the radical filtration; build_quiver runs no scan
    monkeypatch.setattr(quiver_reference, "SCAN_WIDTH_CAP", 2)
    with pytest.raises(Inconclusive, match="irr scan budget") as info:
        radical_filtration(load_catalog("ade:A2:dim1"))
    # no command-line option sets the scan budget
    assert (info.value.bound, info.value.flag) == (2, None)
