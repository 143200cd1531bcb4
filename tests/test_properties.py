"""Cross-module property checks tying several layers together."""

from mcmkit.catalog import load_catalog
from mcmkit.cisupport import CIPresentation, variety_component_check
from mcmkit.functors import dual, link
from mcmkit.homs import is_isomorphic
from mcmkit.modules import GradedModule, invariants, residue_field_module
from mcmkit.quiver import ARVertex, build_quiver
from quiver_reference import _QuiverBuilder, radical_filtration
from mcmkit.resolution import growth_report, syzygy
from mcmkit.rings import WeightedPolyRing


def test_cx_bounded_by_cx_of_k():
    A = WeightedPolyRing(7, ["x", "y"]).quotient(["x^2", "y^2"])
    k = residue_field_module(A)
    cxk = growth_report(k, H=10).cx_estimate
    for pres in (["x"], ["y"], ["x+y"]):
        M = GradedModule(A, [0], [1], [pres])
        assert growth_report(M, H=10).cx_estimate <= cxk


def test_curv_bounded_by_curv_of_k_on_catalog():
    cat = load_catalog("ade:A2:dim1")
    k = residue_field_module(cat.ring)
    curvk = growth_report(k, H=10).curv_estimate
    for name, M in cat.modules():
        assert growth_report(M, H=10).curv_estimate <= curvk + 1e-9


def test_syzygy_is_dual_after_linkage():
    # Syz_1 = D o lambda on stable modules
    cat = load_catalog("ade:A3:dim1")
    for name, M in cat.modules():
        lhs = syzygy(M, 1)
        rhs = dual(link(M))
        assert is_isomorphic(lhs, rhs), name


def test_radical_filtration_matches_quiver():
    cat = load_catalog("ade:A2:dim1")
    q = build_quiver(cat)
    filt = radical_filtration(cat)
    # the loop at I1: one internal degree with dim1 - dim2 = 1
    loop = filt[("I1", "I1")]
    assert sum(d1 - d2 for (_, d1, d2) in loop.values()) == q.irr("I1", "I1") == 1
    for (src, tgt), dims in filt.items():
        total = sum(d1 - d2 for (_, d1, d2) in dims.values())
        assert total == q.irr(src, tgt), (src, tgt)
        for _, d1, d2 in dims.values():
            assert 0 <= d2 <= d1  # rad2 inside rad1


def test_filtration_full_hom_for_distinct_vertices():
    # (M, N)_1 is all of Hom when M and N are non-isomorphic indecomposables
    from mcmkit.homs import hom_space

    cat = load_catalog("ade:A4:dim1")
    mods = cat.modules()
    (n1, M), (n2, N) = mods[0], mods[1]
    verts = [ARVertex(n1, M, False, 1, 0, 0), ARVertex(n2, N, False, 1, 0, 0)]
    builder = _QuiverBuilder(cat.ring, verts)
    for t in range(-4, 3):
        hs = hom_space(M, builder.shifted(1, t))
        assert len(builder.space1_grids(0, 1, t)) == hs.dim


def test_variety_component_check_on_hypersurface_catalog():
    cat = load_catalog("ade:A2:dim1")
    q = build_quiver(cat)
    ci = CIPresentation.from_ring(cat.ring)
    rep = variety_component_check(q, ci, H=8, tdeg_max=1)
    assert rep["all_agree"]


def test_rank_additivity_under_syzygy():
    # over the curve catalogs: rank(Syz1 M) = mu(M) - rank(M)
    cat = load_catalog("ade:A4:dim1")
    for name, M in cat.modules():
        inv = invariants(M)
        s = invariants(syzygy(M, 1))
        assert s.rank == inv.mu - inv.rank, name


def _random_module(A, rng, g, r, gen_choices, rel_choices):
    p = A.characteristic
    gen_degs = [rng.choice(gen_choices) for _ in range(g)]
    rel_degs = [rng.choice(rel_choices) for _ in range(r)]
    rows = []
    for a in gen_degs:
        row = []
        for b in rel_degs:
            piece = A.piece(b - a)  # b > a; A_{b-a} has the standard monomials as its basis
            poly = {piece.monos[i]: c for i in piece.std if (c := rng.randrange(p))}
            row.append(A.element(poly if poly else 0))
        rows.append(row)
    return GradedModule(A, gen_degs, rel_degs, rows)


def test_fuzzed_identities_on_random_mcm_modules():
    # random presentations pushed to MCM syzygies; every stable identity
    # must hold (seeded, so this is deterministic)
    import random

    from mcmkit.functors import cosyzygy, dual, link, stable_part, tau
    from mcmkit.resolution import mcm_test

    A = WeightedPolyRing(7, ["x", "y"], [3, 2]).quotient(["x^2+y^3"])
    eA = A.multiplicity()
    rng = random.Random(7)
    tested = 0
    for trial in range(20):
        if tested >= 3:
            break
        M0 = _random_module(A, rng, rng.randrange(2, 4), rng.randrange(2, 5),
                            [0, 1, 2], [3, 4, 5]).minimized()
        Ms, _ = stable_part(syzygy(M0, 2))
        if Ms.minimized().num_gens == 0:
            continue
        Ms = Ms.minimized()
        assert mcm_test(Ms)
        inv = invariants(Ms)
        s1 = invariants(syzygy(Ms, 1))
        assert s1.multiplicity_e == eA * inv.mu - inv.multiplicity_e
        assert is_isomorphic(dual(dual(Ms)), Ms)
        assert is_isomorphic(syzygy(Ms, 3), syzygy(Ms, 1))
        assert is_isomorphic(link(link(Ms)), Ms)
        assert is_isomorphic(cosyzygy(dual(Ms), 1), link(Ms))
        assert is_isomorphic(tau(Ms), syzygy(Ms, 1))
        tested += 1
    assert tested == 3
