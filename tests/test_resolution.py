import pytest

from mcmkit.catalog import catalog_names, load_catalog
from mcmkit.errors import DegreeBoundExceeded
from mcmkit.homs import is_isomorphic
from mcmkit.modules import (
    GradedModule,
    default_stall,
    free_module,
    maximal_ideal_module,
    residue_field_module,
    top_degree_bound,
)
from mcmkit.mf import MatrixFactorization, coker_module
from mcmkit.resolution import (
    FreeResolution,
    depth,
    detect_period,
    ext_is_zero,
    ext_module,
    growth_report,
    kernel_step,
    mcm_test,
    resolve,
    syzygy,
    ulrich_test,
)
from mcmkit.rings import BlockSystem, WeightedPolyRing, grid_mul
from conftest import cold_chain, factorization_free, step_shape


def dual_numbers(p=7):
    return WeightedPolyRing(p, ["x"]).quotient(["x^2"])


def squares(p=7):
    return WeightedPolyRing(p, ["x", "y"]).quotient(["x^2", "y^2"])


def circle(p=7):
    return WeightedPolyRing(p, ["x", "y"]).quotient(["x^2+y^2"])


def cusp(p=7):
    return WeightedPolyRing(p, ["x", "y"], [3, 2]).quotient(["x^2+y^3"])


def verify_exactness(res, H):
    """Exactness at F_i for every computed adjacent pair d_i, d_{i+1} of ``res``.

    d_i . d_{i+1} = 0 exactly, and rank d_{i+1} = dim F_i - rank d_i in
    every degree from F_i's lowest generator degree through the scan end of
    d_{i+1} plus ``default_stall``: a scan that stopped before a generator
    shows there as a rank deficit.
    """
    res.extend(H)
    ring, stall = res.ring, default_stall(res.ring)
    systems = [BlockSystem(ring, s.entries, s.row_degs, s.col_degs) for s in res.steps]
    for a, b, da, db in zip(res.steps, res.steps[1:], systems, systems[1:]):
        if any(not e.is_zero() for row in grid_mul(ring, a.entries, b.entries) for e in row):
            return False
        scan = () if b.scanned_to is None else range(min(b.row_degs), b.scanned_to + stall + 1)
        for t in scan:
            if db.at(t).rank() + da.at(t).rank() != sum(
                    ring.hilbert_function(t - c) for c in b.row_degs):
                return False
    return True


def test_resolution_of_free_module():
    A = circle()
    F = free_module(A, [0])
    res = resolve(F, 4)
    assert res.betti_numbers(4) == [1, 0, 0, 0, 0]


def test_k_over_dual_numbers_periodic_betti():
    A = dual_numbers()
    k = residue_field_module(A)
    res = resolve(k, 8)
    assert res.betti_numbers(8) == [1] * 9
    assert verify_exactness(res, 8)


def test_k_over_two_squares_betti_linear():
    # Poincare series 1/(1-t)^2: beta_i = i + 1
    A = squares()
    k = residue_field_module(A)
    res = resolve(k, 8)
    assert res.betti_numbers(8) == [i + 1 for i in range(9)]
    assert verify_exactness(res, 8)


def test_first_syzygy_of_k_is_maximal_ideal():
    A = circle()
    k = residue_field_module(A)
    m = maximal_ideal_module(A)
    s1 = syzygy(k, 1)
    assert s1.num_gens == 2
    assert is_isomorphic(s1, m)


def test_syzygy_of_free_is_zero():
    A = circle()
    F = free_module(A, [0])
    assert syzygy(F, 1).minimized().num_gens == 0


def test_betti_tail_shift():
    # resolve(Syz_1(M)) betti = tail of resolve(M) betti
    A = squares()
    k = residue_field_module(A)
    res = resolve(k, 7)
    s1 = syzygy(k, 1)
    res1 = resolve(s1, 6)
    assert res1.betti_numbers(6) == res.betti_numbers(7)[1:]


def test_detect_period_dual_numbers():
    A = dual_numbers()
    M = GradedModule(A, [0], [1], [["x"]], label="coker(x)")
    assert detect_period(M, p_max=2, n_max=4) == (0, 1)


def test_detect_period_absent_for_growing_betti():
    A = squares()
    k = residue_field_module(A)
    assert detect_period(k, p_max=2, n_max=3) is None


def test_growth_report_periodic_module():
    A = dual_numbers()
    k = residue_field_module(A)
    rep = growth_report(k, H=10)
    assert rep.cx_estimate == 1
    assert rep.cx_confident
    assert rep.curv_estimate <= 1.0 + 1e-9


def test_growth_report_complexity_two():
    A = squares()
    k = residue_field_module(A)
    rep = growth_report(k, H=12)
    assert rep.cx_estimate == 2
    assert rep.cx_confident


def test_growth_report_free():
    A = squares()
    rep = growth_report(free_module(A, [0]), H=6)
    assert rep.finite_projdim
    assert rep.cx_estimate == 0


def test_growth_non_ci_gorenstein_curvature():
    # Artinian Gorenstein, not CI: curv(k) > 1
    from mcmkit.catalog import nonci_gorenstein_ring

    A = nonci_gorenstein_ring()
    assert A.is_gorenstein()
    assert not A.is_complete_intersection()
    k = residue_field_module(A)
    rep = growth_report(k, H=5)  # betti 1,3,8,21,55,144: exponential
    assert rep.curv_estimate > 1.0
    assert rep.cx_estimate >= 0 and not rep.cx_confident


def test_tau_index_arithmetic_dimension_zero():
    # d = 0: the translate is the second syzygy
    from mcmkit.functors import tau
    from mcmkit.homs import is_isomorphic

    A = squares()
    k = residue_field_module(A)
    assert is_isomorphic(tau(k), syzygy(k, 2))


def test_ext_of_free_vanishes():
    A = circle()
    F = free_module(A, [0])
    assert ext_is_zero(F, 1)
    assert ext_is_zero(F, 2)


def test_ext_k_nonzero_over_curve():
    A = cusp()
    k = residue_field_module(A)
    assert not ext_is_zero(k, 1)
    assert mcm_test(k) is False


def test_ext_resolves_only_the_differentials_it_reads():
    # Ext^i(M, A) reads d_i and d_{i+1}: the window keeps i + 1 steps, no more
    k = residue_field_module(cusp())
    assert not ext_is_zero(k, 1)
    assert len(k._resolution.steps) == 2
    k = residue_field_module(cusp())
    assert ext_module(k, 1).num_gens
    assert len(k._resolution.steps) == 2


def test_mcm_maximal_ideal_over_curve():
    A = cusp()
    m = maximal_ideal_module(A)
    assert mcm_test(m)
    assert depth(m) == 1


def test_mcm_everything_over_artinian():
    A = squares()
    k = residue_field_module(A)
    assert mcm_test(k)


def test_ulrich_maximal_ideal_minimal_multiplicity():
    A = cusp()
    m = maximal_ideal_module(A)
    assert ulrich_test(m)


def test_ulrich_free_module_false_when_e_at_least_two():
    A = cusp()
    F = free_module(A, [0], label="A")
    assert not ulrich_test(F)  # mu = 1 < 2 = e


def test_ext0_is_dual_of_maximal_ideal():
    # Ext^0(m, A) = m* has the Hilbert function of A in degrees >= -1 over the circle
    A = circle()
    m = maximal_ideal_module(A)
    dual = ext_module(m, 0)
    assert dual.num_gens >= 1
    assert mcm_test(dual)


def test_depth_of_k_is_zero():
    A = cusp()
    k = residue_field_module(A)
    assert depth(k) == 0


def koszul_quotient(a, b):
    """A/(x^a, y^b) over A = GF(7)[x,y,z]/(z^2): a Koszul syzygy in degree a+b."""
    A = WeightedPolyRing(7, ["x", "y", "z"]).quotient(["z^2"])
    return GradedModule(A, [0], [a, b], [[f"x^{a}", f"y^{b}"]])


def test_verify_exactness_finds_a_stall_that_stopped_short():
    # a kernel_step with no stop ends by the stall at degree 7, before the
    # Koszul syzygy in degree 8: d . d = 0 holds, but rank d_2 = 0 < dim ker d_1
    # in degree 8
    res = FreeResolution(koszul_quotient(4, 4), None)
    first = res.steps[0]
    short = kernel_step(res.ring, first.row_degs, first.col_degs, first.entries, degree_cap=100)
    assert (short.col_degs, short.scanned_to, short.certified) == ((), 7, False)
    res.steps.append(short)
    assert not res.certified and not verify_exactness(res, 2)
    right = resolve(koszul_quotient(4, 4), 3)
    assert right.betti_numbers(3) == [1, 2, 1, 0]
    assert right.certified and verify_exactness(right, 3)
    assert verify_exactness(resolve(koszul_quotient(2, 3), 3), 3)


def windowed_ring():
    """k[x,y]/(x^2, xy): neither Artinian nor a certified CI, so every scan past k's F_2
    (the syzygies of the variables) is windowed."""
    return WeightedPolyRing(7, ["x", "y"]).quotient(["x^2", "x*y"])


def test_a_zero_stall_stops_before_the_next_generators():
    # k's F_2 stops, certified, at w1 + w2 = 2; with stall 0 the scan for F_3 ends in
    # F_2's degree, before F_3's generators
    M = residue_field_module(windowed_ring())
    assert cold_chain(M, 4, stall=0).betti_numbers(4) == [1, 2, 3, 0, 0]  # stopped short
    wide = cold_chain(M, 4, stall=10)
    assert wide.betti_numbers(4) == [1, 2, 3, 5, 8] and not wide.certified
    # the default stall finds the same window
    assert resolve(M, 4).betti_numbers(4) == wide.betti_numbers(4)


@pytest.mark.parametrize("a", range(2, 7))
@pytest.mark.parametrize("b", range(2, 7))
def test_koszul_quotients_resolve_like_the_koszul_complex(a, b):
    # over GF(7)[x,y,z]/(z^2), g_i = i and A/(x^a, y^b) has top degree
    # T = a+b-1, so the scan for F_2's generators ends at a+b+1, certified;
    # dropping x and y leaves B = k[z]/(z^2), so (d, s) = (2, 1) and F_3's
    # scan ends at max(F_2) + 1 = a+b+1, before T + g_3 = a+b+2
    res = resolve(koszul_quotient(a, b), 4)
    assert res.betti_table(3) == [(0, 1, (0,)), (1, 2, (a, b)), (2, 1, (a + b,)), (3, 0, ())]
    assert [s.scanned_to for s in res.steps[1:3]] == [a + b + 1, a + b + 1]
    assert res.certified and verify_exactness(res, 3)


def test_top_degree_bound_rules_and_what_they_certify():
    cat = load_catalog("ade:A3:dim1")
    k = residue_field_module(cat.ring)
    kk = GradedModule.direct_sum([k, k.degree_shift(1)])
    # rule (2) from a cyclic module's pure powers and the ring's z^2
    assert top_degree_bound(koszul_quotient(3, 5)) == 7
    # rule (1): k + k(-1) vanishes past its top generator; the ring has no pure power
    assert top_degree_bound(kk) == 1
    res = resolve(kk, 4)
    assert res.certified
    for (_, _, got), (_, _, degs) in zip(res.betti_table(4), resolve(k, 4).betti_table(4)):
        assert sorted(got) == sorted(degs + tuple(d + 1 for d in degs))
    # infinite length: neither rule applies, but over the curve every scan
    # past the first syzygy stops at the Artinian reduction's bound
    for M in (dict(cat.modules())["N+"], maximal_ideal_module(cat.ring)):
        assert top_degree_bound(M.minimized()) is None
        assert resolve(M, 3).certified
    # neither a finite-length module nor a ring with a reduction: windowed
    k = residue_field_module(windowed_ring())
    assert top_degree_bound(k) == 0 and not resolve(k, 3).certified


def test_a_large_stall_no_longer_outruns_the_cap():
    # a certified scan reads no stall, and the automatic cap is at least its stop
    res = cold_chain(koszul_quotient(4, 4), 3, stall=24)
    assert res.betti_numbers(3) == [1, 2, 1, 0] and res.certified


def test_an_explicit_cap_below_the_certified_stop_raises():
    # F_2's scan ends at T + g_2 = 7 + 2 = 9
    assert resolve(koszul_quotient(4, 4), 2, degree_cap=9).betti_numbers(2) == [1, 2, 1]
    with pytest.raises(DegreeBoundExceeded) as err:
        resolve(koszul_quotient(4, 4), 2, degree_cap=8)
    assert (err.value.bound, err.value.flag) == (8, "--degree-bound")


def test_resolve_cache_without_cap_does_not_serve_an_explicit_cap():
    with pytest.raises(DegreeBoundExceeded):
        resolve(koszul_quotient(4, 4), 3, degree_cap=5)
    M = koszul_quotient(4, 4)
    resolve(M, 3)
    with pytest.raises(DegreeBoundExceeded):
        resolve(M, 3, degree_cap=5)


def test_resolve_cache_reused_under_the_same_bounds():
    M = koszul_quotient(2, 2)
    res = resolve(M, 3, degree_cap=20)
    assert resolve(M, 4, degree_cap=20) is res
    assert resolve(M, 4) is not res


def solved_tail_cases():
    # modules whose resolutions solve for their periodic tails: the factorization
    # cokernels without their factorizations, m, and k, whose steps Tate's complex
    # gives and whose tail is solved on them when asked for
    out = []
    for name in ("ade:A3:dim1", "ade:A2:dim2"):
        cat = load_catalog(name)
        out.extend(pytest.param(factorization_free(M), id=f"{name}/{label}")
                   for label, M in cat.modules())
        out.append(pytest.param(residue_field_module(cat.ring), id=f"{name}/k"))
        out.append(pytest.param(maximal_ideal_module(cat.ring), id=f"{name}/m"))
    R = WeightedPolyRing(0, ["x", "y"], [4, 2])
    f = "x^2+y^4"
    I1 = MatrixFactorization(R, f, [["x", "y"], ["y^3", "-x"]], [["x", "y"], ["y^3", "-x"]])
    out.append(pytest.param(factorization_free(coker_module(I1, ring=R.quotient([f]))),
                            id="QQ:A3:dim1/I1"))
    return out


@pytest.mark.parametrize("M", solved_tail_cases())
def test_solved_tails_match_the_cold_chain(M, request):
    scan = cold_chain(M, 12)
    calls = request.getfixturevalue("kernel_step_calls")
    res = resolve(M, 12)
    assert [step_shape(s) for s in res.steps] == [step_shape(s) for s in scan.steps]
    for n in (1, 2):
        assert is_isomorphic(res.syzygy_module(n), scan.syzygy_module(n)), n
    # the tail is solved by Syz_2 at the latest (k over a surface), after at most two scans
    assert res.tail()[0] <= 2 and len(calls) <= 2


@pytest.mark.parametrize("name,label", [("ade:A3:dim1", "N+"), ("ade:A4:dim2", "M1"),
                                        ("ade:A3:dim2", "m"), ("ade:A4:dim1", "k")])
def test_solved_tails_raise_at_exactly_the_caps_the_cold_chain_does(name, label):
    def fresh():
        # N+ and M1 without their factorizations, so that their tails are solved;
        # k is read off Tate's complex
        cat = load_catalog(name)
        if label == "m":
            return maximal_ideal_module(cat.ring)
        if label == "k":
            return residue_field_module(cat.ring)
        return factorization_free(dict(cat.modules())[label])

    def outcome(resolver, cap):
        try:
            return resolver(fresh(), 12, degree_cap=cap).betti_table(12)
        except DegreeBoundExceeded as exc:
            return str(exc)

    raised = set()
    for cap in range(1, 76):
        want = outcome(cold_chain, cap)
        assert outcome(resolve, cap) == want, cap
        raised.add(isinstance(want, str))
    assert raised == {True, False}


def catalog_inputs():
    out = []
    for name in catalog_names():
        cat = load_catalog(name)
        inputs = cat.modules() + [("k", residue_field_module(cat.ring)),
                                  ("m", maximal_ideal_module(cat.ring))]
        out.extend(pytest.param(M, id=f"{name}/{label}") for label, M in inputs)
    return out


@pytest.mark.parametrize("M", catalog_inputs())
def test_artinian_reduction_stop_agrees_with_a_three_times_wider_window(M):
    # past the first d - depth(M) syzygies every scan stops at max(F_{i-1}) + s,
    # certified, for the depth M has by construction (d for a catalog module, 1
    # for m, 0 for k); scans windowed by three stall windows find the same
    # graded Betti table
    H = 6
    d = M.ring.artinian_reduction[0]
    res = resolve(M, H)
    wide = cold_chain(M, H, stall=3 * default_stall(M.ring), windowed=True)
    assert res.betti_table(H) == wide.betti_table(H)
    assert all(st.certified for st in res.steps[d - M._depth:])


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_resolutions_reach_their_period_within_a_bounded_number_of_scans(
        name, kernel_step_calls):
    # a catalog module is resolved from its factorization with no scan; without it the
    # factorization is solved for on its square presentation, with no scan either
    for label, _ in load_catalog(name).modules():
        for copy in (lambda M: M, factorization_free):
            for H in (12, 20):
                res = resolve(copy(dict(load_catalog(name).modules())[label]), H)
                assert res.certified and len(res.steps) == H
            assert kernel_step_calls == [], label
