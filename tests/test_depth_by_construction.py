"""Depth known by construction, and the certified stops it allows.

``GradedModule._depth`` is a lower bound on a module's depth that holds by
construction: d for a matrix-factorization cokernel, 0 for k, min(1, d) for
m, min(d, delta + n) for Syz_n and min(2, d) for a dual, over a ring whose
``artinian_reduction`` (d, s) certifies it Cohen-Macaulay of dimension d.
Three scans stop at bounds that need it: the first d - delta steps of a
resolution, and the generator and relation scans of the dual M* of a
maximal Cohen-Macaulay M.  Each is checked against scans that drop the
stop and end three stall windows past their last generator, and each
bound is reached by a generator on every catalog module, so a stop one
degree lower would miss it.
"""

import pytest

import mcmkit.modules
import mcmkit.resolution
from mcmkit.catalog import catalog_names, load_catalog
from mcmkit.functors import cosyzygy, dual, mcm_approx
from mcmkit.mf import MatrixFactorization, coker_module
from mcmkit.modules import (
    GradedModule,
    capture_kernel,
    default_stall,
    is_mcm_by_construction,
    maximal_ideal_module,
    residue_field_module,
)
from mcmkit.resolution import depth, resolve, syzygy
from mcmkit.rings import WeightedPolyRing, poly_key


def fresh_copy(M):
    """The same presentation as a new module, with no depth and no minimal form kept."""
    return GradedModule(M.ring, M.gen_degs, M.rel_degs, M.presentation, label=M.label,
                        check=False)


def presentation(M):
    return (M.gen_degs, M.rel_degs,
            tuple(tuple(poly_key(e.poly) for e in row) for row in M.presentation))


def record_scans(monkeypatch, widen=None):
    """Patch every kernel scan to append (stop, last degree scanned) to the returned list.

    With ``widen``, each scan drops its stop and ends ``widen`` stall windows
    past its last generator, its cap raised by as much.
    """
    seen = []

    def scan(ring, col_degs, matrix_at, degree_cap, stall=None, stop=None):
        if widen is not None:
            stall = widen * default_stall(ring)
            degree_cap, stop = degree_cap + stall, None
        out = capture_kernel(ring, col_degs, matrix_at, degree_cap, stall, stop)
        seen.append((stop, out[2]))
        return out

    monkeypatch.setattr(mcmkit.modules, "capture_kernel", scan)
    monkeypatch.setattr(mcmkit.resolution, "capture_kernel", scan)
    return seen


def catalog_modules():
    return [pytest.param(name, label, id=f"{name}/{label}")
            for name in catalog_names() for label, _ in load_catalog(name).modules()]


def catalog_module(name, label):
    return dict(load_catalog(name).modules())[label]


@pytest.mark.parametrize("name", catalog_names())
def test_known_depth_never_exceeds_the_computed_depth(name):
    cat = load_catalog(name)
    d = cat.ring.artinian_reduction[0]
    inputs = [(M, d) for _, M in cat.modules()] + [
        (residue_field_module(cat.ring), 0), (maximal_ideal_module(cat.ring), 1)]
    for M, known in inputs:
        assert M._depth == known
        for n in (0, 1, 2):
            S = syzygy(M, n)
            assert S._depth == min(d, known + n)
            # computed on a copy with no depth kept, so no certified stop reads the memo
            assert S._depth <= depth(fresh_copy(S))
    for _, M in cat.modules():
        D = dual(M)
        assert D._depth == min(2, d) <= depth(fresh_copy(D))


def test_the_depth_is_carried_by_copies_and_minimal_forms():
    cat = load_catalog("ade:A2:dim2")
    M = catalog_module("ade:A2:dim2", "M1")
    assert M._depth == 2 and M.degree_shift(3)._depth == 2 and M.normalized()[0]._depth == 2
    assert fresh_copy(M)._depth is None and fresh_copy(M).minimized()._depth is None
    assert mcm_approx(M)._depth == 2
    # a factorization with a unit entry is minimized, and the minimal form keeps the depth
    R = WeightedPolyRing(7, ["x", "y"])
    mf = MatrixFactorization(R, "x*y", [[1, 0], [0, "x"]], [["x*y", 0], [0, "y"]])
    C = coker_module(mf)
    assert (C.num_gens, C._depth) == (1, 1)
    m = maximal_ideal_module(cat.ring)
    assert (m._depth, m.minimized() is m) == (1, True)


def test_a_module_read_without_its_construction_has_no_depth():
    k = residue_field_module(WeightedPolyRing(7, ["x", "y"]).quotient(["x^2", "x*y"]))
    assert k._depth == 0 and maximal_ideal_module(k.ring)._depth is None  # not Cohen-Macaulay
    assert syzygy(k, 1)._depth is None


@pytest.mark.parametrize("name,label", catalog_modules())
def test_the_first_step_stop_of_a_catalog_module_is_reached(name, label):
    # an MCM module: F_2's scan stops at max(F_1) + s too, and F_2 has a generator
    # there, so a stop one degree lower misses it (the three-window comparison of
    # every step of every catalog module, k and m is in test_resolution.py)
    M = catalog_module(name, label)
    res = resolve(M, 6)
    assert res.certified
    first, second = res.steps[0], res.steps[1]
    assert max(second.col_degs) == second.scanned_to == max(first.col_degs) + \
        M.ring.artinian_reduction[1]


@pytest.mark.parametrize("name,label", catalog_modules())
def test_dual_stops_agree_with_a_three_times_wider_window(name, label, monkeypatch):
    M = catalog_module(name, label)
    s = M.ring.artinian_reduction[1]
    with monkeypatch.context() as patch:
        scans = record_scans(patch)
        D = dual(M)
    # no MCM test: the generator scan of M*, then its relation scan, both certified
    (gen_stop, gen_end), (rel_stop, rel_end) = scans
    assert (gen_stop, rel_stop) == (s - min(M.gen_degs), max(D.gen_degs) + s)
    assert (gen_end, rel_end) == (gen_stop, rel_stop)
    # each bound is reached: a stop one degree lower misses a generator or a relation
    assert (max(D.gen_degs), max(D.rel_degs)) == (gen_stop, rel_stop)
    with monkeypatch.context() as patch:
        wide = record_scans(patch, widen=3)
        W = dual(catalog_module(name, label))
    assert presentation(W) == presentation(D)
    assert wide[0][1] > gen_end and wide[1][1] > rel_end


@pytest.mark.parametrize("name,label", catalog_modules())
def test_dual_cosyzygy_and_mcm_approx_of_catalog_modules_are_certified(name, label,
                                                                       monkeypatch):
    scans = record_scans(monkeypatch)
    M = catalog_module(name, label)
    D, C, X = dual(M), cosyzygy(M, 1), mcm_approx(M)
    assert scans and all(stop is not None for stop, _ in scans)
    assert (D._depth, C._depth, X._depth) == (M._depth,) * 3
    assert presentation(X) == presentation(M)


@pytest.mark.parametrize("name,label", [("ade:A3:dim1", "I1"), ("ade:A2:dim2", "M1")])
def test_a_copy_of_unknown_depth_is_tested_and_windowed(name, label, monkeypatch):
    # the same module without its construction: dual runs mcm_test first, then
    # windowed scans of M*, and gets the same presentation
    want = presentation(dual(catalog_module(name, label)))
    scans = record_scans(monkeypatch)
    assert presentation(dual(fresh_copy(catalog_module(name, label)))) == want
    assert len(scans) > 2 and [stop for stop, _ in scans[-2:]] == [None, None]


def test_dual_keeps_to_its_degree_cap(monkeypatch):
    # M*'s generators of A8:dim1/I1 stop at 9 and its relations at 18; under a cap
    # of 9 the relation scan reads no degree past 9 and raises there
    from mcmkit.errors import DegreeBoundExceeded

    reached = []

    def scan(ring, col_degs, matrix_at, degree_cap, stall=None, stop=None):
        return capture_kernel(ring, col_degs, lambda d: reached.append(d) or matrix_at(d),
                              degree_cap, stall, stop)

    monkeypatch.setattr(mcmkit.modules, "capture_kernel", scan)
    monkeypatch.setattr(mcmkit.resolution, "capture_kernel", scan)
    M = catalog_module("ade:A8:dim1", "I1")
    assert max(dual(M).rel_degs) == 18 == max(reached)
    reached.clear()
    with pytest.raises(DegreeBoundExceeded, match="degree 9") as info:
        dual(catalog_module("ade:A8:dim1", "I1"), degree_cap=9)
    assert (info.value.bound, info.value.flag) == (9, "--degree-bound")
    assert reached and max(reached) == 9


def test_a_direct_sum_has_the_least_depth_of_its_parts():
    cat = load_catalog("ade:A3:dim2")
    mods = [M for _, M in cat.modules()]
    total = GradedModule.direct_sum(mods + [M.degree_shift(2) for M in mods])
    assert total._depth == 2 and is_mcm_by_construction(total)
    assert total.minimized()._depth == 2
    k, m = residue_field_module(cat.ring), maximal_ideal_module(cat.ring)
    assert GradedModule.direct_sum(mods + [k])._depth == 0
    assert GradedModule.direct_sum([m] + mods)._depth == 1
    assert GradedModule.direct_sum(mods + [fresh_copy(mods[0])])._depth is None


@pytest.mark.parametrize("name", ["ade:A4:dim1", "ade:A2:dim2"])
def test_ulrich_test_skips_the_mcm_test_of_a_module_mcm_by_construction(name, monkeypatch):
    from mcmkit.resolution import mcm_test, ulrich_test

    tested = []
    monkeypatch.setattr(mcmkit.resolution, "mcm_test",
                        lambda M, degree_cap=None: tested.append(M) or mcm_test(M, degree_cap))
    for _, M in load_catalog(name).modules():
        assert ulrich_test(M)
    assert tested == []
    copy = fresh_copy(load_catalog(name).modules()[0][1])
    assert ulrich_test(copy) and tested == [copy]


@pytest.mark.parametrize("name", [n for n in catalog_names() if n.endswith(":dim2")])
def test_mcm_approx_of_m_over_a_surface_runs_no_mcm_test(name, monkeypatch):
    # m = Syz_1(k) has depth 1 < 2 = depth A, so it is not MCM, with no Ext scan
    from mcmkit.resolution import mcm_test

    tested = []
    monkeypatch.setattr(mcmkit.resolution, "mcm_test",
                        lambda M, degree_cap=None: tested.append(M) or mcm_test(M, degree_cap))
    ring = load_catalog(name).ring
    X = mcm_approx(maximal_ideal_module(ring))
    assert tested == []
    # a copy of m keeps no resolution of k: the test runs, finds it not MCM, and X is the same
    Y = mcm_approx(fresh_copy(maximal_ideal_module(ring)))
    assert len(tested) == 1 and presentation(X) == presentation(Y)
