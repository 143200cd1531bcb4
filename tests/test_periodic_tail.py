"""The periodic tail of a resolution over a hypersurface, solved for once.

Over A = S/(f) with f in m^2, a maximal Cohen-Macaulay module with no free
summand is the cokernel of a reduced matrix factorization (Eisenbud, Trans.
AMS 260, 1980).  So once Syz_n(M) is maximal Cohen-Macaulay with a square
presentation phi, ``FreeResolution.tail`` solves phi psi = f Id once, and the
steps after it are psi and phi in turn, with no kernel scan.  Each test
compares the resolution with the scan (``conftest.cold_chain``).
"""

import pytest

import mcmkit.resolution
from mcmkit.catalog import catalog_names, load_catalog
from mcmkit.errors import Inconclusive
from mcmkit.homs import is_isomorphic
from mcmkit.mf import MatrixFactorization, coker_module, from_resolution_tail
from mcmkit.modules import GradedModule, _depth_as, maximal_ideal_module
from mcmkit.resolution import resolve
from mcmkit.rings import WeightedPolyRing
from conftest import cold_chain, step_data, step_shape


@pytest.fixture
def solves(monkeypatch):
    """A list that grows by one on every call of ``resolution._solve_companion``,
    holding whether that solve found psi."""
    calls = []
    real = mcmkit.resolution._solve_companion

    def counting(*args):
        psi = real(*args)
        calls.append(psi is not None)
        return psi

    monkeypatch.setattr(mcmkit.resolution, "_solve_companion", counting)
    return calls


def assert_matches_the_scan(res, scan):
    assert [step_shape(s) for s in res.steps] == [step_shape(s) for s in scan.steps]
    for n in (1, 2):
        assert is_isomorphic(res.syzygy_module(n), scan.syzygy_module(n)), n


@pytest.mark.parametrize("name", catalog_names())
def test_m_scans_only_until_its_syzygy_is_maximal_cohen_macaulay(name, kernel_step_calls, solves):
    # m has depth 1: MCM over a curve, where its 2 x 2 presentation solves; over a
    # surface F_2 is scanned and Syz_1(m)'s 4 x 4 presentation solves
    A = load_catalog(name).ring
    scan = cold_chain(maximal_ideal_module(A), 7)
    kernel_step_calls.clear()
    res = resolve(maximal_ideal_module(A), 7)
    d = A.artinian_reduction[0]
    assert len(kernel_step_calls) == d - 1
    assert res.tail()[0] == d - 1 and solves == [True]
    assert res.certified
    assert_matches_the_scan(res, scan)


def test_a_square_presentation_below_d_minus_depth_is_not_solved_and_keeps_scanning(
        kernel_step_calls, solves):
    # over x^2 + y^2 = (x + 2y)(x - 2y) mod 5, g = x (x + 2y) does not divide f:
    # A/(g) has a square presentation but depth 0, so no psi solves g psi = f and
    # none is sought; Syz_1 is g A = A/(x - 2y), maximal Cohen-Macaulay, whose
    # solve succeeds
    A = load_catalog("ade:A1:dim1").ring
    M = GradedModule(A, [0], [4], [["x^2+2*x*y"]], label="A/(g)")
    S = A.ambient.relation_free
    assert mcmkit.resolution._solve_companion(S, S.element(A.relations[0]),
                                              [[S.element(M.presentation[0][0].poly)]],
                                              [0], [4]) is None
    solves.clear()
    scan = cold_chain(M, 8)
    kernel_step_calls.clear()
    res = resolve(M, 8)
    assert solves == [True] and res.tail()[0] == 1
    assert len(kernel_step_calls) == 1
    assert_matches_the_scan(res, scan)
    # the steps before the tail are the scan's own
    assert step_data(res.steps[1]) == step_data(scan.steps[1])


def test_a_solve_that_must_succeed_raises_when_it_fails():
    # a depth memo that claims A/(g) is maximal Cohen-Macaulay: its square
    # presentation must then solve, and does not
    A = load_catalog("ade:A1:dim1").ring
    M = _depth_as(GradedModule(A, [0], [4], [["x^2+2*x*y"]], label="A/(g)"), 1)
    with pytest.raises(Inconclusive, match=r"^Syz0\(A/\(g\)\) is maximal Cohen-Macaulay and "
                                           r"square, but phi psi = f Id has no reduced solution "
                                           r"psi$"):
        resolve(M, 3)


@pytest.mark.parametrize("name,n", [("ade:A3:dim1", 0), ("ade:A3:dim2", 1)])
def test_mf_extract_solves_once(name, n, solves):
    A = load_catalog(name).ring
    mf, got = from_resolution_tail(maximal_ideal_module(A))
    assert got == n and solves == [True]
    assert mf.validate() and mf.is_reduced()
    assert is_isomorphic(coker_module(mf, ring=A),
                         resolve(maximal_ideal_module(A), n + 1).syzygy_module(n))
    # a catalog module reads its tail off its factorization
    solves.clear()
    M = load_catalog(name).modules()[0][1]
    assert from_resolution_tail(M)[1] == 0 and solves == []



def test_a_factorization_of_a_multiple_of_f_is_solved_for(kernel_step_calls, solves):
    # over S/(2 f) the memo's phi psi = f Id is not a factorization of A's relation:
    # coker_module keeps none, and the tail is solved on the square presentation
    R = WeightedPolyRing(5, ["x", "y"], [4, 2])
    phi = [["x", "y"], ["y^3", "-x"]]
    A = R.quotient(["2*x^2+2*y^4"])
    M = coker_module(MatrixFactorization(R, "x^2+y^4", phi, phi), ring=A)
    assert M._factorization is None
    mf, n = from_resolution_tail(M)
    assert n == 0 and solves == [True]
    assert mf.validate() and mf.f.poly == A.relations[0]
    assert resolve(M, 12).betti_numbers(12) == [2] * 13 and kernel_step_calls == []
