"""Resolutions of matrix-factorization cokernels read off their factorizations.

M = coker phi of a reduced factorization (phi, psi) of f has the minimal
resolution ... -> A^n -phi-> A^n -psi-> A^n -phi-> A^n -> M over A = S/(f)
(Eisenbud, Trans. AMS 260, 1980), so ``FreeResolution.extend`` builds its
steps from the factorization with no kernel scan: read off the memo M keeps
(``GradedModule._factorization``) or, for a copy of M without it
(``conftest.factorization_free``), solved for on M's square presentation.
Each test compares both with the scan (``conftest.cold_chain``).
"""

import pytest

from mcmkit.catalog import catalog_names, load_catalog
from mcmkit.errors import DegreeBoundExceeded
from mcmkit.homs import is_isomorphic
from mcmkit.mf import MatrixFactorization, coker_module
from mcmkit.resolution import resolve
from mcmkit.rings import WeightedPolyRing, grid_mul
from conftest import cold_chain, factorization_free, step_shape

H = 12


def qq_a3_module():
    R = WeightedPolyRing(0, ["x", "y"], [4, 2])
    f = "x^2+y^4"
    phi = [["x", "y"], ["y^3", "-x"]]
    return coker_module(MatrixFactorization(R, f, phi, phi), ring=R.quotient([f]))


def route_cases():
    out = []
    for name in catalog_names():
        out.extend((f"{name}/{label}", M) for label, M in load_catalog(name).modules())
    out.append(("QQ:A3:dim1/I1", qq_a3_module()))
    return [pytest.param(M.degree_shift(s), id=f"{tag}<{s}>")
            for tag, M in out for s in (0, 3)]


@pytest.mark.parametrize("M", route_cases())
def test_the_route_resolves_as_the_scan_does(M, kernel_step_calls):
    scan = cold_chain(M, H)
    for copy in (M, factorization_free(M)):
        kernel_step_calls.clear()
        res = resolve(copy, H)
        assert not kernel_step_calls
        assert res.tail()[0] == 0
        assert [step_shape(s) for s in res.steps] == [step_shape(s) for s in scan.steps]
        assert res.betti_table(H) == scan.betti_table(H)
        # a complex: each composite of two differentials vanishes over A
        for a, b in zip(res.steps, res.steps[1:]):
            assert all(e.is_zero() for row in grid_mul(M.ring, a.entries, b.entries) for e in row)
        for n in (1, 2):
            assert is_isomorphic(res.syzygy_module(n), scan.syzygy_module(n)), n


@pytest.mark.parametrize("name,label", [("ade:A3:dim1", "N+"), ("ade:A4:dim2", "M1")])
def test_the_route_raises_at_exactly_the_caps_the_scan_does(name, label):
    def outcome(resolver, M, cap):
        try:
            return resolver(M, H, degree_cap=cap).betti_table(H)
        except DegreeBoundExceeded as exc:
            return str(exc)

    raised = set()
    for cap in range(1, 76):
        M = dict(load_catalog(name).modules())[label]
        want = outcome(cold_chain, M, cap)
        assert outcome(resolve, M, cap) == want, cap
        assert outcome(resolve, factorization_free(M), cap) == want, cap
        raised.add(isinstance(want, str))
    assert raised == {True, False}
