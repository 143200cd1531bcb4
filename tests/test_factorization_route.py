"""Resolutions of matrix-factorization cokernels read off their factorizations.

M = coker phi of a reduced factorization (phi, psi) of f has the minimal
resolution ... -> A^n -phi-> A^n -psi-> A^n -phi-> A^n -> M over A = S/(f)
(Eisenbud, Trans. AMS 260, 1980), so ``FreeResolution.extend`` builds its
steps from the factorization with no kernel scan.  Each test compares that
route with the scan on a copy of M without its factorization
(``conftest.factorization_free``): the same ring, degrees, presentation and
depth.
"""

import pytest

from mcmkit.catalog import catalog_names, load_catalog
from mcmkit.errors import DegreeBoundExceeded
from mcmkit.homs import is_isomorphic
from mcmkit.mf import MatrixFactorization, coker_module
from mcmkit.resolution import resolve
from mcmkit.rings import WeightedPolyRing, grid_mul
from conftest import factorization_free

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
    scan = resolve(factorization_free(M), H)
    kernel_step_calls.clear()
    res = resolve(M, H)
    assert not kernel_step_calls
    assert res.certified
    assert res.betti_table(H) == scan.betti_table(H)
    # a complex: each composite of two differentials vanishes over A
    for a, b in zip(res.steps, res.steps[1:]):
        assert all(e.is_zero() for row in grid_mul(M.ring, a.entries, b.entries) for e in row)
    for n in (1, 2):
        assert is_isomorphic(res.syzygy_module(n), scan.syzygy_module(n)), n


@pytest.mark.parametrize("name,label", [("ade:A3:dim1", "N+"), ("ade:A4:dim2", "M1")])
def test_the_route_raises_at_exactly_the_caps_the_scan_does(name, label):
    def outcome(M, cap):
        try:
            return resolve(M, H, degree_cap=cap).betti_table(H)
        except DegreeBoundExceeded as exc:
            return str(exc)

    raised = set()
    for cap in range(1, 76):
        M = dict(load_catalog(name).modules())[label]
        want = outcome(factorization_free(M), cap)
        assert outcome(M, cap) == want, cap
        raised.add(isinstance(want, str))
    assert raised == {True, False}
