"""The resolution of k over a complete intersection read off Tate's complex.

Over a certified complete intersection A = S/(f_1..f_c) with every f_k in
m^2, Tate's complex A<e_1..e_n; T_1..T_c>, de_j = x_j, dT_k = sum_j a_kj e_j
for f_k = sum_j a_kj x_j, is the minimal resolution of k (Tate, Illinois J.
Math. 1, 1957), so ``FreeResolution.extend`` builds k's steps from it with
no kernel scan.  Each test compares that route with the scan
(``conftest.cold_chain``).
"""

from pathlib import Path

import pytest

from mcmkit.catalog import catalog_names, load_catalog, nonci_gorenstein_ring
from mcmkit.cli import load_module
from mcmkit.errors import DegreeBoundExceeded
from mcmkit.homs import is_isomorphic
from mcmkit.modules import residue_field_module
from mcmkit.resolution import resolve
from mcmkit.rings import WeightedPolyRing, grid_mul
from conftest import cold_chain, step_data, step_shape

QQ = Path(__file__).parent / "data" / "qq"
SMALL_CIS = [  # the small complete intersections of the resolve benchmark, over GF(7)
    ("xy", ["x^2", "y^2"]),
    ("xyzw", ["x*y", "z*w"]),
    ("xyz", ["x*y", "z^2"]),
    ("xyz", ["x^2", "y^2", "z^2"]),
    ("xyz", ["x^3+y^3+z^3"]),
]


def route_cases():
    out = [pytest.param(load_catalog(name).ring, id=name) for name in catalog_names()]
    out += [pytest.param(WeightedPolyRing(7, list(v)).quotient(rels), id=",".join(rels))
            for v, rels in SMALL_CIS]
    out += [pytest.param(load_module(str(QQ / f"{name}.json")).ring, id=f"QQ:{name}")
            for name in ("cusp_k", "squares_k")]
    return out


@pytest.mark.parametrize("A", route_cases())
def test_the_route_resolves_k_as_the_scan_does(A, kernel_step_calls):
    H = 12 if len(A.relations) == 2 and len(A.variables) == 2 else 8
    scan = cold_chain(residue_field_module(A), H)
    kernel_step_calls.clear()
    res = resolve(residue_field_module(A), H)
    assert not kernel_step_calls
    assert res.certified
    assert [step_shape(s) for s in res.steps] == [step_shape(s) for s in scan.steps]
    assert res.betti_table(H) == scan.betti_table(H)
    assert all(not e.is_unit() for s in res.steps for row in s.entries for e in row)
    # a complex: each composite of two differentials vanishes over A
    for a, b in zip(res.steps, res.steps[1:]):
        assert all(e.is_zero() for row in grid_mul(A, a.entries, b.entries) for e in row)
    for n in (1, 2, 3):
        assert is_isomorphic(res.syzygy_module(n), scan.syzygy_module(n)), n


def test_tates_differential_over_the_cusp():
    # A = QQ[x, y]/(x^2 + y^3), weights (3, 2): dT = x e_x + y^2 e_y, and over
    # F_2 = <e_x e_y, T> the sign (-1)^|I| of d(e_I T) = d(e_I) T - e_I dT gives
    # d(e_y T) = y T + x e_x e_y and d(e_x T) = x T - y^2 e_x e_y
    res = resolve(load_module(str(QQ / "cusp_k.json")), 3)
    assert [s.col_degs for s in res.steps] == [(3, 2), (5, 6), (8, 9)]
    assert [[str(e) for e in row] for row in res.steps[1].entries] == [["-1*y", "x"], ["x", "y^2"]]
    assert [[str(e) for e in row] for row in res.steps[2].entries] == [["x", "-1*y^2"], ["y", "x"]]


@pytest.mark.parametrize("A", [
    # x - y^2 has a linear term: k's minimal presentation is (y) alone, A = k[y]
    pytest.param(WeightedPolyRing(5, ["x", "y"], [2, 1]).quotient(["x-y^2"]), id="linear-term"),
    pytest.param(nonci_gorenstein_ring(), id="nonci-gorenstein"),
])
def test_outside_the_route_k_is_scanned_as_before(A, kernel_step_calls):
    H = 5
    want = [step_data(s) for s in cold_chain(residue_field_module(A), H).steps]
    kernel_step_calls.clear()
    res = resolve(residue_field_module(A), H)
    assert [step_data(s) for s in res.steps] == want
    assert len(kernel_step_calls) == sum(1 for s in res.steps[1:] if s.scanned_to is not None)
    assert kernel_step_calls


def test_the_route_raises_at_exactly_the_caps_the_scan_does():
    def outcome(resolver, cap):
        try:
            return resolver(residue_field_module(A), 8, degree_cap=cap).betti_table(8)
        except DegreeBoundExceeded as exc:
            return str(exc)

    A = load_catalog("ade:A4:dim1").ring
    raised = set()
    for cap in range(1, 60):
        want = outcome(cold_chain, cap)
        assert outcome(resolve, cap) == want, cap
        raised.add(isinstance(want, str))
    assert raised == {True, False}
