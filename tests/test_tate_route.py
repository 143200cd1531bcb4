"""Minimal resolutions of cyclic modules read off Tate's complex.

Let A = S/(f_1..f_c) be a certified complete intersection, S a polynomial
ring in n variables, and M = A(-s)/(g_1..g_r) cyclic and minimally
presented.  The relations f_k = sum_j a_kj g_j that solve over S, with no
a_kj a unit, form F_in; the others form F_out.  When r + |F_out| = n and M
has a top-degree bound, g and F_out are a system of parameters of S, and
Tate's complex A<e_1..e_r; T_k for f_k in F_in>, de_j = g_j and
dT_k = sum_j a_kj e_j, is M's minimal resolution (Tate, Illinois J. Math. 1,
1957).  k presented by the variables, A/(x^a, y^b) and A/(x) are such
modules, so ``FreeResolution.extend`` builds their steps with no kernel
scan.  m = Syz_1(k) is built as the cokernel of k's d_2 and keeps k's
resolution (``GradedModule._syzygy_of_k``), so its steps from F_2 on are
k's from F_3 on, the same ``Step`` objects, whatever k's route.  Each test
compares the route with the scan (``conftest.cold_chain``).
"""

from pathlib import Path

import pytest

from mcmkit.catalog import catalog_names, load_catalog, nonci_gorenstein_ring
from mcmkit.cli import load_module
from mcmkit.errors import DegreeBoundExceeded
from mcmkit.homs import is_isomorphic
from mcmkit.modules import (GradedModule, _depth_as, _minimal_as, maximal_ideal_module,
                            residue_field_module)
from mcmkit.resolution import FreeResolution, resolve
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
    # x - y^2 has a linear term: k's minimal presentation is (y) alone, and x - y^2 lies
    # in F_out, so k is resolved by the Koszul complex on y
    out.append(pytest.param(WeightedPolyRing(5, ["x", "y"], [2, 1]).quotient(["x-y^2"]),
                            id="linear-term"))
    return out


def assert_read_off_tate(fresh, H, kernel_step_calls, syzygies=(1, 2, 3)):
    """The module fresh() gives resolves to H with no kernel scan, as cold_chain does."""
    A = fresh().ring
    scan = cold_chain(fresh(), H)
    kernel_step_calls.clear()
    res = resolve(fresh(), H)
    assert not kernel_step_calls
    assert res.certified
    assert [step_shape(s) for s in res.steps] == [step_shape(s) for s in scan.steps]
    assert res.betti_table(H) == scan.betti_table(H)
    assert all(not e.is_unit() for s in res.steps for row in s.entries for e in row)
    # a complex: each composite of two differentials vanishes over A
    for a, b in zip(res.steps, res.steps[1:]):
        assert all(e.is_zero() for row in grid_mul(A, a.entries, b.entries) for e in row)
    for n in syzygies:
        assert is_isomorphic(res.syzygy_module(n), scan.syzygy_module(n)), n


@pytest.mark.parametrize("A", route_cases())
def test_the_route_resolves_k_as_the_scan_does(A, kernel_step_calls):
    H = 12 if len(A.relations) == 2 and len(A.variables) == 2 else 8
    assert_read_off_tate(lambda: residue_field_module(A), H, kernel_step_calls)


def koszul(a, b, shift=0):
    """A(-shift)/(x^a, y^b) over A = GF(7)[x,y,z]/(z^2): z^2 lies in F_out."""
    A = WeightedPolyRing(7, ["x", "y", "z"]).quotient(["z^2"])
    return GradedModule(A, [shift], [a + shift, b + shift], [[f"x^{a}", f"y^{b}"]])


def take_x(p):
    """A/(x) over A = GF(p)[x,y]/(x^2, y^2): x^2 = x.x lies in F_in, y^2 in F_out."""
    A = WeightedPolyRing(p, ["x", "y"]).quotient(["x^2", "y^2"])
    return GradedModule(A, [0], [1], [["x"]])


def cyclic(variables, weights, relations, gens):
    A = WeightedPolyRing(7, variables, weights).quotient(relations)
    return GradedModule(A, [0], [A.element(g).degree for g in gens], [gens])


def served_cases():
    out = [pytest.param(lambda a=a, b=b, s=s: koszul(a, b, s), 4, id=f"koszul({a},{b})+{s}")
           for a in range(1, 6) for b in range(a, 6) for s in (0, 3)]
    out += [pytest.param(lambda p=p: take_x(p), 12, id=f"A/(x)@{p}") for p in (7, 101)]
    # F_in and F_out both nonempty: z^3 = z^2 . z, and x^2 lies outside (y, z)
    out.append(pytest.param(lambda: cyclic("xyz", [1, 1, 1], ["x^2", "z^3"], ["y", "z"]), 8,
                            id="(y,z)/(x^2,z^3)"))
    # weighted: x^6 + y^3 = x^5 . x + y^2 . y, and z^2 lies outside (x, y)
    out.append(pytest.param(lambda: cyclic("xyz", [1, 2, 3], ["x^6+y^3", "z^2"], ["x", "y"]), 8,
                            id="(x,y)/(x^6+y^3,z^2)"))
    return out


@pytest.mark.parametrize("fresh,H", served_cases())
def test_the_route_resolves_a_cyclic_module_as_the_scan_does(fresh, H, kernel_step_calls):
    assert_read_off_tate(fresh, H, kernel_step_calls)


@pytest.mark.parametrize("fresh", [
    # xy: neither x^2 nor y^2 lies in (xy), so r + |F_out| = 3 > 2
    pytest.param(lambda: cyclic("xy", [1, 1], ["x^2", "y^2"], ["x*y"]), id="(xy)/(x^2,y^2)"),
    # M = GF(7)[x]/(x^6) has no bound from top_degree_bound, so no certified Tor stop
    pytest.param(lambda: cyclic("xyz", [1, 2, 3], ["x^6+y^3", "z^2"], ["y", "z"]),
                 id="(y,z)/(x^6+y^3,z^2)"),
])
def test_outside_the_route_a_cyclic_module_is_scanned(fresh, kernel_step_calls):
    H = 5
    want = [step_data(s) for s in cold_chain(fresh(), H).steps]
    kernel_step_calls.clear()
    res = resolve(fresh(), H)
    assert [step_data(s) for s in res.steps] == want
    assert len(kernel_step_calls) == sum(1 for s in res.steps[1:] if s.scanned_to is not None)
    assert kernel_step_calls


def test_tates_differential_over_the_cusp():
    # A = QQ[x, y]/(x^2 + y^3), weights (3, 2): dT = x e_x + y^2 e_y, and over
    # F_2 = <e_x e_y, T> the sign (-1)^|I| of d(e_I T) = d(e_I) T - e_I dT gives
    # d(e_y T) = y T + x e_x e_y and d(e_x T) = x T - y^2 e_x e_y
    res = resolve(load_module(str(QQ / "cusp_k.json")), 3)
    assert [s.col_degs for s in res.steps] == [(3, 2), (5, 6), (8, 9)]
    assert [[str(e) for e in row] for row in res.steps[1].entries] == [["-1*y", "x"], ["x", "y^2"]]
    assert [[str(e) for e in row] for row in res.steps[2].entries] == [["x", "-1*y^2"], ["y", "x"]]


def m_cases():
    out = [pytest.param(load_catalog(name).ring, id=name) for name in catalog_names()]
    out += [pytest.param(WeightedPolyRing(7, list(v)).quotient(rels), id=",".join(rels))
            for v, rels in SMALL_CIS]
    out += [pytest.param(load_module(str(QQ / f"{name}.json")).ring, id=f"QQ:{name}")
            for name in ("cusp_m", "squares_k")]
    # dimension 3: m has depth 1, so F_2 is certified by Tor balance alone, k's one step on
    out.append(pytest.param(WeightedPolyRing(7, list("xyzw")).quotient(["x^3+y^3+z^3+w^3"]),
                            id="x^3+y^3+z^3+w^3"))
    # not a complete intersection: k's steps are scanned, each certified by the Artinian
    # reduction, and m's are those same scans
    out.append(pytest.param(nonci_gorenstein_ring(), id="nonci"))
    return out


@pytest.mark.parametrize("A", m_cases())
def test_m_is_ks_resolution_one_step_on(A, kernel_step_calls, solves):
    H = 4
    scan = cold_chain(maximal_ideal_module(A), H)
    kernel_step_calls.clear()
    k = resolve(residue_field_module(A), H + 1)
    k_calls = len(kernel_step_calls)
    m = maximal_ideal_module(A)
    kernel_step_calls.clear()
    res = resolve(m, H)
    # m's own scans are none: each step is k's one step on, the same object
    assert len(kernel_step_calls) == sum(s.route == "scan" for s in k.steps[2:]) <= k_calls
    assert all(a is b for a, b in zip(res.steps[1:], m._syzygy_of_k.steps[2:]))
    assert [(s.route, s.certified) for s in res.steps[1:]] == \
        [(s.route, s.certified) for s in k.steps[2:]]
    assert res.certified and not solves
    if A.is_certified_ci:
        assert [s.route for s in res.steps] == ["presentation"] + ["tate"] * (H - 1)
    assert [step_shape(s) for s in res.steps] == [step_shape(s) for s in scan.steps]
    assert res.betti_table(H) == scan.betti_table(H)
    assert all(not e.is_unit() for s in res.steps for row in s.entries for e in row)
    for a, b in zip(res.steps, res.steps[1:]):
        assert all(e.is_zero() for row in grid_mul(A, a.entries, b.entries) for e in row)
    for n in (1, 2):
        assert is_isomorphic(res.syzygy_module(n), scan.syzygy_module(n)), n


@pytest.fixture
def bases_built(monkeypatch):
    """A list that grows by i each time a resolution builds Tate's basis of G_i."""
    built = []
    real = FreeResolution._tate_basis

    def counting(res, i):
        if i not in res._tate_bases:
            built.append(i)
        return real(res, i)

    monkeypatch.setattr(FreeResolution, "_tate_basis", counting)
    return built


@pytest.mark.parametrize("name", catalog_names())
def test_m_builds_each_of_ks_bases_once(name, bases_built):
    res = resolve(maximal_ideal_module(load_catalog(name).ring), 7)
    assert sorted(bases_built) == list(range(1, 9))
    assert res._tate is None and res.minimal._syzygy_of_k is not None


def test_shifts_and_copies_of_m_keep_no_resolution_of_k():
    # k's resolution presents m in m's own degrees, not in a shift's
    m = maximal_ideal_module(load_catalog("ade:A2:dim2").ring)  # generated in degrees 2, 3
    assert m._syzygy_of_k is not None and m.minimized() is m
    for copy in (m.degree_shift(1), m.normalized()[0], GradedModule.direct_sum([m])):
        assert copy._syzygy_of_k is None


def swapped(M):
    """M with its first two rows, of equal degree, swapped: the same module, presented as
    minimally, with the same depth, but not built as Syz_1(k)."""
    assert M.gen_degs[0] == M.gen_degs[1]
    P = [M.presentation[1], M.presentation[0]] + list(M.presentation[2:])
    N = _depth_as(GradedModule(M.ring, M.gen_degs, M.rel_degs, P, label=M.label, check=False),
                  M._depth)
    return _minimal_as(N, N)


@pytest.mark.parametrize("variables,relations", [("xy", ["x^2", "y^2"]),
                                                 ("xyz", ["x^3+y^3+z^3"])])
def test_a_row_swapped_m_falls_back_to_the_scan(variables, relations):
    # a copy of m keeps no resolution of k, so it is not read off k's complex
    A, H = WeightedPolyRing(7, list(variables)).quotient(relations), 5
    scan = cold_chain(swapped(maximal_ideal_module(A)), H)
    res = resolve(swapped(maximal_ideal_module(A)), H)
    assert res.minimal._syzygy_of_k is None and "tate" not in [s.route for s in res.steps]
    assert res.betti_table(H) == scan.betti_table(H)
    for n in (1, 2):
        assert is_isomorphic(res.syzygy_module(n), scan.syzygy_module(n)), n


def doubled(M):
    """M with its first relation doubled: the same module, presented as minimally, with
    the same depth, but not built as Syz_1(k)."""
    P = [[e.scale(2) if c == 0 else e for c, e in enumerate(row)] for row in M.presentation]
    N = _depth_as(GradedModule(M.ring, M.gen_degs, M.rel_degs, P, label=M.label, check=False),
                  M._depth)
    return _minimal_as(N, N)


def test_off_ks_complex_m_is_scanned_then_read_off_its_tail(kernel_step_calls, solves):
    # doubled m over a surface: F_2 scanned, then the tail solved on Syz_1's 4 x 4 presentation
    A = load_catalog("ade:A3:dim2").ring
    scan = cold_chain(doubled(maximal_ideal_module(A)), 5)
    kernel_step_calls.clear()
    res = resolve(doubled(maximal_ideal_module(A)), 5)
    assert res.minimal._syzygy_of_k is None and res.certified
    assert [s.route for s in res.steps] == ["presentation", "scan", "tail", "tail", "tail"]
    assert len(kernel_step_calls) == 1 and solves == [True]
    assert [step_shape(s) for s in res.steps] == [step_shape(s) for s in scan.steps]
    assert step_data(res.steps[1]) == step_data(scan.steps[1])


@pytest.mark.parametrize("A", [pytest.param(nonci_gorenstein_ring(), id="nonci-gorenstein")])
def test_outside_the_route_k_is_scanned_as_before(A, kernel_step_calls):
    H = 5
    want = [step_data(s) for s in cold_chain(residue_field_module(A), H).steps]
    kernel_step_calls.clear()
    res = resolve(residue_field_module(A), H)
    assert [step_data(s) for s in res.steps] == want
    assert len(kernel_step_calls) == sum(1 for s in res.steps[1:] if s.scanned_to is not None)
    assert kernel_step_calls


def test_the_route_raises_at_exactly_the_caps_the_scan_does():
    def outcome(resolver, fresh, H, cap):
        try:
            return resolver(fresh(), H, degree_cap=cap).betti_table(H)
        except DegreeBoundExceeded as exc:
            return str(exc)

    A = load_catalog("ade:A4:dim1").ring
    for label, fresh, H, caps in [
        ("k", lambda: residue_field_module(A), 8, range(1, 60)),
        ("m", lambda: maximal_ideal_module(A), 4, range(1, 40)),
        ("koszul(4,5)+3", lambda: koszul(4, 5, 3), 4, range(1, 30)),
        ("A/(x)", lambda: take_x(7), 12, range(1, 30)),
        ("(x,y)", lambda: cyclic("xyz", [1, 2, 3], ["x^6+y^3", "z^2"], ["x", "y"]), 8, range(1, 60)),
    ]:
        raised = set()
        for cap in caps:
            want = outcome(cold_chain, fresh, H, cap)
            assert outcome(resolve, fresh, H, cap) == want, (label, cap)
            raised.add(isinstance(want, str))
        assert raised == {True, False}, label
