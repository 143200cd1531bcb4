"""A known-route resolution pays only for what its route reads.

Two shortcuts keep every output as it was, and each test here compares
one with the computation it replaces, kept test-side as the reference:

- Tate's F_in by monomial division: when every g_j is one term, each term
  of f_l goes to the first g_j whose monomial divides it, which is the
  particular solution ``solve`` returns over S (``FreeResolution._tate``);
  other g are scanned, certified by Tor balance.
- k minimal by construction: when every relation lies in m^2, the
  variables minimally generate m, so ``residue_field_module`` records k as
  its own minimal form and ``minimized()`` runs no ``minimal_columns``.
"""

import pytest

import mcmkit.modules
import mcmkit.resolution
from mcmkit.catalog import catalog_names, load_catalog, nonci_gorenstein_ring
from mcmkit.cli import load_module
from mcmkit.linalg import DenseMatrix
from mcmkit.modules import GradedModule, residue_field_module
from mcmkit.resolution import FreeResolution, resolve
from mcmkit.rings import BlockSystem, WeightedPolyRing, poly_key

SMALL_CIS = [  # the small complete intersections of the resolve benchmark
    ("xy", ["x^2", "y^2"]),
    ("xyzw", ["x*y", "z*w"]),
    ("xyz", ["x*y", "z^2"]),
    ("xyz", ["x^2", "y^2", "z^2"]),
    ("xyz", ["x^3+y^3+z^3"]),
]


def qq_squares_k():
    """k over QQ[x, y]/(2x^2, 3y^2): F_in's scalings c_l^-1 are 1/2 and 1/3."""
    return load_module({"ring": {"char": 0, "vars": ["x", "y"], "relations": ["2*x^2", "3*y^2"]},
                        "builtin": "k"})


def cyclic(variables, relations, gens, weights=None):
    A = WeightedPolyRing(7, list(variables), weights).quotient(relations)
    return GradedModule(A, [0], [A.element(g).degree for g in gens], [gens])


def koszul(a, b):
    return cyclic("xyz", ["z^2"], [f"x^{a}", f"y^{b}"])


def residue_fields():
    out = [pytest.param(lambda n=n: residue_field_module(load_catalog(n).ring), id=f"k:{n}")
           for n in catalog_names()]
    out += [pytest.param(lambda v=v, r=r: residue_field_module(
        WeightedPolyRing(7, list(v)).quotient(r)), id="k:" + ",".join(r)) for v, r in SMALL_CIS]
    out.append(pytest.param(qq_squares_k, id="k:QQ(2x^2,3y^2)"))
    return out


def divided_cases():
    out = residue_fields()
    out += [pytest.param(lambda a=a, b=b: koszul(a, b), id=f"koszul({a},{b})")
            for a in range(1, 6) for b in range(a, 6)]
    # A/(3x): g's coefficient is not 1, so each a_lj is divided by it
    out += [pytest.param(lambda g=g: cyclic("xy", ["x^2", "y^2"], [g]), id=f"A/({g})")
            for g in ("x", "3*x")]
    out.append(pytest.param(lambda: cyclic("xyz", ["x^2", "z^3"], ["y", "z"]), id="(y,z)/(x^2,z^3)"))
    return out


def solved_tate(res):
    """The parent route's (g, deg g, F_in): f_l = sum_j a_lj g_j by one ``BlockSystem`` solve
    over S per relation; the certificate's other conditions as ``_tate`` checks them."""
    A, M = res.ring, res.minimal
    if not A.is_certified_ci or M.num_gens != 1 or res._top is None:
        return None
    S, g = A.ambient.relation_free, M.presentation[0]
    g_degs = [r - M.gen_degs[0] for r in M.rel_degs]
    system, f_in, f_out = BlockSystem(S, [[S.element(e.poly) for e in g]], [0], g_degs), [], 0
    for l, (f, deg) in enumerate(zip(A.relations, A.relation_degrees)):
        rhs = S.join_coords([S.element(f)], [deg])[:, None]
        sol = system.at(deg).solve(DenseMatrix._of_array(S.field, rhs))
        if sol is None:
            f_out += 1
            continue
        a = S.split_coords(sol._array().T, [deg - e for e in g_degs])[0]
        if any(e.is_unit() for e in a):
            return None
        inv = A.field.inv(f[max(f)])
        f_in.append((l, inv, deg, [(j, (x := A.element(e.poly, deg - g_degs[j]).scale(inv), -x))
                                   for j, e in enumerate(a) if e.poly]))
    return ([(e, -e) for e in g], g_degs, f_in) if len(g) + f_out == len(A.variables) else None


def as_data(tate):
    """(g, deg g, F_in) with every ring element as its ``poly_key``, so equal data compare equal."""
    def key(pair):
        return tuple(poly_key(e.poly) for e in pair)

    g, g_degs, f_in = tate
    return ([key(p) for p in g], list(g_degs),
            [(l, inv, deg, [(j, key(a)) for j, a in al]) for l, inv, deg, al in f_in])


@pytest.fixture
def block_systems(monkeypatch):
    """A list that grows by one on every ``BlockSystem`` that resolution.py builds."""
    calls = []
    real = mcmkit.resolution.BlockSystem

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(mcmkit.resolution, "BlockSystem", counting)
    return calls


@pytest.mark.parametrize("fresh", divided_cases())
def test_division_gives_the_solves_f_in(fresh, block_systems):
    res = FreeResolution(fresh(), None)
    want = solved_tate(FreeResolution(fresh(), None))
    block_systems.clear()
    got = res._tate
    assert got is not None and not block_systems  # read off by division, with no system
    assert res.minimal._syzygy_of_k is None  # its own complex, not k's one step on
    assert as_data(got) == as_data(want)


def test_f_in_takes_the_first_dividing_generator():
    # x*y over (x, y) could be y . x or x . y; the solve pivots on the first column, x's block
    A = WeightedPolyRing(7, list("xyzw")).quotient(["x*y", "z*w"])
    _, _, f_in = FreeResolution(residue_field_module(A), None)._tate
    assert [(l, [(j, str(a[0])) for j, a in al]) for l, _, _, al in f_in] == [(0, [(0, "y")]),
                                                                             (1, [(2, "w")])]


def test_a_term_of_several_monomials_takes_the_certified_scan():
    # x^3 = (x + y)(x^2 - xy + y^2) - y . y^2 would give Tate's complex, but x + y is not
    # divided by: the module is scanned, each scan stopped by Tor balance
    fresh = lambda: cyclic("xyz", ["x^3", "z^2"], ["x+y", "y^2"])  # noqa: E731
    res = resolve(fresh(), 6)
    assert res._tate is None and solved_tate(FreeResolution(fresh(), None)) is not None
    assert [s.route for s in res.steps] == ["presentation"] + ["scan"] * 5
    assert res.certified
    assert res.betti_table(6) == [(0, 1, (0,)), (1, 2, (1, 2)), (2, 2, (3, 3)), (3, 2, (4, 5)),
                                  (4, 2, (6, 6)), (5, 2, (7, 8)), (6, 2, (9, 9))]


def test_without_a_top_degree_bound_the_two_term_ideal_is_scanned():
    # over (z^2), A/(x + y, y^2) has no bound from ``top_degree_bound``: no Tate route
    res = resolve(cyclic("xyz", ["z^2"], ["x+y", "y^2"]), 3)
    assert res._tate is None
    assert [s.route for s in res.steps[1:]] == ["scan"] * 2
    assert res.betti_numbers(3) == [1, 2, 1, 0]


@pytest.fixture
def minimal_columns_calls(monkeypatch):
    calls = []
    real = mcmkit.modules.minimal_columns

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(mcmkit.modules, "minimal_columns", counting)
    return calls


@pytest.mark.parametrize("fresh", residue_fields() + [
    pytest.param(lambda: residue_field_module(nonci_gorenstein_ring()), id="k:nonci")])
def test_k_is_minimal_by_construction_over_relations_in_m2(fresh, minimal_columns_calls):
    k = fresh()
    assert k.minimized() is k
    assert not minimal_columns_calls
    assert k._depth == 0
    # the presentation minimized() computes for a copy with no memo
    copy = GradedModule(k.ring, k.gen_degs, k.rel_degs, k.presentation, label="k", check=False)
    minimal = copy.minimized()
    assert minimal_columns_calls
    assert (minimal.gen_degs, minimal.rel_degs, minimal.presentation) == (
        k.gen_degs, k.rel_degs, k.presentation)


def test_a_linear_term_keeps_the_minimization():
    # x - y^2 has a linear term: x = y^2 in A, so m is generated by y alone
    A = WeightedPolyRing(7, ["x", "y"], [2, 1]).quotient(["x-y^2", "y^3"])
    k = residue_field_module(A)
    assert k._minimal is None
    minimal = k.minimized()
    assert minimal is not k
    assert minimal.rel_degs == (1,) and [str(e) for e in minimal.presentation[0]] == ["y"]
    res = resolve(k, 8)
    assert res.betti_numbers(8) == [1] * 9
    assert [degs for _, _, degs in res.betti_table(8)] == [(0,), (1,), (3,), (4,), (6,), (7,),
                                                           (9,), (10,), (12,)]
    assert res.certified
