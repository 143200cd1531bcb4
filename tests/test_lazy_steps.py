"""Known resolution steps build their entries on first read, and say where they came from.

A step read off Tate's complex or off the periodic tail (``resolution``'s
docstring) has its degrees, scan end and certificate at once; its entries
are built when something reads them, so a Betti table builds none.  Each
step records its ``route``: presentation, scan, tate or tail.  The top-degree
bound of a module of positive depth is None with no piece computed.
"""

import pytest

from mcmkit.catalog import catalog_names, load_catalog, nonci_gorenstein_ring
from mcmkit.modules import (GradedModule, free_module, maximal_ideal_module,
                            residue_field_module, top_degree_bound)
from mcmkit.resolution import FreeResolution, resolve
from mcmkit.rings import WeightedPolyRing
from conftest import factorization_free, step_data
from test_tate_route import koszul, take_x


def two_squares():
    return WeightedPolyRing(7, ["x", "y"]).quotient(["x^2", "y^2"])


def catalog_module(name, i=0):
    return load_catalog(name).modules()[i][1]


def built(step):
    return "entries" in vars(step)


@pytest.mark.parametrize("fresh,H,route", [
    pytest.param(lambda: residue_field_module(two_squares()), 12, "tate", id="k/(x^2,y^2)"),
    pytest.param(lambda: residue_field_module(load_catalog("ade:A4:dim2").ring), 8, "tate",
                 id="ade:A4:dim2/k"),
    pytest.param(lambda: koszul(2, 3), 5, "tate", id="koszul(2,3)"),
    pytest.param(lambda: catalog_module("ade:A3:dim1"), 12, "tail", id="ade:A3:dim1/mf"),
    pytest.param(lambda: factorization_free(catalog_module("ade:A2:dim2")), 8, "tail",
                 id="ade:A2:dim2/solved"),
])
def test_a_betti_table_builds_no_known_step(fresh, H, route):
    res = resolve(fresh(), H)
    res.betti_table(H)
    known = [s for s in res.steps if s.route == route]
    assert len(known) >= H // 2
    assert not any(built(s) for s in known)
    assert "_psi" not in vars(res)


def eager(M, H):
    """M's resolution with each step's entries read as soon as the step exists."""
    res = FreeResolution(M, None)
    for i in range(1, H + 1):
        res.extend(i)
        res.steps[i - 1].entries
    return res


def lazy_cases():
    out = [pytest.param(lambda name=name: residue_field_module(load_catalog(name).ring), 8,
                        id=f"{name}/k") for name in catalog_names()]
    out += [pytest.param(lambda name=name: catalog_module(name), 8, id=f"{name}/mf")
            for name in catalog_names()]
    out += [pytest.param(lambda name=name: maximal_ideal_module(load_catalog(name).ring), 7,
                         id=f"{name}/m") for name in ("ade:A1:dim2", "ade:A3:dim2")]
    out += [
        pytest.param(lambda: factorization_free(catalog_module("ade:A4:dim1")), 8, id="solved"),
        pytest.param(lambda: take_x(7), 10, id="A/(x)"),
        pytest.param(lambda: koszul(3, 4), 5, id="koszul(3,4)"),
    ]
    return out


@pytest.mark.parametrize("fresh,H", lazy_cases())
def test_entries_read_late_equal_entries_read_at_once(fresh, H):
    res = resolve(fresh(), H)
    for step in reversed(res.steps):  # the last step first: a tail step before its base
        step.entries
    assert [step_data(s) for s in res.steps] == [step_data(s) for s in eager(fresh(), H).steps]


def routes(M, H):
    return [s.route for s in resolve(M, H).steps]


def test_each_step_names_its_route(kernel_step_calls, solves):
    assert routes(residue_field_module(two_squares()), 4) == ["presentation"] + ["tate"] * 3
    assert routes(catalog_module("ade:A2:dim1"), 4) == ["presentation"] + ["tail"] * 3
    # past the Koszul complex's last module, each zero step keeps the route before it
    assert routes(koszul(1, 1), 5) == ["presentation"] + ["tate"] * 4
    assert routes(free_module(two_squares(), [0]), 3) == ["presentation"] * 3
    kernel_step_calls.clear()
    got = routes(residue_field_module(nonci_gorenstein_ring()), 4)
    assert got == ["presentation"] + ["scan"] * 3
    assert len(kernel_step_calls) == 3
    # m over a surface: Syz_1(k), so its steps are Tate's complex of k one step on,
    # with no scan and no solve
    kernel_step_calls.clear()
    got = routes(maximal_ideal_module(load_catalog("ade:A3:dim2").ring), 5)
    assert got == ["presentation"] + ["tate"] * 4
    assert not kernel_step_calls and not solves


def top_cases():
    out = []
    for name in catalog_names():
        A = load_catalog(name).ring
        out.append(pytest.param(lambda A=A: residue_field_module(A), id=f"{name}/k"))
        for base, M in [("m", lambda A=A: maximal_ideal_module(A))] + [
                (label, lambda name=name, i=i: catalog_module(name, i))
                for i, (label, _) in enumerate(load_catalog(name).modules())]:
            out += [pytest.param(lambda M=M, n=n: resolve(M(), n + 1).syzygy_module(n),
                                 id=f"{name}/Syz{n}({base})") for n in range(3)]
    out.append(pytest.param(lambda: koszul(2, 3), id="koszul(2,3)"))
    return out


@pytest.mark.parametrize("fresh", top_cases())
def test_the_top_bound_skips_a_module_of_positive_depth(fresh, monkeypatch):
    res = FreeResolution(fresh(), None)
    calls = []
    real = GradedModule.piece

    def counting(self, d):
        calls.append(d)
        return real(self, d)

    monkeypatch.setattr(GradedModule, "piece", counting)
    top = res._top
    if (res.minimal._depth or 0) >= 1:
        assert top is None and not calls
    else:
        assert top is not None
    assert top == top_degree_bound(res.minimal)
