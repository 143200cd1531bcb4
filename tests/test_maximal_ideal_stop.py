"""The maximal ideal as Syz_1(k) against a wide window.

``maximal_ideal_module`` reads m off k's resolution: m = coker d_2, and the
scan for k's F_2 stops, certified, at max(w1 + w2, largest relation degree)
when it is not read off Tate's complex, as the syzygies of the variables are
generated by the Koszul relations and by lifts of the ideal's generators.
The reference presents the submodule of A generated by the variables with
no stop, scanning until three stall windows pass with nothing new; both
must give the same sorted degrees and isomorphic modules.
"""

import pytest

import mcmkit.modules
from mcmkit.catalog import catalog_names, load_catalog, nonci_gorenstein_ring
from mcmkit.homs import is_isomorphic
from mcmkit.modules import (capture_kernel, default_stall, free_module, maximal_ideal_module,
                            residue_field_module, submodule_presentation)
from mcmkit.resolution import resolve
from mcmkit.rings import WeightedPolyRing

SMALL_CIS = [  # the complete intersections whose k the resolve benchmark resolves
    (("x", "y"), ("x^2", "y^2")),
    (("x", "y", "z", "w"), ("x*y", "z*w")),
    (("x", "y", "z"), ("x*y", "z^2")),
    (("x", "y", "z"), ("x^2", "y^2", "z^2")),
    (("x", "y", "z"), ("x^3+y^3+z^3",)),
]


def windowed_ring():
    """k[x,y]/(x^2, xy): neither Artinian nor a certified CI."""
    return WeightedPolyRing(7, ["x", "y"]).quotient(["x^2", "x*y"])


RINGS = ([pytest.param(lambda n=name: load_catalog(n).ring, id=name) for name in catalog_names()]
         + [pytest.param(lambda v=v, r=r: WeightedPolyRing(7, list(v)).quotient(list(r)),
                         id=f"ci({','.join(r)})") for v, r in SMALL_CIS]
         + [pytest.param(nonci_gorenstein_ring, id="nonci"),
            pytest.param(windowed_ring, id="windowed")])


def windowed_m(ring, monkeypatch, widen=3):
    """The submodule of A generated by the variables, its relations from a scan with no
    stop that ends ``widen`` stall windows past its last relation; and where it ended."""
    seen = []

    def scan(ring, col_degs, matrix_at, degree_cap, stall=None, stop=None):
        wide = widen * default_stall(ring)
        out = capture_kernel(ring, col_degs, matrix_at, degree_cap + wide, stall=wide)
        seen.append(out[2])
        return out

    with monkeypatch.context() as patch:
        patch.setattr(mcmkit.modules, "capture_kernel", scan)
        m, _ = submodule_presentation(free_module(ring, [0]), [list(ring.gens())], ring.weights)
        return m, seen[0]


@pytest.mark.parametrize("make", RINGS)
def test_m_is_the_windowed_submodule_of_the_variables(make, monkeypatch):
    m = maximal_ideal_module(make())
    wide, _ = windowed_m(make(), monkeypatch)
    assert sorted(m.gen_degs) == sorted(wide.gen_degs)
    assert sorted(m.rel_degs) == sorted(wide.rel_degs)
    assert is_isomorphic(m, wide)
    # m's presentation is k's d_2, certified
    k = m._syzygy_of_k
    assert k is not None and k.steps[1].certified
    assert (m.gen_degs, m.rel_degs) == (k.steps[1].row_degs, k.steps[1].col_degs)


def test_ks_f2_over_a8_stops_at_the_degree_of_f(monkeypatch):
    ring = load_catalog("ade:A8:dim1").ring  # weights (9, 2), f = x^2 + y^9 of degree 18
    _, windowed_end = windowed_m(load_catalog("ade:A8:dim1").ring, monkeypatch, widen=1)
    assert (resolve(residue_field_module(ring), 2).steps[1].scanned_to, windowed_end) == (18, 37)


def test_ks_f2_is_certified_on_a_ring_with_neither_bound():
    # no Tor balance and no Artinian reduction: F_2 stops at max(w1 + w2, 2) = 2, and F_3
    # ends by the stall rule, default_stall = 3 degrees past its generators
    res = resolve(residue_field_module(windowed_ring()), 3)
    assert [(s.scanned_to, s.certified) for s in res.steps[1:]] == [(2, True), (6, False)]
