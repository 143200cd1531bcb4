"""The certified stop of the maximal ideal's presentation against a wide window.

``maximal_ideal_module`` stops its kernel scan at max(w1 + w2, largest
relation degree): the syzygies of the variables are generated by the
Koszul relations and by lifts of the ideal's generators.  The reference
drops the stop and scans until three stall windows pass with nothing new;
both must give the same generator degrees, relation degrees and entries,
with the same coefficients in the same order.
"""

import pytest

import mcmkit.modules
from mcmkit.catalog import catalog_names, load_catalog, nonci_gorenstein_ring
from mcmkit.modules import capture_kernel, default_stall, maximal_ideal_module
from mcmkit.rings import WeightedPolyRing

SMALL_CIS = [  # the complete intersections whose k the resolve benchmark resolves
    (("x", "y"), ("x^2", "y^2")),
    (("x", "y", "z", "w"), ("x*y", "z*w")),
    (("x", "y", "z"), ("x*y", "z^2")),
    (("x", "y", "z"), ("x^2", "y^2", "z^2")),
    (("x", "y", "z"), ("x^3+y^3+z^3",)),
]

RINGS = ([pytest.param(lambda n=name: load_catalog(n).ring, id=name) for name in catalog_names()]
         + [pytest.param(lambda v=v, r=r: WeightedPolyRing(7, list(v)).quotient(list(r)),
                         id=f"ci({','.join(r)})") for v, r in SMALL_CIS]
         + [pytest.param(nonci_gorenstein_ring, id="nonci")])


def presentation(M):
    return (M.gen_degs, M.rel_degs,
            [[list(e.poly.items()) for e in row] for row in M.presentation])


def windowed_m(ring, monkeypatch, widen=3):
    """m from a scan with no stop that ends ``widen`` stall windows past its last relation."""
    seen = []

    def scan(ring, col_degs, matrix_at, degree_cap, stall=None, stop=None):
        wide = widen * default_stall(ring)
        out = capture_kernel(ring, col_degs, matrix_at, degree_cap + wide, stall=wide)
        seen.append(out[2])
        return out

    with monkeypatch.context() as patch:
        patch.setattr(mcmkit.modules, "capture_kernel", scan)
        return maximal_ideal_module(ring), seen[0]


def certified_m(ring, monkeypatch):
    """m as the package builds it, and where its scan ended."""
    seen = []

    def scan(*args, **kwargs):
        out = capture_kernel(*args, **kwargs)
        seen.append((kwargs.get("stop"), out[2]))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(mcmkit.modules, "capture_kernel", scan)
        return maximal_ideal_module(ring), seen[0]


@pytest.mark.parametrize("make", RINGS)
def test_the_certified_stop_gives_the_windowed_presentation(make, monkeypatch):
    m, (stop, scanned_to) = certified_m(make(), monkeypatch)
    wide, wide_end = windowed_m(make(), monkeypatch)
    assert stop is not None and scanned_to == stop < wide_end
    assert presentation(m) == presentation(wide)
    assert presentation(maximal_ideal_module(make())) == presentation(m)


def test_the_scan_for_m_over_a8_ends_at_the_degree_of_f(monkeypatch):
    ring = load_catalog("ade:A8:dim1").ring  # weights (9, 2), f = x^2 + y^9 of degree 18
    _, (stop, scanned_to) = certified_m(ring, monkeypatch)
    _, windowed_end = windowed_m(load_catalog("ade:A8:dim1").ring, monkeypatch, widen=1)
    assert (stop, scanned_to, windowed_end) == (18, 18, 37)
