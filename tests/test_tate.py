"""Tate's formula certifies the Betti numbers of the residue field.

Over a complete intersection A = k[x_1..x_e]/(f_1..f_c) with every f_i in
m^2, the Poincare series of k is (1+t)^e / (1-t^2)^c (Tate, "Homology of
Noetherian rings and local rings", Illinois J. Math. 1, 1957).  Tate's
resolution of k is then minimal, so the top generator degree of k's F_i
is g_i = ``tate_degree(A, i)``, the certified stop of the scan for F_i.
"""

import pytest

from mcmkit.catalog import catalog_names, load_catalog, nonci_gorenstein_ring
from mcmkit.modules import residue_field_module
from mcmkit.resolution import resolve, tate_degree
from mcmkit.rings import WeightedPolyRing


def tate_series(e: int, c: int, n: int):
    """The coefficients of (1+t)^e / (1-t^2)^c up to t^n."""
    coeffs = [1] + [0] * n
    for _ in range(e):  # times (1 + t)
        coeffs = [a + b for a, b in zip(coeffs, [0] + coeffs)]
    for _ in range(c):  # divided by (1 - t^2): running sums two apart
        for i in range(2, n + 1):
            coeffs[i] += coeffs[i - 2]
    return coeffs


def test_tate_series_coefficients():
    assert tate_series(1, 1, 5) == [1, 1, 1, 1, 1, 1]
    assert tate_series(3, 2, 4) == [1, 3, 5, 7, 9]


@pytest.mark.parametrize("ring, e, c", [
    (WeightedPolyRing(7, ["x", "y", "z"]).quotient(["x^2", "y^2"]), 3, 2),
    (WeightedPolyRing(5, ["x", "y", "z", "w"]).quotient(["x*y", "z*w"]), 4, 2),
    (load_catalog("ade:A2:dim2").ring, 3, 1),
], ids=["squares", "two-products", "A2-surface"])
def test_betti_numbers_of_k_follow_tate(ring, e, c):
    k = residue_field_module(ring)
    assert resolve(k, 6).betti_numbers(6) == tate_series(e, c, 6)


SHIPPED_CIS = [  # (variables, weights, relations)
    ("xy", None, ["x^2", "y^2"]),
    ("xyzw", None, ["x*y", "z*w"]),
    ("xyz", None, ["x*y", "z^2"]),
    ("xyz", None, ["x^2", "y^2", "z^2"]),
    ("xyz", None, ["x^3+y^3+z^3"]),
    ("xyz", None, ["z^2"]),
    ("xyz", [1, 1, 2], ["x^2", "y*z"]),
]


def certified_rings():
    out = [pytest.param(WeightedPolyRing(7, list(v), w).quotient(rels), id=",".join(rels))
           for v, w, rels in SHIPPED_CIS]
    out += [pytest.param(load_catalog(name).ring, id=name) for name in catalog_names()]
    return out


@pytest.mark.parametrize("ring", certified_rings())
def test_tate_degree_is_the_top_generator_degree_of_k(ring):
    H = 5
    res = resolve(residue_field_module(ring), H)
    tops = [max(degs, default=None) for _, _, degs in res.betti_table(H)]
    assert tops == [tate_degree(ring, i) for i in range(H + 1)]
    assert res.certified


@pytest.mark.parametrize("ring", [
    nonci_gorenstein_ring(),
    WeightedPolyRing(7, ["x", "y"]).quotient(["x^2", "x*y"]),
    WeightedPolyRing(7, ["x", "y"]).quotient(["x^2", "y^2", "x*y"]),
], ids=["nonci", "x^2,x*y", "three-quadrics"])
def test_relations_sharing_a_variable_are_not_certified(ring):
    # no Tate bound; the two Artinian rings are certified by their top degree
    assert tate_degree(ring, 2) is None
    assert resolve(residue_field_module(ring), 3).certified == ring.is_artinian()
