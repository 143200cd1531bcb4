"""Tate's formula certifies the Betti numbers of the residue field.

Over a complete intersection A = k[x_1..x_e]/(f_1..f_c) with every f_i in
m^2, the Poincare series of k is (1+t)^e / (1-t^2)^c (Tate, "Homology of
Noetherian rings and local rings", Illinois J. Math. 1, 1957).
"""

import pytest

from mcmkit.catalog import load_catalog
from mcmkit.modules import residue_field_module
from mcmkit.resolution import resolve
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
