"""Non-closed-field behavior: residue division algebras beyond k.

Over GF(p) an indecomposable can have End/rad a proper field extension.
The Weil restriction of a conjugate pair of points realizes GF(p^2):
coker [[x, c*y], [y, x]] over k[x,y]/(x^2, y^2) is indecomposable with
residue degree 2 exactly when t^2 - c is irreducible mod p, and splits
into the two rational points otherwise.
"""

import pytest

from mcmkit.homs import decompose, end_algebra, is_isomorphic, local_certificate
from mcmkit.modules import GradedModule, free_module
from mcmkit.quiver import ARVertex
from mcmkit.rings import WeightedPolyRing
from quiver_reference import _QuiverBuilder


def squares(p=7):
    return WeightedPolyRing(p, ["x", "y"]).quotient(["x^2", "y^2"])


def conjugate_point_module(A, c):
    return GradedModule(A, [0, 0], [1, 1], [["x", f"{c}*y"], ["y", "x"]],
                        label=f"W({c})")


def test_nonsplit_point_pair_is_indecomposable_with_residue_two():
    # 3 is a quadratic nonresidue mod 7
    A = squares()
    M = conjugate_point_module(A, 3)
    E = end_algebra(M)
    assert E.dim == 2
    ok, rad, s = local_certificate(E)
    assert ok and rad.dim == 0 and s == 2
    dec = decompose(M)
    assert dec.certified
    assert len(dec.summands) == 1 and dec.summands[0][1] == 1
    assert dec.residue_degrees == [2]


@pytest.mark.parametrize("p", [7, 0])
def test_end_k_is_local_over_every_field(p):
    # End(A) = k, over GF(7) and over QQ (p = 0): local with residue degree 1, and
    # decompose certifies A indecomposable through the same answer
    A = WeightedPolyRing(p, ["x", "y"]).quotient(["x^2+y^2"])
    F = free_module(A, [0])
    E = end_algebra(F)
    assert E.dim == 1
    ok, rad, s = local_certificate(E)
    assert ok is True and rad.dim == 0 and s == 1
    dec = decompose(F)
    assert dec.certified and dec.residue_degrees == [1] and dec.summands[0][1] == 1


def test_split_point_pair_decomposes_into_rational_points():
    # 4 = 2^2 splits: the module is A/(x+2y) + A/(x-2y)
    A = squares()
    M = conjugate_point_module(A, 4)
    ok, rad, s = local_certificate(end_algebra(M))
    assert ok is False and rad.dim == 0 and s is None  # End = k x k
    dec = decompose(M)
    assert dec.certified and dec.total == 2 and len(dec.summands) == 2
    pts = [GradedModule(A, [0], [1], [["x+2y"]]), GradedModule(A, [0], [1], [["x-2y"]])]
    for mod, mult in dec.summands:
        assert mult == 1
        assert any(is_isomorphic(mod, P) for P in pts)


def test_quiver_builder_flags_large_residue_degree():
    A = squares()
    M = conjugate_point_module(A, 3)
    v = ARVertex("W", M, False, 1, 2, 2)
    builder = _QuiverBuilder(A, [v])
    builder.radical_grids(0)
    assert v.residue_degree == 2
    assert builder.residue_flag


def test_certified_non_isomorphism_with_matching_hilbert_data():
    # A/(x) and A/(y): identical degree data, but the Hom space is zero in
    # both directions, so Hom modulo its radical is zero and the dimension
    # count certifies "not isomorphic"
    A = squares()
    M = GradedModule(A, [0], [1], [["x"]])
    N = GradedModule(A, [0], [1], [["y"]])
    for d in range(5):
        assert M.hilbert_function(d) == N.hilbert_function(d)
    assert not is_isomorphic(M, N)


def test_strip_free_summand_at_nonzero_degree():
    from mcmkit.functors import stable_part
    from mcmkit.modules import GradedModule as GM
    from mcmkit.modules import free_module, residue_field_module

    A = squares()
    k = residue_field_module(A)
    F2 = free_module(A, [2])
    S = GM.direct_sum([F2, k])
    stable, frees = stable_part(S)
    assert frees == [2]
    assert is_isomorphic(stable, k)
