import random

import pytest

from mcmkit.homs import (
    compose,
    decompose,
    end_algebra,
    hom_space,
    identity_hom,
    is_isomorphic,
    strip_free_summands,
)
from mcmkit.linalg import DenseMatrix, RowSpace
from mcmkit.modules import (
    GradedModule,
    free_module,
    maximal_ideal_module,
    residue_field_module,
)
from mcmkit.rings import WeightedPolyRing


def ring_squares(p=7):
    return WeightedPolyRing(p, ["x", "y"]).quotient(["x^2", "y^2"])


def circle(p=7):
    return WeightedPolyRing(p, ["x", "y"]).quotient(["x^2+y^2"])


def dual_numbers(p=7):
    return WeightedPolyRing(p, ["x"]).quotient(["x^2"])


def test_hom_from_free_cover_is_degree_zero_piece():
    A = circle()
    F = free_module(A, [0])
    M = residue_field_module(A)
    assert hom_space(F, M).dim == M.hilbert_function(0)
    assert hom_space(F, F).dim == 1  # identity only


def test_hom_k_k_artinian():
    A = ring_squares()
    k = residue_field_module(A)
    assert hom_space(k, k).dim == 1


def test_hom_m_to_k_two_dimensional():
    A = ring_squares()
    m, _ = maximal_ideal_module(A).normalized()
    k = residue_field_module(A)
    assert hom_space(m, k).dim == 2


def test_composition_identity():
    A = ring_squares()
    m = maximal_ideal_module(A)
    hs = hom_space(m, m)
    ident = identity_hom(m)
    flat = hs.flat_of_phi(ident.phi)
    for h in hs.basis():
        left = hs.flat_of_phi(compose(ident, h).phi)
        assert hs.coords(left) == hs.coords(hs.flat_of_phi(h.phi))


def test_stable_hom_k_k_dual_numbers():
    A = dual_numbers()
    k = residue_field_module(A)
    hs = hom_space(k, k)
    assert hs.dim == 1
    assert hs.beta_dim() == 0
    assert hs.stable_dim() == 1


def test_stable_hom_from_free_is_zero():
    A = ring_squares()
    F = free_module(A, [0])
    m = maximal_ideal_module(A)
    hs = hom_space(F, m)
    assert hs.dim == hs.beta_dim()
    assert hs.stable_dim() == 0


def test_is_isomorphic_reflexive():
    A = circle()
    m = maximal_ideal_module(A)
    assert is_isomorphic(m, m)


def test_is_isomorphic_ring_vs_k():
    A = circle()
    F = free_module(A, [0])
    k = residue_field_module(A)
    assert not is_isomorphic(F, k)


def test_is_isomorphic_up_to_shift():
    A = circle()
    k = residue_field_module(A)
    assert is_isomorphic(k, k.degree_shift(2))
    assert not is_isomorphic(k, k.degree_shift(2), up_to_shift=False)


def test_end_algebra_identity_is_unit():
    A = ring_squares()
    m = maximal_ideal_module(A)
    E = end_algebra(m)
    assert E.is_unit(E.one)
    mp = E.min_poly(E.one)
    assert mp == [E.field.element(-1) % 7, 1]  # t - 1


def test_one_minus_radical_map_is_invertible():
    # endomorphisms with f(M) inside mM: 1 - f must be a unit
    A = ring_squares()
    m, _ = maximal_ideal_module(A).normalized()
    E = end_algebra(m)
    hs = E.hs
    rng = random.Random(5)
    found = 0
    for _ in range(60):
        coeffs = [rng.randrange(7) for _ in range(E.dim)]
        h = hs.element_from_coords(coeffs)
        blocks = h.constant_blocks()
        if any(not b.is_zero() for b in blocks.values()):
            continue
        found += 1
        x = hs.coords(hs.flat_of_phi(h.phi))
        one_minus = [(a - b) % 7 for a, b in zip(E.one, x)]
        assert E.is_unit(one_minus)
    assert found > 0


def test_decompose_indecomposables():
    A = ring_squares()
    k = residue_field_module(A)
    dec = decompose(k)
    assert dec.certified
    assert len(dec.summands) == 1
    assert dec.summands[0][1] == 1


def test_decompose_k_plus_k():
    A = ring_squares()
    k = residue_field_module(A)
    kk = GradedModule.direct_sum([k, k])
    dec = decompose(kk)
    assert dec.certified
    assert len(dec.summands) == 1
    assert dec.summands[0][1] == 2
    assert is_isomorphic(dec.summands[0][0], k)


def test_decompose_mixed_sum():
    A = ring_squares()
    k = residue_field_module(A)
    F = free_module(A, [0])
    S = GradedModule.direct_sum([k, F])
    dec = decompose(S)
    assert dec.certified
    assert dec.total == 2
    mods = sorted(dec.summands, key=lambda t: t[0].num_rels)
    assert is_isomorphic(mods[0][0], F)
    assert is_isomorphic(mods[1][0], k)


def test_decompose_multiplicity_stable_across_seeds():
    A = ring_squares()
    k = residue_field_module(A)
    m, _ = maximal_ideal_module(A).normalized()
    S = GradedModule.direct_sum([k, m, k])
    sigs = set()
    for seed in (0, 1, 2):
        dec = decompose(S, seed=seed)
        assert dec.certified
        sig = tuple(sorted((mod.num_gens, mult) for mod, mult in dec.summands))
        sigs.add(sig)
    assert len(sigs) == 1


def test_strip_free_summands():
    A = ring_squares()
    k = residue_field_module(A)
    F = free_module(A, [0])
    S = GradedModule.direct_sum([F, k])
    stable, free_degs = strip_free_summands(S)
    assert free_degs == [0]
    assert is_isomorphic(stable, k)


def test_strip_free_summands_stable_module_unchanged():
    A = ring_squares()
    k = residue_field_module(A)
    stable, free_degs = strip_free_summands(k)
    assert free_degs == []
    assert is_isomorphic(stable, k)


def span_one_at_a_time(hs, phis):
    """The reference for ``HomSpace.span``: each grid reduced modulo trivial and added alone."""
    out = RowSpace(hs.field, hs.phi_dim)
    for phi in phis:
        out.add(hs.trivial.reduce(hs.flat_of_phi(phi)))
    return out


@pytest.mark.parametrize("p", [7, 0])
def test_span_equals_adding_grids_one_at_a_time(p):
    A = circle(p)
    m, k = maximal_ideal_module(A), residue_field_module(A)
    rng = random.Random(p)
    with_trivial = 0
    for M, N in [(m, m), (m, k), (k, m), (k, k), (m, m.degree_shift(-1)), (k, m.degree_shift(1))]:
        hs = hom_space(M, N)
        field, n = hs.field, M.num_gens

        def grid(flat):  # the phi grid of a flat vector, not reduced modulo trivial
            entries = A.split_coords(flat, hs._entry_degs)
            return [entries[i * n:(i + 1) * n] for i in range(N.num_gens)]

        def coeffs(size):
            return [rng.randrange(-3, 4) for _ in range(size)]

        trivial = [grid((DenseMatrix.from_rows(field, [coeffs(hs.trivial.dim)])
                         @ hs.trivial.basis_matrix())._array()[0])
                   for _ in range(3)] if hs.trivial.dim else []
        arbitrary = [grid(field.vector(coeffs(hs.phi_dim))) for _ in range(3)]
        homs = [h.phi for h in hs.basis()]
        for phis in ([], trivial, homs, arbitrary + trivial, homs + trivial + arbitrary + homs):
            got, want = hs.span(phis), span_one_at_a_time(hs, phis)
            assert got.pivots() == want.pivots(), (M, N)
            assert got.basis_matrix() == want.basis_matrix(), (M, N)
        assert hs.span([]).dim == hs.span(trivial).dim == 0
        assert hs.span(homs).dim == hs.dim
        with_trivial += hs.trivial.dim > 0
    assert with_trivial >= 2  # some grids really lie in a nonzero trivial span
