import copy
import itertools
import random
from collections import Counter

import numpy as np
import pytest

import mcmkit.homs
import mcmkit.modules
import mcmkit.resolution
from mcmkit.catalog import catalog_names, load_catalog
from mcmkit.homs import (
    compose,
    decompose,
    end_algebra,
    hom_radical,
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
from mcmkit.resolution import syzygy
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


def test_end_algebra_identity_is_unit():
    A = ring_squares()
    m = maximal_ideal_module(A)
    E = end_algebra(m)
    assert E.is_unit(E.one)
    mp = E.min_poly(E.one)
    assert mp == [E.field.element(-1) % 7, 1]  # t - 1


def test_one_minus_radical_map_is_invertible():
    # an endomorphism f in rad End(M) is nilpotent: f is no unit and 1 - f is one
    # End(k + m) has the maps m -> k in its radical
    A = ring_squares()
    m, _ = maximal_ideal_module(A).normalized()
    E = end_algebra(GradedModule.direct_sum([residue_field_module(A), m]))
    hs = E.hs
    rad = E.radical.basis_matrix().rows()
    assert rad
    rng = random.Random(5)
    for _ in range(20):
        coeffs = [rng.randrange(7) for _ in rad]
        h = hs.element_from_coords([sum(c * r[j] for c, r in zip(coeffs, rad)) % 7
                                    for j in range(E.dim)])
        x = hs.coords(hs.flat_of_phi(h.phi))
        assert E.radical.contains(x)
        assert not E.is_unit(x)
        one_minus = [(a - b) % 7 for a, b in zip(E.one, x)]
        assert E.is_unit(one_minus)


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


def test_decompose_multiplicities_of_k_m_k():
    A = ring_squares()
    k = residue_field_module(A)
    m, _ = maximal_ideal_module(A).normalized()
    dec = decompose(GradedModule.direct_sum([k, m, k]))
    assert dec.certified
    assert sorted((mod.num_gens, mult) for mod, mult in dec.summands) == [(1, 2), (2, 1)]


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


def _free_count(M, d):
    """How many A(-d) split off M: the rank of the constant entries at M's degree-d
    generators over a basis of Hom(M, A(-d)), one solve and no splitting."""
    cols = [i for i, a in enumerate(M.gen_degs) if a == d]
    rows = [[f.phi[0][i].constant_coefficient() for i in cols]
            for f in hom_space(M, free_module(M.ring, [d])).basis()]
    return DenseMatrix.from_rows(M.ring.field, rows, len(cols)).rank()


@pytest.mark.parametrize("name", catalog_names())
def test_strip_free_summands_deletes_the_free_generators(name):
    # M + A(-1) + A, A(2) + M and Syz_2(M + k) for every catalog module, k and m
    cat = load_catalog(name)
    A = cat.ring
    for M in [M for _, M in cat.modules()] + [residue_field_module(A), maximal_ideal_module(A)]:
        sums = [(GradedModule.direct_sum([M, free_module(A, [1]), free_module(A, [0])]), [0, 1]),
                (GradedModule.direct_sum([free_module(A, [-2]), M]), [-2]),
                (syzygy(GradedModule.direct_sum([M, residue_field_module(A)]), 2), None)]
        for S, frees in sums:
            Sm = S.minimized()
            stable, got = strip_free_summands(S)
            assert got == sorted(d for d in set(Sm.gen_degs) for _ in range(_free_count(Sm, d)))
            # no free summand is left at any degree
            assert all(_free_count(stable, d) == 0 for d in set(stable.gen_degs))
            if frees is not None:
                # the free rows are deleted and M's rows kept: M's minimal presentation
                assert got == frees and stable.key == M.minimized().key
            # the generators left keep their order, and the relations stay
            rows = iter(zip(Sm.gen_degs, Sm.presentation))
            assert all(row in rows for row in zip(stable.gen_degs, stable.presentation))
            assert sorted(stable.gen_degs + tuple(got)) == sorted(Sm.gen_degs)
            assert stable.rel_degs == Sm.rel_degs
            # a summand is at least as deep as the sum, and stays minimal
            assert stable._depth == Sm._depth and stable.minimized() is stable
            assert is_isomorphic(
                GradedModule.direct_sum([stable] + [free_module(A, [d]) for d in got]), Sm)


def test_strip_free_summands_over_qq_finds_a_summand_in_another_basis():
    # coker [[2x, 2y], [3x, 3y]] = k + A: only the map (3, -2) to A is onto, and it
    # has entries at both generators; deleting the first leaves coker [[3x, 3y]] = k
    A = circle(0)
    M = GradedModule(A, [0, 0], [1, 1], [["2*x", "2*y"], ["3*x", "3*y"]])
    stable, frees = strip_free_summands(M)
    assert frees == [0]
    assert stable.gen_degs == (0,) and stable.presentation == M.presentation[1:]
    assert is_isomorphic(stable, residue_field_module(A))


def test_strip_free_summands_captures_no_kernel(monkeypatch):
    A = ring_squares()
    k = residue_field_module(A)
    S = GradedModule.direct_sum([k, free_module(A, [0])])
    calls = []
    for layer in (mcmkit.modules, mcmkit.resolution):
        real = layer.capture_kernel
        monkeypatch.setattr(layer, "capture_kernel",
                            lambda *a, real=real, **kw: calls.append(1) or real(*a, **kw))
    stable, frees = strip_free_summands(S)
    assert frees == [0] and stable.key == k.key
    assert calls == []


def test_strip_free_summands_solves_one_hom_space_per_degree(monkeypatch):
    # k + A(-1) + A + A: two generator degrees, two Hom spaces, three free summands
    A = ring_squares()
    k = residue_field_module(A)
    S = GradedModule.direct_sum([k, free_module(A, [1, 0, 0])])
    seen = []
    real = mcmkit.homs.hom_space
    monkeypatch.setattr(mcmkit.homs, "hom_space",
                        lambda M, N: seen.append(N.gen_degs) or real(M, N))
    stable, frees = strip_free_summands(S)
    assert frees == [0, 0, 1] and stable.key == k.key
    assert seen == [(0,), (1,)]


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


def test_hom_space_is_one_per_value_of_the_target():
    A = ring_squares()
    M, N = maximal_ideal_module(A), residue_field_module(A)
    twin = GradedModule(A, N.gen_degs, N.rel_degs, N.presentation, label="another k")
    assert twin is not N and twin.key == N.key
    hs = hom_space(M, N)
    assert hom_space(M, twin) is hs  # the label is not part of the key
    assert len(M._hom_cache) == 1


def test_hom_space_of_a_shift_or_another_presentation_is_new():
    A = ring_squares()
    M, N = maximal_ideal_module(A), residue_field_module(A)
    hs = hom_space(M, N)
    shifted = hom_space(M, N.degree_shift(1))
    x, y = A.element("x"), A.element("y")
    # k again, presented by x and x + y: the same degrees, another presentation
    other = GradedModule(A, [0], [1, 1], [[x, x + y]], label=N.label)
    fresh = hom_space(M, other)
    assert shifted is not hs and fresh is not hs and fresh is not shifted
    assert fresh.dim == hs.dim
    assert hom_space(M, N.degree_shift(1)) is shifted
    assert len(M._hom_cache) == 3


DIRECT_SUMS = [  # summand names of the two sides, over ade:A3:dim1 at p = 5
    (("N+", "N-"), ("N-", "N+")),
    (("N+", "N+"), ("N+", "N-")),
    (("N-", "N-"), ("N+", "N+")),
    (("N+", "N+", "N-"), ("N+", "N-", "N+")),
    (("N+", "N+", "N+"), ("N+", "N+", "N-")),
    (("N+", "N+", "N+", "N+"), ("N+", "N+", "N+", "N-")),
]


@pytest.mark.parametrize("left, right", DIRECT_SUMS)
def test_direct_sums_are_isomorphic_exactly_by_krull_schmidt(left, right):
    # the four-summand pair has 16-dimensional endomorphism algebras
    mods = dict(load_catalog("ade:A3:dim1", 5).modules())
    L = GradedModule.direct_sum([mods[s] for s in left])
    R = GradedModule.direct_sum([mods[s] for s in right])
    assert is_isomorphic(L, R) == (Counter(left) == Counter(right))


def test_hom_radical_of_a_sum_drops_the_split_maps():
    A = ring_squares()
    k, F = residue_field_module(A), free_module(A, [0])
    S = GradedModule.direct_sum([F, k])
    # Hom(k, F + k) = k: the inclusion of the summand k, which splits
    assert hom_space(k, S).dim == 1 and hom_radical(k, S).dim == 0
    # Hom(F + k, k) = k^2: the projection onto k splits, F -> k does not
    assert hom_space(S, k).dim == 2 and hom_radical(S, k).dim == 1
    assert hom_radical(S, S).dim == end_algebra(S).radical.dim == 1


def _brute_radical(E):
    """{x : 1 - y x is a unit for every y}, enumerated over all of E (one bool per element)."""
    p, n = E.field.p, E.dim
    elems = np.array(list(itertools.product(range(p), repeat=n)), dtype=np.int64)
    prods = np.einsum("ai,bj,ijl->abl", elems, elems, E.table) % p  # prods[a, b] = a b
    index = p ** np.arange(n)  # an element's position in elems, read base p
    one = np.array([int(c) for c in E.one])
    units = (prods @ index == one @ index).any(axis=1)  # a b = 1 for some b
    return units[(one - prods) % p @ index].all(axis=0)  # over y, for each x


def _radical_test_modules(p):
    S = WeightedPolyRing(p, ["x", "y"]).quotient(["x^2", "y^2"])
    B = WeightedPolyRing(p, ["x"]).quotient(["x^3"])
    k, F = residue_field_module(S), free_module(S, [0])
    return {  # name: (module, dim End, dim rad End)
        "A+A": (GradedModule.direct_sum([F, F]), 4, 0),  # End = M_2(k)
        "k+k": (GradedModule.direct_sum([k, k]), 4, 0),
        "A+k": (GradedModule.direct_sum([F, k]), 3, 1),
        "k+k<1>": (GradedModule.direct_sum([k, k.degree_shift(1)]), 2, 0),
        # End = k[t]/(t^2 - t - 1): GF(4) over GF(2), GF(9) over GF(3)
        "W": (GradedModule(S, [0, 0], [1, 1], [["x", "y"], ["y", "x+y"]]), 2, 0),
        # End = k[t]/(t^2 - 1): local with a radical over GF(2), split over GF(3)
        "W(1)": (GradedModule(S, [0, 0], [1, 1], [["x", "y"], ["y", "x"]]), 2, int(p == 2)),
        "B/x^2+B/x<1>": (GradedModule.direct_sum([GradedModule(B, [0], [2], [["x^2"]]),
                                                  GradedModule(B, [1], [2], [["x"]])]), 3, 1),
        "m": (maximal_ideal_module(S), 1, 0),
    }


@pytest.mark.parametrize("p", [2, 3])
def test_radical_matches_its_definition(p):
    # Over GF(2) the regular trace form of M_2(k) is zero, so a radical that
    # stopped after the first level of the filtration would be all of E.
    for name, (M, dim, rad_dim) in _radical_test_modules(p).items():
        E = end_algebra(M)
        assert (E.dim, E.radical.dim) == (dim, rad_dim), name
        elems = np.array(list(itertools.product(range(p), repeat=E.dim)), dtype=np.int64)
        residues = E.radical.reduce_rows(DenseMatrix._of_array(E.field, elems))._array()
        assert (~residues.any(axis=1) == _brute_radical(E)).all(), name


def test_radical_over_qq_is_the_trace_form_kernel():
    A = ring_squares(0)
    k, F = residue_field_module(A), free_module(A, [0])
    assert end_algebra(GradedModule.direct_sum([F, k])).radical.dim == 1
    assert end_algebra(GradedModule.direct_sum([k, k])).radical.dim == 0
    assert is_isomorphic(GradedModule.direct_sum([k, F]), GradedModule.direct_sum([F, k]))
    assert not is_isomorphic(GradedModule.direct_sum([k, k]), GradedModule.direct_sum([F, k]))


def _in_new_basis(E, P):
    """E on the basis b'_i = sum_a P[i, a] b_a, with the inverse of P."""
    field, p = E.field, E.field.p
    Pinv = DenseMatrix._of_array(field, P).solve(DenseMatrix.identity(field, E.dim))._array()
    P, Pinv_, table = (a.astype(object) for a in (P, Pinv, E.table))  # exact products
    lifted = np.tensordot(np.tensordot(P, table, 1), P, (1, 1)).transpose(0, 2, 1)
    out = copy.copy(E)
    out.__dict__.pop("radical", None)
    out.table = (lifted.dot(Pinv_) % p).astype(np.int64)
    out.one = list(np.array(E.one, dtype=object).dot(Pinv_) % p)
    return out, Pinv


def test_radical_and_isomorphism_at_a_large_modulus():
    # Near 2^31 one product of two field elements nearly fills int64, so every
    # sum must be reduced first.  A basis with entries p - 1 makes the
    # structure constants and the traces large; the radical must not move.
    p = 2**31 - 1
    S = WeightedPolyRing(p, ["x", "y"]).quotient(["x^2", "y^2"])
    W = GradedModule(S, [0, 0], [1, 1], [["x", "y"], ["-y", "x-y"]])  # End = k[t]/(t^2+t+1)
    cases = _radical_test_modules(p)
    cases["W+W+W+k"] = (GradedModule.direct_sum([W, W, W, residue_field_module(S)]), 25, 6)
    for name, (M, dim, rad_dim) in cases.items():
        E = end_algebra(M)
        assert (E.dim, E.radical.dim) == (dim, rad_dim), name
        P = np.tril(np.full((dim, dim), p - 1, dtype=np.int64), -1) + np.eye(dim, dtype=np.int64)
        moved, Pinv = _in_new_basis(E, P)
        expected = RowSpace(E.field, dim)
        expected.add_matrix(DenseMatrix._of_array(E.field, E.field.matmul(E.radical._basis, Pinv)))
        assert moved.radical.basis_matrix() == expected.basis_matrix(), name
    # the A3 curve needs sqrt(-1): the largest prime below 2^31 that is 1 mod 4
    mods = dict(load_catalog("ade:A3:dim1", 2147483629).modules())
    for left, right in DIRECT_SUMS[3:5]:
        L = GradedModule.direct_sum([mods[s] for s in left])
        R = GradedModule.direct_sum([mods[s] for s in right])
        assert is_isomorphic(L, R) == (Counter(left) == Counter(right))
