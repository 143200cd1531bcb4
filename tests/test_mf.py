import pytest

from mcmkit.catalog import catalog_names, load_catalog, sqrt_minus_one
from mcmkit.errors import UsageError
from mcmkit.homs import decompose, is_isomorphic
from mcmkit.mf import MatrixFactorization, coker_module, from_resolution_tail, mf_shift, mf_transpose
from mcmkit.modules import residue_field_module
from mcmkit.resolution import mcm_test, resolve, syzygy, ulrich_test
from mcmkit.rings import WeightedPolyRing


def test_validate_one_by_one():
    R = WeightedPolyRing(7, ["x"])
    mf = MatrixFactorization(R, "x^2", [["x"]], [["x"]])
    assert mf.validate()
    assert mf.is_reduced()


def test_validate_an_curve_two_by_two():
    n = 3
    R = WeightedPolyRing(5, ["x", "y"], [n + 1, 2])
    phi = [["x", "y"], [f"y^{n}", "-x"]]
    mf = MatrixFactorization(R, f"x^2+y^{n + 1}", phi, phi)
    assert mf.validate()


def test_validate_rejects_wrong_pair():
    R = WeightedPolyRing(7, ["x", "y"])
    mf = MatrixFactorization(R, "x^2", [["x"]], [["y"]])
    assert not mf.validate()


def test_twists_from_the_nonzero_entries():
    # a catalog factorization: row 0 pinned to 0, the rest read off the entries
    mfs = dict(load_catalog("ade:A3:dim1").mfs)
    assert (mfs["I1"].row_degs, mfs["I1"].col_degs) == ((0, -2), (4, 2))
    assert (mfs["N+"].row_degs, mfs["N+"].col_degs) == ((0,), (4,))
    # two blocks share no entry, so the second is pinned to 0 at its first row (row 2)
    R = WeightedPolyRing(5, ["x", "y"], [3, 2])
    block = [["x", "y", "0", "0"], ["y^2", "-x", "0", "0"],
             ["0", "0", "x", "y"], ["0", "0", "y^2", "-x"]]
    mf = MatrixFactorization(R, "x^2+y^3", block, block)
    assert mf.validate()
    assert (mf.row_degs, mf.col_degs) == ((0, -1, 0, -1), (3, 2, 3, 2))
    # a column with no nonzero entry gets 0
    mf = MatrixFactorization(R, "x^2", [["x", "0"], ["y", "0"]], [["x", "0"], ["y^2", "0"]])
    assert (mf.row_degs, mf.col_degs) == ((0, 1), (3, 0))
    # entries that no twists make homogeneous
    with pytest.raises(UsageError, match="degree-inconsistent"):
        MatrixFactorization(WeightedPolyRing(5, ["x", "y"]), "x^2",
                            [["x", "y^2"], ["y", "x"]], [["x", "0"], ["y^2", "0"]])


def test_coker_of_one_by_one_is_k():
    R = WeightedPolyRing(7, ["x"])
    mf = MatrixFactorization(R, "x^2", [["x"]], [["x"]])
    M = coker_module(mf)
    k = residue_field_module(M.ring)
    assert is_isomorphic(M, k)


def test_coker_is_mcm():
    cat = load_catalog("ade:A2:dim1")
    for name, mf in cat.mfs:
        M = coker_module(mf, ring=cat.ring)
        assert mcm_test(M), name


def test_coker_module_rejects_a_ring_other_than_the_hypersurface():
    # over A = S/(x^2) coker phi has projective dimension 1, so depth 0: stamping
    # the hypersurface's depth 1 on it, or its 2-periodic resolution, is wrong
    R = WeightedPolyRing(5, ["x", "y"], [4, 2])
    phi = [["x", "y"], ["y^3", "-x"]]
    mf = MatrixFactorization(R, "x^2+y^4", phi, phi)
    other = WeightedPolyRing(5, ["x", "y"], [2, 1])
    for ring in (R.quotient(["x^2"]), R.quotient(["x^2+y^4", "x*y"]), R.relation_free,
                 other.quotient(["x^2+y^4"])):
        with pytest.raises(UsageError, match="factorization of f is a module over S/"):
            coker_module(mf, ring=ring)
    # a nonzero scalar multiple of f gives the same ring
    M = coker_module(mf, ring=R.quotient(["2*x^2+2*y^4"]))
    assert M._depth == 1 and resolve(M, 4).betti_numbers(4) == [2, 2, 2, 2, 2]


def test_block_diagonal_coker_splits():
    R = WeightedPolyRing(7, ["x"])
    phi = [["x", "0"], ["0", "x"]]
    mf = MatrixFactorization(R, "x^2", phi, phi)
    M = coker_module(mf)
    dec = decompose(M)
    assert dec.certified
    assert dec.total == 2


def test_block_diagonal_mixed_blocks():
    # block sum of two different factorizations decomposes into the blocks
    cat = load_catalog("ade:A3:dim1")
    R = cat.ambient
    phi = [["x", "y", "0"], ["y^3", "-x", "0"], ["0", "0", f"x+{2}*y^2"]]
    psi = [["x", "y", "0"], ["y^3", "-x", "0"], ["0", "0", f"x-{2}*y^2"]]
    mf = MatrixFactorization(R, cat.f, phi, psi)
    assert mf.validate()
    M = coker_module(mf, ring=cat.ring)
    dec = decompose(M)
    assert dec.certified and dec.total == 2
    names = []
    for mod, mult in dec.summands:
        for name, C in cat.modules():
            if is_isomorphic(mod, C):
                names.append((name, mult))
    assert sorted(names) == [("I1", 1), ("N+", 1)]


def test_shift_squared_is_structural_identity():
    cat = load_catalog("ade:A2:dim1")
    name, mf = cat.mfs[0]
    twice = mf_shift(mf_shift(mf))
    assert [[e.poly for e in row] for row in twice.phi] == [[e.poly for e in row] for row in mf.phi]


def test_shift_of_symmetric_mf():
    R = WeightedPolyRing(7, ["x"])
    mf = MatrixFactorization(R, "x^2", [["x"]], [["x"]])
    sh = mf_shift(mf)
    assert [[e.poly for e in r] for r in sh.phi] == [[e.poly for e in r] for r in mf.phi]


def test_shift_realizes_first_syzygy():
    cat = load_catalog("ade:A4:dim1")
    for name, mf in cat.mfs:
        M = coker_module(mf, ring=cat.ring)
        S1 = syzygy(M, 1)
        shifted = coker_module(mf_shift(mf), ring=cat.ring)
        assert is_isomorphic(S1, shifted), name


def test_transpose_blockwise_and_symmetric_fixed_point():
    R = WeightedPolyRing(7, ["x"])
    mf = MatrixFactorization(R, "x^2", [["x"]], [["x"]])
    tr = mf_transpose(mf)
    assert [[e.poly for e in r] for r in tr.phi] == [[e.poly for e in r] for r in mf.phi]


def test_from_resolution_tail_roundtrip():
    cat = load_catalog("ade:A2:dim1")
    name, mf = cat.mfs[0]
    M = coker_module(mf, ring=cat.ring)
    mf2, n = from_resolution_tail(M)
    assert n == 0
    assert mf2.validate()
    assert is_isomorphic(coker_module(mf2, ring=cat.ring), M)


def test_from_resolution_tail_k_over_dual_numbers():
    R = WeightedPolyRing(7, ["x"])
    A = R.quotient(["x^2"])
    k = residue_field_module(A)
    mf, n = from_resolution_tail(k)
    assert mf.size == 1
    assert mf.validate()


def test_from_resolution_tail_maximal_ideal_cusp():
    from mcmkit.modules import maximal_ideal_module

    A = WeightedPolyRing(7, ["x", "y"], [3, 2]).quotient(["x^2+y^3"])
    m = maximal_ideal_module(A)
    mf, n = from_resolution_tail(m)
    assert mf.size == 2
    assert mf.validate()
    assert is_isomorphic(coker_module(mf, ring=A), syzygy(m, n))


def _tail_data(mf, n):
    return n, [[e.poly for e in row] for row in mf.phi], [[e.poly for e in row] for row in mf.psi]


@pytest.mark.parametrize("which", ["I1", "k"])
def test_from_resolution_tail_extends_only_as_far_as_it_inspects(which, request):
    def fresh():
        cat = load_catalog("ade:A3:dim1")
        return residue_field_module(cat.ring) if which == "k" else dict(cat.modules())[which]

    extended = fresh()
    resolve(extended, 9)
    want = _tail_data(*from_resolution_tail(extended, H=8))
    calls = request.getfixturevalue("kernel_step_calls")
    got = _tail_data(*from_resolution_tail(fresh(), H=8))
    assert got == want
    if which == "I1":
        assert got[0] == 0
        assert calls == []
    else:
        assert 0 < len(calls) <= got[0]


def test_catalog_a1_curve_two_indecomposables():
    cat = load_catalog("ade:A1:dim1")
    assert cat.modulus % 4 == 1
    assert len(cat.mfs) == 2
    for name, M in cat.modules():
        dec = decompose(M)
        assert dec.certified and len(dec.summands) == 1 and dec.summands[0][1] == 1


def test_catalog_a3_curve_pairwise_noniso():
    cat = load_catalog("ade:A3:dim1")
    mods = cat.modules()
    assert len(mods) == 3  # I1, N+, N-
    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            assert not is_isomorphic(mods[i][1], mods[j][1]), (mods[i][0], mods[j][0])
    for name, mf in cat.mfs:
        assert mf.validate(), name


def test_catalog_symmetry_j_vs_complement():
    # coker phi_j and coker phi_(n+1-j) are isomorphic halves
    n = 3
    cat = load_catalog(f"ade:A{n}:dim1")
    R = cat.ambient
    f = cat.f
    phi1 = [["x", "y"], [f"y^{n}", "-x"]]
    phi2 = [["x", f"y^{n}"], ["y", "-x"]]
    m1 = coker_module(MatrixFactorization(R, f, phi1, phi1), ring=cat.ring)
    m2 = coker_module(MatrixFactorization(R, f, phi2, phi2), ring=cat.ring)
    assert is_isomorphic(m1, m2)


def test_catalog_dim2_validates():
    cat = load_catalog("ade:A1:dim2")
    assert len(cat.mfs) == 1
    for name, mf in cat.mfs:
        assert mf.validate()
        M = coker_module(mf, ring=cat.ring)
        assert mcm_test(M)


def test_catalog_ulrich_over_e2():
    # e(A) = 2 hypersurface catalogs: every non-free indecomposable is Ulrich
    cat = load_catalog("ade:A2:dim1")
    for name, M in cat.modules():
        assert ulrich_test(M), name


def test_catalog_field_constraints():
    with pytest.raises(UsageError):
        load_catalog("ade:A6:dim1", modulus=7)  # 7 | n+1
    with pytest.raises(UsageError):
        load_catalog("ade:A1:dim1", modulus=7)  # 7 = 3 mod 4, no sqrt(-1)
    with pytest.raises(UsageError):
        load_catalog("ade:A9:dim1")
    assert sqrt_minus_one(13) == 5
    p = 2147483629  # the largest prime below 2^31 that is 1 mod 4
    assert sqrt_minus_one(p) ** 2 % p == p - 1 and sqrt_minus_one(p) < p // 2


def test_catalog_names_loadable():
    for name in catalog_names():
        cat = load_catalog(name)
        assert cat.mfs
