import random
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest

from mcmkit.catalog import catalog_names, load_catalog, nonci_gorenstein_ring
from mcmkit.errors import Inconclusive, UsageError
from mcmkit.linalg import QQ
from mcmkit.rings import (MAX_INTERNAL_DEGREE, RingElement, WeightedPolyRing,
                          fit_hilbert_samuel, poly_mul)


def circle_ring(p=7):
    R = WeightedPolyRing(p, ["x", "y"])
    return R.quotient(["x^2+y^2"])


def cusp_ring(p=7):
    R = WeightedPolyRing(p, ["x", "y"], [3, 2])
    return R.quotient(["x^2+y^3"])


def standard_monomials(A, d):
    """The basis of A_d: the standard monomials of its piece."""
    piece = A.piece(d)
    return tuple(piece.monos[i] for i in piece.std)


def test_degree_basis_circle_d1():
    A = circle_ring()
    assert standard_monomials(A, 1) == ((1, 0), (0, 1))  # {x, y}


def test_degree_basis_circle_d3():
    # Hilbert series (1-t^2)/(1-t)^2 = 1,2,2,2,...
    A = circle_ring()
    assert A.hilbert_function(0) == 1
    assert A.hilbert_function(1) == 2
    assert A.hilbert_function(2) == 2
    assert A.hilbert_function(3) == 2


def test_degree_basis_weighted_cusp_d6():
    A = cusp_ring()
    # weighted degree 6 monomials are x^2 and y^3, one relation between them
    assert A.hilbert_function(6) == 1


def test_unit_law():
    A = circle_ring()
    x = A.element("x")
    one = A.one()
    assert one * x == x


def test_multiply_reduces_by_relation():
    A = circle_ring()
    x = A.element("x")
    assert x * x == A.element("-y^2")


def test_multiply_into_zero_piece():
    A = WeightedPolyRing(7, ["x"]).quotient(["x^2"])
    x = A.element("x")
    prod = x * x
    assert prod.is_zero()
    assert A.hilbert_function(2) == 0


def test_hilbert_function_monomial_ci():
    A = WeightedPolyRing(7, ["x", "y"]).quotient(["x^2", "y^2"])
    assert [A.hilbert_function(d) for d in range(4)] == [1, 2, 1, 0]


def test_hilbert_function_cubic_cone():
    A = WeightedPolyRing(7, ["x", "y", "z"]).quotient(["x^3+y^3+z^3"])
    assert A.hilbert_function(3) == 9  # 10 cubics minus one relation


def test_hilbert_function_degree_zero():
    for A in (circle_ring(), cusp_ring()):
        assert A.hilbert_function(0) == 1


def test_hilbert_series_ci_consistency():
    # generating function of the Hilbert function equals the CI product
    for A in (circle_ring(), cusp_ring(),
              WeightedPolyRing(5, ["x", "y"]).quotient(["x^2", "y^2"])):
        assert A.is_complete_intersection()


def test_non_regular_sequence_rejected():
    A = WeightedPolyRing(7, ["x", "y"]).quotient(["x^2", "x*y"])
    assert not A.is_complete_intersection()


def test_normal_form_idempotent():
    A = cusp_ring()
    rng = random.Random(0)
    for _ in range(25):
        d = rng.randrange(0, 10)
        monos = A.ambient.monomials(d)
        if not monos:
            continue
        poly = {m: rng.randrange(1, 7) for m in monos if rng.random() < 0.6}
        nf = A.normal_form(poly)
        assert A.normal_form(nf) == nf


def test_multiply_agrees_with_naive_oracle():
    # naive polynomial multiplication followed by reduction
    A = circle_ring()
    rng = random.Random(1)
    for _ in range(20):
        d1, d2 = rng.randrange(0, 5), rng.randrange(0, 5)
        p1 = {m: rng.randrange(1, 7) for m in A.ambient.monomials(d1)}
        p2 = {m: rng.randrange(1, 7) for m in A.ambient.monomials(d2)}
        a = A.element(p1)
        b = A.element(p2)
        expect = A.normal_form(poly_mul(p1, p2, A.field))
        assert (a * b).poly == expect


def test_mixed_ring_operands_rejected():
    A = circle_ring()
    B = cusp_ring()
    with pytest.raises(UsageError):
        A.element("x") * B.element("x")


def test_parser_features():
    R = WeightedPolyRing(7, ["x", "y"])
    assert R.parse("3*x*y") == R.parse("3xy")
    assert R.parse("x^2 - 2") == R.parse("-2 + x^2")
    assert R.parse("(x+y)^2") == R.parse("x^2 + 2xy + y^2")
    with pytest.raises(UsageError):
        R.parse("z")


def test_rational_coefficients():
    R = WeightedPolyRing(0, ["x", "y"])
    A = R.quotient(["x^2+y^2"])
    x = A.element("x")
    assert (x * x) == A.element("-y^2")
    assert A.field == QQ


def test_ring_hilbert_samuel_multiplicity():
    # plane-curve multiplicity oracle: e = min(2, 3) = 2 for the cusp
    A = cusp_ring()
    assert A.multiplicity() == 2
    assert A.krull_dim() == 1
    B = WeightedPolyRing(7, ["x", "y", "z"]).quotient(["x^3+y^3+z^3"])
    assert B.multiplicity() == 3
    assert B.krull_dim() == 2


def test_artinian_detection():
    A = WeightedPolyRing(7, ["x", "y"]).quotient(["x^2", "y^2"])
    assert A.is_artinian()
    assert A.krull_dim() == 0
    assert not cusp_ring().is_artinian()


@pytest.mark.parametrize("n", range(1, 9))
def test_artinian_reduction_of_the_curves_drops_y(n):
    # x^2 + y^(n+1) with weights (n+1, 2): B = k[x]/(x^2) has top degree n+1,
    # below the 2n of B = k[y]/(y^(n+1)) for n > 1
    assert load_catalog(f"ade:A{n}:dim1").ring.artinian_reduction == (1, n + 1)


def test_artinian_reduction_of_rings_with_and_without_one():
    # an Artinian ring is its own reduction: Hilbert function (1, 3, 1)
    assert nonci_gorenstein_ring().artinian_reduction == (0, 2)
    # dropping any two variables of (xy, zw) leaves a ring of positive dimension
    assert WeightedPolyRing(5, list("xyzw")).quotient(["x*y", "z*w"]).artinian_reduction is None
    # the polynomial ring drops every variable and leaves k
    assert WeightedPolyRing(5, list("xy")).quotient([]).artinian_reduction == (2, 0)


def test_block_offsets_are_kept_per_degree_tuple():
    A = circle_ring()
    got = A.block_offsets([2, 0, -1, 1])
    assert got == (0, 2, 3, 3, 5) and A.block_offsets((2, 0, -1, 1)) is got


@pytest.mark.parametrize("name", [f"ade:A{n}:dim1" for n in range(1, 9)]
                         + [f"ade:A{n}:dim2" for n in range(1, 5)])
def test_multiplicity_of_an_hypersurfaces_is_two(name):
    # e(k[[x..]]/(f)) = ord(f): x^2 + y^2 + z^(n+1) and x^2 + y^(n+1) have order 2
    assert load_catalog(name).ring.multiplicity() == 2


@pytest.mark.parametrize("char", [5, 7, 0])
def test_multiplicity_is_the_order_of_the_equation(char):
    cubic = WeightedPolyRing(char, ["x", "y", "z"]).quotient(["x^3+y^3+z^3"])
    assert cubic.multiplicity() == 3
    # ord(x^2 + y^3) = 2 although x has weight 3: e reads the m-adic, not the weighted, order
    cusp = WeightedPolyRing(char, ["x", "y"], [3, 2]).quotient(["x^2+y^3"])
    assert cusp.multiplicity() == 2


@pytest.mark.parametrize("name", catalog_names() + ["nonci_gorenstein"])
def test_krull_dim_and_multiplicity_agree_in_either_order(name):
    def ring():  # a new ring object, with nothing computed yet
        return nonci_gorenstein_ring() if name == "nonci_gorenstein" else load_catalog(name).ring

    first, second = ring(), ring()
    dim, e = first.krull_dim(), first.multiplicity()
    assert (second.multiplicity(), second.krull_dim()) == (e, dim)  # the other order
    assert first.hilbert_samuel_fit() == (dim, e)


def _reduced_coords(A, poly, d):
    """Std coords of the canonical residue of poly modulo the ideal's degree-d echelon rows."""
    pc = A.piece(d)
    vec = [A.field.element(0)] * len(pc.monos)
    for m, c in poly.items():
        vec[pc.index[m]] = c
    return pc.rel_space.reduce(vec)[list(pc.std)].tolist()


def _mult_matrix_by_definition(A, poly, d):
    """Column j: the reduced product of poly and basis monomial j of A_d.

    Reduces against the ideal's echelon rows, not through the normal-form
    matrix that ``mult_matrix`` and ``normal_form`` share, and checks that
    ``normal_form`` -> ``std_coords`` gives the same coordinates.
    """
    e = A.ambient.poly_degree(poly)
    cols = []
    for m in standard_monomials(A, d):
        prod = poly_mul(poly, {m: A.field.element(1)}, A.field)
        cols.append(_reduced_coords(A, prod, d + e))
        assert A.std_coords(A.normal_form(prod), d + e) == cols[-1]
    return [[col[i] for col in cols] for i in range(A.hilbert_function(d + e))]


@pytest.mark.parametrize("name", ["ade:A3:dim1", "ade:A2:dim2"])
@pytest.mark.parametrize("char", [None, 0])
def test_mult_matrix_matches_its_definition_in_every_degree(name, char):
    cat = load_catalog(name)
    A = cat.ring
    if char == 0:  # the same equation over QQ
        A = WeightedPolyRing(0, A.variables, A.weights).quotient([cat.f])
    rng = random.Random(name)
    top = 4 * max(A.relation_degrees)
    for d in range(-1, top + 1):
        for e in range(0, 2 * A.max_weight + 1):
            monos = A.ambient.monomials(e)
            if not monos:
                continue
            poly = A.normal_form({m: A.field.element(rng.randrange(-3, 4)) for m in monos})
            poly = poly or {monos[0]: A.field.element(1)}
            got = A.mult_matrix(poly, d)
            want = _mult_matrix_by_definition(A, poly, d)
            assert got.shape == (len(want), A.hilbert_function(d)), (d, e)
            assert [list(r) for r in got.rows()] == want, (d, e)


def _split_block_by_block(A, vec, degs):
    """The per-block read-back: each coordinate through ``field.element``, block after block."""
    out, r0 = [], 0
    for d in degs:
        dim = A.hilbert_function(d)
        poly = {}
        for i, c in enumerate(vec[r0:r0 + dim]):
            c = A.field.element(c)
            if c:
                pc = A.piece(d)
                poly[pc.monos[pc.std[i]]] = c
        out.append((poly, d if poly else None))
        r0 += dim
    return out


@pytest.mark.parametrize("char", [5, 2**31 - 1, 0])
def test_split_coords_matches_the_block_by_block_read_back(char):
    # weights (1, 1, 2) and a cubic relation: blocks of negative degree and
    # of degree 1 and 3 beside wider ones; the ring is Artinian, so high
    # degrees have zero-dimensional blocks too
    A = WeightedPolyRing(char, ["x", "y", "z"], [1, 1, 2]).quotient(
        ["x^2-y^2", "x*y*z", "z^2+x^3*y", "y^3"])
    rng = random.Random(char + 3)
    degs = [-1, 0, 3, 1, -2, 2, 4, 9, 3, 0, 12]
    n = sum(A.hilbert_function(d) for d in degs)
    assert A.hilbert_function(12) == 0 and n > 10
    arrays = []
    for trial in range(12):
        ints = [rng.choice([0, 0, 0, 1, 2, -3, 7 * char + 1]) for _ in range(n)]
        if trial == 0:
            ints = [0] * n
        if char:
            p = A.field.p
            inputs = [ints, np.array([x % p for x in ints], dtype=np.int64)]
        else:
            inputs = [ints, np.array([Fraction(x, rng.choice([1, 2, 3])) for x in ints],
                                     dtype=object)]
        for vec in inputs:
            want = _split_block_by_block(A, vec, degs)
            got = A.split_coords([vec], degs)[0]
            # the same dicts, in the same insertion order, with the same coefficient types
            assert [(list(e.poly.items()), e.degree) for e in got] == \
                [(list(poly.items()), d) for poly, d in want]
            assert [type(c) for e in got for c in e.poly.values()] == \
                [type(c) for poly, _ in want for c in poly.values()]
            assert list(A.join_coords(got, degs)) == [A.field.element(x) for x in vec]
        arrays.append(inputs[1])
    # a matrix is split row by row, all rows by one nonzero
    def read(rows):
        return [[(list(e.poly.items()), e.degree) for e in row] for row in rows]

    assert read(A.split_coords(np.stack(arrays), degs)) == \
        [read(A.split_coords([vec], degs))[0] for vec in arrays]


def _split_with_a_dict_per_block(A, rows, degs):
    """``split_coords`` as it was: an empty dict for every (row, block), filled from one
    ``flatnonzero``, and each empty one replaced by the ring's zero."""
    offsets = A.block_offsets(degs)
    rows = A.field.vector(np.asarray(rows)[:, :offsets[-1]])
    width, flat = rows.shape[1], rows.ravel()
    nonzero = np.flatnonzero(flat)
    polys = [[{} for _ in degs] for _ in range(len(rows))]
    for k, c in zip(nonzero.tolist(), flat[nonzero].tolist()):
        r, i = divmod(k, width)
        j = bisect_right(offsets, i) - 1
        pc = A.piece(degs[j])
        polys[r][j][pc.monos[pc.std[i - offsets[j]]]] = c
    return [[RingElement(A, poly, d) if poly else A.zero() for poly, d in zip(row, degs)]
            for row in polys]


@pytest.mark.parametrize("char", [5, 0])
def test_split_coords_allocates_only_the_blocks_it_fills(char):
    A = WeightedPolyRing(char, ["x", "y", "z"], [1, 1, 2]).quotient(
        ["x^2-y^2", "x*y*z", "z^2+x^3*y", "y^3"])
    rng = random.Random(char + 11)
    degs = [2, -1, 0, 3, 1, 12, 2, 4]
    n = sum(A.hilbert_function(d) for d in degs)
    for _ in range(20):
        # about a third of the rows zero, and each block zero in about half the rest
        rows = np.zeros((rng.randint(1, 6), n), dtype=np.int64 if char else object)
        for row in rows:
            if rng.random() < 0.35:
                continue
            for r0, r1 in zip(A.block_offsets(degs), A.block_offsets(degs)[1:]):
                if rng.random() < 0.5:
                    row[r0:r1] = [rng.choice([0, 1, 2, 4]) for _ in range(r1 - r0)]
        if not char:
            rows = rows * Fraction(1, 3)
        want = _split_with_a_dict_per_block(A, rows, degs)
        got = A.split_coords(rows, degs)
        assert [[(list(e.poly.items()), e.degree) for e in row] for row in got] == \
            [[(list(e.poly.items()), e.degree) for e in row] for row in want]
        # every zero block is the ring's one zero, and no two blocks share a dict
        assert all((e is A.zero()) == (not w.poly) for row, wrow in zip(got, want)
                   for e, w in zip(row, wrow))
        polys = [id(e.poly) for row in got for e in row if e.poly]
        assert len(polys) == len(set(polys))


@pytest.mark.parametrize("weights", [(1,), (3,), (1, 1), (3, 2), (1, 1, 2), (5, 5, 2), (1, 1, 1, 1)])
def test_monomials_are_every_exponent_vector_of_the_degree_lex_descending(weights):
    from itertools import product

    R = WeightedPolyRing(7, [f"v{i}" for i in range(len(weights))], weights)
    for d in range(-2, 19):
        want = sorted((e for e in product(range(max(d, 0) + 1), repeat=len(weights))
                       if sum(a * w for a, w in zip(e, weights)) == d), reverse=True)
        assert list(R.monomials(d)) == want, d


def test_monomials_past_the_internal_degree_name_their_bound():
    R = WeightedPolyRing(7, ["x", "y"])
    assert len(R.monomials(MAX_INTERNAL_DEGREE)) == MAX_INTERNAL_DEGREE + 1
    with pytest.raises(Inconclusive) as info:
        R.monomials(MAX_INTERNAL_DEGREE + 1)
    # no command-line option sets this bound
    assert (info.value.bound, info.value.flag) == (MAX_INTERNAL_DEGREE, None)


def test_a_short_hilbert_samuel_window_names_its_length():
    assert fit_hilbert_samuel([1, 3, 5, 7, 9, 11]) == (1, 2)
    with pytest.raises(Inconclusive) as info:
        fit_hilbert_samuel([1, 3, 6, 10, 15])  # dimension 2, too few values to show it
    assert (info.value.bound, info.value.flag) == (5, None)


def test_the_gorenstein_flag_is_kept_per_ring(monkeypatch):
    from mcmkit.modules import residue_field_module
    from mcmkit.resolution import depth, mcm_test
    from mcmkit.rings import QuotientRing

    calls = []
    real = QuotientRing.socle_dimension
    monkeypatch.setattr(QuotientRing, "socle_dimension", lambda self: calls.append(1) or real(self))
    k = residue_field_module(nonci_gorenstein_ring())
    for _ in range(5):
        assert mcm_test(k)
        assert depth(k) == 0
    assert len(calls) == 1
