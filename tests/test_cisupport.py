from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

import mcmkit.cisupport
from mcmkit.catalog import catalog_names, load_catalog
from mcmkit.cisupport import (
    CIPresentation,
    _ann_space,
    eisenbud_operators,
    support_annihilator_window,
)
from mcmkit.errors import UsageError
from mcmkit.linalg import DenseMatrix, RowSpace
from mcmkit.modules import GradedModule, free_module, maximal_ideal_module, residue_field_module
from mcmkit.resolution import resolve
from mcmkit.rings import BlockSystem, WeightedPolyRing, grid_mul
from test_tate_route import SMALL_CIS, cyclic, koszul, take_x


def two_squares(p=7):
    return WeightedPolyRing(p, ["x", "y"]).quotient(["x^2", "y^2"])


def dual_numbers(p=7):
    return WeightedPolyRing(p, ["x"]).quotient(["x^2"])


def test_ci_presentation_accepts_regular_sequence():
    ci = CIPresentation.from_ring(two_squares())
    assert ci.codimension == 2


def test_ci_presentation_rejects_non_regular():
    A = WeightedPolyRing(7, ["x", "y"]).quotient(["x^2", "x*y"])
    with pytest.raises(UsageError):
        CIPresentation.from_ring(A)


def test_single_operator_is_isomorphism_on_k():
    # A = k[x]/(x^2): the single operator acts bijectively Ext^n -> Ext^(n+2)
    A = dual_numbers()
    ci = CIPresentation.from_ring(A)
    k = residue_field_module(A)
    ext = eisenbud_operators(ci, k, H=8)
    assert ext.betti[:9] == [1] * 9
    for n in range(0, 7):
        op = ext.operator(0, n)
        assert op.shape == (1, 1)
        assert op[0, 0] != 0


def test_defining_identity_exact():
    # recompute d~^2 and check it equals sum u_j t~_j by re-solving: the solve
    # succeeding at every position is the identity; spot-check dims instead
    A = two_squares()
    ci = CIPresentation.from_ring(A)
    k = residue_field_module(A)
    ext = eisenbud_operators(ci, k, H=10)
    assert ext.betti[:11] == [i + 1 for i in range(11)]
    for j in range(2):
        for n in range(0, 9):
            assert ext.operator(j, n).shape == (n + 3, n + 1)


def reference_operators(ci, M, H):
    """The operators' matrices as lists, one solve per nonzero entry of each lifted d^2."""
    Q = ci.ambient.relation_free
    us = [Q.element(u) for u in ci.regular_sequence]
    u_degs = [u.degree for u in us]
    system = BlockSystem(Q, [us], [0], u_degs)
    res = resolve(M, H + 2)
    out = [{} for _ in us]
    for pos in range(2, H + 3):
        hi, lo = res.differential(pos), res.differential(pos - 1)
        D2 = grid_mul(Q, *[[[Q.element(e.poly) for e in row] for row in step.entries]
                           for step in (lo, hi)])
        for j in range(len(us)):
            out[j][pos - 2] = [[0] * len(lo.row_degs) for _ in hi.col_degs]
        for r, row in enumerate(D2):
            for s, acc in enumerate(row):
                if acc.is_zero():
                    continue
                rhs = Q.join_coords([acc], [acc.degree])[:, None]
                sol = system.at(acc.degree).solve(DenseMatrix._of_array(Q.field, rhs))
                ts = Q.split_coords(sol._array().T, [acc.degree - e for e in u_degs])[0]
                for j, t in enumerate(ts):
                    out[j][pos - 2][s][r] = t.constant_coefficient()
    return out


@pytest.mark.parametrize("p", [7, 101])
@pytest.mark.parametrize("module,H", [
    (lambda A: residue_field_module(A), 12),
    (lambda A: GradedModule(A, [0], [1], [["x"]]), 10),
], ids=["k", "A/(x)"])
def test_operators_solve_each_degree_once_as_entry_by_entry(module, H, p):
    A = two_squares(p)
    ci = CIPresentation.from_ring(A)
    ext = eisenbud_operators(ci, module(A), H)
    want = reference_operators(ci, module(A), H)
    for j in range(2):
        assert {n: m.numpy().tolist() for n, m in ext.operators[j].items()} == want[j], j


@pytest.fixture
def grid_muls(monkeypatch):
    """A list that grows by one on every ``grid_mul`` call ``eisenbud_operators`` makes."""
    calls = []
    real = mcmkit.cisupport.grid_mul

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(mcmkit.cisupport, "grid_mul", counting)
    return calls


def matrices(ext):
    return [{n: m.numpy().tolist() for n, m in t.items()} for t in ext.operators]


def closed_form_cases():
    out = [pytest.param(lambda name=name: residue_field_module(load_catalog(name).ring), 6,
                        id=f"{name}/k") for name in catalog_names()]
    out += [pytest.param(lambda v=v, rels=rels: residue_field_module(
        WeightedPolyRing(5, list(v)).quotient(rels)), 6, id=f"k/({','.join(rels)})")
        for v, rels in SMALL_CIS]
    # m = Syz_1(k): k's closed form one position on
    out += [pytest.param(lambda name=name: maximal_ideal_module(load_catalog(name).ring), 6,
                         id=f"{name}/m") for name in catalog_names()]
    out += [pytest.param(lambda v=v, rels=rels: maximal_ideal_module(
        WeightedPolyRing(5, list(v)).quotient(rels)), 6, id=f"m/({','.join(rels)})")
        for v, rels in SMALL_CIS]
    out += [
        # F_in = {x^2}, F_out = {y^2}: t_2 = 0
        pytest.param(lambda: take_x(101), 8, id="A/(x)"),
        # F_in = {z^3} is the second relation and F_out = {x^2} the first: t_1 = 0
        pytest.param(lambda: cyclic("xyz", [1, 1, 1], ["x^2", "z^3"], ["y", "z"]), 6,
                     id="(y,z)/(x^2,z^3)"),
        # F_in is empty: the Koszul complex on x^a, y^b, and every operator is 0
        pytest.param(lambda: koszul(1, 1), 5, id="koszul(1,1)"),
        pytest.param(lambda: koszul(2, 3), 5, id="koszul(2,3)"),
    ]
    return out


@pytest.mark.parametrize("module,H", closed_form_cases())
def test_operators_on_tates_complex_are_read_off_with_no_product(module, H, grid_muls):
    M = module()
    ci = CIPresentation.from_ring(M.ring)
    ext = eisenbud_operators(ci, M, H)
    assert not grid_muls
    assert all(s.route == "tate" for s in resolve(M, H + 2).steps[1:])
    assert matrices(ext) == reference_operators(ci, module(), H)


def test_operators_keep_the_inverse_of_each_lex_first_coefficient(grid_muls):
    # QQ[x, y]/(2x^2, 3y^2): t_1 = (1/2) d/dT_1 and t_2 = (1/3) d/dT_2
    A = WeightedPolyRing(0, ["x", "y"]).quotient(["2*x^2", "3*y^2"])
    ci = CIPresentation.from_ring(A)
    ext = eisenbud_operators(ci, residue_field_module(A), 6)
    assert not grid_muls
    assert matrices(ext) == reference_operators(ci, residue_field_module(A), 6)
    # from G_2 = <e_x e_y, T_2, T_1>, in the basis order of Tate's complex, to G_0
    assert matrices(ext)[0][0] == [[0], [0], [Fraction(1, 2)]]
    assert matrices(ext)[1][0] == [[0], [Fraction(1, 3)], [0]]


def test_operators_vanish_on_the_relations_outside_f_in(grid_muls):
    A = two_squares()
    ext = eisenbud_operators(CIPresentation.from_ring(A), GradedModule(A, [0], [1], [["x"]]), 6)
    assert not grid_muls
    assert all(m.is_zero() for m in ext.operators[1].values())
    assert not any(m.is_zero() for m in ext.operators[0].values())


@pytest.mark.parametrize("ring,betti,cx", [
    (two_squares, list(range(2, 11)), 2),
    (lambda: load_catalog("ade:A3:dim1").ring, [2] * 9, 1),
], ids=["(x^2,y^2)", "ade:A3:dim1"])
def test_operators_of_m_are_read_off_k_s_complex_one_step_on(ring, betti, cx, grid_muls):
    # m's steps are Tate's complex of k one step on, and its F_0 is k's G_1 in order: the
    # closed form reads t_k off k's bases at positions pos + 1 and pos - 1, with no product
    A = ring()
    ci, m = CIPresentation.from_ring(A), maximal_ideal_module(A)
    ext = eisenbud_operators(ci, m, 6)
    assert all(s.route == "tate" for s in resolve(m, 8).steps[1:]) and not grid_muls
    assert ext.betti == betti and ext.commute_exactly()
    assert support_annihilator_window(ext, tdeg_max=2).cx_from_variety == cx
    # the solve on the same resolution gives the same matrices
    assert matrices(ext) == reference_operators(ci, m, 6)


def test_operators_off_tates_complex_are_solved_as_before(grid_muls):
    # a factorization cokernel, resolved off its periodic tail
    _, M = load_catalog("ade:A3:dim1").modules()[0]
    ci = CIPresentation.from_ring(M.ring)
    assert matrices(eisenbud_operators(ci, M, 6)) == reference_operators(ci, M, 6)
    assert len(grid_muls) == 7
    # k on Tate's complex, but with the relations reordered: the solve runs
    grid_muls.clear()
    A = two_squares()
    ci = CIPresentation(A.ambient, tuple(reversed(A.relations)), A)
    k = residue_field_module(A)
    assert matrices(eisenbud_operators(ci, k, 6)) == reference_operators(ci, k, 6)
    assert len(grid_muls) == 7


def test_operators_commute_exactly():
    A = two_squares()
    ci = CIPresentation.from_ring(A)
    k = residue_field_module(A)
    ext = eisenbud_operators(ci, k, H=10)
    assert ext.commute_exactly()


def test_operators_jointly_surjective_on_k():
    # dim Ext^(n+2) = n + 3 and the two operators' images span it
    A = two_squares()
    ci = CIPresentation.from_ring(A)
    k = residue_field_module(A)
    ext = eisenbud_operators(ci, k, H=8)
    from mcmkit.linalg import RowSpace

    # Ext*(k) is T-free with generators in t-degrees 0 and 1, so joint
    # surjectivity holds from n >= 1 on
    for n in range(1, 6):
        span = RowSpace(A.field, ext.betti[n + 2])
        for j in range(2):
            span.add_matrix(ext.operator(j, n).transpose())
        assert span.dim == ext.betti[n + 2]


def test_free_module_trivial_operators():
    A = two_squares()
    ci = CIPresentation.from_ring(A)
    F = free_module(A, [0])
    ext = eisenbud_operators(ci, F, H=6)
    assert ext.betti[1:] == [0] * (len(ext.betti) - 1)
    # no window entry gives an equation, so every form annihilates: the window is (t1, t2)
    assert support_annihilator_window(ext, tdeg_max=2).ann_window == {1: ["t1", "t2"], 2: []}


def test_support_k_codim_two_full_variety():
    # V*(k) = P^1: no annihilator forms up to the bound; cx = 2
    A = two_squares()
    ci = CIPresentation.from_ring(A)
    k = residue_field_module(A)
    ext = eisenbud_operators(ci, k, H=10)
    rep = support_annihilator_window(ext, tdeg_max=2)
    assert rep.ann_window[1] == []
    assert rep.ann_window[2] == []
    assert rep.cx_from_variety == 2
    assert rep.dim_estimate == 1
    assert rep.is_point is False


def test_support_periodic_module_is_point():
    # M = A/(x): periodic, cx 1, annihilator contains a linear form
    A = two_squares()
    ci = CIPresentation.from_ring(A)
    M = GradedModule(A, [0], [1], [["x"]], label="A/(x)")
    ext = eisenbud_operators(ci, M, H=10)
    rep = support_annihilator_window(ext, tdeg_max=2)
    assert len(rep.ann_window[1]) == 1
    assert rep.cx_from_variety == 1
    assert rep.is_point is True


def test_support_hypersurface_point_trivially():
    # c = 1: a periodic cokernel has variety P^0
    A = dual_numbers()
    ci = CIPresentation.from_ring(A)
    k = residue_field_module(A)
    ext = eisenbud_operators(ci, k, H=8)
    rep = support_annihilator_window(ext, tdeg_max=2)
    assert rep.cx_from_variety == 1
    assert rep.ann_window[1] == []  # the single operator acts invertibly


def test_direct_sum_annihilator_intersection():
    # A/(x) and A/(y) have distinct point supports; the sum sees both: its annihilating
    # forms are those of both summands, U n V, of dimension dim U + dim V - dim(U + V)
    A = two_squares()
    ci = CIPresentation.from_ring(A)
    M1 = GradedModule(A, [0], [1], [["x"]], label="A/(x)")
    M2 = GradedModule(A, [0], [1], [["y"]], label="A/(y)")
    exts = [eisenbud_operators(ci, X, H=8) for X in (M1, M2, GradedModule.direct_sum([M1, M2]))]
    for D in (1, 2):
        ann1, ann2, ann_sum = (_ann_space(e, D) for e in exts)
        both = RowSpace(A.field, ann1.ncols)
        both.add_matrix(ann1.basis_matrix())
        both.add_matrix(ann2.basis_matrix())
        assert ann_sum.dim == ann1.dim + ann2.dim - both.dim
        assert all(ann1.contains(row) and ann2.contains(row)
                   for row in ann_sum.basis_matrix().rows())


def test_distinct_points_have_distinct_windows():
    A = two_squares()
    ci = CIPresentation.from_ring(A)
    M1 = GradedModule(A, [0], [1], [["x"]], label="A/(x)")
    M2 = GradedModule(A, [0], [1], [["y"]], label="A/(y)")
    ann1, ann2 = (_ann_space(eisenbud_operators(ci, M, H=8), 1) for M in (M1, M2))
    assert ann1.dim == ann2.dim == 1 and ann1 != ann2


def test_gulliksen_growth_matches_cx():
    # piece growth of Ext*(k): polynomial of degree cx - 1 = 1
    A = two_squares()
    k = residue_field_module(A)
    from mcmkit.resolution import growth_report

    rep = growth_report(k, H=10)
    assert rep.cx_estimate - 1 == 1


def reference_window(ext, tdeg_max):
    """The annihilator window as first computed: t-monomials enumerated here, the degree-D
    multiples of every lower annihilating form built monomial by monomial, and each
    generator printed term by term."""
    c, field = ext.codimension, ext.module.ring.field

    def monomials(D):
        return sorted((tuple(combo.count(j) for j in range(c))
                       for combo in combinations_with_replacement(range(c), D)), reverse=True)

    def term(alpha, coeff):
        body = "*".join(f"t{j + 1}" + (f"^{e}" if e > 1 else "") for j, e in enumerate(alpha) if e)
        return body if coeff == 1 else f"{coeff}*{body}"

    spaces, window = {}, {}
    for D in range(1, tdeg_max + 1):
        monos = monomials(D)
        eq_cols = [[] for _ in monos]
        for n in range(ext.H - 2 * D + 1):
            for ai, alpha in enumerate(monos):
                eq_cols[ai].extend(ext.monomial_operator(alpha, n).numpy().reshape(-1).tolist())
        spaces[D] = RowSpace(field, len(monos))
        if eq_cols[0]:
            mat = DenseMatrix.from_rows(field, eq_cols).transpose()
            spaces[D].add_matrix(mat.kernel_basis().transpose())
        else:
            spaces[D].add_matrix(DenseMatrix.identity(field, len(monos)))
        known = RowSpace(field, len(monos))
        for D0 in range(1, D):
            lower = monomials(D0)
            for row in spaces[D0].basis_matrix().rows():
                for shift in monomials(D - D0):
                    vec = [field.element(0)] * len(monos)
                    for alpha, coef in zip(lower, row.tolist()):
                        mi = monos.index(tuple(a + s for a, s in zip(alpha, shift)))
                        vec[mi] = vec[mi] + coef
                    known.add(vec)
        window[D] = []
        for row in spaces[D].basis_matrix().rows():
            red = known.reduce(row)
            if red.any():
                known.add(red)
                window[D].append(" + ".join(
                    term(alpha, x) for alpha, x in zip(monos, red.tolist()) if x != 0))
    return window


WINDOW_RINGS = {"x2,y2": ("xy", ["x^2", "y^2"]), "x2,y2,z2": ("xyz", ["x^2", "y^2", "z^2"]),
                "x2+y2,xy": ("xy", ["x^2+y^2", "x*y"])}


def window_cases():
    """(ring, summands): each summand A/(g_1, ..., g_r) given by its g's."""
    per_field = [
        ("x2,y2", [["x", "y"]]), ("x2,y2", [["x"], ["y"]]), ("x2,y2", [["x"], ["x+2*y"]]),
        ("x2,y2,z2", [["x"]]), ("x2,y2,z2", [["x"], ["y"]]), ("x2,y2,z2", [["x"], ["y+z"]]),
        ("x2+y2,xy", [["x+y"]]), ("x2+y2,xy", [["x"], ["x+2*y"]]),
    ]
    return [pytest.param(p, ring, summands, id=f"{p}:{ring}:{summands}")
            for p in (7, 0) for ring, summands in per_field]


@pytest.mark.parametrize("p,ring,summands", window_cases())
def test_window_is_the_reference_window(p, ring, summands):
    variables, relations = WINDOW_RINGS[ring]
    A = WeightedPolyRing(p, list(variables)).quotient(relations)
    M = GradedModule.direct_sum([GradedModule(A, [0], [1] * len(gs), [gs]) for gs in summands])
    ext = eisenbud_operators(CIPresentation.from_ring(A), M, H=8)
    # over QQ the reference printed a negative coefficient as "+ -c"; polynomials print "- c"
    want = {D: [g.replace("+ -", "- ") for g in gens]
            for D, gens in reference_window(ext, 3).items()}
    assert support_annihilator_window(ext, tdeg_max=3).ann_window == want


def test_a_window_form_over_qq_prints_as_a_polynomial():
    A = WeightedPolyRing(0, ["x", "y"]).quotient(["x^2+y^2", "x*y"])
    M = GradedModule(A, [0], [1], [["x+y"]])
    rep = support_annihilator_window(eisenbud_operators(CIPresentation.from_ring(A), M, H=8), 1)
    assert rep.ann_window[1] == ["t1 - 1/2*t2"]


def test_forms_are_the_operator_ring_built_on_first_use():
    A = two_squares(11)
    ext = eisenbud_operators(CIPresentation.from_ring(A), residue_field_module(A), H=4)
    assert "forms" not in vars(ext)
    assert ext.forms == WeightedPolyRing(11, ["t1", "t2"]) and ext.forms is ext.forms
