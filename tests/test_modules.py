import random
from fractions import Fraction
from itertools import accumulate

import pytest

from mcmkit.catalog import catalog_names, load_catalog
from mcmkit.linalg import RowSpace
from mcmkit.mf import MatrixFactorization, coker_module
from mcmkit.modules import (
    GradedModule,
    free_module,
    hs_lengths,
    invariants,
    maximal_ideal_module,
    module_length,
    residue_field_module,
    submodule_presentation,
)
from mcmkit.rings import WeightedPolyRing


def ring_xy_squares(p=7):
    return WeightedPolyRing(p, ["x", "y"]).quotient(["x^2", "y^2"])


def circle(p=7):
    return WeightedPolyRing(p, ["x", "y"]).quotient(["x^2+y^2"])


def cusp(p=7):
    return WeightedPolyRing(p, ["x", "y"], [3, 2]).quotient(["x^2+y^3"])


def test_residue_field_hilbert():
    A = ring_xy_squares()
    k = residue_field_module(A)
    assert [k.hilbert_function(d) for d in range(3)] == [1, 0, 0]
    assert module_length(k) == 1


def test_length_past_the_scan_horizon_is_read_to_the_top_degree_bound():
    # A/(x^30) over k[x,y]/(y^2) has x^a, x^a y for a < 30 as a basis: top degree 30
    A = WeightedPolyRing(7, ["x", "y"]).quotient(["y^2"])
    M = GradedModule(A, [0], [30], [["x^30"]])
    assert module_length(M) == 60
    inv = invariants(M)
    assert (inv.length, inv.dim, inv.multiplicity_e, inv.rank) == (60, 0, 60, 0)


@pytest.mark.parametrize("n", [20, 30])
def test_length_is_read_past_the_module_s_own_relations(n):
    # A/(x^n + x^(n-1) y) over k[x,y]/(y^2) has length 2n (Hilbert function 1, 2, ..., 2, 1
    # to degree n); its relation acts only from degree n, past a horizon read off A alone
    A = WeightedPolyRing(7, ["x", "y"]).quotient(["y^2"])
    M = GradedModule(A, [0], [n], [[f"x^{n} + x^{n - 1}*y"]])
    assert module_length(M) == 2 * n
    inv = invariants(M)
    assert (inv.length, inv.dim, inv.multiplicity_e, inv.rank) == (2 * n, 0, 2 * n, 0)


def test_free_module_hilbert_matches_ring():
    A = circle()
    F = free_module(A, [0, 1])
    for d in range(5):
        assert F.hilbert_function(d) == A.hilbert_function(d) + A.hilbert_function(d - 1)


def test_maximal_ideal_presentation():
    A = circle()
    m = maximal_ideal_module(A)
    assert m.num_gens == 2
    assert sorted(m.gen_degs) == [1, 1]
    # Hilbert function of m = that of A in positive degrees
    for d in range(1, 6):
        assert m.hilbert_function(d) == A.hilbert_function(d)
    assert m.hilbert_function(0) == 0


def test_minimized_removes_unit_entry():
    A = circle()
    # generator killed by a unit relation: g and r both drop by one
    M = GradedModule(A, [0, 0], [0, 2], [["1", "x*y"], ["1", "0"]])
    Mmin = M.minimized()
    assert Mmin.num_gens == 1 and Mmin.num_rels == 1
    # eliminating g1 = -g2 turns x*y*g1 into the relation x*y*g2 = 0
    B = WeightedPolyRing(7, ["x", "y"]).quotient(["x^2+y^2", "x*y"])
    for d in range(5):
        assert Mmin.hilbert_function(d) == B.hilbert_function(d)


def test_minimized_redundant_cover_of_ring():
    A = circle()
    M = GradedModule(A, [0, 0], [0], [["1"], ["1"]])
    Mmin = M.minimized()
    assert Mmin.num_gens == 1 and Mmin.num_rels == 0
    for d in range(5):
        assert Mmin.hilbert_function(d) == A.hilbert_function(d)


def test_minimized_drops_redundant_relation():
    A = ring_xy_squares()
    # k presented with a redundant extra relation x*y
    M = GradedModule(A, [0], [1, 1, 2], [["x", "y", "x*y"]])
    Mmin = M.minimized()
    assert Mmin.num_rels == 2
    assert module_length(Mmin) == 1


def test_direct_sum_hilbert_additive():
    A = ring_xy_squares()
    k = residue_field_module(A)
    F = free_module(A, [0])
    S = GradedModule.direct_sum([k, F])
    for d in range(4):
        assert S.hilbert_function(d) == k.hilbert_function(d) + F.hilbert_function(d)


def test_degree_shift():
    A = circle()
    k = residue_field_module(A)
    k2 = k.degree_shift(3)
    assert k2.hilbert_function(3) == 1
    assert k2.hilbert_function(0) == 0
    norm, s = k2.normalized()
    assert s == -3
    assert norm.hilbert_function(0) == 1


def test_submodule_presentation_socle():
    A = ring_xy_squares()
    F = free_module(A, [0], label="A")
    # the socle element x*y generates a copy of k in degree 2
    N, kept = submodule_presentation(F, [[A.element("x*y")]], [2])
    assert N.num_gens == 1 and kept == [0]
    assert module_length(N) == 1


def test_submodule_redundant_generators_pruned():
    A = circle()
    F = free_module(A, [0])
    N, kept = submodule_presentation(F, [[A.element("x"), A.element("y"), A.element("x*y")]],
                                     [1, 1, 2])
    assert kept == [0, 1]  # x*y = x . y is redundant


def test_invariants_residue_field():
    A = cusp()
    k = residue_field_module(A)
    inv = invariants(k)
    assert inv.mu == 1
    assert inv.length == 1
    assert inv.multiplicity_e == 1
    assert inv.dim == 0


def test_invariants_ring_as_module():
    # e(A) = 2 for the cusp, via the Hilbert-Samuel fit
    A = cusp()
    F = free_module(A, [0])
    inv = invariants(F)
    assert inv.mu == 1
    assert inv.length is None
    assert inv.dim == 1
    assert inv.multiplicity_e == 2
    assert inv.rank == Fraction(1)


def test_invariants_maximal_ideal_mu():
    A = circle()
    m = maximal_ideal_module(A)
    inv = invariants(m)
    assert inv.mu == 2
    assert inv.multiplicity_e == 2
    assert inv.dim == 1


def test_invariants_m_over_cusp_is_ulrich_data():
    A = cusp()
    m = maximal_ideal_module(A)
    inv = invariants(m)
    assert inv.mu == 2
    assert inv.dim == 1
    assert inv.multiplicity_e == 2  # e = mu: Ulrich


def _curve_module_over_qq(n, j):
    """coker of the A_n curve factorization I_j over QQ (needs no sqrt(-1))."""
    R = WeightedPolyRing(0, ["x", "y"], [n + 1, 2])
    f = f"x^2+y^{n + 1}"
    phi = [["x", f"y^{j}"], [f"y^{n + 1 - j}", "-x"]]
    M, _ = coker_module(MatrixFactorization(R, f, phi, phi), ring=R.quotient([f])).normalized()
    M.label = f"A{n}:I{j}"
    return M


def _multi_degree_modules():
    out = []
    for name, p in [("ade:A3:dim1", 5), ("ade:A2:dim2", 5), ("ade:A3:dim2", 13)]:
        out.extend(M for _, M in load_catalog(name, p).modules())
    out.extend(_curve_module_over_qq(n, j) for n, j in [(3, 1), (4, 1), (4, 2)])
    out = [M for M in out if M.num_rels and len(set(M.gen_degs)) >= 2]
    assert {M.ring.characteristic for M in out} == {0, 5, 13}
    return out


def _module_id(M):
    return f"{M.label}{list(M.gen_degs)}-char{M.ring.characteristic}"


def _quotient_coords(C, d, column):
    """The coordinates in C_d of the element with ring-element coordinates column."""
    return C.piece(d).coords(C.ring.join_coords(column, [d - a for a in C.gen_degs]))


def _random_elements(M, degrees, seed):
    """Random elements nonzero in M, as (degree, ring-element column) pairs."""
    rng = random.Random(seed)
    out = []
    for d in degrees:
        total = M.piece(d).total
        fvec = M.ring.field.vector([rng.choice([0, 1, 2, 3]) for _ in range(total)])
        if M.piece(d).coords(fvec).any():
            out.append((d, M.ring.split_coords(fvec[None], [d - a for a in M.gen_degs])[0]))
    return out


def _kept_by_definition(C, elements):
    """By degree, in input order within a degree: an element is kept unless it lies in
    the span of every monomial multiple of the elements kept before it.  Returns the
    kept positions in elements, a list of (degree, ring-element column) pairs."""
    ring = C.ring
    kept = []
    for j in sorted(range(len(elements)), key=lambda j: elements[j][0]):
        d, column = elements[j]
        span = RowSpace(ring.field, C.piece(d).dim)
        for g in kept:
            e, parts = elements[g]
            for u in ring.ambient.monomials(d - e):
                u = ring.element({u: ring.field.element(1)})
                span.add(_quotient_coords(C, d, [u * x for x in parts]))
        if not span.contains(_quotient_coords(C, d, column)):
            kept.append(j)
    return kept


@pytest.mark.parametrize("M", _multi_degree_modules(), ids=_module_id)
def test_submodule_presentation_keeps_the_greedy_generators(M):
    lo = M.min_gen_degree()
    field = M.ring.field
    for seed in range(3):
        rng = random.Random(seed)
        elems = _random_elements(M, [lo + 3, lo, lo + 1, lo, lo + 3, lo + 4, lo + 2],
                                 seed=M.ring.characteristic + seed)
        # zero elements, repeats and scaled repeats
        elems += [(lo + 1, [M.ring.zero()] * M.num_gens)]
        elems += [(d, [x.scale(field.element(c)) for x in column])
                  for (d, column), c in zip(rng.sample(elems, 3), (1, 2, 3))]
        rng.shuffle(elems)
        grid = [[column[i] for _, column in elems] for i in range(M.num_gens)]
        _, kept = submodule_presentation(M, grid, [d for d, _ in elems])
        assert kept == _kept_by_definition(M, elems)


def _drop_redundant_relations(M):
    """Reference: drop the lowest-index relation of the highest degree that lies in the
    submodule the others generate, and start over until none does."""
    while True:
        order = sorted(range(M.num_rels), key=lambda j: -M.rel_degs[j])
        for j in order:
            others = [l for l in range(M.num_rels) if l != j]
            d = M.rel_degs[j]
            images = M.system.columns(others).at(d)
            span = RowSpace(M.ring.field, images.nrows)
            span.add_matrix(images.transpose())
            column = M.ring.join_coords([row[j] for row in M.presentation],
                                        [d - a for a in M.gen_degs])
            if span.contains(column):
                grid = [[row[l] for l in others] for row in M.presentation]
                M = GradedModule(M.ring, M.gen_degs, [M.rel_degs[l] for l in others], grid,
                                 label=M.label, check=False)
                break
        else:
            return M


def _with_redundant_relations(M, rng):
    """M's presentation with scaled copies, sums and variable multiples of its relations
    mixed in, so that several relations of one degree are redundant."""
    ring = M.ring
    cols = [(b, [row[j] for row in M.presentation]) for j, b in enumerate(M.rel_degs)]
    extra = []
    for _ in range(4):
        (b, col), c = rng.choice(cols), ring.field.element(rng.randrange(1, 4))
        extra.append((b, [e.scale(c) for e in col]))
        same = [other for other in cols if other[0] == b]
        col2 = rng.choice(same)[1]
        extra.append((b, [e + f for e, f in zip(col, col2)]))
        x, w = rng.choice(list(zip(ring.gens(), ring.weights)))
        extra.append((b + w, [x * e for e in col]))
    cols += extra
    rng.shuffle(cols)
    return GradedModule(ring, M.gen_degs, [b for b, _ in cols],
                        [[col[i] for _, col in cols] for i in range(M.num_gens)],
                        label=M.label, check=False)


def _random_presentation(char, rng):
    """Random generators and relations over a random ring, with scaled duplicate relations."""
    A = WeightedPolyRing(char, ["x", "y", "z"], rng.choice([[1, 1, 1], [1, 1, 2], [2, 3, 1]]))
    A = A.quotient(rng.choice([["x^2", "y*z"], ["x*y"], []]))
    gen_degs = [rng.randrange(0, 3) for _ in range(rng.randrange(1, 4))]
    cols = []
    for _ in range(rng.randrange(1, 6)):
        b = rng.randrange(max(gen_degs) + 1, max(gen_degs) + 4)
        col = []
        for a in gen_degs:
            terms = [u for u in A.ambient.monomials(b - a) if rng.random() < 0.5]
            col.append(A.element({u: A.field.element(rng.randrange(1, 5)) for u in terms}))
        cols.append((b, col))
    for _ in range(rng.randrange(1, 4)):
        b, col = rng.choice(cols)
        c = A.field.element(rng.randrange(1, 4))
        cols.insert(rng.randrange(len(cols) + 1), (b, [e.scale(c) for e in col]))
    return GradedModule(A, gen_degs, [b for b, _ in cols],
                        [[col[i] for _, col in cols] for i in range(len(gen_degs))], check=False)


def _assert_minimized_matches_reference(M):
    got, want = M.minimized(), _drop_redundant_relations(M)
    assert (got.gen_degs, got.rel_degs) == (want.gen_degs, want.rel_degs), M
    assert [[e.poly for e in row] for row in got.presentation] == \
        [[e.poly for e in row] for row in want.presentation], M


@pytest.mark.parametrize("name", catalog_names())
def test_minimized_drops_what_the_drop_and_restart_loop_drops(name):
    rng = random.Random(name)
    for _, M in load_catalog(name).modules():
        _assert_minimized_matches_reference(M)
        _assert_minimized_matches_reference(_with_redundant_relations(M, rng))


def test_minimized_drops_what_the_drop_and_restart_loop_drops_over_qq():
    rng = random.Random(0)
    for n in range(1, 7):
        for j in range(1, n + 1):
            M = _curve_module_over_qq(n, j)
            assert M.ring.characteristic == 0
            _assert_minimized_matches_reference(M)
            _assert_minimized_matches_reference(_with_redundant_relations(M, rng))


@pytest.mark.parametrize("char", [5, 7, 0])
def test_minimized_drops_what_the_drop_and_restart_loop_drops_on_random_presentations(char):
    rng = random.Random(char)
    tied = 0
    for _ in range(60):
        M = _random_presentation(char, rng)
        _assert_minimized_matches_reference(M)
        degs = M.minimized().rel_degs
        tied += any(M.rel_degs.count(b) > degs.count(b) > 0 for b in set(degs))
    assert tied >= 10  # relations of one degree were dropped and others of it kept


def _hs_lengths_by_brute_force(M, s_max):
    """length(M / m^s M), with (m^s M)_d the span of every u * g_i, total degree of u >= s."""
    ring = M.ring
    maxw, hi = ring.max_weight, M.max_gen_degree()
    normal_forms = {}
    out = []
    for s in range(1, s_max + 1):
        total = 0
        for d in range(M.min_gen_degree(), hi + s * maxw + 1):
            pc = M.piece(d)
            if not pc.dim:
                continue
            offsets = list(accumulate((ring.hilbert_function(d - a) for a in M.gen_degs), initial=0))
            span = RowSpace(ring.field, pc.dim)
            for i, a in enumerate(M.gen_degs):
                if not ring.hilbert_function(d - a):
                    continue
                for u in ring.ambient.monomials(d - a):
                    if sum(u) < s:
                        continue
                    if u not in normal_forms:  # u reduced against the ideal's echelon rows
                        rp = ring.piece(d - a)
                        unit = [ring.field.element(0)] * len(rp.monos)
                        unit[rp.index[u]] = ring.field.element(1)
                        normal_forms[u] = rp.rel_space.reduce(unit)[list(rp.std)].tolist()
                    fvec = [ring.field.element(0)] * pc.total
                    for k, c in enumerate(normal_forms[u]):
                        fvec[offsets[i] + k] = c
                    span.add(M.piece(d).coords(fvec))
            if d == hi + s * maxw:  # past the sum's range m^s M fills M_d
                assert span.dim == pc.dim, (s, d)
            else:
                total += pc.dim - span.dim
        out.append(total)
    return out


@pytest.mark.parametrize("char", [5, 2**31 - 1, 0])
def test_hs_lengths_match_brute_force_span(char):
    # weights (3, 2), (1, 1, 2) and (1, 1); generators in degrees 0 to 5
    cusp_ring = WeightedPolyRing(char, ["x", "y"], [3, 2]).quotient(["x^2+y^3"])
    artinian = WeightedPolyRing(char, ["x", "y", "z"], [1, 1, 2]).quotient(
        ["x^2-y^2", "x*y*z", "z^2+x^3*y"])
    node = WeightedPolyRing(char, ["x", "y"]).quotient(["x*y"])
    for A in (cusp_ring, artinian, node):
        M = GradedModule.direct_sum([
            free_module(A, [0]),
            residue_field_module(A).degree_shift(1),
            maximal_ideal_module(A).degree_shift(3),
            GradedModule(A, [2], [2 + A.weights[0]], [[A.variables[0]]]),
        ])
        assert len(set(M.gen_degs)) >= 3
        assert hs_lengths(M, 6) == _hs_lengths_by_brute_force(M, 6)


def fresh_copy(M):
    """The same presentation as a new module, with no minimal form kept."""
    return GradedModule(M.ring, M.gen_degs, M.rel_degs, M.presentation, label=M.label,
                        check=False)


def test_minimized_is_kept_and_a_minimal_module_is_its_own_form():
    A = ring_xy_squares()
    M = GradedModule(A, [0, 0], [0, 1, 1], [[1, "x", 0], [0, 0, "y"]], label="M")
    N = M.minimized()
    assert N is not M and M.minimized() is N and N.minimized() is N
    assert (N.gen_degs, N.label) == ((0,), "M")
    S = N.degree_shift(3)  # a shift of a minimal module is minimal
    assert S.minimized() is S and S.key == fresh_copy(S).minimized().key
    T = M.degree_shift(3)  # a shift of a module that is not gets its own elimination
    assert T.minimized() is not T and T.minimized().key == S.key


def test_constructors_minimal_by_construction_equal_a_fresh_minimization():
    from mcmkit.resolution import resolve

    A = load_catalog("ade:A2:dim2").ring
    m = maximal_ideal_module(A)
    C = free_module(A, [0])
    N, _ = submodule_presentation(C, [list(A.gens()[:2])], A.weights[:2])  # the ideal (x, y)
    res = resolve(residue_field_module(A), 4)
    for M in [m, N] + [res.syzygy_module(n) for n in (1, 2, 3)]:
        assert M.minimized() is M
        assert M.key == fresh_copy(M).minimized().key
