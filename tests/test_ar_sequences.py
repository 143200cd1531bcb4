"""The AR quiver read off its AR sequences, against the radical-filtration reference.

``build_quiver`` builds, at every non-free vertex M, the AR sequence
0 -> tau M<t*> -> E -> M -> 0 from the class spanning Ext^1(M, tau M<t*>),
t* = -a(A), and reads the arrows into M off E's summands.  The reference
in ``quiver_reference`` counts the same arrows as dim (M,N)_1 / (M,N)_2 by
a windowed scan.  Both must agree on every catalog, arrow by arrow and
degree by degree.
"""

import pytest

import mcmkit.quiver
from mcmkit.catalog import catalog_names, load_catalog
from mcmkit.errors import Inconclusive, UsageError
from mcmkit.functors import tau
from mcmkit.homs import is_isomorphic
from mcmkit.linalg import DenseMatrix
from mcmkit.modules import is_mcm_by_construction
from mcmkit.quiver import build_quiver, middle_term
from quiver_reference import reference_arrow_degrees

_REFERENCE = {}


def reference(name):
    if name not in _REFERENCE:
        _REFERENCE[name] = reference_arrow_degrees(load_catalog(name))
    return _REFERENCE[name]


def arrow_degrees_by_name(q):
    names = [v.name for v in q.vertices]
    return {(names[i], names[j]): dict(per) for (i, j), per in q.arrow_degrees.items()}


@pytest.mark.parametrize("name", catalog_names())
def test_ar_route_matches_the_radical_filtration_reference(name):
    q = build_quiver(load_catalog(name))
    want = reference(name)
    assert arrow_degrees_by_name(q) == want
    assert {pair: sum(per.values()) for pair, per in want.items()} == \
        {(q.vertices[a].name, q.vertices[b].name): m for (a, b), m in q.arrows.items()}


@pytest.mark.parametrize("offset", [1, -1])
def test_a_shifted_t_star_fails_the_comparison(offset, monkeypatch):
    # one degree off, Ext^1 vanishes at every catalog but A2:dim1, where the class at
    # t* + 1 passes all three run-time checks with E = A + A<1>: the reference catches it
    real = mcmkit.quiver._ar_shift
    monkeypatch.setattr(mcmkit.quiver, "_ar_shift", lambda ring: real(ring) + offset)
    caught = {}
    for name in catalog_names():
        try:
            got = arrow_degrees_by_name(build_quiver(load_catalog(name)))
        except Inconclusive as exc:
            assert "dim Ext^1(M, tau M<" in str(exc), (name, str(exc))
            caught[name] = "Ext^1"
        else:
            assert got != reference(name), name
            caught[name] = "reference"
    assert sorted(caught) == sorted(catalog_names())
    assert [n for n, how in caught.items() if how == "reference"] == \
        (["ade:A2:dim1"] if offset == 1 else [])


@pytest.mark.parametrize("name", catalog_names())
def test_middle_terms_are_the_stored_sequences(name):
    q = build_quiver(load_catalog(name))
    d = q.ring.krull_dim()
    for v in q.vertices:
        if v.is_free:
            with pytest.raises(UsageError):
                middle_term(q, v.name)
            continue
        ar = middle_term(q, v.name)
        assert ar is q.sequences[v.name] and ar.vertex == v.name
        E = ar.module
        assert is_mcm_by_construction(E) and E._depth == d
        tau_v = q.vertices[q.vertex_index(ar.tau_name)]
        assert ar.mu_middle == E.minimized().num_gens
        assert ar.e_middle == v.e + tau_v.e
        names = dict(ar.middle)
        assert ar.mu_middle == sum(m * q.vertices[q.vertex_index(n)].mu for n, m in names.items())
        assert ar.middle_free_rank == names.get("A", 0)
        assert is_isomorphic(tau_v.module, tau(v.module, d))


def test_each_run_time_check_names_itself(monkeypatch):
    cat = "ade:A3:dim1"
    # Ext^1 of the wrong dimension
    monkeypatch.setattr(mcmkit.quiver, "_ar_shift", lambda ring: 5)
    with pytest.raises(Inconclusive, match=r"AR sequence ending at .*: dim Ext\^1"):
        build_quiver(load_catalog(cat))
    monkeypatch.undo()
    # summands that miss a generator of E: every map into E counted as radical (only
    # into E, since the translate is found through the same multiplicity vector)
    real_radical = mcmkit.quiver.hom_radical

    def everything_radical(X, Y):
        out = real_radical(X, Y)
        if Y.label.startswith("E("):
            out.add_matrix(DenseMatrix.identity(out.field, out.ncols))
        return out

    monkeypatch.setattr(mcmkit.quiver, "hom_radical", everything_radical)
    with pytest.raises(Inconclusive, match="the summands found have 0 generators"):
        build_quiver(load_catalog(cat))
    monkeypatch.undo()
    # e(E) that is not e(M) + e(tau M)
    real_invariants = mcmkit.quiver.invariants

    def off_by_one(M):
        inv = real_invariants(M)
        if M.label.startswith("E("):
            inv.multiplicity_e += 1
        return inv

    monkeypatch.setattr(mcmkit.quiver, "invariants", off_by_one)
    with pytest.raises(Inconclusive, match=r"e\(E\) = 5, not e\(M\) \+ e\(tau M\) = 4"):
        build_quiver(load_catalog(cat))


def test_the_arrows_into_the_free_vertex_are_the_summands_of_x_of_m():
    from mcmkit.functors import mcm_approx
    from mcmkit.modules import maximal_ideal_module

    for name in ("ade:A4:dim1", "ade:A3:dim2"):
        q = build_quiver(load_catalog(name))
        X = mcm_approx(maximal_ideal_module(q.ring))
        into_free = {q.vertices[i].name: m for (i, j), m in q.arrows.items() if j == q.free_index}
        assert sum(m * q.vertices[q.vertex_index(n)].mu for n, m in into_free.items()) == \
            X.minimized().num_gens
