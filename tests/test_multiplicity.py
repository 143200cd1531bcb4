"""Multiplicities without a Hilbert-Samuel fit.

On a hypersurface k[x]/(f), e(A) = ord(f).  For a module M that is maximal
Cohen-Macaulay by construction, e(M) = length(M/lM) whenever the ring's
Artinian-reduction parameters l generate a reduction of m, which
length(A/lA) = e(A) certifies (Rees).  Both must agree with the fit
wherever the fit applies.
"""

import pytest

import mcmkit.modules
from mcmkit.catalog import catalog_names, load_catalog, nonci_gorenstein_ring
from mcmkit.modules import (
    GradedModule,
    free_module,
    invariants,
    is_mcm_by_construction,
    maximal_ideal_module,
    residue_field_module,
)
from mcmkit.quiver import build_quiver
from mcmkit.rings import WeightedPolyRing

# every hypersurface the tests build, over the characteristics they use
HYPERSURFACES = [
    *[pytest.param(lambda name=name: load_catalog(name).ring, id=name) for name in catalog_names()],
    *[pytest.param(lambda p=p, v=v, w=w, f=f: WeightedPolyRing(p, v, w).quotient([f]),
                   id=f"GF({p})/{f}" if p else f"QQ/{f}")
      for p in (7, 0)
      for v, w, f in ((["x"], None, "x^2"), (["x"], None, "x^3"),
                      (["x", "y"], None, "x^2+y^2"), (["x", "y"], [3, 2], "x^2+y^3"),
                      (["x", "y"], None, "x*y"), (["x", "y", "z"], None, "z^2"),
                      (["x", "y", "z"], None, "x^3+y^3+z^3"),
                      (["x", "y", "z"], [1, 1, 2], "x*z-y^3"))],
]


@pytest.mark.parametrize("build", HYPERSURFACES)
def test_the_order_of_the_equation_is_the_hilbert_samuel_multiplicity(build):
    A = build()
    assert A.multiplicity() == min(map(sum, A.relations[0]))
    assert A.hilbert_samuel_fit()[1] == A.multiplicity()


def fresh_copy(M):
    """The same presentation with no depth kept, so ``invariants`` takes the fit."""
    return GradedModule(M.ring, M.gen_degs, M.rel_degs, M.presentation, label=M.label,
                        check=False)


@pytest.fixture
def fit_calls(monkeypatch):
    """Names of the Hilbert-Samuel helpers ``invariants`` calls while the fixture is active."""
    calls = []
    for name in ("hs_lengths", "module_length"):
        real = getattr(mcmkit.modules, name)
        monkeypatch.setattr(mcmkit.modules, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    return calls


def assert_same_invariants(new, old):
    assert (new.mu, new.multiplicity_e, new.rank, new.dim, new.length) == \
        (old.mu, old.multiplicity_e, old.rank, old.dim, old.length)
    assert new.as_dict() == old.as_dict()


@pytest.mark.parametrize("name", catalog_names())
def test_vertices_and_middle_terms_read_e_off_m_mod_lm(name, fit_calls):
    q = build_quiver(load_catalog(name))
    modules = [v.module for v in q.vertices]
    modules += [q.sequences[v.name].module for v in q.vertices if not v.is_free]
    assert all(is_mcm_by_construction(M) for M in modules)
    assert q.ring.reduction_parameters == ((1,) if q.d == 1 else (1, 2))  # y, or y and z
    new = [invariants(M) for M in modules]
    assert fit_calls == []  # neither in the build nor here
    for M, inv in zip(modules, new):
        assert_same_invariants(inv, invariants(fresh_copy(M)))
    assert "hs_lengths" in fit_calls


def test_artinian_rings_read_the_length(fit_calls):
    # d = 0: every module is maximal Cohen-Macaulay, l is empty and e(M) = length(M)
    for A in (nonci_gorenstein_ring(), WeightedPolyRing(7, ["x"]).quotient(["x^3"])):
        assert A.reduction_parameters == ()
        for M in (residue_field_module(A), free_module(A, [0, 1])):
            fit_calls.clear()
            new = invariants(M)
            assert "module_length" not in fit_calls
            assert_same_invariants(new, invariants(fresh_copy(M)))


def test_parameters_that_are_no_reduction_keep_the_fit(fit_calls):
    # xz - y^3 with weights (1, 1, 2): B = A/(x, z) = k[y]/(y^3) is Artinian, but its
    # length 3 is not e(A) = 2, so (x, z) is no reduction of m and e comes from the fit
    A = WeightedPolyRing(7, ["x", "y", "z"], [1, 1, 2]).quotient(["x*z-y^3"])
    assert A.artinian_reduction is not None and A.reduction_parameters is None
    F = free_module(A, [0])
    assert is_mcm_by_construction(F)
    inv = invariants(F)
    assert "hs_lengths" in fit_calls
    assert (inv.multiplicity_e, inv.dim, inv.rank) == (2, 2, 1)


def test_free_modules_have_the_depth_of_the_ring():
    assert free_module(load_catalog("ade:A2:dim2").ring, [0, 3])._depth == 2
    assert free_module(nonci_gorenstein_ring(), [0])._depth == 0
    m = maximal_ideal_module(WeightedPolyRing(7, ["x", "y"]).quotient(["x^2", "x*y"]))
    assert free_module(m.ring, [0])._depth is None  # no Artinian reduction
