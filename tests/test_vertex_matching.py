"""Every vertex question of the quiver builder is read off one multiplicity vector.

``quiver._multiplicities`` gives the multiplicity of each catalog vertex X<s>
in a module (Auslander's criterion, one ``hom_radical`` per candidate) and
whether they account for every minimal generator.  ``match_vertex``, the
translate of each AR sequence, the pairwise check on the catalog,
``closure_check`` and the vertex maps of ``reverse_iso_check`` all read it;
none of them scans the vertex list with ``is_isomorphic``.  That scan is kept
here as the reference.
"""

import dataclasses
import sys

import pytest

from mcmkit.catalog import catalog_names, load_catalog
from mcmkit.errors import Inconclusive, UsageError
from mcmkit.homs import is_isomorphic
from mcmkit.modules import GradedModule, maximal_ideal_module, residue_field_module
from mcmkit.quiver import ARQuiver, build_quiver, closure_check, reverse_iso_check

_QUIVERS = {}


def quiver(name):
    if name not in _QUIVERS:
        _QUIVERS[name] = build_quiver(load_catalog(name))
    return _QUIVERS[name]


def scan(q, M):
    """The lookup the builder made before: the first vertex isomorphic to M up to shift."""
    return next((i for i, v in enumerate(q.vertices) if is_isomorphic(v.module, M)), None)


def without(q, name):
    """q's vertices but one, with no arrows: the lookups of a catalog that lacks it."""
    return ARQuiver(q.ring, q.d, [v for v in q.vertices if v.name != name], {}, {}, False, {})


@pytest.mark.parametrize("name", catalog_names())
def test_match_vertex_agrees_with_the_isomorphism_scan(name):
    q = quiver(name)
    mods = [v.module for v in q.vertices]
    n = len(mods)
    probes = [(M, i) for i, M in enumerate(mods)]
    probes += [(M.degree_shift(s), i) for i, M in enumerate(mods) for s in (1, -3)]
    probes += [(GradedModule.direct_sum([mods[i], mods[(i + 1) % n]]), None) for i in range(n)]
    probes.append((residue_field_module(q.ring), None))
    for M, want in probes:
        assert q.match_vertex(M) == scan(q, M) == want, (name, M.label)
    m = maximal_ideal_module(q.ring)  # a vertex on curves, not MCM on surfaces
    assert q.match_vertex(m) == scan(q, m)


def test_the_quiver_layer_runs_no_isomorphism_test(monkeypatch):
    calls = []

    def counted(M, N):
        calls.append((M.label, N.label))
        return is_isomorphic(M, N)

    # every loaded module that holds the name, so that neither an import of the
    # name nor a lookup through ``homs`` escapes the count
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "mcmkit" and "is_isomorphic" in vars(mod):
            monkeypatch.setattr(mod, "is_isomorphic", counted)
    for name in catalog_names():
        q = build_quiver(load_catalog(name))
        reverse_iso_check(q, "D")
        reverse_iso_check(q, "lambda")
    assert calls == []


def test_a_shifted_copy_of_a_vertex_is_rejected():
    cat = load_catalog("ade:A3:dim1")
    twin = dict(cat.modules())["I1"].degree_shift(2)
    twin.label = "I1'"
    cat = dataclasses.replace(cat, _modules=cat.modules() + [("I1'", twin)])
    with pytest.raises(UsageError, match=r"^catalog vertices I1 and I1' are isomorphic$"):
        build_quiver(cat)


@pytest.mark.parametrize("dropped", ["N+", "N-"])
def test_a_catalog_missing_a_vertex_is_incomplete(dropped):
    # on the node the translate swaps N+ and N-, so the other one's AR sequence
    # finds no translate
    cat = load_catalog("ade:A1:dim1")
    cat = dataclasses.replace(cat, mfs=[(n, mf) for n, mf in cat.mfs if n != dropped])
    with pytest.raises(Inconclusive, match=r"^catalog incomplete: tau\(N[+-]\) not found$"):
        build_quiver(cat)


def test_closure_check_reports_an_image_outside_the_vertex_list():
    # over x^2 + y^4, linkage swaps N+ and N-, while I1 and N+ are their own duals
    assert closure_check(quiver("ade:A3:dim1")) == []
    report = closure_check(without(quiver("ade:A3:dim1"), "N-"))
    assert len(report) == 1
    assert report[0].startswith("link(N+) has mu=1, ") and report[0].endswith("outside the catalog")


def test_reverse_check_names_an_image_outside_the_stable_quiver():
    q = without(quiver("ade:A3:dim1"), "N-")
    with pytest.raises(Inconclusive,
                       match=r"^catalog incomplete: lambda\(N\+\) escaped the stable quiver$"):
        reverse_iso_check(q, "lambda")
    ok, mapping = reverse_iso_check(q, "D")
    assert mapping == {"I1": "I1", "N+": "N+"}
