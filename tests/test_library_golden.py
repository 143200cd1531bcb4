"""Library-level golden records that the CLI goldens do not reach.

``tests/data/golden/library.json`` holds, per catalog of ``LIBRARY_CATALOGS``,
records that do not depend on a choice of basis: the radical filtration
(dim Hom, dim (M,N)_1, dim (M,N)_2) per vertex pair and internal degree,
the quiver's arrow degrees, the lifted-arrow irreducibility results and
the D and lambda vertex maps of ``reverse_iso_check``.  The filtration and
lifted-arrow records come from the test-side reference
``quiver_reference``, the arrow degrees from ``build_quiver``'s AR
sequences, so the slices check both routes.  Under ``"betti"``
it holds graded Betti tables (the number of generators of F_i in each
degree) of k and m over two complete intersections and of k over a
ring that is not one, from ``BETTI_INPUTS``.  Under ``"m"`` it holds, per
ring of ``M_RINGS``, the maximal ideal's sorted generator and relation
degrees and its Betti table to H = 6, each F_i's degrees sorted.  Under
``"decompose"`` it
holds, per module of ``DECOMPOSE_INPUTS``, whether ``decompose`` certifies
its split, the residue degrees, and per summand its sorted generator and
relation degrees with its multiplicity.  Regenerate the
file with ``PYTHONPATH=src python tests/test_library_golden.py``, and only
for a change that is meant to alter these outputs.
"""

import json
from pathlib import Path

import pytest

import mcmkit.modules
import mcmkit.resolution
from mcmkit.catalog import catalog_names, load_catalog, nonci_gorenstein_ring
from mcmkit.homs import decompose
from mcmkit.modules import (
    GradedModule,
    free_module,
    maximal_ideal_module,
    residue_field_module,
)
from mcmkit.quiver import build_quiver, reverse_iso_check
from mcmkit.resolution import resolve
from mcmkit.rings import WeightedPolyRing
from quiver_reference import lifted_arrows_remain_irreducible, radical_filtration

LIBRARY = Path(__file__).parent / "data" / "golden" / "library.json"
LIBRARY_CATALOGS = ("ade:A3:dim1", "ade:A2:dim2", "ade:A4:dim2")
BETTI_INPUTS = [  # (ring name, ring builder, {module: homological window H})
    ("ci(x^2,y^2)", lambda: WeightedPolyRing(5, ["x", "y"]).quotient(["x^2", "y^2"]),
     {"k": 12, "m": 11}),
    ("ci(x*y,z*w)", lambda: WeightedPolyRing(5, ["x", "y", "z", "w"]).quotient(["x*y", "z*w"]),
     {"k": 6, "m": 6}),
    ("nonci", nonci_gorenstein_ring, {"k": 5}),
]

M_RINGS = (  # (name, ring builder): each call builds a fresh ring
    [(name, lambda name=name: load_catalog(name).ring) for name in catalog_names()]
    + [(f"ci({','.join(rels)})", lambda v=v, rels=rels: WeightedPolyRing(7, list(v)).quotient(rels))
       for v, rels in (("xy", ["x^2", "y^2"]), ("xyzw", ["x*y", "z*w"]), ("xyz", ["x*y", "z^2"]),
                       ("xyz", ["x^2", "y^2", "z^2"]), ("xyz", ["x^3+y^3+z^3"]),
                       ("xyzw", ["x^3+y^3+z^3+w^3"]))]
    + [("QQ:cusp", lambda: WeightedPolyRing(0, ["x", "y"], [3, 2]).quotient(["x^2+y^3"])),
       ("QQ:squares", lambda: WeightedPolyRing(0, ["x", "y"]).quotient(["x^2", "y^2"])),
       ("nonci", nonci_gorenstein_ring)])


def _squares(p):
    return WeightedPolyRing(p, ["x", "y"]).quotient(["x^2", "y^2"])


def _point_pair(A, c):
    """coker [[x, c*y], [y, x]]: indecomposable with residue degree 2 iff c is a non-residue."""
    return GradedModule(A, [0, 0], [1, 1], [["x", f"{c}*y"], ["y", "x"]])


def _sum(A, *parts):
    """The direct sum of parts, each built over A by a function of A."""
    return GradedModule.direct_sum([part(A) for part in parts])


def _mixed(M):
    """M with its generators (all in one degree) mixed by a fixed unitriangular product L U."""
    n, zero = M.num_gens, M.ring.zero()
    lower = [[1 if i == k else (i + k + 1 if k < i else 0) for k in range(n)] for i in range(n)]
    upper = [[1 if i == k else (i + 2 * k + 1 if k > i else 0) for k in range(n)] for i in range(n)]
    g = [[sum(lower[i][t] * upper[t][k] for t in range(n)) for k in range(n)] for i in range(n)]
    rows = [[sum((M.presentation[k][j].scale(g[i][k]) for k in range(n)), zero)
             for j in range(M.num_rels)] for i in range(n)]
    return GradedModule(M.ring, M.gen_degs, M.rel_degs, rows)


def _catalog_sum(name):
    """Every module of a catalog, and its first module once more."""
    mods = [M for _, M in load_catalog(name).modules()]
    return GradedModule.direct_sum(mods + mods[:1])


_k = residue_field_module
_W = {c: (lambda A, c=c: _point_pair(A, c)) for c in range(2, 7)}
_BIG = 2 ** 31 - 1  # 3 and 5 are its two smallest non-residues, as they are mod 7
DECOMPOSE_INPUTS = [  # (name, module builder): each call builds a fresh ring
    ("k", lambda: _k(_squares(7))),
    ("k+k", lambda: _sum(_squares(7), _k, _k)),
    ("k+A", lambda: _sum(_squares(7), _k, lambda A: free_module(A, [0]))),
    ("k+m+k", lambda: _sum(_squares(7), _k,
                           lambda A: maximal_ideal_module(A).normalized()[0], _k)),
    *[(f"W({c})", lambda c=c: _W[c](_squares(7))) for c in range(2, 7)],
    ("W(3)+W(5)", lambda: _sum(_squares(7), _W[3], _W[5])),
    ("W(3)+W(3)", lambda: _sum(_squares(7), _W[3], _W[3])),
    ("W(4)+k", lambda: _sum(_squares(7), _W[4], _k)),
    *[(f"{name}:all+first", lambda name=name: _catalog_sum(name))
      for name in ("ade:A3:dim1", "ade:A4:dim1", "ade:A2:dim2")],
    *[(f"p={p}:mixed:{name}", lambda p=p, parts=parts: _mixed(_sum(_squares(p), *parts)))
      for p in (7, _BIG)
      for name, parts in (("k+k+k", (_k, _k, _k)), ("W(3)+W(3)", (_W[3], _W[3])),
                          ("W(3)+W(5)", (_W[3], _W[5])), ("W(4)+k", (_W[4], _k)))],
]


def quiver_records(catalog: str) -> dict:
    """The basis-independent quiver records of one catalog, as JSON-ready values."""
    cat = load_catalog(catalog)
    q = build_quiver(cat)
    names = [v.name for v in q.vertices]
    filtration = {f"{src}->{tgt}": {str(t): list(dims) for t, dims in per.items()}
                  for (src, tgt), per in radical_filtration(cat).items()}
    degrees = {f"{names[i]}->{names[j]}": {str(t): m for t, m in sorted(per.items())}
               for (i, j), per in sorted(q.arrow_degrees.items())}
    reverse = {}
    for functor in ("D", "lambda"):
        ok, mapping = reverse_iso_check(q, functor)
        reverse[functor] = {"ok": ok, "map": dict(sorted(mapping.items()))}
    lifted = [[arrow, ok] for arrow, ok in lifted_arrows_remain_irreducible(q)]
    return {
        "radical_filtration": filtration,
        "arrow_degrees": degrees,
        "lifted_arrows_remain_irreducible": lifted,
        "reverse_iso_check": reverse,
    }


def betti_records() -> dict:
    """Per ring and module of ``BETTI_INPUTS``: F_i's generator count per degree, i = 0..H."""
    out = {}
    for name, build, windows in BETTI_INPUTS:
        out[name] = {}
        for label, H in windows.items():
            ring = build()  # a fresh ring: no cache is shared between modules
            M = residue_field_module(ring) if label == "k" else maximal_ideal_module(ring)
            out[name][label] = [{str(d): degs.count(d) for d in sorted(set(degs))}
                                for _, _, degs in resolve(M, H).betti_table(H)]
    return out


def m_records(H: int = 6) -> dict:
    """Per ring of ``M_RINGS``: m's sorted generator and relation degrees, and its Betti
    table to H with each F_i's degrees sorted, none of which depends on a basis."""
    out = {}
    for name, build in M_RINGS:
        m = maximal_ideal_module(build())
        out[name] = {"gen_degs": sorted(m.gen_degs), "rel_degs": sorted(m.rel_degs),
                     "betti": [sorted(degs) for _, _, degs in resolve(m, H).betti_table(H)]}
    return out


def decompose_records() -> dict:
    """Per module of ``DECOMPOSE_INPUTS``: its Krull-Schmidt split, in basis-free terms."""
    out = {}
    for name, build in DECOMPOSE_INPUTS:
        dec = decompose(build())
        out[name] = {
            "certified": dec.certified,
            "residue_degrees": sorted(dec.residue_degrees),
            "summands": sorted([sorted(mod.gen_degs), sorted(mod.rel_degs), mult]
                               for mod, mult in dec.summands),
        }
    return out


@pytest.mark.parametrize("catalog", LIBRARY_CATALOGS)
def test_quiver_records_match_golden(catalog):
    golden = json.loads(LIBRARY.read_text())
    assert sorted(golden) == sorted(LIBRARY_CATALOGS + ("betti", "decompose", "m"))
    assert quiver_records(catalog) == golden[catalog]


def test_betti_records_match_golden():
    assert betti_records() == json.loads(LIBRARY.read_text())["betti"]


def test_m_records_match_golden():
    assert m_records() == json.loads(LIBRARY.read_text())["m"]


def test_decompose_records_match_golden():
    assert decompose_records() == json.loads(LIBRARY.read_text())["decompose"]


def test_decompose_scans_no_kernel(monkeypatch):
    # each summand eM is the cokernel M/(1 - e)M, presented with no kernel scan
    modules = [build() for _, build in DECOMPOSE_INPUTS]  # m's own scan happens here
    calls = []

    def counted(scan):
        def wrapper(*args, **kwargs):
            calls.append(args[1])
            return scan(*args, **kwargs)
        return wrapper

    for layer in (mcmkit.modules, mcmkit.resolution):
        monkeypatch.setattr(layer, "capture_kernel", counted(layer.capture_kernel))
    split = [len(decompose(M).summands) > 1 for M in modules]
    assert calls == [] and sum(split) >= 10


if __name__ == "__main__":
    data = {name: quiver_records(name) for name in LIBRARY_CATALOGS}
    data["betti"] = betti_records()
    data["decompose"] = decompose_records()
    data["m"] = m_records()
    LIBRARY.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
