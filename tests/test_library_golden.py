"""Library-level golden records that the CLI goldens do not reach.

``tests/data/golden/library.json`` holds, per catalog of ``LIBRARY_CATALOGS``,
records that do not depend on a choice of basis: the radical filtration
(dim Hom, dim (M,N)_1, dim (M,N)_2) per vertex pair and internal degree,
the quiver's arrow degrees, the lifted-arrow irreducibility results and
the D and lambda vertex maps of ``reverse_iso_check``.  Under ``"betti"``
it holds graded Betti tables (the number of generators of F_i in each
degree) of k and m over two complete intersections and of k over a
ring that is not one, from ``BETTI_INPUTS``.  Regenerate the
file with ``PYTHONPATH=src python tests/test_library_golden.py``, and only
for a change that is meant to alter these outputs.
"""

import json
from pathlib import Path

import pytest

from mcmkit.catalog import load_catalog, nonci_gorenstein_ring
from mcmkit.modules import maximal_ideal_module, residue_field_module
from mcmkit.quiver import (
    build_quiver,
    lifted_arrows_remain_irreducible,
    radical_filtration,
    reverse_iso_check,
)
from mcmkit.resolution import resolve
from mcmkit.rings import WeightedPolyRing

LIBRARY = Path(__file__).parent / "data" / "golden" / "library.json"
LIBRARY_CATALOGS = ("ade:A3:dim1", "ade:A2:dim2", "ade:A4:dim2")
BETTI_INPUTS = [  # (ring name, ring builder, {module: homological window H})
    ("ci(x^2,y^2)", lambda: WeightedPolyRing(5, ["x", "y"]).quotient(["x^2", "y^2"]),
     {"k": 12, "m": 11}),
    ("ci(x*y,z*w)", lambda: WeightedPolyRing(5, ["x", "y", "z", "w"]).quotient(["x*y", "z*w"]),
     {"k": 6, "m": 6}),
    ("nonci", nonci_gorenstein_ring, {"k": 5}),
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


@pytest.mark.parametrize("catalog", LIBRARY_CATALOGS)
def test_quiver_records_match_golden(catalog):
    golden = json.loads(LIBRARY.read_text())
    assert sorted(golden) == sorted(LIBRARY_CATALOGS + ("betti",))
    assert quiver_records(catalog) == golden[catalog]


def test_betti_records_match_golden():
    assert betti_records() == json.loads(LIBRARY.read_text())["betti"]


if __name__ == "__main__":
    data = {name: quiver_records(name) for name in LIBRARY_CATALOGS}
    data["betti"] = betti_records()
    LIBRARY.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
