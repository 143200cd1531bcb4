"""Library-level golden records that the CLI goldens do not reach.

``tests/data/golden/library.json`` holds, per catalog of ``LIBRARY_CATALOGS``,
records that do not depend on a choice of basis: the radical filtration
(dim Hom, dim (M,N)_1, dim (M,N)_2) per vertex pair and internal degree,
the quiver's arrow degrees, the lifted-arrow irreducibility results and
the D and lambda vertex maps of ``reverse_iso_check``.  Regenerate the
file with ``PYTHONPATH=src python tests/test_library_golden.py``, and only
for a change that is meant to alter these outputs.
"""

import json
from pathlib import Path

import pytest

from mcmkit.catalog import load_catalog
from mcmkit.quiver import (
    build_quiver,
    lifted_arrows_remain_irreducible,
    radical_filtration,
    reverse_iso_check,
)

LIBRARY = Path(__file__).parent / "data" / "golden" / "library.json"
LIBRARY_CATALOGS = ("ade:A3:dim1", "ade:A2:dim2", "ade:A4:dim2")


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


@pytest.mark.parametrize("catalog", LIBRARY_CATALOGS)
def test_quiver_records_match_golden(catalog):
    golden = json.loads(LIBRARY.read_text())
    assert sorted(golden) == sorted(LIBRARY_CATALOGS)
    assert quiver_records(catalog) == golden[catalog]


if __name__ == "__main__":
    data = {name: quiver_records(name) for name in LIBRARY_CATALOGS}
    LIBRARY.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
