"""Golden artifacts and the characteristic-zero path.

``tests/data/golden/<catalog>.json`` maps each CLI command line of
``golden_argvs(catalog)`` to the stdout of an in-process ``main`` run, and
``tests/data/golden/qq.json`` does the same for ``QQ_ARGVS``, the commands
over the rationals on the inputs in ``tests/data/qq``.  Regenerate the
files with ``PYTHONPATH=src python tests/test_golden.py``, and only for a
change that is meant to alter these outputs.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from mcmkit.catalog import catalog_names, load_catalog
from mcmkit.cli import main
from mcmkit.homs import hom_space, is_isomorphic
from mcmkit.modules import invariants, maximal_ideal_module, residue_field_module
from mcmkit.resolution import mcm_test, resolve
from mcmkit.rings import WeightedPolyRing

GOLDEN = Path(__file__).parent / "data"


def golden_argvs(catalog: str):
    """The quiver, every Betti table (and k's), and every dual and link of a catalog."""
    names = [name for name, _ in load_catalog(catalog).modules()]
    argvs = [["quiver", "--catalog", catalog, "--format", "json"]]
    argvs += [["resolve", "--module", f"{catalog}/{name}", "-H", "6", "--format", "csv"]
              for name in names + ["k"]]
    argvs += [[cmd, "--module", f"{catalog}/{name}"] for cmd in ("dual", "link") for name in names]
    return argvs


# the cusp x^2 + y^3 with weights (3, 2), its k, m and a matrix factorization,
# and k over x^2, y^2; input paths are relative to tests/data
QQ_ARGVS = (
    [["mf-validate", "--mf", "qq/cusp_mf.json"]]
    + [cmd + ["--module", "qq/cusp_m.json"] for cmd in (
        ["resolve", "-H", "6"], ["dual"], ["link"], ["transpose"], ["syzygy", "--n", "2"],
        ["cosyzygy"], ["invariants"], ["period"], ["mf-extract"])]
    + [cmd + ["--module", f"qq/{name}.json"] for name in ("cusp_k", "squares_k") for cmd in (
        ["resolve", "-H", "6"], ["growth"], ["ci-operators", "-H", "6"], ["support", "-H", "6"])]
    + [["approx", "--module", "qq/cusp_k.json"]]
)


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


def golden_path(catalog: str) -> Path:
    return GOLDEN / "golden" / f"{catalog.replace(':', '_')}.json"


@pytest.mark.parametrize("catalog", catalog_names())
def test_catalog_outputs_match_golden(catalog):
    golden = json.loads(golden_path(catalog).read_text())
    argvs = golden_argvs(catalog)
    assert sorted(golden) == sorted(" ".join(a) for a in argvs)
    for argv in argvs:
        assert run_cli(argv) == golden[" ".join(argv)], argv


def run_qq(argv) -> str:
    return run_cli([str(GOLDEN / a) if a.startswith("qq/") else a for a in argv])


def test_rational_outputs_match_golden():
    golden = json.loads((GOLDEN / "golden" / "qq.json").read_text())
    assert sorted(golden) == sorted(" ".join(a) for a in QQ_ARGVS)
    for argv in QQ_ARGVS:
        assert run_qq(argv) == golden[" ".join(argv)], argv


def test_quiver_dot_matches_golden(tmp_path):
    out = tmp_path / "q.dot"
    assert main(["quiver", "--catalog", "ade:A3:dim1", "--out", str(out)]) == 0
    assert out.read_text() == (GOLDEN / "ade_A3_dim1.dot").read_text()


def test_rational_coefficients_end_to_end():
    # over QQ the circle relation does not split: m stays indecomposable
    A = WeightedPolyRing(0, ["x", "y"]).quotient(["x^2+y^2"])
    k = residue_field_module(A)
    assert resolve(k, 6).betti_numbers(6) == [1] + [2] * 6
    m = maximal_ideal_module(A)
    assert mcm_test(m)
    assert hom_space(m, m).dim == 2  # End contains a square root of -1
    assert is_isomorphic(m, m)
    inv = invariants(m)
    assert (inv.mu, inv.multiplicity_e, inv.dim) == (2, 2, 1)


if __name__ == "__main__":
    for name in catalog_names():
        path = golden_path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = {" ".join(argv): run_cli(argv) for argv in golden_argvs(name)}
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    data = {" ".join(argv): run_qq(argv) for argv in QQ_ARGVS}
    (GOLDEN / "golden" / "qq.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
