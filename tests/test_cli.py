import json

import pytest

from mcmkit.cisupport import CIPresentation, eisenbud_operators
from mcmkit.cli import load_module, main, module_to_json


@pytest.fixture
def ring_file(tmp_path):
    p = tmp_path / "ring.json"
    p.write_text(json.dumps({
        "char": 7, "vars": ["x", "y"], "weights": [3, 2],
        "relations": ["x^2+y^3"],
    }))
    return str(p)


@pytest.fixture
def k_file(tmp_path, ring_file):
    p = tmp_path / "k.json"
    p.write_text(json.dumps({"ring": ring_file, "builtin": "k"}))
    return str(p)


def test_resolve_emits_betti_csv(tmp_path, k_file, capsys):
    out = tmp_path / "betti.csv"
    rc = main(["resolve", "--module", k_file, "-H", "4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "# seed=0"
    assert lines[1] == "i,betti,gen_degrees"
    assert lines[2] == "0,1,0"
    assert lines[3].startswith("1,2,")


def test_quiver_dot_golden(tmp_path):
    out1 = tmp_path / "q1.dot"
    out2 = tmp_path / "q2.dot"
    assert main(["quiver", "--catalog", "ade:A2:dim1", "--out", str(out1)]) == 0
    assert main(["quiver", "--catalog", "ade:A2:dim1", "--out", str(out2)]) == 0
    d1, d2 = out1.read_text(), out2.read_text()
    assert d1 == d2  # byte-identical artifacts for identical jobs
    assert '"I1" -> "I1" [label="1"];' in d1
    assert '"A" [shape=doublecircle' in d1


def test_quiver_json_format(tmp_path):
    out = tmp_path / "q.json"
    assert main(["quiver", "--catalog", "ade:A1:dim2", "--format", "json",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["seed"] == 0
    assert data["modulus"] == 5
    arrows = {(a["from"], a["to"]): a["irr"] for a in data["arrows"]}
    assert arrows == {("A", "M1"): 2, ("M1", "A"): 2}


def test_exit_code_error_on_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["resolve", "--module", str(bad)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line" in err  # parse diagnostics carry a position


def test_exit_code_error_on_unknown_catalog():
    assert main(["quiver", "--catalog", "ade:E8:dim1"]) == 1


def test_exit_code_error_on_incompatible_modulus():
    # 7 = 3 mod 4: no sqrt(-1), the A1 curve catalog must refuse it
    assert main(["quiver", "--catalog", "ade:A1:dim1", "--modulus", "7"]) == 1


def _error_exit(argv, capsys):
    """Run argv; it must exit 1 with one ``error:`` line and no traceback."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    return err


def _json_file(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("prop", ["cx_equals:abc", "curv_leq:zz"])
def test_property_value_that_is_not_a_number_is_an_error(capsys, prop):
    err = _error_exit(["classify", "--catalog", "ade:A2:dim1", "--property", prop], capsys)
    assert prop.split(":")[1] in err


def test_mf_description_that_is_not_an_object_is_an_error(tmp_path, capsys):
    phi = [["x", "y"], ["y^2", "-x"]]
    listed = _json_file(tmp_path, "list.json", [{"f": "x^2+y^3", "phi": phi, "psi": phi}])
    _error_exit(["mf-validate", "--mf", listed], capsys)
    no_vars = _json_file(tmp_path, "novars.json", {
        "ring": {"char": 7, "weights": [3, 2]}, "f": "x^2+y^3", "phi": phi, "psi": phi})
    assert "vars" in _error_exit(["mf-validate", "--mf", no_vars], capsys)


def test_degrees_that_are_not_integers_are_an_error(tmp_path, capsys):
    ring = {"char": 7, "vars": ["x", "y"], "relations": ["x^2", "y^2"]}
    bad_weights = _json_file(tmp_path, "w.json", {
        "ring": {**ring, "weights": ["a"]}, "builtin": "k"})
    assert "weights" in _error_exit(["invariants", "--module", bad_weights], capsys)
    bad_degs = _json_file(tmp_path, "g.json", {
        "ring": ring, "gen_degs": ["a"], "rel_degs": [1], "presentation": [["x"]]})
    assert "degrees" in _error_exit(["invariants", "--module", bad_degs], capsys)


SQUARES = {"char": 7, "vars": ["x", "y"], "relations": ["x^2", "y^2"]}
CUSP_MF = {"ring": {"char": 7, "vars": ["x", "y"], "weights": [3, 2]}, "f": "x^2+y^3",
           "phi": [["x", "y"], ["y^2", "-x"]], "psi": [["x", "y"], ["y^2", "-x"]]}


def _presented(entry, rel_deg=1):
    return {"ring": SQUARES, "gen_degs": [0], "rel_degs": [rel_deg], "presentation": [[entry]]}


@pytest.mark.parametrize("command,data,message", [
    ("invariants", {"ring": {**SQUARES, "char": "7"}, "builtin": "k"}, "characteristic"),
    ("invariants", {"ring": {**SQUARES, "char": 7.0}, "builtin": "k"}, "characteristic"),
    ("invariants", {"ring": {**SQUARES, "vars": [1, "y"], "relations": ["y^2"]}, "builtin": "k"},
     "variable names"),
    ("invariants", {"ring": {**SQUARES, "vars": 5}, "builtin": "k"}, "vars"),
    ("invariants", {"ring": {**SQUARES, "relations": [5]}, "builtin": "k"}, "relation 5"),
    ("invariants", _presented(["x"]), "['x']"),
    ("invariants", _presented(1.5, 0), "1.5"),  # not truncated to 1 over GF(7)
    ("mf-validate", {**CUSP_MF, "f": ["x^2+y^3"]}, "['x^2+y^3']"),
    ("mf-validate", {**CUSP_MF, "phi": [[["x"], "y"], ["y^2", "-x"]]}, "['x']"),
], ids=["char-string", "char-float", "variable-number", "vars-number", "relation-number",
        "entry-list", "entry-float", "f-list", "phi-list"])
def test_malformed_json_is_an_error(tmp_path, capsys, command, data, message):
    path = _json_file(tmp_path, "bad.json", data)
    flag = "--mf" if command == "mf-validate" else "--module"
    assert message in _error_exit([command, flag, path], capsys)


def test_presentation_with_too_few_rows_is_an_error(tmp_path, capsys):
    short = _json_file(tmp_path, "short.json", {
        "ring": {"char": 7, "vars": ["x", "y"], "relations": ["x^2", "y^2"]},
        "gen_degs": [0, 0], "rel_degs": [1], "presentation": [["x"]]})
    assert "2 rows" in _error_exit(["invariants", "--module", short], capsys)


def test_exit_code_inconclusive(tmp_path, k_file):
    # absurdly small degree bound: kernel capture cannot finish
    rc = main(["resolve", "--module", k_file, "-H", "6", "--degree-bound", "3"])
    assert rc == 2


def test_inconclusive_names_the_bound_once(capsys):
    rc = main(["resolve", "--module", "ade:A2:dim1/I1", "-H", "6", "--degree-bound", "3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == ("inconclusive: degree bound (kernel capture still active at degree 3);"
                   " raise --degree-bound (now 3)\n")


def test_mf_extract_inconclusive_names_the_hom_bound(capsys):
    rc = main(["mf-extract", "--module", "ade:A2:dim1/m", "-H", "1"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "inconclusive: resolution did not stabilize to a matrix factorization within 1 steps;"
        " raise --hom-bound (now 1)\n")


def test_inconclusive_without_a_flag_names_no_bound(monkeypatch, capsys):
    import mcmkit.cli as cli
    from mcmkit.errors import Inconclusive

    def give_up(args):
        raise Inconclusive("unit search budget exhausted")

    monkeypatch.setattr(cli, "cmd_catalogs", give_up)
    assert main(["catalogs"]) == 2
    assert capsys.readouterr().err == "inconclusive: unit search budget exhausted\n"
    exc = Inconclusive("why")
    assert (exc.bound, exc.flag) == (None, None)


def test_period_command(tmp_path):
    out = tmp_path / "p.json"
    assert main(["period", "--module", "ade:A2:dim1/I1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["found"] and data["period"] <= 2


def test_syzygy_roundtrip(tmp_path):
    out = tmp_path / "s.json"
    assert main(["syzygy", "--module", "ade:A2:dim1/I1", "--n", "1",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    M = load_module(data["module"])
    assert M.num_gens == 2


def test_syzygy_of_a_catalog_module_is_presented_by_its_factorization(capsys):
    # Syz_1(N+) = coker psi = N-: the resolution's second step is psi, x + 3y^2,
    # where a kernel scan found its own basis, 2x + y^2 = 2(x + 3y^2) mod 5
    assert main(["syzygy", "--module", "ade:A3:dim1/N+", "--n", "1"]) == 0
    module = json.loads(capsys.readouterr().out)["module"]
    assert module["presentation"] == [["x + 3*y^2"]]
    assert (module["gen_degs"], module["rel_degs"]) == ([4], [8])


def test_module_json_roundtrip():
    M = load_module("ade:A4:dim1/I2")
    M2 = load_module(module_to_json(M))
    from mcmkit.homs import is_isomorphic

    assert is_isomorphic(M, M2)


def test_invariants_command(tmp_path):
    out = tmp_path / "inv.json"
    assert main(["invariants", "--module", "ade:A2:dim1/I1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["mu"] == 2 and data["e"] == 2


def test_mf_validate_command(tmp_path):
    mf = tmp_path / "mf.json"
    mf.write_text(json.dumps({
        "ring": {"char": 7, "vars": ["x", "y"], "weights": [3, 2]},
        "f": "x^2+y^3",
        "phi": [["x", "y"], ["y^2", "-x"]],
        "psi": [["x", "y"], ["y^2", "-x"]],
    }))
    out = tmp_path / "v.json"
    assert main(["mf-validate", "--mf", str(mf), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["valid"] is True and data["reduced"] is True


def test_mf_extract_command(tmp_path):
    out = tmp_path / "mf.json"
    assert main(["mf-extract", "--module", "ade:A2:dim1/m", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["mf"]["phi"]) == 2


def test_support_command(tmp_path):
    ring = tmp_path / "r.json"
    ring.write_text(json.dumps({
        "char": 7, "vars": ["x", "y"], "relations": ["x^2", "y^2"]}))
    mod = tmp_path / "m.json"
    mod.write_text(json.dumps({
        "ring": str(ring), "gen_degs": [0], "rel_degs": [1],
        "presentation": [["x"]], "label": "A/(x)"}))
    out = tmp_path / "s.json"
    assert main(["support", "--module", str(mod), "-H", "10", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["cx"] == 1 and data["is_point"] is True


def test_verify_suite(tmp_path, capsys):
    rc = main(["verify", "--catalog", "ade:A2:dim1", "--suite", "symmetry"])
    assert rc == 0
    output = capsys.readouterr().out
    assert "pass  symmetry:link_involution[I1]" in output
    assert "FAIL" not in output


def test_classify_command(tmp_path):
    out = tmp_path / "c.json"
    assert main(["classify", "--catalog", "ade:A2:dim1", "--property", "periodic",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["all_constant"] is True


def test_catalogs_listing(capsys):
    assert main(["catalogs"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "ade:A3:dim1" in data["catalogs"]


def _subcommands():
    import argparse

    from mcmkit.cli import build_parser

    action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sorted(action.choices)


def test_every_subcommand_runs(tmp_path):
    # Commands import their layers inside the function: running each one
    # once catches an import left out.
    ring = tmp_path / "ci.json"
    ring.write_text(json.dumps({"char": 7, "vars": ["x", "y"], "relations": ["x^2", "y^2"]}))
    ax = tmp_path / "ax.json"
    ax.write_text(json.dumps({"ring": str(ring), "gen_degs": [0], "rel_degs": [1],
                              "presentation": [["x"]]}))
    mf = tmp_path / "mf.json"
    mf.write_text(json.dumps({"ring": {"char": 7, "vars": ["x", "y"], "weights": [3, 2]},
                              "f": "x^2+y^3", "phi": [["x", "y"], ["y^2", "-x"]],
                              "psi": [["x", "y"], ["y^2", "-x"]]}))
    module = ["--module", "ade:A2:dim1/I1"]
    catalog = ["--catalog", "ade:A2:dim1"]
    argv = {
        "resolve": module + ["-H", "3"],
        "betti": module + ["-H", "3"],
        "syzygy": module,
        "cosyzygy": module,
        "dual": module,
        "transpose": module,
        "link": module,
        "approx": module,
        "period": module,
        "growth": module + ["-H", "4"],
        "invariants": module,
        "mf-validate": ["--mf", str(mf)],
        "mf-extract": ["--module", "ade:A2:dim1/m", "-H", "4"],
        "quiver": catalog,
        "classify": catalog + ["--property", "periodic"],
        "ci-operators": ["--module", str(ax), "-H", "3"],
        "support": ["--module", str(ax), "-H", "4"],
        "verify": catalog + ["--suite", "periodicity"],
        "catalogs": [],
    }
    assert sorted(argv) == _subcommands()
    for name, rest in argv.items():
        out = tmp_path / f"{name}.out"
        assert main([name] + rest + ["--out", str(out)]) == 0, name
        assert out.read_text()


@pytest.mark.parametrize("n", ["0", "-1"])
def test_cosyzygy_index_below_one_is_an_error(tmp_path, capsys, n):
    out = tmp_path / "cosyzygy.json"
    assert main(["cosyzygy", "--module", "ade:A2:dim1/I1", f"--n={n}", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: cosyzygy index must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("command, fmt", [
    (["resolve", "--module", "ade:A2:dim1/I1", "-H", "2"], "json"),
    (["betti", "--module", "ade:A2:dim1/I1", "-H", "2"], "dot"),
    (["verify", "--catalog", "ade:A2:dim1", "--suite", "periodicity"], "json"),
    (["verify", "--catalog", "ade:A2:dim1", "--suite", "periodicity"], "csv"),
    (["dual", "--module", "ade:A2:dim1/I1"], "csv"),
    (["catalogs"], "dot"),
    (["quiver", "--catalog", "ade:A2:dim1"], "csv"),
    (["quiver", "--catalog", "ade:A2:dim1"], "xml"),
])
def test_a_format_the_command_does_not_write_is_an_error(tmp_path, capsys, command, fmt):
    out = tmp_path / "out"
    err = _error_exit(command + ["--format", fmt, "--out", str(out)], capsys)
    assert "--format" in err and not out.exists()


def test_each_command_writes_its_own_formats(tmp_path):
    for command, fmt in ((["resolve", "--module", "ade:A2:dim1/I1", "-H", "2"], "csv"),
                         (["dual", "--module", "ade:A2:dim1/I1"], "json"),
                         (["quiver", "--catalog", "ade:A2:dim1"], "dot")):
        named, default = tmp_path / "named", tmp_path / "default"
        assert main(command + ["--format", fmt, "--out", str(named)]) == 0
        assert main(command + ["--out", str(default)]) == 0
        assert named.read_text() == default.read_text()


def test_jobs_flag_is_gone():
    with pytest.raises(SystemExit):
        main(["catalogs", "--jobs", "2"])


def test_ci_operators_keeps_fractional_entries(tmp_path):
    ring = tmp_path / "r.json"
    ring.write_text(json.dumps({"char": 0, "vars": ["x", "y"], "relations": ["2*x^2", "3*y^2"]}))
    mod = tmp_path / "k.json"
    mod.write_text(json.dumps({"ring": str(ring), "builtin": "k"}))
    out = tmp_path / "ops.json"
    assert main(["ci-operators", "--module", str(mod), "-H", "3", "--out", str(out)]) == 0
    got = json.loads(out.read_text())["operators"]
    k = load_module(str(mod))
    ext = eisenbud_operators(CIPresentation.from_ring(k.ring), k, H=3)
    want = {
        f"t{j + 1}": {str(n): [[str(x) for x in row] for row in ext.operator(j, n).rows()]
                      for n in range(2)}
        for j in range(ext.codimension)}
    assert {t: {n: [[str(x) for x in row] for row in m] for n, m in ops.items()}
            for t, ops in got.items()} == want
    entries = [x for ops in got.values() for m in ops.values() for row in m for x in row]
    assert "1/2" in entries and "1/3" in entries
    assert all(isinstance(x, int) or "/" in x for x in entries)
