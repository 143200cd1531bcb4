"""Job set of the cli workload: short ``python -m mcmkit.cli`` commands.

Set-up writes the JSON inputs (rings, modules, matrix factorizations) into
the output directory and parses each one with ``mcmkit.cli`` before the
first command runs.  Every command runs twice, as two jobs in the seeded
order; the second run of a pair must print byte-identical stdout.  The
children run one at a time and their outputs are checked against the same
closed forms as the in-process workloads.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import checks
from jobs import PLAIN_POOL, catalog_index, pick_modulus


@dataclass
class CliJob:
    name: str
    argv: List[str]
    check: Callable[[str], Optional[str]]  # stdout -> problem or None


def sqrt_minus_one(p: int) -> int:
    return next(a for a in range(2, p) if (a * a + 1) % p == 0)


def curve_ring(n: int, p: int) -> dict:
    return {"char": p, "vars": ["x", "y"], "weights": [n + 1, 2],
            "relations": [f"x^2+y^{n + 1}"]}


def surface_ring(n: int, p: int) -> dict:
    w = [n + 1, n + 1, 2]
    g = gcd(gcd(w[0], w[1]), w[2])
    return {"char": p, "vars": ["x", "y", "z"], "weights": [a // g for a in w],
            "relations": [f"x^2+y^2+z^{n + 1}"]}


def curve_mf(n: int, name: str, p: int):
    """(phi, psi, gen_degs, rel_degs) of a curve factorization of x^2 + y^(n+1)."""
    if name.startswith("I"):
        j = int(name[1:])
        phi = [["x", f"y^{j}"], [f"y^{n + 1 - j}", "-x"]]
        return phi, phi, [0, 2 * j - n - 1], [n + 1, 2 * j]
    i, m = sqrt_minus_one(p), (n + 1) // 2
    plus, minus = [[f"x+{i}*y^{m}"]], [[f"x-{i}*y^{m}"]]
    phi, psi = (plus, minus) if name == "N+" else (minus, plus)
    return phi, psi, [0], [n + 1]


def surface_mf(n: int, name: str, p: int):
    """(phi, psi, gen_degs, rel_degs) of M_j over x^2 + y^2 + z^(n+1)."""
    j = int(name[1:])
    w = surface_ring(n, p)["weights"]
    i = sqrt_minus_one(p)
    u, v = f"x+{i}*y", f"x-{i}*y"
    phi = [[u, f"z^{j}"], [f"z^{n + 1 - j}", f"-({v})"]]
    psi = [[v, f"z^{j}"], [f"z^{n + 1 - j}", f"-({u})"]]
    return phi, psi, [0, w[0] - (n + 1 - j) * w[2]], [w[0], j * w[2]]


def _json_out(problem: Callable[[dict], Optional[str]]):
    def check(stdout: str) -> Optional[str]:
        try:
            data = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        return problem(data)
    return check


def _expect(label, got, want):
    return None if got == want else f"{label}: got {got!r}, expected {want!r}"


def _betti_csv(want):
    def check(stdout: str) -> Optional[str]:
        rows = [line.split(",") for line in stdout.splitlines()[2:]]
        return checks.compare("betti", [int(r[1]) for r in rows], want)
    return check


def _quiver_json(n, dim):
    want = checks.known_ar_quiver(n, dim)

    def problem(data):
        arrows = {(a["from"], a["to"]): a["irr"] for a in data["arrows"]}
        e = {v["name"]: v["e"] for v in data["vertices"]}
        return (_expect("arrows", arrows, want)
                or _expect("e", e, {v: checks.expected_e(v) for v in e}))
    return _json_out(problem)


def _verify_out(stdout: str) -> Optional[str]:
    lines = stdout.splitlines()
    bad = [line for line in lines if not line.startswith("pass  ")]
    return None if lines and not bad else f"verify lines not all pass: {bad or 'none'}"


def build(rng: random.Random, order_rng: random.Random,
          workdir: Path) -> Tuple[List[CliJob], Dict[str, str]]:
    """Write the inputs into workdir; return the seeded jobs and the input files."""
    workdir.mkdir(parents=True, exist_ok=True)
    files = {}

    def write(name, data):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
        files[name] = str(path)
        return str(path)

    def module(tag, n, dim, mname, p):
        ring = (curve_ring if dim == 1 else surface_ring)(n, p)
        phi, psi, gens, rels = (curve_mf if dim == 1 else surface_mf)(n, mname, p)
        ring_path = write(f"{tag}_ring", ring)
        mod = write(tag, {"ring": ring_path, "gen_degs": gens, "rel_degs": rels,
                          "presentation": phi, "label": mname})
        mf = write(f"{tag}_mf", {"ring": {k: ring[k] for k in ("char", "vars", "weights")},
                                 "f": ring["relations"][0], "phi": phi, "psi": psi,
                                 "label": mname})
        return mod, mf, phi == psi, len(phi)

    cmds = []

    def add(name, argv, check):
        cmds.append(CliJob(name, argv, check))

    def mod_of(catalog, mname):
        n, dim = catalog_index(catalog)
        p = pick_modulus(rng, catalog)
        tag = f"A{n}d{dim}_{mname.replace('+', 'p').replace('-', 'm')}_p{p}"
        return (n, dim) + module(tag, n, dim, mname, p)

    # invariants: mu = size, e = ord det(phi), rank = e / e(A) with e(A) = 2
    for catalog, mname in (("ade:A3:dim1", "I1"), ("ade:A3:dim1", "N+"),
                           ("ade:A2:dim2", "M1")):
        n, dim, path, _, _, size = mod_of(catalog, mname)
        e = checks.expected_e(mname)
        want = (size, e, [1, 1] if e == 2 else [1, 2])
        add(f"invariants {catalog}/{mname}", ["invariants", "--module", path],
            _json_out(lambda d, w=want: _expect("mu, e, rank", (d["mu"], d["e"], d["rank"]), w)))
    # dual of a factorization cokernel is the cokernel of the transpose: square, same size
    for catalog, mname in (("ade:A4:dim1", "I2"), ("ade:A3:dim2", "M2")):
        n, dim, path, _, _, size = mod_of(catalog, mname)
        add(f"dual {catalog}/{mname}", ["dual", "--module", path],
            _json_out(lambda d, s=size: _expect(
                "gens, rels", (len(d["dual"]["gen_degs"]), len(d["dual"]["rel_degs"])), (s, s))))
    # period: Syz1 coker(phi) = coker(psi), so period 1 when phi = psi and 2 otherwise
    for catalog, mname in (("ade:A2:dim1", "I1"), ("ade:A3:dim1", "N+"), ("ade:A6:dim1", "I2")):
        n, dim, path, _, same, _ = mod_of(catalog, mname)
        add(f"period {catalog}/{mname}", ["period", "--module", path],
            _json_out(lambda d, s=same: _expect(
                "found, period", (d["found"], d["period"]), (True, 1 if s else 2))))
    # resolve: Tate's series for k and m, constant Betti numbers for an MCM module
    n, dim, path, _, _, size = mod_of("ade:A1:dim2", "M1")
    add("resolve ade:A1:dim2/M1", ["resolve", "--module", path, "-H", "8"],
        _betti_csv([size] * 9))
    ring = write("A4d1_k_ring", curve_ring(4, pick_modulus(rng, "ade:A4:dim1")))
    add("resolve k over A4 curve", ["resolve", "--module",
                                    write("A4d1_k", {"ring": ring, "builtin": "k"}), "-H", "8"],
        _betti_csv(checks.tate_betti(2, 1, 9)))
    ring = write("A3d2_m_ring", surface_ring(3, pick_modulus(rng, "ade:A3:dim2")))
    add("resolve m over A3 surface", ["resolve", "--module",
                                      write("A3d2_m", {"ring": ring, "builtin": "m"}), "-H", "6"],
        _betti_csv(checks.tate_betti(3, 1, 8)[1:]))
    ring = write("ci3_ring", {"char": rng.choice(PLAIN_POOL), "vars": ["x", "y", "z"],
                              "relations": ["x^2", "y^2", "z^2"]})
    add("resolve k over (x^2,y^2,z^2)", ["resolve", "--module",
                                        write("ci3_k", {"ring": ring, "builtin": "k"}), "-H", "6"],
        _betti_csv(checks.tate_betti(3, 3, 7)))
    # mf-validate: catalog factorizations multiply to f Id and are reduced
    for catalog, mname in (("ade:A5:dim1", "I1"), ("ade:A7:dim1", "N-")):
        n, dim, _, mf, _, size = mod_of(catalog, mname)
        add(f"mf-validate {catalog}/{mname}", ["mf-validate", "--mf", mf],
            _json_out(lambda d, s=size: _expect(
                "valid, reduced, size", (d["valid"], d["reduced"], d["size"]), (True, True, s))))
    # support over k[x,y]/(x^2,y^2): cx(k) = codimension 2; A/(x) is 1-periodic, a point
    ring = write("ci2_ring", {"char": rng.choice(PLAIN_POOL), "vars": ["x", "y"],
                              "relations": ["x^2", "y^2"]})
    add("support k over (x^2,y^2)", ["support", "--module",
                                     write("ci2_k", {"ring": ring, "builtin": "k"}), "-H", "8"],
        _json_out(lambda d: _expect("cx", d["cx"], 2)))
    ax = write("ci2_Ax", {"ring": ring, "gen_degs": [0], "rel_degs": [1],
                          "presentation": [["x"]], "label": "A/(x)"})
    add("support A/(x) over (x^2,y^2)", ["support", "--module", ax, "-H", "8"],
        _json_out(lambda d: _expect("cx, is_point", (d["cx"], d["is_point"]), (1, True))))
    # quiver --format json on small catalogs, verify on one
    for catalog in ("ade:A2:dim1", "ade:A3:dim1", "ade:A1:dim2"):
        n, dim = catalog_index(catalog)
        add(f"quiver {catalog}", ["quiver", "--catalog", catalog, "--format", "json",
                                  "--modulus", str(pick_modulus(rng, catalog))],
            _quiver_json(n, dim))
    add("verify ade:A2:dim1", ["verify", "--catalog", "ade:A2:dim1",
                               "--modulus", str(pick_modulus(rng, "ade:A2:dim1"))], _verify_out)

    jobs = [CliJob(f"{c.name} #{run}", c.argv, c.check) for c in cmds for run in (1, 2)]
    order_rng.shuffle(jobs)
    return jobs, files
