"""Batch command-line front end.

Loads ring / module / matrix-factorization descriptions from JSON, runs
one operation, and emits CSV, DOT or JSON artifacts.  Every artifact
records ``--seed``, which no library call reads: every computation is
deterministic, and identical inputs and bounds give byte-identical
output.  Exit codes: 0 success, 1 error, 2 inconclusive (a bounded
search ran out of budget without an answer).

Each command imports the layers it uses when it runs, so a run loads only
what its subcommand needs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .errors import Inconclusive, MCMError, UsageError

if TYPE_CHECKING:
    from .mf import MatrixFactorization
    from .modules import GradedModule
    from .rings import QuotientRing


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------

def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except OSError as exc:
        raise UsageError(f"{path}: {exc}")


def _poly_ring(spec, modulus: Optional[int]):
    """The polynomial ring of a ring description, and the description as a dict."""
    from .rings import WeightedPolyRing

    if isinstance(spec, str):
        spec = _read_json(spec)
    if not isinstance(spec, dict):
        raise UsageError("ring description must be a JSON object")
    char = modulus if modulus is not None else spec.get("char", 7)
    vars_ = spec.get("vars")
    if not vars_:
        raise UsageError("ring description needs a 'vars' list")
    return WeightedPolyRing(char, vars_, spec.get("weights")), spec


def load_ring(spec, modulus: Optional[int] = None) -> QuotientRing:
    R, spec = _poly_ring(spec, modulus)
    return R.quotient(spec.get("relations", []))


def load_module(spec, modulus: Optional[int] = None) -> GradedModule:
    from .modules import GradedModule, free_module, maximal_ideal_module, residue_field_module

    if isinstance(spec, str):
        if spec.startswith("ade:"):
            return _catalog_module(spec, modulus)
        spec = _read_json(spec)
    if not isinstance(spec, dict):
        raise UsageError("module description must be a JSON object")
    ring_spec = spec.get("ring")
    if ring_spec is None:
        raise UsageError("module description needs a 'ring'")
    ring = load_ring(ring_spec, modulus)
    builtin = spec.get("builtin")
    if builtin:
        if builtin == "k":
            return residue_field_module(ring)
        if builtin in ("m", "maximal-ideal"):
            return maximal_ideal_module(ring)
        if builtin in ("A", "free"):
            return free_module(ring, spec.get("gen_degs", [0]), label="A")
        raise UsageError(f"unknown builtin module {builtin!r}")
    try:
        return GradedModule(
            ring,
            spec["gen_degs"],
            spec["rel_degs"],
            spec["presentation"],
            label=spec.get("label", ""),
        )
    except KeyError as exc:
        raise UsageError(f"module description missing field {exc}")


def _catalog_module(ref: str, modulus: Optional[int]) -> GradedModule:
    """Resolve "ade:A3:dim1/I1" to the named catalog cokernel."""
    from .catalog import load_catalog
    from .modules import maximal_ideal_module, residue_field_module

    if "/" not in ref:
        raise UsageError("catalog module reference must look like ade:A3:dim1/I1")
    cat_name, mod_name = ref.split("/", 1)
    cat = load_catalog(cat_name, modulus)
    if mod_name == "A":
        return cat.free_vertex()
    if mod_name == "k":
        return residue_field_module(cat.ring)
    if mod_name == "m":
        return maximal_ideal_module(cat.ring)
    for name, M in cat.modules():
        if name == mod_name:
            return M
    raise UsageError(f"catalog {cat_name} has no module named {mod_name!r}")


def load_mf(spec, modulus: Optional[int] = None) -> MatrixFactorization:
    from .mf import MatrixFactorization

    if isinstance(spec, str):
        spec = _read_json(spec)
    if not isinstance(spec, dict):
        raise UsageError("matrix factorization description must be a JSON object")
    ring_spec = spec.get("ring")
    if ring_spec is None:
        raise UsageError("matrix factorization description needs a 'ring'")
    R, _ = _poly_ring(ring_spec, modulus)
    try:
        return MatrixFactorization(R, spec["f"], spec["phi"], spec["psi"],
                                   label=spec.get("label", ""))
    except KeyError as exc:
        raise UsageError(f"matrix factorization missing field {exc}")


def module_to_json(M: GradedModule) -> dict:
    ring = M.ring
    return {
        "ring": {
            "char": ring.characteristic,
            "vars": list(ring.variables),
            "weights": list(ring.weights),
            "relations": [ring.ambient.poly_to_str(r) for r in ring.relations],
        },
        "label": M.label,
        "gen_degs": list(M.gen_degs),
        "rel_degs": list(M.rel_degs),
        "presentation": [
            [ring.ambient.poly_to_str(e.poly) for e in row] for row in M.presentation
        ],
    }


def mf_to_json(mf: MatrixFactorization) -> dict:
    R = mf.poly_ring
    return {
        "ring": {
            "char": R.characteristic,
            "vars": list(R.variables),
            "weights": list(R.weights),
        },
        "label": mf.label,
        "f": R.ambient.poly_to_str(mf.f.poly),
        "phi": [[R.ambient.poly_to_str(e.poly) for e in row] for row in mf.phi],
        "psi": [[R.ambient.poly_to_str(e.poly) for e in row] for row in mf.psi],
    }


# ---------------------------------------------------------------------------
# artifact emission
# ---------------------------------------------------------------------------

def _emit(text: str, out: Optional[str]):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def emit_json(data, args):
    payload = {"seed": args.seed, **data} if isinstance(data, dict) else data
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)


def emit_csv(header, rows, args):
    lines = [f"# seed={args.seed}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    _emit("\n".join(lines) + "\n", args.out)


def emit_dot(dot_text: str, args):
    _emit(f"// seed={args.seed}\n" + dot_text, args.out)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_resolve(args) -> int:
    from .resolution import resolve

    M = load_module(args.module, args.modulus)
    res = resolve(M, args.hom_bound, degree_cap=args.degree_bound)
    rows = [
        (i, b, " ".join(str(d) for d in degs))
        for i, b, degs in res.betti_table(args.hom_bound)
    ]
    emit_csv(("i", "betti", "gen_degrees"), rows, args)
    return 0


def cmd_syzygy(args) -> int:
    from .functors import syzygy_signed

    return _functor_command(
        args, lambda m: syzygy_signed(m, args.n, degree_cap=args.degree_bound), "module")


def cmd_cosyzygy(args) -> int:
    from .functors import cosyzygy

    return _functor_command(
        args, lambda m: cosyzygy(m, args.n, degree_cap=args.degree_bound), "module")


def _functor_command(args, fn, name: str) -> int:
    M = load_module(args.module, args.modulus)
    out = fn(M)
    emit_json({name: module_to_json(out.minimized())}, args)
    return 0


def cmd_dual(args) -> int:
    from .functors import dual

    return _functor_command(args, lambda m: dual(m, degree_cap=args.degree_bound), "dual")


def cmd_transpose(args) -> int:
    from .functors import transpose

    return _functor_command(args, transpose, "transpose")


def cmd_link(args) -> int:
    from .functors import link

    return _functor_command(args, lambda m: link(m, degree_cap=args.degree_bound), "link")


def cmd_approx(args) -> int:
    from .functors import mcm_approx, stable_part

    M = load_module(args.module, args.modulus)
    X = mcm_approx(M, degree_cap=args.degree_bound)
    stable, frees = stable_part(X)
    emit_json({
        "approximation": module_to_json(X.minimized()),
        "stable_part": module_to_json(stable),
        "free_degrees": frees,
    }, args)
    return 0


def cmd_period(args) -> int:
    from .resolution import detect_period

    M = load_module(args.module, args.modulus)
    got = detect_period(M, p_max=args.p_max, n_max=args.n_max,
                        degree_cap=args.degree_bound)
    if got is None:
        emit_json({"found": False, "p_max": args.p_max, "n_max": args.n_max}, args)
    else:
        emit_json({"found": True, "n0": got[0], "period": got[1]}, args)
    return 0


def cmd_growth(args) -> int:
    from .resolution import growth_report

    M = load_module(args.module, args.modulus)
    rep = growth_report(M, H=args.hom_bound, degree_cap=args.degree_bound,
                        compare_with_k=True)
    emit_json(rep.as_dict(), args)
    return 0


def cmd_invariants(args) -> int:
    from .modules import invariants

    M = load_module(args.module, args.modulus)
    emit_json(invariants(M).as_dict(), args)
    return 0


def cmd_mf_validate(args) -> int:
    mf = load_mf(args.mf, args.modulus)
    emit_json({
        "valid": mf.validate(),
        "reduced": mf.is_reduced(),
        "size": mf.size,
        "f": mf.poly_ring.ambient.poly_to_str(mf.f.poly),
    }, args)
    return 0


def cmd_mf_extract(args) -> int:
    from .mf import from_resolution_tail

    M = load_module(args.module, args.modulus)
    mf, n = from_resolution_tail(M, H=args.hom_bound, degree_cap=args.degree_bound)
    emit_json({"tail_index": n, "mf": mf_to_json(mf)}, args)
    return 0


def cmd_quiver(args) -> int:
    from .catalog import load_catalog
    from .quiver import build_quiver

    cat = load_catalog(args.catalog, args.modulus)
    q = build_quiver(cat)
    if args.format == "dot":
        emit_dot(q.to_dot(), args)
    else:
        data = {
            "catalog": cat.name,
            "modulus": cat.modulus,
            "vertices": [
                {"name": v.name, "free": v.is_free, "mu": v.mu, "e": v.e,
                 "residue_degree": v.residue_degree}
                for v in q.vertices
            ],
            "arrows": [
                {"from": q.vertices[a].name, "to": q.vertices[b].name, "irr": m,
                 "degrees": {str(t): c for t, c in sorted(q.arrow_degrees[(a, b)].items())}}
                for (a, b), m in sorted(
                    q.arrows.items(),
                    key=lambda kv: (q.vertices[kv[0][0]].name, q.vertices[kv[0][1]].name))
            ],
        }
        emit_json(data, args)
    return 0


def cmd_classify(args) -> int:
    from .catalog import load_catalog
    from .quiver import build_quiver, component_classify

    prop, value = args.property, None
    if ":" in prop:
        prop, raw = prop.split(":", 1)
        try:
            value = float(raw) if prop == "curv_leq" else int(raw)
        except ValueError:
            raise UsageError(f"property {prop!r} needs a number, got {raw!r}")
    cat = load_catalog(args.catalog, args.modulus)
    q = build_quiver(cat)
    rep = component_classify(q, prop, value=value,
                             p_max=args.p_max, n_max=args.n_max, H=args.hom_bound)
    emit_json(rep, args)
    return 0


def cmd_ci_operators(args) -> int:
    from .cisupport import CIPresentation, eisenbud_operators

    M = load_module(args.module, args.modulus)
    ci = CIPresentation.from_ring(M.ring)
    ext = eisenbud_operators(ci, M, H=args.hom_bound, degree_cap=args.degree_bound)

    def entry(x):
        # an int, or "n/d" as ``poly_to_str`` writes a fractional coefficient
        return int(x) if x.denominator == 1 else str(x)

    ops = {}
    for j in range(ext.codimension):
        ops[f"t{j + 1}"] = {
            str(n): [[entry(x) for x in row] for row in ext.operator(j, n).numpy().tolist()]
            for n in range(0, max(0, args.hom_bound - 1))
        }
    emit_json({
        "betti": ext.betti[: args.hom_bound + 1],
        "commute": ext.commute_exactly(),
        "operators": ops,
    }, args)
    return 0


def cmd_support(args) -> int:
    from .cisupport import CIPresentation, eisenbud_operators, support_annihilator_window

    M = load_module(args.module, args.modulus)
    ci = CIPresentation.from_ring(M.ring)
    ext = eisenbud_operators(ci, M, H=args.hom_bound, degree_cap=args.degree_bound)
    rep = support_annihilator_window(ext, tdeg_max=args.tdeg_max)
    emit_json(rep.as_dict(), args)
    return 0


def cmd_catalogs(args) -> int:
    from .catalog import catalog_names

    emit_json({"catalogs": catalog_names()}, args)
    return 0


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _suite_symmetry(cat, q):
    from .functors import cosyzygy, dual, link
    from .homs import is_isomorphic
    from .quiver import reverse_iso_check
    from .resolution import syzygy

    checks = []
    for name, M in cat.modules():
        checks.append((f"link_involution[{name}]", is_isomorphic(link(link(M)), M)))
        checks.append((f"double_dual[{name}]", is_isomorphic(dual(dual(M)), M)))
        checks.append((f"cosyzygy_dual_is_link[{name}]",
                       is_isomorphic(cosyzygy(dual(M), 1), link(M))))
        checks.append((f"syz3_is_syz1[{name}]",
                       is_isomorphic(syzygy(M, 3), syzygy(M, 1))))
        if cat.dim == 2:
            checks.append((f"self_linkage[{name}]", is_isomorphic(link(M), M)))
    okD, _ = reverse_iso_check(q, "D")
    okL, _ = reverse_iso_check(q, "lambda")
    checks.append(("reverse_iso_D", okD))
    checks.append(("reverse_iso_lambda", okL))
    return sorted(checks)


def _suite_periodicity(cat, q):
    from .resolution import detect_period

    checks = []
    for name, M in cat.modules():
        got = detect_period(M, p_max=2, n_max=4)
        checks.append((f"period_le_2[{name}]", got is not None and got[1] <= 2))
    return sorted(checks)


def _suite_middle(cat, q):
    from .quiver import middle_term

    checks = []
    fi = q.free_index
    for j, v in enumerate(q.vertices):
        if v.is_free:
            continue
        ar = middle_term(q, v.name)
        ti = q.vertex_index(ar.tau_name)
        checks.append((f"e_additive[{v.name}]",
                       ar.e_middle == v.e + q.vertices[ti].e))
        touches_free = q.arrows.get((fi, j), 0) or q.arrows.get((j, fi), 0)
        if not touches_free:
            checks.append((f"mu_additive[{v.name}]",
                           ar.mu_middle == v.mu + q.vertices[ti].mu))
    return sorted(checks)


def _suite_classify(cat, q):
    from .quiver import component_classify

    checks = []
    for prop, value in (("periodic", None), ("ulrich", None), ("cx_equals", 1)):
        rep = component_classify(q, prop, value=value)
        label = prop if value is None else f"{prop}:{value}"
        checks.append((f"constant[{label}]", rep["all_constant"]))
    return sorted(checks)


_SUITES = {
    "symmetry": _suite_symmetry,
    "periodicity": _suite_periodicity,
    "middle": _suite_middle,
    "classify": _suite_classify,
}


def cmd_verify(args) -> int:
    from .catalog import load_catalog
    from .quiver import build_quiver

    cat = load_catalog(args.catalog, args.modulus)
    q = build_quiver(cat)
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    bad = []
    lines = []
    for sname in names:
        if sname not in _SUITES:
            raise UsageError(f"unknown suite {sname!r}; known: {', '.join(_SUITES)} or 'all'")
        for check, ok in _SUITES[sname](cat, q):
            lines.append(f"{'pass' if ok else 'FAIL'}  {sname}:{check}")
            if not ok:
                bad.append(check)
    text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    if args.out:
        sys.stdout.write(text)
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--modulus", type=int, default=None, help="override the coefficient prime")
    sp.add_argument("--degree-bound", type=int, default=None, dest="degree_bound")
    sp.add_argument("--hom-bound", "-H", type=int, default=12, dest="hom_bound")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("csv", "dot", "json"), default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mcmkit",
        description="exact computations with maximal Cohen-Macaulay modules",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        _add_common(sp)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("resolve", cmd_resolve, help="Betti table of a minimal resolution window")
    sp.add_argument("--module", required=True)
    sp = add("betti", cmd_resolve, help="alias of resolve")
    sp.add_argument("--module", required=True)
    sp = add("syzygy", cmd_syzygy, help="n-th syzygy module")
    sp.add_argument("--module", required=True)
    sp.add_argument("--n", type=int, default=1)
    sp = add("cosyzygy", cmd_cosyzygy, help="n-th cosyzygy module")
    sp.add_argument("--module", required=True)
    sp.add_argument("--n", type=int, default=1)
    for name, fn in (("dual", cmd_dual), ("transpose", cmd_transpose), ("link", cmd_link),
                     ("approx", cmd_approx)):
        sp = add(name, fn, help=f"{name} of a module")
        sp.add_argument("--module", required=True)
    sp = add("period", cmd_period, help="bounded periodicity detection")
    sp.add_argument("--module", required=True)
    sp.add_argument("--p-max", type=int, default=2, dest="p_max")
    sp.add_argument("--n-max", type=int, default=4, dest="n_max")
    sp = add("growth", cmd_growth, help="complexity/curvature growth report")
    sp.add_argument("--module", required=True)
    sp = add("invariants", cmd_invariants, help="mu, length, multiplicity, rank")
    sp.add_argument("--module", required=True)
    sp = add("mf-validate", cmd_mf_validate, help="check phi psi = f Id")
    sp.add_argument("--mf", required=True)
    sp = add("mf-extract", cmd_mf_extract, help="matrix factorization from a resolution tail")
    sp.add_argument("--module", required=True)
    sp = add("quiver", cmd_quiver, help="AR quiver of a shipped catalog")
    sp.add_argument("--catalog", required=True)
    sp = add("classify", cmd_classify, help="component constancy of a property")
    sp.add_argument("--catalog", required=True)
    sp.add_argument("--property", required=True,
                    help="periodic | bounded_nonperiodic | ulrich | cx_equals:N | curv_leq:X")
    sp.add_argument("--p-max", type=int, default=2, dest="p_max")
    sp.add_argument("--n-max", type=int, default=4, dest="n_max")
    sp = add("ci-operators", cmd_ci_operators, help="cohomology operators on Ext(M, k)")
    sp.add_argument("--module", required=True)
    sp = add("support", cmd_support, help="support-variety annihilator window")
    sp.add_argument("--module", required=True)
    sp.add_argument("--tdeg-max", type=int, default=2, dest="tdeg_max")
    sp = add("verify", cmd_verify, help="run a verification suite over a catalog")
    sp.add_argument("--catalog", required=True)
    sp.add_argument("--suite", default="all",
                    help=f"one of: {', '.join(_SUITES)} or 'all'")
    sp = add("catalogs", cmd_catalogs, help="list shipped catalogs")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.format is None:
        args.format = "dot" if args.command == "quiver" else (
            "csv" if args.command in ("resolve", "betti") else "json")
    try:
        if args.hom_bound < 1 or (
                args.degree_bound is not None and args.degree_bound < 1):
            raise UsageError("bounds must be positive")
        return args.fn(args)
    except Inconclusive as exc:
        hint = f"; raise {exc.flag} (now {exc.bound})" if exc.flag else ""
        sys.stderr.write(f"inconclusive: {exc}{hint}\n")
        return 2
    except MCMError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
